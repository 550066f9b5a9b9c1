"""Automata whose outputs form a semigroup and accumulate along a run:

    a . (g1 g2) == (a . g1) . g2                       (state law)
    a * (g1 g2) == (a * g1) ((a . g1) * g2)            (accumulation law)

A pure object (A, X, Y) carries no laws of its own; its word semantics
live in the free extension (``free_extension_out``), and finite semigroup
quotients of that extension are decided exactly by ``quotient_construct``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    CheckReport,
    FiniteSet,
    PureAutomaton,
    SemigroupTable,
    VerificationError,
    Word,
    as_table,
    check_laws,
    evaluate_word,
    unreached,
)


class PureAutomatonSecond(PureAutomaton):
    """A pure automaton whose outputs will later be fed to a semigroup."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SemigroupAutomatonSecond:
    """Input semigroup gamma, output semigroup sigma, accumulation law.

    Shapes are validated here; run ``check_second_axioms`` for the laws.
    """

    states: FiniteSet
    gamma: SemigroupTable
    sigma: SemigroupTable
    next: tuple[tuple[int, ...], ...]
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a, g = self.states.size, self.gamma.order
        object.__setattr__(self, "next", as_table("next", self.next, a, g, a))
        object.__setattr__(self, "out", as_table("out", self.out, a, g, self.sigma.order))


def check_second_axioms(m: SemigroupAutomatonSecond) -> CheckReport:
    """Verify the state and accumulation laws over every (a, g1, g2);
    report the first violation in that order.  The state law is the
    carrier's own, so ``check_laws`` may test g2 on the generators only."""
    return check_laws(m.gamma, m.next, [
        ("state law a.(g1 g2) == (a.g1).g2", m.next, None),
        ("accumulation law a*(g1 g2) == (a*g1)((a.g1)*g2)", m.out, m.sigma)])


def act_letters(m: PureAutomatonSecond, a: int, letters: tuple[int, ...]) -> int:
    """State after reading ``letters`` from state ``a``."""
    for x in letters:
        a = m.next[a][x]
    return a


def free_extension_out(m: PureAutomatonSecond, a: int, u: Word) -> Word:
    """Accumulated output word of the run of ``u`` from ``a``.

    Letter k of the result is the output at the state reached after k
    letters, so for any split u = u1 u2 the result is the output of u1
    followed by the output of u2 from the state u1 leads to.
    """
    if u.alphabet_size != m.inputs.size:
        raise ValueError(f"word over {u.alphabet_size} letters, {m.inputs.size} inputs")
    if not 0 <= a < m.states.size:
        raise ValueError(f"state {a} out of range")
    nxt, out = m.next, m.out
    produced = []
    for x in u.letters:
        produced.append(out[a][x])
        a = nxt[a][x]
    return Word(tuple(produced), m.outputs.size)


@dataclass(frozen=True, slots=True)
class GeneratorHom:
    """A surjective homomorphism from words over an alphabet onto a finite
    semigroup, given by where each letter goes."""

    alphabet_size: int
    target: SemigroupTable
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if self.alphabet_size < 1:
            raise ValueError("alphabet must be non-empty")
        if len(self.assignment) != self.alphabet_size:
            raise ValueError(
                f"{len(self.assignment)} assignments for {self.alphabet_size} letters")
        for x, e in enumerate(self.assignment):
            if not 0 <= e < self.target.order:
                raise ValueError(f"assignment[{x}] = {e} out of range")
        missing = unreached(self.target.array, self.assignment)
        if missing:
            raise ValueError(f"not surjective: elements {missing} unreached")

    def apply(self, w: Word) -> int:
        if w.alphabet_size != self.alphabet_size:
            raise ValueError("alphabet mismatch")
        return evaluate_word(self.target, self.assignment, w)


@dataclass(frozen=True, slots=True)
class QuotientWitness:
    """Two words with the same input-semigroup image whose runs from
    ``state`` disagree, so the quotient is not well defined.

    ``behavior_u`` and ``behavior_v`` are the (final state, output image)
    pairs of the two runs.
    """

    state: int
    u: Word
    v: Word
    behavior_u: tuple[int, int]
    behavior_v: tuple[int, int]

    def describe(self) -> str:
        return (f"words {self.u.letters} and {self.v.letters} share an input image "
                f"but behave as {self.behavior_u} vs {self.behavior_v} from state "
                f"{self.state}")


def quotient_construct(m: PureAutomatonSecond, mu: GeneratorHom, nu: GeneratorHom
                       ) -> SemigroupAutomatonSecond | QuotientWitness:
    """Push the free word semantics of ``m`` down along ``mu`` (inputs) and
    ``nu`` (outputs), if that is well defined.

    Decides exactly, with no length bound: from each start state, walk
    the finite space of (input image, current state, output image)
    triples reachable by words; the quotient exists iff the input image
    always determines the other two coordinates.  Returns the quotient
    automaton, or a witness pair of words showing the clash.
    """
    if mu.alphabet_size != m.inputs.size:
        raise ValueError("mu alphabet does not match the automaton's inputs")
    if nu.alphabet_size != m.outputs.size:
        raise ValueError("nu alphabet does not match the automaton's outputs")
    n_inputs = m.inputs.size
    gamma, sigma = mu.target, nu.target
    mu_a, nu_a = mu.assignment, nu.assignment
    # g_right[g][x] == g mu(x) and s_right[s][y] == s nu(y)
    g_right, s_right = gamma.array[:, mu_a].tolist(), sigma.array[:, nu_a].tolist()
    nxt, out = m.next, m.out
    next_table = []
    out_table = []
    for a0 in range(m.states.size):
        seen: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        queue: deque[tuple[int, int, int, tuple[int, ...]]] = deque()
        for x in range(n_inputs):
            g = mu_a[x]
            a1 = nxt[a0][x]
            s = nu_a[out[a0][x]]
            hit = seen.get(g)
            if hit is None:
                seen[g] = (a1, s, (x,))
                queue.append((g, a1, s, (x,)))
            elif (hit[0], hit[1]) != (a1, s):
                return QuotientWitness(a0, Word(hit[2], n_inputs), Word((x,), n_inputs),
                                       (hit[0], hit[1]), (a1, s))
        while queue:
            g, a1, s, word = queue.popleft()
            for x in range(n_inputs):
                g2 = g_right[g][x]
                a2 = nxt[a1][x]
                s2 = s_right[s][out[a1][x]]
                hit = seen.get(g2)
                if hit is None:
                    w2 = word + (x,)
                    seen[g2] = (a2, s2, w2)
                    queue.append((g2, a2, s2, w2))
                elif (hit[0], hit[1]) != (a2, s2):
                    return QuotientWitness(a0, Word(hit[2], n_inputs),
                                           Word(word + (x,), n_inputs),
                                           (hit[0], hit[1]), (a2, s2))
        # mu is surjective, so every semigroup element was reached
        next_table.append(tuple(seen[g][0] for g in range(gamma.order)))
        out_table.append(tuple(seen[g][1] for g in range(gamma.order)))
    result = SemigroupAutomatonSecond(m.states, gamma, sigma,
                                      tuple(next_table), tuple(out_table))
    report = check_second_axioms(result)
    if not report.ok:
        raise VerificationError(f"quotient failed its own laws: {report.describe()}")
    return result
