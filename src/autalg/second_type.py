"""Automata whose outputs form a semigroup and accumulate along a run:

    a . (g1 g2) == (a . g1) . g2                       (state law)
    a * (g1 g2) == (a * g1) ((a . g1) * g2)            (accumulation law)

A pure object (A, X, Y) carries no laws of its own; its word semantics
live in the free extension (``free_extension_out``), and finite semigroup
quotients of that extension are decided exactly by ``quotient_construct``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CheckReport,
    FiniteSet,
    PureAutomaton,
    SemigroupTable,
    Word,
    _fold_tree,
    _generated_tree,
    _ByValue,
    _frozen,
    _table_array,
    _Tree,
    _tree_word,
    _trusted,
    check_laws,
    evaluate_word,
)


class PureAutomatonSecond(PureAutomaton):
    """A pure automaton whose outputs will later be fed to a semigroup."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class SemigroupAutomatonSecond(_ByValue):
    """Input semigroup gamma, output semigroup sigma, accumulation law.

    Shapes and ranges are validated here; run ``check_second_axioms`` for
    the laws.  ``next`` and ``out`` are stored as read-only narrow arrays,
    as in ``SemigroupAutomatonFirst``.
    """

    states: FiniteSet
    gamma: SemigroupTable
    sigma: SemigroupTable
    next: np.ndarray
    out: np.ndarray

    def __post_init__(self) -> None:
        a, g = self.states.size, self.gamma.order
        object.__setattr__(self, "next", _table_array("next", self.next, a, g, a))
        object.__setattr__(self, "out", _table_array("out", self.out, a, g, self.sigma.order))


def check_second_axioms(m: SemigroupAutomatonSecond) -> CheckReport:
    """Verify the state and accumulation laws over every (a, g1, g2);
    report the first violation in that order.  The state law is the
    carrier's own, so ``check_laws`` may test g2 on the generators only."""
    return check_laws(m.gamma, m.next, [
        ("state law a.(g1 g2) == (a.g1).g2", m.next, None),
        ("accumulation law a*(g1 g2) == (a*g1)((a.g1)*g2)", m.out, m.sigma)])


def free_extension_out(m: PureAutomatonSecond, a: int, u: Word) -> Word:
    """Accumulated output word of the run of ``u`` from ``a``: the output
    map of the free extension.

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
    _tree: _Tree = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_tree", _generated_tree(self.target.array, self.assignment))
        missing = np.flatnonzero(self._tree.letter < 0).tolist()
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

    The behavior of a word w from state a is the pair (a . w, nu of the
    output word), and the quotient exists iff the behavior from every
    state depends on mu(w) alone.  That is decided exactly, with no
    length bound, on mu's breadth-first tree over the columns mu(x) of
    gamma: B[a, g] is the behavior of g's tree word from a, folded from
    every state at once along the tree (``_fold_tree``) through the
    pairs (state, output image or the empty word), and each edge (g, x)
    of gamma's right Cayley graph is checked,

        B[a, g mu(x)] == B[a, g] . x,

    where ". x" reads letter x from that pair, and for the edges leaving
    the empty word, B[a, mu(x)] == (a, empty) . x.  If all edges pass, the
    behavior of every word w from a is B[a, mu(w)], by induction on the
    length of w: for a letter it is the edge from the empty word, and
    for w x it is B[a, mu(w)] . x == B[a, mu(w) mu(x)] == B[a, mu(w x)].
    If an edge fails, the tree word of g mu(x) and the tree word of g
    followed by x share an input image, and the two sides are their true
    behaviors, so the quotient does not exist.

    The tree depends on gamma and mu only, so a per-state breadth-first
    search from a meets the elements in tree order, compares at the
    same edges in the same order, and stops at its first failing one.
    So the witness is the first failing edge of the lowest state, the
    edges taken from the empty word first and then from each element in
    tree order, letters in order.  Returns that witness pair of words,
    or else the quotient automaton, whose state and accumulation laws
    need no further check: mu is surjective, and for any words u and v,
    B[a, mu(u v)] is the run of u v from a, which is the run of u
    followed by the run of v from the state u leads to.  Its tables hold
    states and elements of sigma by construction, so it is built without
    re-validation (``core._trusted``).
    """
    if mu.alphabet_size != m.inputs.size:
        raise ValueError("mu alphabet does not match the automaton's inputs")
    if nu.alphabet_size != m.outputs.size:
        raise ValueError("nu alphabet does not match the automaton's outputs")
    gamma, sigma, tree, n = mu.target, nu.target, mu._tree, m.inputs.size
    mu_a, nu_a, width = np.array(mu.assignment), np.array(nu.assignment), sigma.order + 1
    # pair (a, s) is a * width + s, where s == sigma.order is the empty word
    times = np.vstack([sigma.array, np.arange(sigma.order)])  # s t, or t after the empty word
    moved = times[:, nu_a[np.array(m.out)]].transpose(1, 0, 2)  # [a, s, x] == s nu(a * x)
    right = (np.array(m.next)[:, None] * width + moved).reshape(-1, n)  # [pair, x] == pair . x
    start = np.arange(m.states.size) * width + sigma.order
    behavior, order = _fold_tree(right, start, tree), np.concatenate(tree.levels)
    # edge (e, x) leaves the empty word (e == 0) or element order[e - 1]
    sources = np.hstack([start[:, None], behavior[:, order]])
    targets = np.vstack([mu_a, gamma.array[order[:, None], mu_a]])
    via = right[sources]
    bad = np.argwhere(via != behavior[:, targets])
    if bad.size:
        a, e, x = bad[0].tolist()
        g = int(targets[e, x])
        v = (_tree_word(tree, order[e - 1]) if e else ()) + (x,)
        return QuotientWitness(a, Word(_tree_word(tree, g), n), Word(v, n),
                               divmod(int(behavior[a, g]), width), divmod(int(via[a, e, x]), width))
    next_table, out_table = map(_frozen, np.divmod(behavior, width))
    return _trusted(SemigroupAutomatonSecond, m.states, gamma, sigma, next_table, out_table)
