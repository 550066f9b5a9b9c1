"""Automata whose outputs carry no algebra: a run's observable output is
the output of its final step only.

A pure automaton acts by input letters; a semigroup automaton acts by a
semigroup whose product folds into the action, subject to

    a . (g1 g2) == (a . g1) . g2          (state law)
    a * (g1 g2) == (a . g1) * g2          (output law)

Every pure automaton induces a faithful semigroup automaton through the
universal pair semigroup S_A x Fun(A,B): see ``semigroupify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_CAP,
    CheckReport,
    FiniteSet,
    FunMap,
    PairElement,
    PureAutomaton,
    SemigroupTable,
    Transformation,
    VerificationError,
    Word,
    _trusted,
    as_table,
    check_laws,
    close_generators,
    multiply_pair,  # noqa: F401  re-exported: the bench tracer wraps it here
)


class PureAutomatonFirst(PureAutomaton):
    """A pure automaton whose runs output their final step only."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SemigroupAutomatonFirst:
    """An automaton acted on by a semigroup, with final-output semantics.

    Construction validates shapes only; run ``check_first_axioms`` to
    verify the action laws (constructors in this package guarantee them,
    hand-built tables may not).
    """

    states: FiniteSet
    gamma: SemigroupTable
    outputs: FiniteSet
    next: tuple[tuple[int, ...], ...]
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a, g = self.states.size, self.gamma.order
        object.__setattr__(self, "next", as_table("next", self.next, a, g, a))
        object.__setattr__(self, "out", as_table("out", self.out, a, g, self.outputs.size))


def check_first_axioms(m: SemigroupAutomatonFirst) -> CheckReport:
    """Verify both action laws over every (a, g1, g2); report the first
    violation in that order.  The state law is the carrier's own, so
    ``check_laws`` may test g2 on the generators only."""
    return check_laws(m.gamma, m.next, [
        ("state law a.(g1 g2) == (a.g1).g2", m.next, None),
        ("output law a*(g1 g2) == (a.g1)*g2", m.out, None)])


def to_universal(m: PureAutomatonFirst) -> tuple[PairElement, ...]:
    """The map input -> (sigma_x, phi_x) into the universal pair semigroup
    S_A x Fun(A,B) that reads each input's transition and output columns
    off the tables."""
    pairs = []
    for x in range(m.inputs.size):
        sigma = Transformation(tuple(m.next[a][x] for a in range(m.states.size)))
        phi = FunMap(tuple(m.out[a][x] for a in range(m.states.size)), m.outputs.size)
        pairs.append(PairElement(sigma, phi))
    return tuple(pairs)


def multiply_flat(a: int, e: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """``multiply_pair`` on pairs over ``a`` states written flat as
    (sigma(0), .., sigma(a-1), phi(0), .., phi(a-1)):
    (s1, p1)(s2, p2) = (s1 s2, s1 p2), applying s1 first."""
    sigma = e[:a]
    return tuple([g[i] for i in sigma] + [g[a + i] for i in sigma])


def semigroupify(m: PureAutomatonFirst, cap: int = DEFAULT_CAP) -> SemigroupAutomatonFirst:
    """Close the universal images of the inputs inside S_A x Fun(A,B) and
    read the actions off the closure.

    The result is faithful by construction: table elements literally are
    distinct pair elements, and distinct pairs act distinctly.  Input
    letter x corresponds to generator position x of the result's
    semigroup (``gamma.generators[x]``).

    The closure runs over flat int tuples (see ``multiply_flat``) rather
    than ``PairElement`` objects.  The codomain B is fixed, so two flat
    tuples are equal exactly when their pairs are: the elements, their
    order and the table are those of closing ``to_universal(m)`` under
    ``multiply_pair``.

    The closure's table is exactly the pair product table.  Only its
    generator columns are checked, for all states in one comparison:
    for every state a and generator g, ``nxt[a][T[:, g]] ==
    nxt[nxt[a]][g]`` and ``out[a][T[:, g]] == out[nxt[a]][g]`` say that
    element T[x, g] has the state and output columns of the pair product
    of x and g, and distinct elements have distinct columns.  The rest
    follows: ``close_generators`` fills T[x, j] = T[T[x, p(j)], g(j)] along its
    tree, g(j) being the generator of j's last letter, and j was found
    as T[p(j), g(j)], so j is the pair product p(j) g(j).  By induction
    along the tree and associativity of the pair product,
    T[x, j] == (x p(j)) g(j) == x (p(j) g(j)) == x j.
    VerificationError, naming the lowest failing state, is raised
    otherwise.  The action laws hold in the pair product, so the result
    is built without re-validation (``core._trusted``).
    """
    size = m.states.size
    gens = [sigma + phi for sigma, phi in zip(zip(*m.next), zip(*m.out))]
    closure = close_generators(gens, partial(multiply_flat, size), cap)
    nxt, out = np.split(np.array(closure.elements, dtype=np.intp).T, [size])
    cols = list(closure.table.generators)
    product = closure.table.array[:, cols]
    wrong = ((nxt[:, product] != nxt[:, cols][nxt])
             | (out[:, product] != out[:, cols][nxt])).any(axis=(1, 2))
    if wrong.any():
        raise VerificationError(
            f"closure table differs from the pair product at state {wrong.argmax()}")
    return _trusted(SemigroupAutomatonFirst, m.states, closure.table, m.outputs,
                    tuple(map(tuple, nxt.tolist())), tuple(map(tuple, out.tolist())))


class Run(NamedTuple):
    state: int
    output: int


def act_word(m: PureAutomatonFirst | SemigroupAutomatonFirst, a: int, w: Word) -> Run:
    """Fold the action over a word; the output is the final step's only.

    For a pure automaton the letters index inputs; for a semigroup
    automaton they index generator positions of ``gamma``.
    """
    if isinstance(m, SemigroupAutomatonFirst):
        gens = m.gamma.generators
        if gens is None:
            raise ValueError("semigroup automaton has no generator list")
        if w.alphabet_size != len(gens):
            raise ValueError(f"word over {w.alphabet_size} letters, {len(gens)} generators")
        letters = [gens[letter] for letter in w.letters]
    else:
        if w.alphabet_size != m.inputs.size:
            raise ValueError(f"word over {w.alphabet_size} letters, {m.inputs.size} inputs")
        letters = list(w.letters)
    if not 0 <= a < m.states.size:
        raise ValueError(f"state {a} out of range")
    for letter in letters[:-1]:
        a = m.next[a][letter]
    last = letters[-1]
    return Run(m.next[a][last], m.out[a][last])
