"""Serial connections of two semiautomata and the word mappings they
induce.

A serial connection feeds the first machine's outputs to the second as
inputs; it is the cascade whose beta is the identity.  Fixing a start
state a turns the connecting table alpha into a map on words,
u |-> output word of the run of u from a.  That map preserves length and
prefixes but is not a homomorphism; when the letter map is a bijection at
every reachable state it is invertible, and ``decode_mapping`` computes
the inverse by peeling one letter at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CheckReport, FiniteSet, NotInvertible, SemigroupTable, Word, _ByValue,
                   _table_array, _trusted, bfs_order, check_laws)
from .first_type import SemigroupAutomatonFirst
from .second_type import PureAutomatonSecond, SemigroupAutomatonSecond, free_extension_out


def semiautomaton(states: FiniteSet, gamma: SemigroupTable,
                  next_table) -> SemigroupAutomatonFirst:
    """A state set with a semigroup action and no observable output."""
    out = tuple((0,) * gamma.order for _ in range(states.size))
    return SemigroupAutomatonFirst(states, gamma, FiniteSet(1), next_table, out)


@dataclass(frozen=True, slots=True, eq=False)
class SerialConnection(_ByValue):
    """Two semiautomata joined by a table alpha: A x Gamma -> Sigma.

    The output semigroup Sigma is the second machine's input semigroup.
    Shapes are validated here; the connecting law

        alpha(a, g1 g2) == alpha(a, g1) alpha(a . g1, g2)

    is checked by ``check_serial``.  ``alpha`` is stored as a read-only
    narrow array, as the components' tables are.
    """

    first: SemigroupAutomatonFirst
    second: SemigroupAutomatonFirst
    alpha: np.ndarray

    def __post_init__(self) -> None:
        if self.first.outputs.size != 1 or self.second.outputs.size != 1:
            raise ValueError("serial components must be semiautomata (one-point outputs)")
        object.__setattr__(self, "alpha", _table_array(
            "alpha", self.alpha, self.first.states.size, self.first.gamma.order,
            self.second.gamma.order))

    @property
    def sigma(self) -> SemigroupTable:
        return self.second.gamma


def check_serial(s: SerialConnection) -> CheckReport:
    """Verify the connecting law of alpha over every (a, g1, g2); report
    the first violation in that order.

    ``check_laws`` tests g2 on the generators of the first machine's
    semigroup only when the first machine's table is an action, which it
    checks on the generators too.  The components' own laws are not
    reported here: a connecting law that holds everywhere passes even
    over a first machine that is not an action, and one that fails is
    found by a full scan.  On a non-action a generator-only check can
    pass a failing law: with Gamma = Z3 generated by element 0 (product
    (i + j + 1) mod 3), next = [[1, 0, 1], [0, 1, 1]], Sigma = Z2 with
    identity 1 and alpha = [[1, 0, 0], [0, 0, 1]], the law holds
    whenever g2 == 0 but fails at (0, 1, 2).
    """
    return check_laws(s.first.gamma, s.first.next, [
        ("connecting law alpha(a, g1 g2) == alpha(a, g1) alpha(a.g1, g2)",
         s.alpha, s.sigma)])


def serial_action(s: SerialConnection, a: int, b: int, g: int) -> tuple[int, int]:
    """One step of the serial connection's joint action on A x B:
    (a, b) . g == (a . g, b . alpha(a, g))."""
    if not 0 <= a < s.first.states.size:
        raise ValueError(f"first state {a} out of range")
    if not 0 <= b < s.second.states.size:
        raise ValueError(f"second state {b} out of range")
    if not 0 <= g < s.first.gamma.order:
        raise ValueError(f"element {g} out of range")
    return int(s.first.next[a, g]), int(s.second.next[b, s.alpha[a, g]])


def derive_second_type(s: SerialConnection) -> SemigroupAutomatonSecond:
    """The accumulating automaton a serial connection computes: states and
    action from the first machine, outputs in Sigma via alpha.  Both
    tables were validated with the connection, so they are not again."""
    return _trusted(SemigroupAutomatonSecond, s.first.states, s.first.gamma, s.sigma,
                    s.first.next, s.alpha)


def serial_from_second(m: SemigroupAutomatonSecond) -> SerialConnection:
    """View an accumulating automaton as a serial connection, with Sigma
    acting on itself by right multiplication."""
    first = semiautomaton(m.states, m.gamma, m.next)
    second = semiautomaton(FiniteSet(m.sigma.order), m.sigma, m.sigma.array)
    return SerialConnection(first, second, m.out)


@dataclass(frozen=True, slots=True)
class AutomatonMapping:
    """An automaton mapping: a letter-to-word machine pinned at a start
    state, sending each input word to the output word of its run."""

    base: PureAutomatonSecond
    state: int

    def __post_init__(self) -> None:
        if not 0 <= self.state < self.base.states.size:
            raise ValueError(f"state {self.state} out of range")


def apply_mapping(f: AutomatonMapping, u: Word) -> Word:
    """The image of ``u`` under the automaton mapping: length-preserving and
    prefix-compatible, but not a homomorphism of words in general."""
    return free_extension_out(f.base, f.state, u)


def _letter_inverses(base: PureAutomatonSecond, start: int) -> tuple[tuple[int, ...] | None, ...]:
    """Per-state inverse letter maps, or raise at the first reachable state
    whose letter map is not a bijection."""
    if base.inputs.size != base.outputs.size:
        raise NotInvertible(start, f"letter map at state {start} cannot be a bijection: "
                            f"{base.inputs.size} inputs vs {base.outputs.size} outputs")
    inverses: list[tuple[int, ...] | None] = [None] * base.states.size
    for a in sorted(bfs_order(base.next, start)):
        inv = [-1] * base.outputs.size
        for x in range(base.inputs.size):
            y = base.out[a][x]
            if inv[y] != -1:
                raise NotInvertible(a, f"letter map at state {a} is not a bijection: "
                                    f"inputs {inv[y]} and {x} both give output {y}")
            inv[y] = x
        inverses[a] = tuple(inv)
    return tuple(inverses)


def decode_mapping(f: AutomatonMapping, w: Word) -> Word:
    """The inverse automaton mapping: the unique input word mapping to
    ``w``, found prefix by prefix.

    Requires the letter map to be a bijection at every state reachable
    from f.state (NotInvertible reports the first offender).
    """
    if w.alphabet_size != f.base.outputs.size:
        raise ValueError(f"word over {w.alphabet_size} letters, "
                         f"{f.base.outputs.size} outputs")
    inverses = _letter_inverses(f.base, f.state)
    a = f.state
    nxt = f.base.next
    letters = []
    for y in w.letters:
        x = inverses[a][y]
        letters.append(x)
        a = nxt[a][x]
    return Word(tuple(letters), f.base.inputs.size)
