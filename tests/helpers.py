"""Shared generators and independent oracles for the test suite.

Everything here stays deliberately naive: oracles recompute expected
values by brute force (word enumeration, direct arithmetic, raw table
scans) so they cannot share a bug with the code under test.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random

from autalg import (
    Closure,
    FiniteSet,
    MealyElement,
    MealyMachine,
    PureAutomatonFirst,
    PureAutomatonSecond,
    SemigroupTable,
    Transformation,
    Word,
    all_words,
    close_generators,
    compose_transformations,
    element_apply,
)


# --- random objects ---------------------------------------------------

def random_transformation(rng: Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def random_pure_first(rng: Random, a: int, x: int, b: int) -> PureAutomatonFirst:
    nxt = tuple(tuple(rng.randrange(a) for _ in range(x)) for _ in range(a))
    out = tuple(tuple(rng.randrange(b) for _ in range(x)) for _ in range(a))
    return PureAutomatonFirst(FiniteSet(a), FiniteSet(x), FiniteSet(b), nxt, out)


def random_pure_second(rng: Random, a: int, x: int, y: int) -> PureAutomatonSecond:
    nxt = tuple(tuple(rng.randrange(a) for _ in range(x)) for _ in range(a))
    out = tuple(tuple(rng.randrange(y) for _ in range(x)) for _ in range(a))
    return PureAutomatonSecond(FiniteSet(a), FiniteSet(x), FiniteSet(y), nxt, out)


def random_closure(rng: Random, n_generators: int, max_order: int,
                   points: int = 3, tries: int = 200) -> Closure:
    """A semigroup of order <= max_order generated by random transformations,
    as a closure (so the letter -> element assignment is surjective by
    construction)."""
    from autalg import CapExceeded

    for _ in range(tries):
        gens = [random_transformation(rng, points) for _ in range(n_generators)]
        try:
            closure = close_generators(gens, compose_transformations, cap=max_order)
        except CapExceeded:
            continue
        return closure
    raise AssertionError("could not sample a small enough semigroup")


def random_mealy(rng: Random, states: int, alphabet: int,
                 invertible: bool) -> MealyMachine:
    nxt = tuple(tuple(rng.randrange(states) for _ in range(alphabet))
                for _ in range(states))
    if invertible:
        rows = []
        for _ in range(states):
            perm = list(range(alphabet))
            rng.shuffle(perm)
            rows.append(tuple(perm))
        out = tuple(rows)
    else:
        out = tuple(tuple(rng.randrange(alphabet) for _ in range(alphabet))
                    for _ in range(states))
    return MealyMachine(states, alphabet, nxt, out)


# --- independent oracles ----------------------------------------------

def word_to_int(w: Word) -> int:
    """Least-significant-letter-first binary value."""
    return sum(bit << i for i, bit in enumerate(w.letters))


def int_to_word(value: int, length: int) -> Word:
    return Word(tuple((value >> i) & 1 for i in range(length)), 2)


def plus_k_oracle(w: Word, k: int) -> Word:
    """Add k modulo 2**len(w) on least-significant-bit-first words."""
    return int_to_word((word_to_int(w) + k) % (1 << len(w)), len(w))


def words_agree_to_depth(e1: MealyElement, e2: MealyElement, depth: int) -> bool:
    """Literal enumeration: run both elements on every word up to the
    depth and compare the outputs."""
    for w in all_words(e1.machine.alphabet, depth):
        if element_apply(e1, w) != element_apply(e2, w):
            return False
    return True


def naive_closure_table(elements, multiply) -> tuple[tuple[int, ...], ...]:
    """The n^2 table of ``multiply`` over a closure's elements, one call
    per cell."""
    elements = list(elements)
    return tuple(tuple(elements.index(multiply(x, y)) for y in elements)
                 for x in elements)


def is_generated_by(table: tuple[tuple[int, ...], ...], gens) -> bool:
    """Every element is a generator or a product e g of a reached element
    and a generator."""
    reached = set(gens)
    while True:
        grown = reached | {table[e][g] for e in reached for g in gens}
        if grown == reached:
            return len(reached) == len(table)
        reached = grown


def wreath_table_oracle(g1: SemigroupTable, points: int,
                        action: tuple[tuple[int, ...], ...],
                        g2: SemigroupTable) -> tuple[tuple[int, ...], ...]:
    """The wreath table straight from (f, s)(f', s') == (a |-> f(a) f'(a.s), s s'),
    over pairs (f, s) listed with f lexicographic and s fastest."""
    elements = [(f, s) for f in itertools.product(range(g1.order), repeat=points)
                for s in range(g2.order)]
    rank = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(rank[(tuple(g1.product[f[a]][f2[action[a][s]]] for a in range(points)),
                    g2.product[s][s2])]
              for f2, s2 in elements)
        for f, s in elements)


# --- exhaustive small-structure catalogues ------------------------------

def _is_associative(table: tuple[tuple[int, ...], ...]) -> bool:
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return False
    return True


def _canonical_form(table: tuple[tuple[int, ...], ...]) -> tuple:
    n = len(table)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        relabeled = tuple(tuple(perm[table[inv[i]][inv[j]]] for j in range(n))
                          for i in range(n))
        if best is None or relabeled < best:
            best = relabeled
    return best


@lru_cache(maxsize=None)
def semigroups_up_to_iso(order: int) -> tuple[SemigroupTable, ...]:
    """One representative per isomorphism class of semigroups of the
    given order, found by filtering every table."""
    seen = set()
    reps = []
    for flat in itertools.product(range(order), repeat=order * order):
        table = tuple(tuple(flat[i * order:(i + 1) * order]) for i in range(order))
        if not _is_associative(table):
            continue
        canon = _canonical_form(table)
        if canon not in seen:
            seen.add(canon)
            reps.append(SemigroupTable(order, canon))
    return tuple(reps)


def all_actions(table: SemigroupTable, set_size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every table action: set_size x order -> set_size satisfying
    a.(g g') == (a.g).g'."""
    n, k = set_size, table.order
    found = []
    for flat in itertools.product(range(n), repeat=n * k):
        action = tuple(tuple(flat[a * k:(a + 1) * k]) for a in range(n))
        ok = True
        for a in range(n):
            for g in range(k):
                moved = action[a][g]
                for h in range(k):
                    if action[a][table.product[g][h]] != action[moved][h]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(action)
    return tuple(found)
