"""Shared generators and independent oracles for the test suite.

Everything here stays deliberately naive: oracles recompute expected
values by brute force (word enumeration, direct arithmetic, raw table
scans) so they cannot share a bug with the code under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections import deque
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import Callable, Iterator

import numpy as np

from autalg import (
    Closure,
    FiniteSet,
    FunMap,
    GeneratorHom,
    MealyElement,
    MealyMachine,
    PureAutomatonFirst,
    PureAutomatonSecond,
    QuotientWitness,
    SemigroupAutomatonFirst,
    SemigroupAutomatonSecond,
    SemigroupTable,
    Transformation,
    VerificationError,
    Word,
    WreathElement,
    check_second_axioms,
    check_semigroup_triple_morphism,
    close_generators,
    compose_transformations,
    element_apply,
    element_compose,
    identity_element,
    multiply_pair,
    semiautomaton,
    to_universal,
    wreath_triple,
)
from autalg.core import _index_dtype, as_table, bfs_order
from autalg.schema import SchemaError, _expect, _int_table, dumps, load_object


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


# --- naive enumerators -----------------------------------------------

def identity_transformation(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def all_transformations(n: int) -> Iterator[Transformation]:
    """All n^n self-maps of {0, .., n-1}, in lexicographic order."""
    for image in itertools.product(range(n), repeat=n):
        yield Transformation(image)


def all_funmaps(domain_size: int, codomain_size: int) -> Iterator[FunMap]:
    for image in itertools.product(range(codomain_size), repeat=domain_size):
        yield FunMap(image, codomain_size)


def all_words(alphabet_size: int, max_len: int) -> Iterator[Word]:
    """All words of length 1..max_len in shortlex order."""
    for length in range(1, max_len + 1):
        for letters in itertools.product(range(alphabet_size), repeat=length):
            yield Word(letters, alphabet_size)


def kernel_classes(alphabet_size: int, words_up_to: int,
                   eval_word: Callable[[Word], int]) -> dict[int, list[Word]]:
    """Group all words of length <= words_up_to by their image under
    ``eval_word``; two words land in one class iff the homomorphism
    identifies them."""
    classes: dict[int, list[Word]] = {}
    for w in all_words(alphabet_size, words_up_to):
        classes.setdefault(eval_word(w), []).append(w)
    return classes


def act_letters(m: PureAutomatonSecond, a: int, letters: tuple[int, ...]) -> int:
    """State after reading ``letters`` from state ``a``."""
    for x in letters:
        a = m.next[a][x]
    return a


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


def semigroupify_oracle(m: PureAutomatonFirst) -> SemigroupAutomatonFirst:
    """``semigroupify`` rebuilt on ``PairElement`` objects: close the
    universal images under ``multiply_pair`` and read each state's
    action off every element, one call per entry."""
    closure = close_generators(to_universal(m), multiply_pair)
    states = range(m.states.size)
    nxt = tuple(tuple(e.sigma(a) for e in closure.elements) for a in states)
    out = tuple(tuple(e.phi(a) for e in closure.elements) for a in states)
    return SemigroupAutomatonFirst(m.states, closure.table, m.outputs, nxt, out)


def right_closure_oracle(table: tuple[tuple[int, ...], ...], gens) -> set[int]:
    """The generators and every product e g of a reached element and a
    generator, grown to a fixed point."""
    reached = set(gens)
    while True:
        grown = reached | {table[e][g] for e in reached for g in gens}
        if grown == reached:
            return reached
        reached = grown


def is_generated_by(table: tuple[tuple[int, ...], ...], gens) -> bool:
    return len(right_closure_oracle(table, gens)) == len(table)


def greedy_generators_oracle(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Each index, in order, joins the generators unless the closure of
    the generators so far already holds it."""
    gens: list[int] = []
    for i in range(len(table)):
        if i not in right_closure_oracle(table, gens):
            gens.append(i)
    return tuple(gens)


def wreath_table_oracle(g1: SemigroupTable, points: int,
                        action: tuple[tuple[int, ...], ...],
                        g2: SemigroupTable) -> tuple[tuple[int, ...], ...]:
    """The wreath table straight from (f, s)(f', s') == (a |-> f(a) f'(a.s), s s'),
    over pairs (f, s) listed with f lexicographic and s fastest."""
    elements = [(f, s) for f in itertools.product(range(g1.order), repeat=points)
                for s in range(g2.order)]
    rank = {e: i for i, e in enumerate(elements)}
    prod1, prod2 = g1.product, g2.product
    return tuple(
        tuple(rank[(tuple(prod1[f[a]][f2[action[a][s]]] for a in range(points)),
                    prod2[s][s2])]
              for f2, s2 in elements)
        for f, s in elements)


def embed_oracle(t, w) -> tuple[int, ...]:
    """The canonical map g |-> (a2 |-> alpha(a2, g), beta(g)) into a built
    wreath product, checked against its full table: the wreath elements
    are pairwise distinct, each image sits at its rank, and the map is a
    morphism onto the wreath triple.  Any failure raises
    VerificationError, as it does for an invalid triple."""
    n_a2 = w.a2.size
    alpha, beta = t.alpha.tolist(), t.beta.tolist()
    if len(alpha) != n_a2:
        raise ValueError(f"alpha has {len(alpha)} state rows, wreath expects {n_a2}")
    as_table("alpha", alpha, n_a2, t.gamma.order, w.g1.order)
    as_table("beta", (beta,), 1, t.gamma.order, w.g2.order)
    images = [WreathElement(tuple(alpha[a2][g] for a2 in range(n_a2)), beta[g])
              for g in range(t.gamma.order)]
    phi = tuple(w.index(e) for e in images)
    if len(set(w.elements)) != len(w.elements):
        raise VerificationError("wreath elements are not pairwise distinct")
    for g, e in enumerate(images):
        if w.elements[phi[g]] != e:
            matches = [i for i, f in enumerate(w.elements) if f == e]
            raise VerificationError(
                f"diagram-compatible images of element {g} are {matches}, "
                f"expected exactly [{phi[g]}]")
    morphism = check_semigroup_triple_morphism(t, wreath_triple(w), phi)
    if not morphism.ok:
        raise VerificationError(f"canonical map is not a triple morphism: "
                                f"{morphism.describe()}")
    return phi


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


def light_witness_reference(product: np.ndarray,
                            gens) -> tuple[int, int, int] | None:
    """Light's test as it ran on whole ``np.intp`` tables, one n x n
    comparison per generator: the reference for the blocked test on
    narrow tables."""
    for g in gens:
        left = product[product[:, g]]   # left[x, y]  = (x g) y
        right = product[:, product[g]]  # right[x, y] = x (g y)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            return int(x), g, int(y)
    return None


def light_witness_oracle(table: tuple[tuple[int, ...], ...],
                         gens) -> tuple[int, int, int] | None:
    """The first (x, g, y), g in ``gens`` then x then y in order, with
    (x g) y != x (g y), by one lookup pair per triple; over every element
    as ``gens`` this is the O(n^3) associativity scan."""
    n = len(table)
    for g in gens:
        for x in range(n):
            for y in range(n):
                if table[table[x][g]][y] != table[x][table[g][y]]:
                    return x, g, y
    return None


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
    prod = table.product
    found = []
    for flat in itertools.product(range(n), repeat=n * k):
        action = tuple(tuple(flat[a * k:(a + 1) * k]) for a in range(n))
        ok = True
        for a in range(n):
            for g in range(k):
                moved = action[a][g]
                for h in range(k):
                    if action[a][prod[g][h]] != action[moved][h]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(action)
    return tuple(found)


# --- law oracles: the plain triple loops ----------------------------------
#
# Each returns (ok, law, witness, lhs, rhs) for the first violation in
# the order a, then g1, then g2, with the laws of one instance in the
# order given, or (True, "", (), None, None).

PASSED = (True, "", (), None, None)


def first_axioms_oracle(m) -> tuple:
    nxt, out, prod = m.next, m.out, m.gamma.product
    for a in range(m.states.size):
        for g1 in range(m.gamma.order):
            a1 = nxt[a][g1]
            for g2 in range(m.gamma.order):
                g12 = prod[g1][g2]
                if nxt[a][g12] != nxt[a1][g2]:
                    return (False, "state law a.(g1 g2) == (a.g1).g2", (a, g1, g2),
                            nxt[a][g12], nxt[a1][g2])
                if out[a][g12] != out[a1][g2]:
                    return (False, "output law a*(g1 g2) == (a.g1)*g2", (a, g1, g2),
                            out[a][g12], out[a1][g2])
    return PASSED


def second_axioms_oracle(m) -> tuple:
    nxt, out = m.next, m.out
    gprod, sprod = m.gamma.product, m.sigma.product
    for a in range(m.states.size):
        for g1 in range(m.gamma.order):
            a1 = nxt[a][g1]
            for g2 in range(m.gamma.order):
                g12 = gprod[g1][g2]
                if nxt[a][g12] != nxt[a1][g2]:
                    return (False, "state law a.(g1 g2) == (a.g1).g2", (a, g1, g2),
                            nxt[a][g12], nxt[a1][g2])
                rhs = sprod[out[a][g1]][out[a1][g2]]
                if out[a][g12] != rhs:
                    return (False, "accumulation law a*(g1 g2) == (a*g1)((a.g1)*g2)",
                            (a, g1, g2), out[a][g12], rhs)
    return PASSED


def serial_oracle(s) -> tuple:
    nxt, alpha = s.first.next, s.alpha
    gprod, sprod = s.first.gamma.product, s.second.gamma.product
    for a in range(s.first.states.size):
        for g1 in range(s.first.gamma.order):
            for g2 in range(s.first.gamma.order):
                lhs = alpha[a][gprod[g1][g2]]
                rhs = sprod[alpha[a][g1]][alpha[nxt[a][g1]][g2]]
                if lhs != rhs:
                    return (False,
                            "connecting law alpha(a, g1 g2) == alpha(a, g1) alpha(a.g1, g2)",
                            (a, g1, g2), lhs, rhs)
    return PASSED


def homomorphism_oracle(table: SemigroupTable, image, target: SemigroupTable,
                        law: str) -> tuple:
    prod, target_prod = table.product, target.product
    for g1 in range(table.order):
        for g2 in range(table.order):
            lhs = image[prod[g1][g2]]
            rhs = target_prod[image[g1]][image[g2]]
            if lhs != rhs:
                return (False, law, (g1, g2), lhs, rhs)
    return PASSED


def triple_oracle(t, m1, m2) -> tuple:
    found = homomorphism_oracle(t.gamma, t.beta, m2.gamma, "beta homomorphism")
    if not found[0]:
        return found
    prod, p1 = t.gamma.product, m1.gamma.product
    for a2 in range(m2.states.size):
        for g1 in range(t.gamma.order):
            moved = m2.next[a2][t.beta[g1]]
            for g2 in range(t.gamma.order):
                lhs = t.alpha[a2][prod[g1][g2]]
                rhs = p1[t.alpha[a2][g1]][t.alpha[moved][g2]]
                if lhs != rhs:
                    return (False, "crossed law alpha(a2, g1 g2) == "
                            "alpha(a2, g1) alpha(a2.beta(g1), g2)", (a2, g1, g2), lhs, rhs)
    return PASSED


def triple_morphism_oracle(t, t2, mu) -> tuple:
    found = homomorphism_oracle(t.gamma, mu, t2.gamma, "mu homomorphism")
    if not found[0]:
        return found
    for g in range(t.gamma.order):
        if t.beta[g] != t2.beta[mu[g]]:
            return (False, "beta == beta' . mu", (g,), t.beta[g], t2.beta[mu[g]])
        for a2 in range(len(t.alpha)):
            if t.alpha[a2][g] != t2.alpha[a2][mu[g]]:
                return (False, "alpha == alpha' . mu", (a2, g),
                        t.alpha[a2][g], t2.alpha[a2][mu[g]])
    return PASSED


def action_oracle(action, table: SemigroupTable) -> tuple[int, int, int] | None:
    """The first (a, s, s2) with a.(s s2) != (a.s).s2, or None."""
    prod = table.product
    for a in range(len(action)):
        for s in range(table.order):
            for s2 in range(table.order):
                if action[a][prod[s][s2]] != action[action[a][s]][s2]:
                    return a, s, s2
    return None


def as_table_oracle(name: str, table, rows: int, cols: int, bound: int):
    """The entry-by-entry table check: the normalized table, or the
    ValueError message naming the first bad row or entry."""
    if len(table) != rows:
        return f"{name}: expected {rows} rows, got {len(table)}"
    norm = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != cols:
            return f"{name}[{i}]: expected {cols} entries, got {len(row)}"
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < bound:
                return f"{name}[{i}][{j}] = {v!r} out of range 0..{bound - 1}"
        norm.append(row)
    return tuple(norm)


def smallest_generating_set(table: SemigroupTable) -> tuple[int, ...]:
    """A generating set of least size, the first in lexicographic order."""
    for size in range(1, table.order + 1):
        for gens in itertools.combinations(range(table.order), size):
            if is_generated_by(table.product, gens):
                return gens
    raise AssertionError("unreachable: the whole table generates itself")


# --- letter machines: whole-machine refinement, and the kernels the
# fused power step and integer-signature rounds replaced --------------

def union_blocks_oracle(machines) -> list[list[int]]:
    """Moore's refinement over the disjoint union of all the machines'
    states, unreachable ones included; block ids by first occurrence."""
    offsets = []
    nxt: list[tuple[int, ...]] = []
    out: list[tuple[int, ...]] = []
    for m in machines:
        offsets.append(len(nxt))
        for q in range(m.states):
            nxt.append(tuple(v + offsets[-1] for v in m.next[q]))
            out.append(m.out[q])
    keys: dict[tuple, int] = {}
    block = [keys.setdefault(row, len(keys)) for row in out]
    while True:
        keys = {}
        refined = [keys.setdefault((block[q],) + tuple(block[v] for v in nxt[q]), len(keys))
                   for q in range(len(nxt))]
        if refined == block:
            break
        block = refined
    return [block[offsets[i]:offsets[i] + m.states] for i, m in enumerate(machines)]


def equal_oracle(e1: MealyElement, e2: MealyElement) -> bool:
    """Equality of mappings: are the initial states bisimilar in the
    union of the two machines?"""
    b1, b2 = union_blocks_oracle([e1.machine, e2.machine])
    return b1[e1.initial] == b2[e2.initial]


def minimize_oracle(e: MealyElement) -> MealyElement:
    """Refine the whole machine, then keep the blocks reachable from the
    initial state, numbered in breadth-first order of their first
    representatives."""
    m = e.machine
    block = union_blocks_oracle([m])[0]
    reach = [e.initial]
    for q in reach:
        for x in range(m.alphabet):
            if m.next[q][x] not in reach:
                reach.append(m.next[q][x])
    renumber: dict[int, int] = {}
    rep: dict[int, int] = {}
    for q in reach:
        if block[q] not in renumber:
            renumber[block[q]] = len(renumber)
            rep[renumber[block[q]]] = q
    nxt = tuple(tuple(renumber[block[v]] for v in m.next[rep[i]]) for i in range(len(rep)))
    out = tuple(m.out[rep[i]] for i in range(len(rep)))
    return MealyElement(MealyMachine(len(rep), m.alphabet, nxt, out),
                        renumber[block[e.initial]])


def order_oracle(e: MealyElement, max_power: int):
    """The order search of an invertible element that minimizes a power
    only once it exceeds 64 states, with a cap of 100,000 states on those
    powers: (order or None, power reached, reason)."""
    ident = identity_element(e.machine.alphabet)
    power = e
    for k in range(1, max_power + 1):
        if equal_oracle(power, ident):
            return k, k, ""
        if k == max_power:
            break
        power = element_compose(power, e)
        if power.machine.states > 64:
            power = minimize_oracle(power)
            if power.machine.states > 100_000:
                return None, k + 1, "state cap"
    return None, max_power, "power cap"


def blocks_reference(nxt: list[list[int]], out: list[tuple[int, ...]]) -> list[int]:
    """Moore's refinement keyed on tuples, stopping when a round returns
    the same list: the kernel the integer-signature rounds replaced."""
    keys: dict[tuple, int] = {}
    block = [keys.setdefault(row, len(keys)) for row in out]
    while True:
        keys = {}
        refined = [keys.setdefault((b, *[block[v] for v in row]), len(keys))
                   for b, row in zip(block, nxt)]
        if refined == block:
            return block
        block = refined


def minimize_reference(e: MealyElement) -> MealyElement:
    """The reachable-part minimization on ``blocks_reference``, through
    the validating constructor."""
    m = e.machine
    reach = bfs_order(m.next, e.initial)
    index = {q: i for i, q in enumerate(reach)}
    nxt = [[index[v] for v in m.next[q]] for q in reach]
    block = blocks_reference(nxt, [m.out[q] for q in reach])
    reps: dict[int, int] = {}
    for i, b in enumerate(block):
        reps.setdefault(b, i)
    new_next = tuple(tuple(block[v] for v in nxt[i]) for i in reps.values())
    new_out = tuple(m.out[reach[i]] for i in reps.values())
    return MealyElement(MealyMachine(len(reps), m.alphabet, new_next, new_out), 0)


def power_step_reference(power: MealyElement, e: MealyElement) -> MealyElement:
    """The next minimized power, from the full product."""
    return minimize_reference(element_compose(power, e))


def order_reference(e: MealyElement, max_power: int, max_states: int):
    """The order search that builds each power as the full product and
    then minimizes it: (order or None, power reached, reason)."""
    ident = identity_element(e.machine.alphabet)
    e = power = minimize_reference(e)
    for k in range(1, max_power + 1):
        if power == ident:
            return k, k, ""
        if power.machine.states > max_states:
            return None, k, "state cap"
        if k < max_power:
            power = power_step_reference(power, e)
    return None, max_power, "power cap"


def relabel(e: MealyElement, perm: list[int]) -> MealyElement:
    """The same element with state q renamed perm[q]."""
    m = e.machine
    nxt = [None] * m.states
    out = [None] * m.states
    for q in range(m.states):
        nxt[perm[q]] = tuple(perm[v] for v in m.next[q])
        out[perm[q]] = m.out[q]
    return MealyElement(MealyMachine(m.states, m.alphabet, tuple(nxt), tuple(out)),
                        perm[e.initial])


# --- second-type quotients: one breadth-first search per start state ----

def quotient_oracle(m: PureAutomatonSecond, mu: GeneratorHom, nu: GeneratorHom
                    ) -> SemigroupAutomatonSecond | QuotientWitness:
    """From each start state, walk the finite space of (input image,
    current state, output image) triples reachable by words, breadth
    first; the quotient exists iff the input image always determines the
    other two coordinates.  The first clash found is the witness."""
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


def load_oracle(path: str | Path):
    """``schema.load`` as it was with ``json`` alone: the reference the
    orjson reader must match, result for result and message for message."""
    try:  # the text is freed before validation, which allocates tables of its size
        return load_object(json.loads(Path(path).read_text(encoding="utf-8")), where=str(path))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply") from exc


def int_array_reference(value, where: str):
    """``schema._int_array`` as it was with ``np.array`` alone: the
    reference the bytes reader must match, table for table and message
    for message."""
    _expect(isinstance(value, list), where, "expected a list of rows")
    try:
        array = np.array(value)
    except ValueError:  # ragged rows, or nested too deeply for an array
        return _int_table(value, where)
    if (array.ndim == 2 and array.dtype.kind == "i" and np.can_cast(array.dtype, np.intp)
            and set(map(type, value)) <= {list}):
        rows, cols = (array <= 1).nonzero()  # where np.array may have taken a bool for 0 or 1
        cells = map(list.__getitem__, map(value.__getitem__, rows.tolist()), cols.tolist())
        if set(map(type, cells)) <= {int}:
            return array
    return _int_table(value, where)


# --- trusted constructions: the validating rebuild ----------------------

def revalidated(obj):
    """``obj`` rebuilt through the validating constructors from its init
    fields, every semigroup table in it too: the value the package would
    hold had it validated its own construction."""
    if isinstance(obj, SemigroupTable):
        return SemigroupTable(obj.order, obj.product, obj.generators, obj.names)
    return type(obj)(*(revalidated(v) if isinstance(v, SemigroupTable) else v
                       for v in (getattr(obj, f.name) for f in dataclasses.fields(obj))))


def _types(value):
    """The type of ``value``, and of every entry of a nested tuple."""
    if isinstance(value, tuple):
        return tuple, tuple(map(_types, value))
    return type(value)


def _read_only_memory(a: np.ndarray) -> bool:
    """Does setting ``a.flags.writeable`` fail, as it does for an array
    over memory no one may write?"""
    try:
        a.flags.writeable = True
    except ValueError:
        return True
    a.flags.writeable = False
    return False


def _assert_same_slots(built, rebuilt) -> None:
    """Slot by slot, into nested tables, automata and carriers: tables
    as C-contiguous arrays over read-only memory, a product in its
    order's ``_index_dtype``, any other table in that of its largest
    entry, and everything else of the same types down to each tuple
    entry."""
    assert type(built) is type(rebuilt)
    for f in dataclasses.fields(built):
        a, b = getattr(built, f.name), getattr(rebuilt, f.name)
        if dataclasses.is_dataclass(a):
            _assert_same_slots(a, b)
        elif isinstance(a, np.ndarray):
            dtype = _index_dtype(built.order if isinstance(built, SemigroupTable)
                                 else int(a.max()) + 1)
            assert a.dtype == b.dtype == dtype, f.name
            assert not a.flags.writeable and not b.flags.writeable, f.name
            assert _read_only_memory(a) and _read_only_memory(b), f.name
            assert a.flags.c_contiguous and b.flags.c_contiguous, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b and _types(a) == _types(b), f.name


def assert_same_value(built, rebuilt) -> None:
    """``built`` and ``rebuilt`` hold the same value in every slot
    (``_assert_same_slots``), a table's lazily chosen ``generating_set``
    too, and they compare, hash and dump alike."""
    _assert_same_slots(built, rebuilt)
    assert built == rebuilt and hash(built) == hash(rebuilt)
    if isinstance(built, SemigroupTable):  # dumped as a one-state automaton's semigroup
        built, rebuilt = (semiautomaton(FiniteSet(1), t, ((0,) * t.order,))
                          for t in (built, rebuilt))
    assert dumps(built) == dumps(rebuilt)
