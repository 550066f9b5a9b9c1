"""Every law checker against its triple-loop oracle in helpers.

The checkers test g2 on a generating set first and scan all (g1, g2)
only after a failure, so the inputs here use semigroups whose generating
set is a proper subset, and carriers that are not actions, where a
generator-only check alone could pass a failing law.
"""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    CascadeTripleSemigroup,
    CheckReport,
    FiniteSet,
    SemigroupAutomatonFirst,
    SemigroupAutomatonSecond,
    SemigroupTable,
    SerialConnection,
    check_first_axioms,
    check_second_axioms,
    check_semigroup_triple,
    check_semigroup_triple_morphism,
    check_serial,
    semiautomaton,
    wreath_product,
)
from helpers import (
    action_oracle,
    first_axioms_oracle,
    random_closure,
    second_axioms_oracle,
    semigroups_up_to_iso,
    serial_oracle,
    smallest_generating_set,
    triple_morphism_oracle,
    triple_oracle,
)


def _catalogue() -> tuple[SemigroupTable, ...]:
    """Every semigroup of order <= 3 with a least generating set, and
    closures of one (cyclic) or two random transformations."""
    tables = [SemigroupTable(t.order, t.product, generators=smallest_generating_set(t))
              for order in (1, 2, 3) for t in semigroups_up_to_iso(order)]
    rng = Random(5)
    for _ in range(4):
        tables.append(random_closure(rng, 1, 6, points=4).table)
        tables.append(random_closure(rng, 2, 12).table)
    return tuple(tables)


TABLES = _catalogue()
seeds = st.integers(0, 2 ** 32 - 1)


def test_catalogue_has_proper_generating_sets():
    assert sum(len(set(t.generators)) < t.order for t in TABLES) >= len(TABLES) // 2
    assert max(t.order for t in TABLES) > 3


def fields(report: CheckReport) -> tuple:
    """The report as the oracles give it; a failure's numbers must be
    Python ints, so ``describe`` prints no numpy repr."""
    if not report.ok:
        assert all(type(v) is int for v in (*report.witness, report.lhs, report.rhs))
        assert "np." not in report.describe()
    return report.ok, report.law, report.witness, report.lhs, report.rhs


def _pick(rng: Random) -> SemigroupTable:
    return rng.choice(TABLES)


def _table(rng: Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    return [[rng.randrange(bound) for _ in range(cols)] for _ in range(rows)]


def _idempotent(rng: Random, table: SemigroupTable) -> int:
    return rng.choice([e for e in range(table.order) if table.product[e][e] == e])


def _corrupt(rng: Random, table: list[list[int]], bound: int) -> None:
    """Change one entry, to any value below ``bound``, half of the time."""
    if bound > 1 and rng.random() < 0.5:
        i = rng.randrange(len(table))
        j = rng.randrange(len(table[i]))
        table[i][j] = (table[i][j] + rng.randrange(1, bound)) % bound


def _carrier(rng: Random, gamma: SemigroupTable) -> tuple[int, list[list[int]]]:
    """States and a transition table: the right regular action, perhaps
    with one entry changed, or a random table (rarely an action)."""
    if rng.random() < 0.5:
        table = [list(row) for row in gamma.product]
        _corrupt(rng, table, gamma.order)
        return gamma.order, table
    states = rng.randrange(1, 4)
    return states, _table(rng, states, gamma.order, states)


@settings(max_examples=150)
@given(seeds)
def test_first_axioms_match_the_oracle(seed):
    rng = Random(seed)
    gamma = _pick(rng)
    states, nxt = _carrier(rng, gamma)
    outputs = rng.randrange(1, 4)
    if states == gamma.order and rng.random() < 0.7:
        # out[a][g] == f(a . g) obeys the output law over an action
        f = [rng.randrange(outputs) for _ in range(states)]
        out = [[f[nxt[a][g]] for g in range(gamma.order)] for a in range(states)]
        _corrupt(rng, out, outputs)
    else:
        out = _table(rng, states, gamma.order, outputs)
    m = SemigroupAutomatonFirst(FiniteSet(states), gamma, FiniteSet(outputs), nxt, out)
    assert fields(check_first_axioms(m)) == first_axioms_oracle(m)


def _accumulating_out(rng: Random, gamma: SemigroupTable, sigma: SemigroupTable,
                      states: int) -> list[list[int]]:
    """An output table into sigma: a constant idempotent or, when sigma
    is gamma, the identity (both obey the accumulation law over the
    regular action), perhaps with one entry changed; or random."""
    if rng.random() < 0.3:
        return _table(rng, states, gamma.order, sigma.order)
    if sigma is gamma and rng.random() < 0.5:
        out = [list(range(gamma.order)) for _ in range(states)]
    else:
        e = _idempotent(rng, sigma)
        out = [[e] * gamma.order for _ in range(states)]
    _corrupt(rng, out, sigma.order)
    return out


@settings(max_examples=150)
@given(seeds)
def test_second_axioms_match_the_oracle(seed):
    rng = Random(seed)
    gamma = _pick(rng)
    sigma = gamma if rng.random() < 0.4 else _pick(rng)
    states, nxt = _carrier(rng, gamma)
    out = _accumulating_out(rng, gamma, sigma, states)
    m = SemigroupAutomatonSecond(FiniteSet(states), gamma, sigma, nxt, out)
    assert fields(check_second_axioms(m)) == second_axioms_oracle(m)


@settings(max_examples=150)
@given(seeds)
def test_serial_matches_the_oracle_over_non_actions(seed):
    rng = Random(seed)
    gamma = _pick(rng)
    sigma = gamma if rng.random() < 0.4 else _pick(rng)
    states, nxt = _carrier(rng, gamma)
    alpha = _accumulating_out(rng, gamma, sigma, states)
    s = SerialConnection(semiautomaton(FiniteSet(states), gamma, nxt),
                         semiautomaton(FiniteSet(sigma.order), sigma, sigma.product),
                         alpha)
    assert fields(check_serial(s)) == serial_oracle(s)


def _triple(rng: Random):
    """A triple over a random m2 table (often not an action); beta is
    the identity into gamma, a constant idempotent or random, and alpha
    a constant idempotent (crossed over any carrier) or random."""
    gamma, g1 = _pick(rng), _pick(rng)
    g2 = gamma if rng.random() < 0.4 else _pick(rng)
    states2, next2 = _carrier(rng, g2)
    if g2 is gamma and rng.random() < 0.5:
        beta = list(range(gamma.order))
    elif rng.random() < 0.6:
        beta = [_idempotent(rng, g2)] * gamma.order
    else:
        beta = [rng.randrange(g2.order) for _ in range(gamma.order)]
    if rng.random() < 0.5:
        alpha = [[_idempotent(rng, g1)] * gamma.order for _ in range(states2)]
        _corrupt(rng, alpha, g1.order)
    else:
        alpha = _table(rng, states2, gamma.order, g1.order)
    states1 = rng.randrange(1, 3)
    m1 = semiautomaton(FiniteSet(states1), g1, _table(rng, states1, g1.order, states1))
    m2 = semiautomaton(FiniteSet(states2), g2, next2)
    return CascadeTripleSemigroup(gamma, alpha, beta), m1, m2


@settings(max_examples=200)
@given(seeds)
def test_semigroup_triple_matches_the_oracle(seed):
    t, m1, m2 = _triple(Random(seed))
    assert fields(check_semigroup_triple(t, m1, m2)) == triple_oracle(t, m1, m2)


@settings(max_examples=150)
@given(seeds)
def test_triple_morphism_matches_the_oracle(seed):
    rng = Random(seed)
    t, _, _ = _triple(rng)
    if rng.random() < 0.5:
        # the identity into a copy with one entry of alpha or beta changed
        alpha = [list(row) for row in t.alpha]
        beta = [list(t.beta)]
        _corrupt(rng, alpha if rng.random() < 0.5 else beta, t.gamma.order)
        t2 = CascadeTripleSemigroup(t.gamma, alpha, beta[0])
        mu = tuple(range(t.gamma.order))
    else:
        gamma2 = _pick(rng)
        t2 = CascadeTripleSemigroup(
            gamma2, _table(rng, len(t.alpha), gamma2.order, max(map(max, t.alpha)) + 1),
            [rng.randrange(max(t.beta) + 1) for _ in range(gamma2.order)])
        if rng.random() < 0.5:
            mu = tuple([_idempotent(rng, gamma2)] * t.gamma.order)
        else:
            mu = tuple(rng.randrange(gamma2.order) for _ in range(t.gamma.order))
    assert fields(check_semigroup_triple_morphism(t, t2, mu)) == \
        triple_morphism_oracle(t, t2, mu)


@settings(max_examples=150)
@given(seeds)
def test_wreath_product_rejects_exactly_the_non_actions(seed):
    rng = Random(seed)
    g2 = _pick(rng)
    points, action = _carrier(rng, g2)
    if points > 4:
        points, action = 2, _table(rng, 2, g2.order, 2)
    found = action_oracle(action, g2)
    trivial = SemigroupTable(1, ((0,),))
    if found is None:
        assert wreath_product(trivial, FiniteSet(points), action, g2).table.order == g2.order
    else:
        message = "not an action: a.(s s') != (a.s).s' at ({}, {}, {})".format(*found)
        with pytest.raises(ValueError) as info:
            wreath_product(trivial, FiniteSet(points), action, g2)
        assert str(info.value) == message


# Z3 generated by element 0 acting on two points by a table that is not
# an action: the connecting law holds whenever g2 is the generator, and
# fails at (0, 1, 2), so a check over the generators alone would pass it.
Z3_CYCLIC = SemigroupTable(3, ((1, 2, 0), (2, 0, 1), (0, 1, 2)), generators=(0,))
Z2_CYCLIC = SemigroupTable(2, ((1, 0), (0, 1)), generators=(0,))
NON_ACTION = SerialConnection(
    semiautomaton(FiniteSet(2), Z3_CYCLIC, ((1, 0, 1), (0, 1, 1))),
    semiautomaton(FiniteSet(2), Z2_CYCLIC, Z2_CYCLIC.product),
    ((1, 0, 0), (0, 0, 1)))


def test_connecting_law_over_a_non_action_is_scanned_in_full():
    s = NON_ACTION
    sprod = Z2_CYCLIC.product
    for a in range(2):
        for g1 in range(3):  # the only generator, 0, satisfies the law
            assert s.alpha[a][Z3_CYCLIC.product[g1][0]] == \
                sprod[s.alpha[a][g1]][s.alpha[s.first.next[a][g1]][0]]
    report = check_serial(s)
    assert fields(report) == (
        False, "connecting law alpha(a, g1 g2) == alpha(a, g1) alpha(a.g1, g2)",
        (0, 1, 2), 0, 1)
    assert fields(report) == serial_oracle(s)


def test_serial_matches_the_oracle_on_every_two_point_table_over_z3():
    # every carrier on two points and every alpha into Z2: the family of
    # the example above, where the carrier's own law decides whether a
    # generator-only pass may be trusted
    second = semiautomaton(FiniteSet(2), Z2_CYCLIC, Z2_CYCLIC.product)
    tables = [(flat[:3], flat[3:]) for flat in itertools.product(range(2), repeat=6)]
    missed = 0
    for nxt in tables:
        first = semiautomaton(FiniteSet(2), Z3_CYCLIC, nxt)
        for alpha in tables:
            s = SerialConnection(first, second, alpha)
            expected = serial_oracle(s)
            assert fields(check_serial(s)) == expected
            passes_on_the_generator = all(
                alpha[a][Z3_CYCLIC.product[g1][0]]
                == Z2_CYCLIC.product[alpha[a][g1]][alpha[nxt[a][g1]][0]]
                for a in range(2) for g1 in range(3))
            missed += passes_on_the_generator and not expected[0]
    assert missed > 0  # the family does hold the cases the guard is for


def test_crossed_law_over_a_non_action_is_scanned_in_full():
    # the same tables as a cascade triple: m2 = NON_ACTION.first, beta the
    # identity, so the crossed law's carrier is m2's non-action table
    m1 = semiautomaton(FiniteSet(1), Z2_CYCLIC, ((0, 0),))
    t = CascadeTripleSemigroup(Z3_CYCLIC, NON_ACTION.alpha, (0, 1, 2))
    report = check_semigroup_triple(t, m1, NON_ACTION.first)
    assert fields(report) == (
        False, "crossed law alpha(a2, g1 g2) == alpha(a2, g1) alpha(a2.beta(g1), g2)",
        (0, 1, 2), 0, 1)


def test_beta_homomorphism_witness_is_a_pair():
    m = semiautomaton(FiniteSet(1), Z2_CYCLIC, ((0, 0),))
    t = CascadeTripleSemigroup(Z3_CYCLIC, ((0, 0, 0),), (0, 0, 1))
    report = check_semigroup_triple(t, m, m)
    assert fields(report) == (False, "beta homomorphism", (0, 0), 0, 1)
    assert report.describe() == "fail: beta homomorphism at (0, 0): lhs = 0, rhs = 1"
