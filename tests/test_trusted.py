"""The package's own constructions skip validation.  Rebuilding each one
through the validating constructors must give the same value, slot by
slot, and every table they build must pass the naive oracles."""

import itertools
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    CascadeTriplePure,
    CascadeTripleSemigroup,
    FiniteSet,
    GeneratorHom,
    SemigroupAutomatonSecond,
    SerialConnection,
    cascade_pure,
    cascade_semigroup,
    close_generators,
    derive_second_type,
    quotient_construct,
    semiautomaton,
    semigroupify,
    serial_from_second,
    wreath_automaton,
    wreath_product,
    wreath_triple,
)
from helpers import (
    _is_associative,
    all_actions,
    assert_same_value,
    is_generated_by,
    random_closure,
    random_pure_first,
    random_pure_second,
    revalidated,
    semigroups_up_to_iso,
)

SMALL = semigroups_up_to_iso(1) + semigroups_up_to_iso(2)
# (g1, points, action, g2) for every action of a semigroup of order at
# most two on 1-3 points, and every first factor of order at most two
WREATH_CASES = tuple((g1, points, action, g2)
                     for g1, g2 in itertools.product(SMALL, repeat=2)
                     for points in (1, 2, 3)
                     for action in all_actions(g2, points))

seeds = st.integers(0, 10 ** 6)


def _regular(table):
    """The semigroup acting on itself by right multiplication, outputs
    echoing the reached state."""
    return semiautomaton(FiniteSet(table.order), table, table.product)


def _assert_lawful_table(table) -> None:
    product = table.product
    assert _is_associative(product)
    assert is_generated_by(product, table.generators or table.generating_set)


class TestTables:
    @settings(max_examples=150, deadline=None)
    @given(seeds, st.integers(1, 3), st.integers(1, 4))
    def test_closures_equal_their_validated_rebuild(self, seed, n_generators, points):
        table = random_closure(Random(seed), n_generators, 40, points=points).table
        assert_same_value(table, revalidated(table))
        _assert_lawful_table(table)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WREATH_CASES))
    def test_wreath_products_equal_their_validated_rebuild(self, case):
        g1, points, action, g2 = case
        table = wreath_product(g1, FiniteSet(points), action, g2).table
        assert table.generators is None and table.names is None
        assert_same_value(table, revalidated(table))
        _assert_lawful_table(table)


class TestAutomata:
    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_semigroupify(self, seed, a, x, b):
        built = semigroupify(random_pure_first(Random(seed), a, x, b))
        assert_same_value(built, revalidated(built))
        _assert_lawful_table(built.gamma)

    @settings(max_examples=100, deadline=None)
    @given(seeds)
    def test_cascade_pure(self, seed):
        rng = Random(seed)
        m1, m2 = (random_pure_first(rng, rng.randint(1, 3), rng.randint(1, 3),
                                    rng.randint(1, 3)) for _ in range(2))
        x = rng.randint(1, 3)
        t = CascadeTriplePure(
            FiniteSet(x),
            tuple(tuple(rng.randrange(m1.inputs.size) for _ in range(x))
                  for _ in range(m2.states.size)),
            tuple(rng.randrange(m2.inputs.size) for _ in range(x)))
        built = cascade_pure(m1, m2, t)
        assert_same_value(built, revalidated(built))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL), st.sampled_from(SMALL))
    def test_wreath_cascade(self, g1, g2):
        built, _ = wreath_automaton(_regular(g1), _regular(g2))
        assert_same_value(built, revalidated(built))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL), st.sampled_from(SMALL),
           st.lists(seeds, min_size=1, max_size=3))
    def test_cascade_along_a_sub_triple(self, g1, g2, picks):
        m1, m2 = _regular(g1), _regular(g2)
        wt = wreath_triple(wreath_product(m1.gamma, m2.states, m2.next, m2.gamma))
        # the sub-triple on the wreath elements the picks generate
        order, product = wt.gamma.order, wt.gamma.product
        sub = close_generators([p % order for p in picks], lambda i, j: product[i][j])
        elems = sub.elements
        t = CascadeTripleSemigroup(sub.table, wt.alpha[:, elems], wt.beta[list(elems)])
        built = cascade_semigroup(m1, m2, t)
        assert_same_value(built, revalidated(built))

    @settings(max_examples=100, deadline=None)
    @given(seeds)
    def test_quotient_and_derived_second_type(self, seed):
        rng = Random(seed)
        while True:
            m = random_pure_second(rng, rng.randint(1, 3), 2, 2)
            mu, nu = (GeneratorHom(2, c.table, c.table.generators)
                      for c in (random_closure(rng, 2, 6) for _ in range(2)))
            q = quotient_construct(m, mu, nu)
            if isinstance(q, SemigroupAutomatonSecond):
                break
        assert_same_value(q, revalidated(q))
        derived = derive_second_type(serial_from_second(q))
        assert_same_value(derived, revalidated(derived))

    @settings(max_examples=100, deadline=None)
    @given(seeds)
    def test_derive_second_type_of_any_connection(self, seed):
        rng = Random(seed)
        g1, g2 = (rng.choice(SMALL) for _ in range(2))
        first, second = _regular(g1), _regular(g2)
        alpha = tuple(tuple(rng.randrange(g2.order) for _ in range(g1.order))
                      for _ in range(g1.order))
        built = derive_second_type(SerialConnection(first, second, alpha))
        assert_same_value(built, revalidated(built))
