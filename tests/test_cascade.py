import functools
import itertools
import tracemalloc
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autalg import (
    CascadeTriplePure,
    CascadeTripleSemigroup,
    CapExceeded,
    FiniteSet,
    PureAutomatonFirst,
    SemigroupAutomatonFirst,
    SemigroupTable,
    VerificationError,
    WreathElement,
    cascade_pure,
    cascade_semigroup,
    check_first_axioms,
    check_semigroup_triple,
    check_semigroup_triple_morphism,
    check_triple_morphism,
    close_generators,
    embed_into_wreath,
    wreath_automaton,
    wreath_product,
    wreath_triple,
)
from autalg.schema import load
from helpers import (
    all_actions,
    embed_oracle,
    greedy_generators_oracle,
    random_pure_first,
    semigroups_up_to_iso,
    wreath_table_oracle,
)

Z2 = SemigroupTable(2, ((0, 1), (1, 0)))
Z3 = SemigroupTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
TRIVIAL = SemigroupTable(1, ((0,),))


def regular_automaton(table: SemigroupTable) -> SemigroupAutomatonFirst:
    """The semigroup acting on itself by right multiplication, outputs
    echoing the reached state."""
    return SemigroupAutomatonFirst(FiniteSet(table.order), table,
                                   FiniteSet(table.order),
                                   table.product, table.product)


class TestCascadePure:
    def test_independent_coordinates_when_alpha_ignores_state(self):
        m1 = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                ((1, 0), (0, 1)), ((0, 1), (1, 0)))
        m2 = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(2),
                                ((1,), (0,)), ((0,), (1,)))
        t = CascadeTriplePure(FiniteSet(2), alpha=((0, 1), (0, 1)), beta=(0, 0))
        c = cascade_pure(m1, m2, t)
        for a1 in range(2):
            for a2 in range(2):
                for x in range(2):
                    got = c.next[a1 * 2 + a2][x]
                    assert got == m1.next[a1][x] * 2 + m2.next[a2][0]

    def test_state_steered_swap_traces_a_four_cycle(self):
        # frozen by hand: the second coordinate swaps every step and picks
        # m1's input (0 keeps, 1 swaps) by its current value
        m1 = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                ((0, 1), (1, 0)), ((0, 0), (1, 1)))
        m2 = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(2),
                                ((1,), (0,)), ((0,), (1,)))
        t = CascadeTriplePure(FiniteSet(1), alpha=((0,), (1,)), beta=(0,))
        c = cascade_pure(m1, m2, t)
        state = 0  # (0, 0)
        orbit = [state]
        for _ in range(4):
            state = c.next[state][0]
            orbit.append(state)
        assert orbit == [0, 1, 2, 3, 0]

    def test_one_point_second_component_reduces_to_steered_first(self):
        m1 = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                ((1, 0), (0, 1)), ((0, 1), (1, 0)))
        one = PureAutomatonFirst(FiniteSet(1), FiniteSet(1), FiniteSet(1),
                                 ((0,),), ((0,),))
        t = CascadeTriplePure(FiniteSet(2), alpha=((1, 0),), beta=(0, 0))
        c = cascade_pure(m1, one, t)
        assert c.states.size == 2
        for a1 in range(2):
            for x in range(2):
                assert c.next[a1][x] == m1.next[a1][t.alpha[0][x]]

    def test_range_mismatch_rejected(self):
        m1 = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(1),
                                ((1,), (0,)), ((0,), (0,)))
        t = CascadeTriplePure(FiniteSet(1), alpha=((1,), (1,)), beta=(0,))
        with pytest.raises(ValueError):
            cascade_pure(m1, m1, t)  # alpha entry 1 exceeds m1's single input


class TestTripleMorphism:
    def test_identity_morphism_passes(self):
        t = CascadeTriplePure(FiniteSet(2), alpha=((0, 1), (1, 0)), beta=(0, 1))
        assert check_triple_morphism(t, t, (0, 1)).ok

    def test_canonical_map_into_wreath_triple(self):
        m = regular_automaton(Z2)
        _, wt = wreath_automaton(m, m)
        # a serial-style triple: gamma = Z2, beta identity, alpha reads the element
        t = CascadeTripleSemigroup(Z2, alpha=((0, 1), (0, 1)), beta=(0, 1))
        assert check_semigroup_triple(t, m, m).ok
        mu = embed_into_wreath(t, m, m)
        assert check_semigroup_triple_morphism(t, wt, mu).ok

    def test_beta_mismatch_fails_with_witness(self):
        t = CascadeTriplePure(FiniteSet(2), alpha=((0, 1), (1, 0)), beta=(0, 1))
        t2 = CascadeTriplePure(FiniteSet(2), alpha=((0, 1), (1, 0)), beta=(1, 1))
        report = check_triple_morphism(t, t2, (0, 1))
        assert not report.ok
        assert report.witness == (0,)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_mu_out_of_range_is_an_error(self, bad):
        t = CascadeTripleSemigroup(Z2, alpha=((0, 1), (0, 1)), beta=(0, 1))
        with pytest.raises(ValueError, match=rf"^mu\[1\] = {bad} out of range$"):
            check_semigroup_triple_morphism(t, t, (0, bad))


class TestWreathSemigroup:
    def test_order_formula_two_two_three(self):
        table = wreath_product(Z2, FiniteSet(2), ((0, 0, 0), (1, 1, 1)), Z3).table
        assert table.order == 2 ** 2 * 3

    def test_trivial_first_factor_copies_second(self):
        table = wreath_product(TRIVIAL, FiniteSet(2), ((0, 1), (1, 0)), Z2).table
        assert table.order == Z2.order
        assert table.product == Z2.product

    def test_multiplication_matches_defining_formula(self):
        w = wreath_product(Z2, FiniteSet(2), ((0, 1), (1, 0)), Z2)
        for i, e in enumerate(w.elements):
            for j, f in enumerate(w.elements):
                bar = tuple(Z2.product[e.bar[a]][f.bar[w.action[a][e.g2]]]
                            for a in range(2))
                k = w.index(WreathElement(bar, Z2.product[e.g2][f.g2]))
                assert w.table.product[i][j] == k

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            wreath_product(Z3, FiniteSet(2), ((0, 0, 0), (1, 1, 1)), Z3, cap=26).table

    def test_past_the_cell_budget_raises_before_building(self):
        # 12^3 * 12 = 20,736 elements, far under the default cap, but the
        # table would hold 20,736^2 cells: 860 MB of uint16
        m = load(Path(__file__).parent / "fixtures" / "first_semigroup_labels.json")
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"^wreath product of order 20736 needs "
                                                  r"429981696 table cells \(859963392 bytes\), "
                                                  r"over the budget of 67108864 cells$"):
                wreath_product(m.gamma, m.states, m.next, m.gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_non_action_rejected(self):
        # swapping under a left-zero semigroup is not an action
        lz = SemigroupTable(2, ((0, 0), (1, 1)))
        with pytest.raises(ValueError, match="not an action"):
            wreath_product(Z2, FiniteSet(2), ((1, 0), (0, 1)), lz)

    def test_table_matches_the_defining_formula_exhaustively(self):
        # every semigroup of order <= 2 by every action of one on 1-3 points
        catalogue = semigroups_up_to_iso(1) + semigroups_up_to_iso(2)
        checked = 0
        for g1, g2 in itertools.product(catalogue, repeat=2):
            for points in (1, 2, 3):
                for action in all_actions(g2, points):
                    w = wreath_product(g1, FiniteSet(points), action, g2)
                    assert w.table.product == wreath_table_oracle(g1, points, action, g2)
                    assert w.table.generating_set == greedy_generators_oracle(w.table.product)
                    checked += 1
        assert checked > 100

    def test_table_matches_the_defining_formula_for_three_second_elements(self):
        # the fill takes one step per Gamma2 element: Z3 rotating 3 points,
        # and every order-3 semigroup by each of its actions on 2 points
        rotate = tuple(tuple((a + s) % 3 for s in range(3)) for a in range(3))
        cases = [(Z2, 3, rotate, Z3)] + [
            (Z2, 2, action, g2) for g2 in semigroups_up_to_iso(3)
            for action in all_actions(g2, 2)]
        for g1, points, action, g2 in cases:
            w = wreath_product(g1, FiniteSet(points), action, g2)
            assert w.table.product == wreath_table_oracle(g1, points, action, g2)
        assert len(cases) > 20

    def test_uint16_table_from_uint8_factors_matches_the_defining_formula(self):
        # order 3^5 * 2 = 486 needs two bytes an entry; the factors' tables
        # hold one, so the ranks must be summed wider than the factors
        swap = ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4))
        w = wreath_product(Z3, FiniteSet(5), swap, Z2)
        dtypes = (Z3.array.dtype, Z2.array.dtype, w.table.array.dtype)
        assert dtypes == (np.uint8, np.uint8, np.uint16)
        assert w.table.product == wreath_table_oracle(Z3, 5, swap, Z2)

    def test_index_is_the_enumeration_rank(self):
        w = wreath_product(Z2, FiniteSet(2), ((0, 0, 0), (1, 1, 1)), Z3)
        for i, e in enumerate(w.elements):
            assert w.index(e) == i


class TestWreathAutomaton:
    def test_trivial_components_give_trivial_wreath(self):
        m = regular_automaton(TRIVIAL)
        wa, wt = wreath_automaton(m, m)
        assert wa.states.size == 1
        assert wa.gamma.order == 1
        assert check_first_axioms(wa).ok

    def test_two_state_components(self):
        m = regular_automaton(Z2)
        wa, wt = wreath_automaton(m, m)
        assert wa.states.size == 4
        assert wa.gamma.order == 8
        assert check_first_axioms(wa).ok
        assert check_semigroup_triple(wt, m, m).ok

    def test_beta_is_the_projection(self):
        m = regular_automaton(Z2)
        w = wreath_product(m.gamma, m.states, m.next, m.gamma)
        wt = wreath_triple(w)
        for i, e in enumerate(w.elements):
            assert wt.beta[i] == e.g2
            assert wt.alpha[0][i] == e.bar[0]
            assert wt.alpha[1][i] == e.bar[1]


class TestEmbedding:
    def test_wreath_triple_embeds_as_identity(self):
        m = regular_automaton(Z2)
        w = wreath_product(m.gamma, m.states, m.next, m.gamma)
        phi = embed_into_wreath(wreath_triple(w), m, m)
        assert phi == tuple(range(w.table.order))

    def test_serial_triple_embeds_injectively(self):
        m = regular_automaton(Z2)
        t = CascadeTripleSemigroup(Z2, alpha=((0, 1), (0, 1)), beta=(0, 1))
        phi = embed_into_wreath(t, m, m)
        assert len(set(phi)) == 2

    def test_order_two_image_inside_order_eight_wreath(self):
        # beta constant at the identity, alpha reading the element at one
        # state and ignoring it at the other: crossed law checked by hand
        m = regular_automaton(Z2)
        w = wreath_product(m.gamma, m.states, m.next, m.gamma)
        t = CascadeTripleSemigroup(Z2, alpha=((0, 1), (0, 0)), beta=(0, 0))
        assert check_semigroup_triple(t, m, m).ok
        phi = embed_into_wreath(t, m, m)
        assert w.table.order == 8
        assert len(set(phi)) == 2
        # image is closed: a subsemigroup of order two
        image = set(phi)
        for i in image:
            for j in image:
                assert w.table.product[i][j] in image

    def test_invalid_triple_raises_verification_error(self):
        # the oracle raises; the embedding returns the triple's failing report
        m = regular_automaton(Z2)
        w = wreath_product(m.gamma, m.states, m.next, m.gamma)
        bad = CascadeTripleSemigroup(Z2, alpha=((0, 0), (0, 1)), beta=(1, 1))
        report = check_semigroup_triple(bad, m, m)
        assert not report.ok
        assert embed_into_wreath(bad, m, m) == report
        with pytest.raises(VerificationError):
            embed_oracle(bad, w)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sub_triples_embed_as_the_oracle_says(self, data):
        m1, m2, w, t = _draw_sub_triple(data)
        assert embed_into_wreath(t, m1, m2) == embed_oracle(t, w)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_invalid_triples_return_the_triple_report(self, data):
        m1, m2, w, sub = _draw_sub_triple(data)
        gamma = sub.gamma
        cells = st.lists(st.integers(0, m1.gamma.order - 1),
                         min_size=gamma.order, max_size=gamma.order)
        t = CascadeTripleSemigroup(
            gamma,
            alpha=tuple(tuple(data.draw(cells)) for _ in range(m2.states.size)),
            beta=tuple(data.draw(st.lists(st.integers(0, m2.gamma.order - 1),
                                          min_size=gamma.order, max_size=gamma.order))))
        report = check_semigroup_triple(t, m1, m2)
        assume(not report.ok)
        assert embed_into_wreath(t, m1, m2) == report
        with pytest.raises(VerificationError):
            embed_oracle(t, w)


@functools.cache
def _wreath_contexts() -> tuple:
    """(m1, m2, wreath product, wreath triple) for the regular automata of
    every pair of semigroups of order at most two."""
    catalogue = semigroups_up_to_iso(1) + semigroups_up_to_iso(2)
    contexts = []
    for g1, g2 in itertools.product(catalogue, repeat=2):
        m1, m2 = regular_automaton(g1), regular_automaton(g2)
        w = wreath_product(m1.gamma, m2.states, m2.next, m2.gamma)
        contexts.append((m1, m2, w, wreath_triple(w)))
    return tuple(contexts)


def _draw_sub_triple(data) -> tuple:
    """(m1, m2, wreath product, a sub-triple generated by 1-3 random
    wreath elements), over a random context of ``_wreath_contexts``."""
    m1, m2, w, wt = data.draw(st.sampled_from(_wreath_contexts()))
    seeds = data.draw(st.lists(st.integers(0, w.table.order - 1), min_size=1, max_size=3))
    return m1, m2, w, _sub_triple(w, wt, seeds)


def _sub_triple(w, wt, seeds) -> CascadeTripleSemigroup:
    """The sub-triple of the wreath triple on the subsemigroup that the
    wreath elements ``seeds`` generate: valid, as every sub-triple is."""
    product = w.table.product  # built anew on each access
    closure = close_generators(seeds, lambda i, j: product[i][j], cap=w.table.order)
    elems = [closure.elements[i] for i in range(closure.table.order)]
    return CascadeTripleSemigroup(
        closure.table,
        alpha=wt.alpha[:, elems], beta=wt.beta[elems])


class TestSemigroupCascade:
    def test_valid_triples_give_lawful_automata(self):
        rng = Random(13)
        contexts = []
        for g1 in semigroups_up_to_iso(2):
            for g2 in semigroups_up_to_iso(2):
                m1 = regular_automaton(g1)
                m2 = regular_automaton(g2)
                contexts.append((m1, m2))
        for m1, m2 in contexts:
            w = wreath_product(m1.gamma, m2.states, m2.next, m2.gamma)
            wt = wreath_triple(w)
            # sub-triples generated by random wreath elements are valid
            for _ in range(5):
                t = _sub_triple(w, wt, [rng.randrange(w.table.order) for _ in range(2)])
                assert check_semigroup_triple(t, m1, m2).ok
                c = cascade_semigroup(m1, m2, t)
                assert check_first_axioms(c).ok
