import ast
import dataclasses
import importlib
import itertools
import tracemalloc
import types
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    CapExceeded,
    FiniteSet,
    FunMap,
    PairElement,
    SemigroupTable,
    Transformation,
    Word,
    close_generators,
    compose_transformations,
    evaluate_word,
    multiply_pair,
    wreath_product,
)
from autalg import core
from autalg.core import as_table
from helpers import (
    _is_associative,
    all_funmaps,
    all_transformations,
    as_table_oracle,
    assert_same_value,
    greedy_generators_oracle,
    identity_transformation,
    is_generated_by,
    kernel_classes,
    light_witness_oracle,
    light_witness_reference,
    naive_closure_table,
    revalidated,
    semigroups_up_to_iso,
)


def transformations(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


def funmaps(n, m):
    return st.tuples(*[st.integers(0, m - 1)] * n).map(lambda im: FunMap(im, m))


def pairs(n, m):
    return st.builds(PairElement, transformations(n), funmaps(n, m))


class TestTransformation:
    def test_identity_composes_neutrally(self):
        swap = Transformation((1, 0))
        assert compose_transformations(identity_transformation(2), swap) == swap
        assert compose_transformations(swap, identity_transformation(2)) == swap

    def test_involution_squares_to_identity(self):
        swap = Transformation((1, 0))
        assert compose_transformations(swap, swap) == identity_transformation(2)

    def test_three_cycle_squared(self):
        # frozen by hand: 0->1->2, 1->2->0, 2->0->1
        cycle = Transformation((1, 2, 0))
        assert compose_transformations(cycle, cycle).image == (2, 0, 1)

    def test_left_factor_applies_first(self):
        s = Transformation((1, 1, 2))
        t = Transformation((2, 0, 0))
        st_ = compose_transformations(s, t)
        for i in range(3):
            assert st_(i) == t(s(i))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_transformations(Transformation((0,)), Transformation((1, 0)))

    def test_out_of_range_image_rejected(self):
        with pytest.raises(ValueError):
            Transformation((0, 2))

    @given(transformations(3), transformations(3), transformations(3))
    def test_associative(self, a, b, c):
        left = compose_transformations(compose_transformations(a, b), c)
        right = compose_transformations(a, compose_transformations(b, c))
        assert left == right


class TestPairSemigroup:
    def test_identity_sigma_forwards_second_phi(self):
        ident = identity_transformation(2)
        p = PairElement(ident, FunMap((0, 0), 2))
        q = PairElement(ident, FunMap((1, 0), 2))
        assert multiply_pair(p, q).phi == q.phi

    def test_square_of_swap_pair(self):
        # frozen by direct evaluation
        p = PairElement(Transformation((1, 0)), FunMap((0, 1), 2))
        sq = multiply_pair(p, p)
        assert sq.sigma.image == (0, 1)
        assert sq.phi.image == (1, 0)

    def test_mismatched_carriers_rejected(self):
        p = PairElement(Transformation((1, 0)), FunMap((0, 1), 2))
        q = PairElement(Transformation((0, 1, 2)), FunMap((0, 0, 0), 2))
        with pytest.raises(ValueError):
            multiply_pair(p, q)
        r = PairElement(Transformation((1, 0)), FunMap((0, 2), 3))
        with pytest.raises(ValueError):
            multiply_pair(p, r)

    @given(pairs(2, 2), pairs(2, 2), pairs(2, 2))
    def test_associative(self, a, b, c):
        left = multiply_pair(multiply_pair(a, b), c)
        right = multiply_pair(a, multiply_pair(b, c))
        assert left == right

    def test_associative_exhaustive_two_states(self):
        universe = [PairElement(s, p) for s in all_transformations(2)
                    for p in all_funmaps(2, 2)]
        for a, b, c in itertools.product(universe, repeat=3):
            assert multiply_pair(multiply_pair(a, b), c) == \
                multiply_pair(a, multiply_pair(b, c))


class TestSemigroupTable:
    def test_rejects_non_associative(self):
        with pytest.raises(ValueError, match="not associative"):
            SemigroupTable(2, ((0, 1), (0, 0)))

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            SemigroupTable(2, ((0, 1), (1, 2)))

    def test_rejects_ungenerated_elements(self):
        # Z2 is not generated by its identity alone
        with pytest.raises(ValueError, match="not generated"):
            SemigroupTable(2, ((0, 1), (1, 0)), generators=(0,))

    def test_rejects_wrong_name(self):
        with pytest.raises(ValueError, match="evaluates to"):
            SemigroupTable(2, ((0, 1), (1, 0)), generators=(1,), names=((0,), (0,)))

    @pytest.mark.parametrize("letter", [5, 1, -1])
    def test_rejects_name_letter_outside_the_generators(self, letter):
        with pytest.raises(ValueError, match=rf"names\[0\] = \({letter},\): letter "
                                             rf"{letter} out of range 0..0"):
            SemigroupTable(1, ((0,),), generators=(0,), names=((letter,),))

    def test_first_bad_name_is_reported(self):
        # names[0] is empty and names[1] is wrong: the first one is named
        with pytest.raises(ValueError, match=r"names\[0\] is empty"):
            SemigroupTable(2, ((0, 1), (1, 0)), generators=(1,), names=((), (0,)))

    @pytest.mark.parametrize("product,gens,names,message", [
        # names fail and the table is not generated
        (((0, 1), (1, 0)), (0,), ((0,), (0,)), "elements [1] not generated by (0,)"),
        # names fail and the product is not associative
        (((0, 1), (0, 0)), (1,), ((0,), (0,)), "product not associative at (1, 1, 1)"),
        # only the names fail
        (((0, 1), (1, 0)), (1,), ((0,), (0,)), "names[0] = (0,) evaluates to 1, not 0"),
        # the names evaluate, but the product is not associative
        (((0, 1), (0, 0)), (1,), ((0, 0), (0,)), "product not associative at (1, 1, 1)"),
    ])
    def test_reports_generation_then_associativity_then_names(self, product, gens,
                                                              names, message):
        with pytest.raises(ValueError) as raised:
            SemigroupTable(2, product, gens, names)
        assert str(raised.value) == message

    def test_names_that_evaluate_replace_the_generation_search(self, monkeypatch):
        calls, unreached = [], core.unreached

        def counted(product, gens):
            calls.append(gens)
            return unreached(product, gens)

        gens = [Transformation((1, 2, 0)), Transformation((1, 0, 2)),
                Transformation((0, 0, 2))]
        full = close_generators(gens, compose_transformations).table  # T_3
        monkeypatch.setattr(core, "unreached", counted)
        named = SemigroupTable(full.order, full.array, full.generators, full.names)
        assert named.order == 27 and calls == []
        SemigroupTable(full.order, full.array, full.generators)
        assert calls == [full.generators]

    @given(st.lists(transformations(3), min_size=1, max_size=2))
    def test_keeps_its_validated_array(self, gens):
        table = close_generators(gens, compose_transformations).table
        assert table.array.dtype == core._index_dtype(table.order)
        assert not table.array.flags.writeable
        assert table.array.tolist() == [list(r) for r in table.product]
        assert table.generating_set == tuple(dict.fromkeys(table.generators))
        again = SemigroupTable(table.order, table.product, table.generators, table.names)
        assert again == table and np.array_equal(again.array, table.array)
        assert all(type(v) is int for row in table.product for v in row)

    def test_ndarray_product_is_checked_like_a_list(self):
        for bad in (np.array([[0, 1], [1, 2]]), np.array([[0, 1], [1, -1]])):
            with pytest.raises(ValueError) as from_array:
                SemigroupTable(2, bad)
            with pytest.raises(ValueError) as from_list:
                SemigroupTable(2, bad.tolist())
            assert str(from_array.value) == str(from_list.value)
        with pytest.raises(ValueError, match=r"product\[0\]: expected 2 entries, got 3"):
            SemigroupTable(2, np.zeros((2, 3), dtype=np.intp))
        with pytest.raises(ValueError, match=r"product\[0\]\[0\] = \S*0\.0\S* out of range"):
            SemigroupTable(2, np.zeros((2, 2)))
        assert SemigroupTable(2, np.array([[0, 1], [1, 0]])).product == ((0, 1), (1, 0))

    def test_list_tuple_and_array_make_one_table(self):
        rows = [[0, 1], [1, 0]]
        made = [SemigroupTable(2, product, (1,), ((0, 0), (0,)))
                for product in (rows, tuple(map(tuple, rows)), np.array(rows))]
        assert all(t == made[0] and hash(t) == hash(made[0]) for t in made)
        assert [f.name for f in dataclasses.fields(made[0])] == \
            ["order", "generators", "names", "array", "generating_set"]
        for t in made:
            assert t.product == tuple(map(tuple, t.array.tolist())) == ((0, 1), (1, 0))
            assert type(t.product) is tuple and all(type(r) is tuple for r in t.product)
            assert all(type(v) is int for r in t.product for v in r)
        value = evaluate_word(made[2], (1,), Word((0, 0, 0), 1))
        assert type(value) is int and value == 1

    def test_tables_differing_in_generators_or_names_are_unequal(self):
        rows = ((0, 1), (1, 0))
        assert SemigroupTable(2, rows) != SemigroupTable(2, rows, (1,))
        assert SemigroupTable(2, rows, (1,)) != SemigroupTable(2, rows, (1, 1))
        assert (SemigroupTable(2, rows, (1, 1), ((0, 0), (0,)))
                != SemigroupTable(2, rows, (1, 1), ((0, 1), (1,))))
        assert SemigroupTable(2, rows) != SemigroupTable(2, ((0, 0), (1, 1)))
        assert SemigroupTable(2, rows) != rows

    def test_entry_beyond_a_machine_integer_is_out_of_range(self):
        with pytest.raises(ValueError, match=rf"product\[0\]\[1\] = {10 ** 30} out of range"):
            SemigroupTable(2, ((0, 10 ** 30), (1, 0)))

    def test_array_entries_are_range_checked_before_the_narrowing_cast(self):
        # as uint8, 256 would read 0, -1 would read 255 and 2**64 - 1 would read 255
        for entry, dtype in ((256, np.intp), (-1, np.intp), (2 ** 64 - 1, np.uint64)):
            message = rf"^product\[1\]\[0\] = {entry} out of range 0\.\.1$"
            with pytest.raises(ValueError, match=message):
                SemigroupTable(2, np.array([[0, 1], [entry, 0]], dtype=dtype))


class TestIndexDtype:
    """Tables are stored in the narrowest unsigned dtype for their order."""

    @pytest.mark.parametrize("order,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                             (65536, np.uint16), (65537, np.uint32)])
    def test_boundaries_allocate_nothing(self, order, dtype):
        tracemalloc.start()
        try:
            assert core._index_dtype(order) == dtype
            assert core._cells(order) == (f"{order ** 2} table cells "
                                          f"({order ** 2 * np.dtype(dtype).itemsize} bytes)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_order_one_is_one_byte(self):
        table = SemigroupTable(1, ((0,),))
        assert table.array.dtype == np.uint8 and table.array.tobytes() == b"\x00"


class TestByteRows:
    """``_byte_rows`` reads list or tuple rows of ints in 0..255 and refuses
    anything else, ragged rows too; ``_frozen`` narrows an array as
    ``astype`` to its largest entry's dtype does, read-only and
    C-contiguous."""

    def test_rows_become_a_read_only_byte_array(self):
        array = core._byte_rows([[0, 255], (True, 7)])
        assert array.dtype == np.uint8 and not array.flags.writeable
        assert array.tolist() == [[0, 255], [1, 7]]

    @pytest.mark.parametrize("rows", [
        np.array([[0, 1], [1, 0]], dtype=np.uint8), [np.array([0, 1]), np.array([1, 0])],
        [[0, 1, 1], [0]],  # ragged, though its 4 cells would reshape to 2 x 2
        [3, 4], [b"\x00\x01", b"\x01\x00"], [{0: 1}, {1: 0}], [[0, 1], 1],  # rows of no ints
        [], [[]], [[], []], [[0, 256]], [[-1, 0]], [[2 ** 64]],
        [[0.0]], [["0"]], [[None]], [[[0]]],
    ])
    def test_refuses_other_tables(self, rows):
        assert core._byte_rows(rows) is None

    @pytest.mark.parametrize("table", [
        np.array([[0, 1], [255, 3]]), np.array([[0, 256]]), np.array([[0, 1]], dtype=np.uint8),
        [np.array([0, 1]), np.array([1, 255])], (np.array([0, 300]),),
        ((np.int64(3), np.int64(255)),), [(np.uint8(7),), (np.intp(0),)],
        [[255, 0]], [[256, 0]], ((0, 255), (1, 2)), ((0, 256), (1, 2)), [[65535]], [[65536]],
        [[True, False], [0, 1]], ((0,),),
    ])
    def test_narrow_matches_asarray(self, table):
        array = np.asarray(table)
        expected = array.astype(core._index_dtype(int(array.max()) + 1))
        got = core._frozen(array)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert not got.flags.writeable and got.flags.c_contiguous
        assert array.flags.writeable  # the caller's array is copied, not frozen


ENTRIES = st.one_of(st.integers(-1, 3), st.booleans(), st.just(1.0), st.none(),
                    st.just(np.int64(1)))


class TestAsTable:
    """The C-level fast path against the entry-by-entry oracle."""

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3), st.data())
    def test_matches_the_entry_loop(self, rows, cols, bound, data):
        table = data.draw(st.lists(
            st.lists(st.integers(0, bound - 1) | ENTRIES, min_size=max(0, cols - 1),
                     max_size=cols + 1),
            min_size=rows, max_size=rows + 1))
        expected = as_table_oracle("t", table, rows, cols, bound)
        try:
            got = as_table("t", table, rows, cols, bound)
        except ValueError as exc:
            got = str(exc)
        assert got == expected


class TestGenerateSemigroup:
    def test_swap_generates_order_two(self):
        table = close_generators([Transformation((1, 0))], compose_transformations).table
        assert table.order == 2
        assert table.names == ((0,), (0, 0))

    def test_constant_is_idempotent(self):
        table = close_generators([Transformation((0, 0))], compose_transformations).table
        assert table.order == 1

    def test_three_cycle_generates_cyclic_three(self):
        table = close_generators([Transformation((1, 2, 0))], compose_transformations).table
        assert table.order == 3
        # cyclic: g^(i+1) * g^(j+1) = g^(i+j+2), indices follow discovery order
        for i in range(3):
            for j in range(3):
                assert table.product[i][j] == (i + j + 1) % 3

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded, match=r"^closure exceeded cap 2: 3 elements "
                                              r"found by words of length 3$"):
            close_generators([Transformation((1, 2, 0))], compose_transformations, cap=2)
        with pytest.raises(CapExceeded, match=r"^closure exceeded cap 1: 2 elements "
                                              r"found by words of length 1$"):
            close_generators([Transformation((1, 0)), Transformation((0, 0))],
                             compose_transformations, cap=1)

    def test_full_transformation_semigroup_of_two_points(self):
        gens = list(all_transformations(2))
        table = close_generators(gens, compose_transformations).table
        assert table.order == 4

    def test_duplicate_generators_collapse(self):
        swap = Transformation((1, 0))
        closure = close_generators([swap, swap], compose_transformations)
        assert closure.table.order == 2
        assert closure.table.generators == (0, 0)

    def test_names_are_shortlex_least(self):
        # two generators: a swap and the identity; identity words never
        # shorten a name below discovery order
        gens = [Transformation((1, 0)), identity_transformation(2)]
        closure = close_generators(gens, compose_transformations)
        assert closure.table.names == ((0,), (1,))

    @given(st.lists(transformations(3), min_size=1, max_size=2))
    def test_closure_is_closed_and_named(self, gens):
        closure = close_generators(gens, compose_transformations, cap=27)
        table = closure.table
        # every product stays inside, every name evaluates back: the
        # closure is not re-checked, so the validating constructor does it
        assert_same_value(table, revalidated(table))
        assert table.order <= 27
        for li, gi in zip(range(len(gens)), closure.table.generators):
            assert closure.elements[gi] == gens[li] or gens.index(gens[li]) < li


class TestCellBudget:
    def test_the_budget_admits_order_8192_and_no_more(self):
        core._check_cells("closure", 8192)
        with pytest.raises(CapExceeded, match=r"^closure of order 8193 needs 67125249 table "
                                              r"cells \(134250498 bytes\), over the budget "
                                              r"of 67108864 cells$"):
            core._check_cells("closure", 8193)

    def test_closure_checks_the_budget_before_filling(self, monkeypatch):
        monkeypatch.setattr(core, "CELL_BUDGET", 8)
        assert close_generators([Transformation((1, 0))], compose_transformations).table.order == 2
        with pytest.raises(CapExceeded, match=r"^closure exceeded the cell budget of 8 cells: "
                                              r"3 elements found by words of length 3 need "
                                              r"9 table cells \(9 bytes\)$"):
            close_generators([Transformation((1, 2, 0))], compose_transformations)

    def test_closure_search_stops_at_the_order_the_budget_admits(self, monkeypatch):
        # T_3 has 27 elements, but a budget of 24 cells admits order 4: the
        # search stops at its fifth element, after two products
        monkeypatch.setattr(core, "CELL_BUDGET", 24)
        calls = []

        def counted(s, t):
            calls.append((s, t))
            return compose_transformations(s, t)
        gens = [Transformation((1, 2, 0)), Transformation((1, 0, 2)), Transformation((0, 0, 2))]
        with pytest.raises(CapExceeded, match=r"^closure exceeded the cell budget of 24 cells: "
                                              r"5 elements found by words of length 2 need "
                                              r"25 table cells \(25 bytes\)$"):
            close_generators(gens, counted)
        assert len(calls) == 2
        # a cap below the budget's order still names the cap
        with pytest.raises(CapExceeded, match=r"^closure exceeded cap 3: 4 elements found "
                                              r"by words of length 2$"):
            close_generators(gens, compose_transformations, cap=3)

    def test_the_full_transformation_monoid_of_five_points_fits(self):
        gens = [Transformation((1, 2, 3, 4, 0)), Transformation((1, 0, 2, 3, 4)),
                Transformation((0, 0, 2, 3, 4))]
        assert close_generators(gens, compose_transformations).table.order == 5 ** 5


class TestClosureAgainstOracle:
    """The Cayley-graph fill against one ``multiply`` call per cell."""

    @given(st.lists(transformations(3), min_size=1, max_size=3), st.booleans())
    def test_transformation_generators(self, gens, repeat):
        if repeat:
            gens = gens + gens[:1]
        closure = close_generators(gens, compose_transformations)
        assert closure.table.product == naive_closure_table(
            closure.elements, compose_transformations)

    @given(st.lists(pairs(2, 2), min_size=1, max_size=3), st.booleans())
    def test_pair_generators(self, gens, repeat):
        if repeat:
            gens = gens + gens[-1:]
        closure = close_generators(gens, multiply_pair)
        assert closure.table.product == naive_closure_table(closure.elements, multiply_pair)

    def test_full_transformation_monoid_of_three_points(self):
        gens = [Transformation((1, 2, 0)), Transformation((1, 0, 2)),
                Transformation((0, 0, 2))]
        closure = close_generators(gens, compose_transformations)
        assert closure.table.order == 27
        assert closure.table.product == naive_closure_table(
            closure.elements, compose_transformations)


def _accepted(table, generators=None) -> bool:
    try:
        SemigroupTable(len(table), table, generators)
    except ValueError as exc:
        assert "not associative" in str(exc) or "not generated" in str(exc)
        return False
    return True


def _corrupt(table, i, j, v):
    rows = [list(r) for r in table]
    rows[i][j] = v
    return tuple(tuple(r) for r in rows)


def tables(max_order):
    return st.integers(1, max_order).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ).map(lambda rows: tuple(tuple(r) for r in rows))


class TestSpanningTree:
    """The breadth-first tree over a table's generator columns."""

    @given(st.lists(transformations(4), min_size=1, max_size=3), st.booleans(), st.data())
    def test_closure_tables_are_listed_in_closure_order(self, gens, repeat, data):
        if repeat:
            gens = gens + gens[:1]
        table = close_generators(gens, compose_transformations, cap=256).table
        tree = core._generated_tree(table.array, table.generators)
        assert np.concatenate(tree.levels).tolist() == list(range(table.order))
        assert tuple(core._tree_word(tree, e) for e in range(table.order)) == table.names
        for k, level in enumerate(tree.levels):
            assert all(len(table.names[e]) == k + 1 for e in level)
        # relabelled by p, element i becomes p[i]: the tree follows the labels
        p = np.array(data.draw(st.permutations(range(table.order))))
        relabelled = np.empty_like(table.array)
        relabelled[p[:, None], p] = p[table.array]
        tree = core._generated_tree(relabelled, p[list(table.generators)])
        assert np.concatenate(tree.levels).tolist() == p.tolist()
        assert tuple(core._tree_word(tree, e) for e in p) == table.names

    @given(st.lists(pairs(2, 2), min_size=1, max_size=3))
    def test_pair_closure_tables_are_listed_in_closure_order(self, gens):
        table = close_generators(gens, multiply_pair).table
        tree = core._generated_tree(table.array, table.generators)
        assert np.concatenate(tree.levels).tolist() == list(range(table.order))
        assert tuple(core._tree_word(tree, e) for e in range(table.order)) == table.names

    def test_unreached_elements_are_off_the_tree(self):
        z2 = np.array([[0, 1], [1, 0]])
        tree = core._generated_tree(z2, (0,))
        assert [level.tolist() for level in tree.levels] == [[0]]
        assert tree.letter.tolist() == [0, -1]
        assert core.unreached(z2, (0,)) == [1]

    @given(st.lists(transformations(3), min_size=1, max_size=3))
    def test_greedy_generators_of_closure_tables(self, gens):
        table = close_generators(gens, compose_transformations).table
        assert core._greedy_generators(table.array) == greedy_generators_oracle(table.product)

    @given(tables(5))
    def test_greedy_generators_of_any_table(self, table):
        assert core._greedy_generators(np.array(table)) == greedy_generators_oracle(table)

    @settings(max_examples=30)
    @given(table=tables(5))
    def test_greedy_generators_of_padded_tables(self, table):
        # the table padded to order 300 with left zeros z, where x z == x:
        # only z itself reaches z, so each z joins the generators
        n, order = len(table), 300
        padded = np.empty((order, order), dtype=np.intp)
        padded[:n, :n] = table
        padded[:n, n:] = np.arange(n)[:, None]
        padded[n:] = np.arange(n, order)[:, None]
        assert core._greedy_generators(padded) == (greedy_generators_oracle(table)
                                                   + tuple(range(n, order)))


class TestLightAgainstOracle:
    """SemigroupTable's generator-based check against the O(n^3) scan."""

    @given(tables(3))
    def test_random_tables(self, table):
        assert _accepted(table) == _is_associative(table)

    @given(tables(3), st.lists(st.integers(0, 2), max_size=3))
    def test_random_tables_with_generators(self, table, gens):
        gens = [g % len(table) for g in gens]
        assert _accepted(table, gens) == (
            _is_associative(table) and is_generated_by(table, gens))

    @given(st.sampled_from(semigroups_up_to_iso(3)), st.integers(0, 2),
           st.integers(0, 2), st.integers(1, 2))
    def test_order_three_semigroups_with_one_corrupted_entry(self, sg, i, j, shift):
        assert _accepted(sg.product)
        bad = _corrupt(sg.product, i, j, (sg.product[i][j] + shift) % 3)
        assert _accepted(bad) == _is_associative(bad)

    @given(st.lists(transformations(3), min_size=1, max_size=2), st.data())
    def test_closures_with_one_corrupted_entry(self, gens, data):
        table = close_generators(gens, compose_transformations).table
        n = table.order
        i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        bad = _corrupt(table.product, i, j, v)
        assert _accepted(bad) == _is_associative(bad)
        assert _accepted(bad, table.generators) == (
            _is_associative(bad) and is_generated_by(bad, table.generators))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(transformations(3), min_size=1, max_size=3), st.data())
    def test_blocked_narrow_witness_is_the_reference_witness(self, gens, data):
        # one flipped entry anywhere, blocks of any height
        table = close_generators(gens, compose_transformations).table
        n = table.order
        i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        bad = _corrupt(table.product, i, j, v)
        narrow = np.array(bad, dtype=core._index_dtype(n))
        rows = data.draw(st.integers(1, n + 1), label="rows")
        with mock.patch.object(core, "_LIGHT_ROWS", rows):
            for g in (table.generating_set, tuple(range(n))):
                assert (core._light_witness(narrow, g)
                        == light_witness_reference(narrow.astype(np.intp), g)
                        == light_witness_oracle(bad, g))
            assert (core._light_witness(narrow, tuple(range(n))) is None) == _is_associative(bad)

    def test_uint16_tables_in_two_blocks_give_the_reference_witness(self):
        # Z3 wr Z2 on 5 points: order 486, rows 0-255 and 256-485
        z2, z3 = (SemigroupTable(k, [[(a + b) % k for b in range(k)] for a in range(k)])
                  for k in (2, 3))
        swap = ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4))
        table = wreath_product(z3, FiniteSet(5), swap, z2).table
        assert table.array.dtype == np.uint16 and table.order > core._LIGHT_ROWS
        rng = Random(486)
        for _ in range(6):
            i, j, v = (rng.randrange(table.order) for _ in range(3))
            bad = table.array.copy()
            bad[i, j] = v
            gens = table.generating_set
            reference = light_witness_reference(bad.astype(np.intp), gens)
            assert core._light_witness(bad, gens) == reference

    def test_witness_is_a_non_associative_triple(self):
        table = ((0, 1, 2), (1, 2, 0), (2, 0, 0))
        assert not _is_associative(table)
        with pytest.raises(ValueError, match="product not associative at") as info:
            SemigroupTable(3, table)
        a, b, c = map(int, str(info.value).rsplit("(", 1)[1].rstrip(")").split(", "))
        assert table[table[a][b]][c] != table[a][table[b][c]]


class TestKernelClasses:
    def test_swap_classes_up_to_three(self):
        table = close_generators([Transformation((1, 0))], compose_transformations).table
        classes = kernel_classes(1, 3, lambda w: evaluate_word(table, (0,), w))
        by_letters = {k: sorted(w.letters for w in v) for k, v in classes.items()}
        assert by_letters == {0: [(0,), (0, 0, 0)], 1: [(0, 0)]}

    def test_idempotent_generator_single_class(self):
        table = close_generators([Transformation((0, 0))], compose_transformations).table
        classes = kernel_classes(1, 3, lambda w: evaluate_word(table, (0,), w))
        assert len(classes) == 1
        assert sorted(len(w) for w in classes[0]) == [1, 2, 3]

    def test_faithful_target_keeps_words_distinct(self):
        # act on the prefix tree of words of length <= 3: node 0 is the
        # root, appending letters walks down, full nodes freeze
        bound = 3
        nodes = [()]
        for length in range(1, bound + 1):
            nodes.extend(itertools.product(range(2), repeat=length))
        index = {w: i for i, w in enumerate(nodes)}

        def append_letter(letter):
            image = []
            for w in nodes:
                w2 = w + (letter,)
                image.append(index[w2] if len(w2) <= bound else index[w])
            return Transformation(tuple(image))

        gens = [append_letter(0), append_letter(1)]
        table = close_generators(gens, compose_transformations).table
        assignment = (0, 1)
        classes = kernel_classes(2, bound, lambda w: evaluate_word(table, assignment, w))
        assert all(len(v) == 1 for v in classes.values())
        assert sum(len(v) for v in classes.values()) == 2 + 4 + 8


class TestWord:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Word((), 2)

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            Word((0, 2), 2)

    def test_concatenation(self):
        assert (Word((0,), 2) + Word((1, 1), 2)).letters == (0, 1, 1)


class TestPublicSurface:
    """``autalg`` exports what a verb runs, the paper's notions and what the
    fixture script builds from; test-only enumerators live in ``helpers``."""

    EXPORTED = [
        "AutomatonMapping", "CapExceeded", "CascadeTriplePure", "CascadeTripleSemigroup",
        "CheckReport", "Closure", "FiniteSet", "FunMap", "GeneratorHom", "MealyElement",
        "MealyMachine", "NotInvertible", "OrderResult", "PairElement", "PureAutomatonFirst",
        "PureAutomatonSecond", "QuotientWitness", "Run", "SemigroupAutomatonFirst",
        "SemigroupAutomatonSecond", "SemigroupTable", "SerialConnection", "Transformation",
        "VerificationError", "Word", "WreathElement", "WreathProduct", "act_word",
        "apply_mapping", "cascade_pure", "cascade_semigroup", "check_first_axioms",
        "check_pure_triple", "check_second_axioms", "check_semigroup_triple",
        "check_semigroup_triple_morphism", "check_serial", "check_triple_morphism",
        "close_generators", "compose_transformations", "decode_mapping", "derive_second_type",
        "element_apply", "element_compose", "element_equal", "element_invert",
        "element_order_bounded", "embed_into_wreath", "evaluate_word", "first_difference",
        "free_extension_out", "grigorchuk_elements", "grigorchuk_machine", "identity_element",
        "is_invertible", "minimize_element", "multiply_pair", "odometer", "quotient_construct",
        "semiautomaton", "semigroupify", "serial_action", "serial_from_second", "to_universal",
        "wreath_automaton", "wreath_product", "wreath_triple",
    ]
    # name -> the module it was defined in before it moved to the tests or was deleted
    GONE = {
        "all_funmaps": "core", "all_transformations": "core", "all_words": "core",
        "generate_semigroup": "core", "identity_transformation": "core",
        "kernel_classes": "core", "act_letters": "second_type", "reachable_states": "serial",
    }

    def test_exported_names_are_pinned(self):
        # names resolve on first use, so vars(autalg) alone holds only those asked for
        import autalg
        assert sorted(autalg.__all__) == self.EXPORTED
        assert set(self.EXPORTED) <= set(dir(autalg))
        for name in self.EXPORTED:
            value = getattr(autalg, name)
            assert value.__module__.startswith("autalg."), name
            assert getattr(importlib.import_module(value.__module__), value.__name__) is value
            assert value.__name__ == name
        with pytest.raises(AttributeError, match="no_such_name"):
            autalg.no_such_name
        public = sorted(name for name, value in vars(autalg).items()
                        if not name.startswith("_") and not isinstance(value, types.ModuleType))
        assert public == self.EXPORTED

    def test_moved_and_deleted_names_are_gone(self):
        import autalg
        for name, module in self.GONE.items():
            assert not hasattr(autalg, name), name
            assert not hasattr(importlib.import_module(f"autalg.{module}"), name), name
        assert "letter_to_index" not in {f.name for f in dataclasses.fields(core.Closure)}

    def test_kernels_import_from_their_modules_only(self):
        import autalg
        from autalg.cascade import product_set
        assert core.check_laws and product_set
        assert not hasattr(autalg, "check_laws") and not hasattr(autalg, "product_set")

    def test_mealy_imports_only_core(self):
        import autalg.mealy
        tree = ast.parse(Path(autalg.mealy.__file__).read_text())
        assert {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level} == {"core"}
        assert autalg.NotInvertible.__module__ == "autalg.core"
