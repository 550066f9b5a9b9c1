import copy
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    CascadeTripleSemigroup,
    FiniteSet,
    GeneratorHom,
    MealyElement,
    MealyMachine,
    PureAutomatonFirst,
    PureAutomatonSecond,
    SemigroupAutomatonFirst,
    SemigroupTable,
    Transformation,
    VerificationError,
    Word,
    close_generators,
    compose_transformations,
    element_apply,
    element_compose,
    minimize_element,
    odometer,
    semiautomaton,
    semigroupify,
    wreath_product,
    wreath_triple,
)
from autalg import cli, schema
from autalg.cli import CommandResult, main, parse_word
from autalg.dot import to_dot
from autalg.schema import (
    _ORJSON_BRACKETS, SchemaError, _text, dump_object, dumps, load, load_object, save,
)
from helpers import int_array_reference, load_oracle

FIXTURES = Path(__file__).parent / "fixtures"

# expected `check` exit code for every fixture in the corpus
CHECK_EXPECTATIONS = {
    "first_pure_swap.json": 0,
    "first_pure_trivial.json": 0,
    "first_pure_keepswap.json": 0,
    "first_pure_tick.json": 0,
    "first_semigroup_swap.json": 0,
    "first_semigroup_z2.json": 0,
    "first_pure_labels.json": 0,
    "first_semigroup_labels.json": 0,
    "second_pure_parity.json": 0,
    "second_pure_odometer.json": 0,
    "second_pure_twoinputs.json": 0,
    "second_semigroup_parity.json": 0,
    "hom_mu_parity.json": 0,
    "hom_nu_parity.json": 0,
    "hom_mu_identify.json": 0,
    "hom_nu_leftzero.json": 0,
    "serial_reset.json": 0,
    "mealy_odometer.json": 0,
    "mealy_identity.json": 0,
    "mealy_grigorchuk.json": 0,
    "mealy_noninvertible.json": 0,
    "cascade_triple_pure.json": 0,
    "cascade_triple_semigroup.json": 0,
    "wreath_z2_z2.json": 0,
    "first_semigroup_corrupt.json": 1,
    "second_semigroup_corrupt.json": 1,
    "serial_corrupt.json": 1,
    "first_pure_bad_range.json": 2,
}


# JSON true/false where the schema expects integers
BOOL_MEALY = {"type": "mealy", "states": True, "initial": False, "alphabet": 2,
              "next": [[0, 0]], "out": [[0, 1]]}

CORPUS = {p.name: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}


# text of any code point, lone surrogates included
ANY_TEXT = st.characters(exclude_categories=())
# int arrays: in the data _dump gives, a product, the value of an object
# nested only in objects
INT_ARRAYS = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 10**5), min_size=width, max_size=width),
    min_size=1, max_size=4)).map(lambda rows: np.array(rows, dtype=np.intp))
# JSON data as _dump gives it, without arrays: no floats, ints to +-2**70,
# text of any code point, tuples as well as lists
PLAIN_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
    | st.text(ANY_TEXT, max_size=4),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.lists(st.integers(-3, 10**20), max_size=4)
                      | st.dictionaries(st.text(ANY_TEXT, max_size=3), children, max_size=4)),
    max_leaves=20)


def _plain(value):
    """``value`` with each array in it as a list of rows."""
    if type(value) is dict:
        return {key: _plain(v) for key, v in value.items()}
    if type(value) in (list, tuple):
        return [*map(_plain, value)]
    return value.tolist() if type(value) is np.ndarray else value


def _nested(value, pad: str):
    """``value`` as the one entry of objects nested ``pad`` deep, which
    json writes ``pad`` deep."""
    for _ in range(len(pad) // 2):
        value = {"k": value}
    return value


def _sites(node, path=()):
    """Every key and list entry below ``node``, as paths from it."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _sites(child, path + (key,))


# (fixture, path) for every spot a single mutation can hit
MUTATION_SITES = [(name, path) for name, data in CORPUS.items() for path in _sites(data)]
DELETE = object()


def _mutated(name: str, path: tuple, value):
    data = copy.deepcopy(CORPUS[name])
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def test_manifest_covers_the_corpus():
    assert {p.name for p in FIXTURES.glob("*.json")} == set(CHECK_EXPECTATIONS)


def test_make_fixtures_reproduces_the_corpus(tmp_path):
    script = Path(__file__).parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


class TestRoundTrip:
    @pytest.mark.parametrize("name", [n for n, code in CHECK_EXPECTATIONS.items()
                                      if code != 2])
    def test_load_dump_load(self, name):
        obj = load(FIXTURES / name)
        again = load_object(json.loads(dumps(obj)))
        assert again == obj

    @pytest.mark.parametrize("name", [n for n, code in CHECK_EXPECTATIONS.items()
                                      if code != 2])
    def test_dump_is_canonical(self, name, tmp_path):
        obj = load(FIXTURES / name)
        save(tmp_path / "copy.json", obj)
        assert (tmp_path / "copy.json").read_text() == dumps(obj)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        PLAIN_DATA | INT_ARRAYS,
        lambda objects: st.dictionaries(st.text(ANY_TEXT, max_size=3), objects, max_size=4),
        max_leaves=8))
    def test_writer_matches_json_dumps(self, value):
        assert _text(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"

    def test_labels_are_escaped_without_writing_the_table_by_json(self):
        # json is handed only the runs it escapes, never the table: a
        # labelled wreath of order 6144 went through json as 37.7 M Python
        # ints and ran out of memory under a 3 GB address-space limit
        value = {"labels": ["\u00e9", "a\x7f\"", "\U0001f600\\"],
                 "product": np.arange(90_000, dtype=np.uint16).reshape(300, 300)}
        with mock.patch.object(json, "dumps", wraps=json.dumps) as spy:
            text = _text(value)
        assert text == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"
        assert {type(call.args[0]) for call in spy.call_args_list} == {str}

    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(MUTATION_SITES),
           st.sampled_from([DELETE, None, True, False, "x", [], [0], {}, {"size": 1}])
           | st.integers(-3, 9) | st.just(2**70))
    def test_single_mutation_is_a_schema_error_or_round_trips(self, site, value):
        data = _mutated(*site, value)
        try:
            obj = load_object(data)
        except SchemaError:
            return
        text = dumps(obj)
        assert dumps(load_object(json.loads(text))) == text

    @pytest.mark.parametrize("kind", [[1], {"a": 1}, None, 3])
    def test_unhashable_or_odd_type_tag_is_unknown(self, kind):
        with pytest.raises(SchemaError, match=rf"^file: unknown type {re.escape(repr(kind))}$"):
            load_object({"type": kind})

    def test_deep_nesting_is_an_input_error(self, tmp_path, capsys):
        brackets = tmp_path / "brackets.json"
        brackets.write_text("[" * 100_000)
        serial = tmp_path / "serial.json"
        serial.write_text('{"type": "serial", "first": ' * 990 + "{}" + "}" * 990)
        for path in (brackets, serial):
            with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "):
                load(path)
            assert main(["check", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_bad_range_names_the_entry(self):
        with pytest.raises(SchemaError, match=r"next\[0\]\[0\]"):
            load(FIXTURES / "first_pure_bad_range.json")

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown type"):
            load_object({"type": "nonsense"})

    def test_missing_key_named(self):
        with pytest.raises(SchemaError, match="missing key"):
            load_object({"type": "mealy", "states": 1, "alphabet": 2})

    @pytest.mark.parametrize("data, where", [
        (BOOL_MEALY, "states"),
        ({**BOOL_MEALY, "states": 1}, "initial"),
        ({**BOOL_MEALY, "states": 1, "initial": 0, "alphabet": True}, "alphabet"),
        ({**BOOL_MEALY, "states": 1, "initial": 0, "next": [[0, True]]}, r"next\[0\]\[1\]"),
        ({"type": "generator-hom", "alphabet_size": True,
          "target": {"order": 2, "product": [[0, 1], [1, 0]]}, "assignment": [1]},
         "alphabet_size"),
    ])
    def test_bool_is_not_an_integer(self, data, where):
        with pytest.raises(SchemaError,
                           match=rf"\.{where}: expected an integer, got (True|False)"):
            load_object(data)

    @pytest.mark.parametrize("key, value, message", [
        ("generators", True, "file.gamma.generators: expected a list"),
        ("names", "x", "file.gamma.names: expected a list of rows"),
    ])
    def test_bad_generators_or_names_are_named_once(self, key, value, message):
        with pytest.raises(SchemaError) as info:
            load_object(_mutated("cascade_triple_semigroup.json", ("gamma", key), value))
        assert str(info.value) == message

    def test_closure_and_wreath_tables_load_back_equal(self):
        z2 = SemigroupTable(2, ((0, 1), (1, 0)))
        z3 = SemigroupTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        closure = semigroupify(load(FIXTURES / "first_pure_keepswap.json"))
        triple = wreath_triple(wreath_product(z3, FiniteSet(2), ((0, 1), (1, 0)), z2))
        for obj in (closure, triple):
            gamma = load_object(json.loads(dumps(obj))).gamma
            assert gamma == obj.gamma and hash(gamma) == hash(obj.gamma)
            assert gamma.product == obj.gamma.product

    @pytest.mark.parametrize("letter", [5, -1])
    def test_name_letter_outside_the_generators_is_an_input_error(
            self, tmp_path, capsys, letter):
        path = tmp_path / "names.json"
        path.write_text(json.dumps({
            "type": "first-semigroup", "states": {"size": 1}, "outputs": {"size": 1},
            "semigroup": {"order": 1, "product": [[0]], "generators": [0],
                          "names": [[letter]]},
            "next": [[0]], "out": [[0]]}))
        with pytest.raises(SchemaError, match=rf"letter {letter} out of range 0..0"):
            load(path)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.semigroup: names[0] = ({letter},): "
            f"letter {letter} out of range 0..0\n")

    def test_bool_machine_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(BOOL_MEALY))
        assert main(["group", "apply", str(path), "0", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _table(rows: int, cols: int, bound: int):
    return st.lists(st.lists(st.integers(0, bound - 1), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _finite_sets(draw, size: int) -> FiniteSet:
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=size, max_size=size,
                                       unique=True))
    return FiniteSet(size, labels)


@st.composite
def _pure_automata(draw, cls=PureAutomatonFirst):
    a, x, b = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return cls(draw(_finite_sets(a)), draw(_finite_sets(x)), draw(_finite_sets(b)),
               draw(_table(a, x, a)), draw(_table(a, x, b)))


@st.composite
def _homs_onto_tables(draw) -> GeneratorHom:
    """A hom onto a random closure's table, kept with its names, with its
    generators only, or bare."""
    gamma = semigroupify(draw(_pure_automata())).gamma
    table = draw(st.sampled_from([
        gamma, SemigroupTable(gamma.order, gamma.array, gamma.generators),
        SemigroupTable(gamma.order, gamma.array)]))
    return GeneratorHom(len(table.generating_set), table, table.generating_set)


@st.composite
def _mealy(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    machine = MealyMachine(n, k, draw(_table(n, k, n)), draw(_table(n, k, k)))
    return draw(st.sampled_from([machine, MealyElement(machine, draw(st.integers(0, n - 1)))]))


def _first_semigroup(product, order: int = 2) -> dict:
    return {"type": "first-semigroup", "states": {"size": 1}, "outputs": {"size": 1},
            "semigroup": {"order": order, "product": product},
            "next": [[0] * order], "out": [[0] * order]}


@st.composite
def _products(draw):
    """An order and a product for it: rows of in-range ints, or of ints to
    300, bools, floats, strings, None and lists, of any length; or the
    table of Z_order with one cell redrawn."""
    order = draw(st.integers(1, 4))
    cell = st.one_of(st.integers(0, order - 1), st.integers(0, 300), st.booleans(),
                     st.sampled_from([0.0, 1.0, "0", None, [0], [[1]]]))
    if draw(st.booleans()):
        product = [[(x + y) % order for y in range(order)] for x in range(order)]
        product[draw(st.integers(0, order - 1))][draw(st.integers(0, order - 1))] = draw(cell)
        return order, product
    row = st.one_of(st.lists(cell, min_size=order, max_size=order),
                    st.lists(cell, max_size=order + 1), st.sampled_from([0, None]))
    return order, draw(st.lists(row, min_size=order - 1, max_size=order + 1))


class TestTableCodec:
    """The table fast paths of the writer and the reader give the bytes
    and the messages of the plain code."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_pure_automata(), _pure_automata(PureAutomatonSecond),
                     _pure_automata().map(semigroupify), _homs_onto_tables(), _mealy()))
    def test_random_objects_round_trip_byte_stably(self, tmp_path_factory, obj):
        text = dumps(obj)
        assert text == json.dumps(dump_object(obj), indent=2, sort_keys=True) + "\n"
        path = tmp_path_factory.getbasetemp() / "random.json"
        path.write_text(text)
        again = load(path)
        assert again == obj
        assert dumps(again) == text

    @pytest.mark.parametrize("order,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_tables_either_side_of_one_byte_round_trip(self, tmp_path, order, dtype):
        if order == 256:  # T_4, the last order stored in one byte
            gens = [Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3)),
                    Transformation((0, 0, 2, 3))]
            table = close_generators(gens, compose_transformations).table
        else:  # Z_257
            table = SemigroupTable(257, np.add.outer(np.arange(257), np.arange(257)) % 257, (1,))
        m = semiautomaton(FiniteSet(1), table, ((0,) * order,))
        text = dumps(m)
        assert text == json.dumps(dump_object(m), indent=2, sort_keys=True) + "\n"
        path = tmp_path / "table.json"
        path.write_text(text)
        again = load(path)
        assert again.gamma.array.dtype == table.array.dtype == dtype
        assert again == m and hash(again.gamma) == hash(table)
        assert dumps(again) == text

    @pytest.mark.parametrize("value", [
        [[1, 2], [3]], [[1, 2, 3], [4, 5], [6]],  # ragged rows
        [[], [1]], [[1], []], [[]], [[], []],  # empty rows
        ((1, 2), (3, 4)), [(0,), [1, 2]], (5, 6),  # tuples
        [[1, True], [0, 1]], [[False]], [True, 1], [[0], [1, False]],  # bools among ints
        [[-1, 0, 4095, 4096], [10**20, -(10**20)]], [-5, 2**70], [[4096]],  # beyond the tokens
        [[[1, 2]], [[3]]], [[1], 2], [{"a": 1}, [1]], [[1, "2"]], [[1, None]],
    ])
    @pytest.mark.parametrize("pad", ["", "    "])
    def test_encode_edge_cases_match_json_dumps(self, value, pad):
        value = _nested(value, pad)
        assert _text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("rows", [
        [[0]], [[4096]], [[0, 1, 2, 3, 4]], [[5], [0], [4095], [4096], [1]],  # 1x1, 1xn, nx1
        [[4096, 4097], [10**6, 0]], [[7, 0, 12], [3, 9, 1]], [[0, 0], [0, 0]],
    ])
    @pytest.mark.parametrize("pad", ["", "    "])
    def test_array_writer_matches_json_dumps(self, rows, pad):
        expected = json.dumps(_nested(rows, pad), indent=2) + "\n"
        assert _text(_nested(np.array(rows, dtype=np.intp), pad)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda width: st.lists(
               st.lists(st.integers(0, 10**5), min_size=width, max_size=width),
               min_size=1, max_size=6)))
    def test_random_arrays_match_json_dumps(self, rows):
        assert _text(np.array(rows, dtype=np.intp)) == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        *(PureAutomatonFirst(FiniteSet(2, ("a", label)), FiniteSet(1), FiniteSet(1),
                             ((1,), (0,)), ((0,), (0,)))
          for label in ("\x7f", "\u00e9", "\U0001f600", "\ud800")),
        PureAutomatonFirst(FiniteSet(1), FiniteSet(1), FiniteSet(2**70), ((0,),), ((0,),)),
    ], ids=["del", "latin1", "astral", "lone-surrogate", "size-2**70"])
    def test_objects_orjson_writes_differently_match_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(dump_object(obj), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", [n for n, code in CHECK_EXPECTATIONS.items()
                                      if code != 2])
    def test_dump_object_is_plain_json(self, name):
        # the data JSON accepts, written as the array path writes it
        obj = load(FIXTURES / name)
        assert json.dumps(dump_object(obj), indent=2, sort_keys=True) + "\n" == dumps(obj)

    @pytest.mark.parametrize("product, message", [
        ([[0, 1], [1, True]], "file.semigroup.product[1][1]: expected an integer, got True"),
        ([[0, 1], [False, 0]], "file.semigroup.product[1][0]: expected an integer, got False"),
        ([[True, 1], [1, 0]], "file.semigroup.product[0][0]: expected an integer, got True"),
        ([[0, 1.0], [1, 0]], "file.semigroup.product[0][1]: expected an integer, got 1.0"),
        ([[0, 1], [None, 0]], "file.semigroup.product[1][0]: expected an integer, got None"),
        ([[0, "3"], [1, 0]], "file.semigroup.product[0][1]: expected an integer, got '3'"),
        ([[0, 1], [10**30, 0]],
         "file.semigroup: product[1][0] = 1000000000000000000000000000000 out of range 0..1"),
        ([[0, 1], [2**63, 0]],
         "file.semigroup: product[1][0] = 9223372036854775808 out of range 0..1"),
        ([[[0], [1]], [[1], [0]]], "file.semigroup.product[0][0]: expected an integer, got [0]"),
        ([[0, 1], [1, 0], [0, 1]], "file.semigroup: product: expected 2 rows, got 3"),
        ([[0, 1]], "file.semigroup: product: expected 2 rows, got 1"),
        ([[0, 1], [1]], "file.semigroup: product[1]: expected 2 entries, got 1"),
        ([[0, 1, 0], [1, 0, 1]], "file.semigroup: product[0]: expected 2 entries, got 3"),
        ([[], []], "file.semigroup: product[0]: expected 2 entries, got 0"),
        ([], "file.semigroup: product: expected 2 rows, got 0"),
        ([[0, 1], [1, 2]], "file.semigroup: product[1][1] = 2 out of range 0..1"),
        ([[0, 1], [1, -1]], "file.semigroup: product[1][1] = -1 out of range 0..1"),
        ([[0, 1], 1], "file.semigroup.product[1]: expected a list"),
        ([(0, 1), (1, 0)], "file.semigroup.product[0]: expected a list"),
        ("ab", "file.semigroup.product: expected a list of rows"),
        # tables that the bytes reader refuses or reads as 0 and 1
        ([[0, 1, 1], [0]], "file.semigroup: product[0]: expected 2 entries, got 3"),
        ([[0, True], [1, 0]], "file.semigroup.product[0][1]: expected an integer, got True"),
        ([[0, 1], [1, False]], "file.semigroup.product[1][1]: expected an integer, got False"),
        ([[0.0, 1], [1, 0]], "file.semigroup.product[0][0]: expected an integer, got 0.0"),
        ([[0, 1], ["0", 0]], "file.semigroup.product[1][0]: expected an integer, got '0'"),
        ([[0, [0]], [1, 0]], "file.semigroup.product[0][1]: expected an integer, got [0]"),
        ([[0, 1], [1, 256]], "file.semigroup: product[1][1] = 256 out of range 0..1"),
        ([[-1, 1], [1, 0]], "file.semigroup: product[0][0] = -1 out of range 0..1"),
        ([[0, 2**64], [1, 0]],
         "file.semigroup: product[0][1] = 18446744073709551616 out of range 0..1"),
    ])
    def test_bad_product_messages(self, product, message):
        with pytest.raises(SchemaError) as info:
            load_object(_first_semigroup(product))
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(_products())
    def test_bytes_reader_matches_the_np_array_reader(self, case):
        order, product = case
        data = _first_semigroup(product, order)

        def outcome():
            try:
                return load_object(copy.deepcopy(data))
            except SchemaError as exc:
                return str(exc)
        got = outcome()
        with mock.patch.object(schema, "_int_array", int_array_reference):
            expected = outcome()
        assert type(got) is type(expected) and got == expected

    def test_tables_in_one_byte_skip_the_plain_checks(self, tmp_path):
        # Z_200 and T_4 (order 256): no product cell reaches _int_table
        gens = [Transformation((1, 2, 3, 0)), Transformation((1, 0, 2, 3)),
                Transformation((0, 0, 2, 3))]
        for table in (SemigroupTable(200, np.add.outer(np.arange(200), np.arange(200)) % 200),
                      close_generators(gens, compose_transformations).table):
            path = tmp_path / "table.json"
            save(path, semiautomaton(FiniteSet(1), table, ((0,) * table.order,)))
            with mock.patch.object(schema, "_int_table", wraps=schema._int_table) as spy:
                again = load(path)
            assert again.gamma == table
            assert [c.args[1] for c in spy.call_args_list if "product" in c.args[1]] == []

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not valid UTF-8: "):
            load(path)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position 0: invalid start byte\n")


# one JSON text per slot the reader treats differently; %s is the value
_INT_FIELD = ('{"type": "mealy", "states": %s, "initial": 0, "alphabet": 1, '
              '"next": [[0]], "out": [[0]]}')
_INITIAL = ('{"type": "mealy", "states": 1, "initial": %s, "alphabet": 1, '
            '"next": [[0]], "out": [[0]]}')
_STATES_SIZE = ('{"type": "first-pure", "states": {"size": %s}, "inputs": {"size": 1}, '
                '"outputs": {"size": 1}, "next": [[0]], "out": [[0]]}')
_OUTPUTS_SIZE = ('{"type": "first-pure", "states": {"size": 1}, "inputs": {"size": 1}, '
                 '"outputs": {"size": %s}, "next": [[0]], "out": [[0]]}')
_LABEL = ('{"type": "first-pure", "states": {"size": 2, "labels": [%s, "a"]}, '
          '"inputs": {"size": 1}, "outputs": {"size": 1}, "next": [[1], [0]], "out": [[0], [0]]}')
_SEMIGROUP = ('{"type": "first-semigroup", "states": {"size": 1}, "outputs": {"size": 1}, '
              '"semigroup": {"order": 2, "product": [[0, 1], [1, %s]], "generators": [%s]}, '
              '"next": [[0, 0]], "out": [[0, 0]]}')
_BIG_INTS = {"2**64": str(2**64), "10**30": str(10**30), "-2**63-1": str(-2**63 - 1)}
_UTF8_LABELS = ('{"type": "first-semigroup", '
                '"states": {"size": 2, "labels": ["\u00e9", "\U0001f600"]}, '
                '"outputs": {"size": 1, "labels": ["\u00fc"]}, '
                '"semigroup": {"order": 2, "product": [[0, 1], [1, 0]], "generators": [1]}, '
                '"next": [[0, 1], [1, 0]], "out": [[0, 0], [0, 0]]}')


def _with_brackets(text: str, brackets: int) -> bytes:
    """``text``, an object, with a "note" of empty lists that brings its
    opening brackets to ``brackets``."""
    pad = brackets - text.count("[") - text.count("{") - 1
    return (text[:-1] + ', "note": [' + ", ".join(["[]"] * pad) + "]}").encode()

READER_CASES = {
    **{f"{name}-{slot}": (template % value).encode()
       for name, value in (("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"),
                           ("1e400", "1e400"))
       for slot, template in (("int", _INT_FIELD), ("label", _LABEL))},
    "lone-surrogate-label": (_LABEL % '"\\ud800"').encode(),
    **{f"{name}-{slot}": text.encode()
       for name, value in _BIG_INTS.items()
       for slot, text in (("states.size", _STATES_SIZE % value),
                          ("outputs.size", _OUTPUTS_SIZE % value), ("label", _LABEL % value),
                          ("product", _SEMIGROUP % (value, 0)),
                          ("generator", _SEMIGROUP % (0, value)))},
    "float-label": (_LABEL % "1.5").encode(),
    # as floats the two labels would be equal
    "10**30-beside-1e+30-label": (_LABEL % 10**30).replace('"a"', '"1e+30"').encode(),
    "bom": ("\ufeff" + _INITIAL % 0).encode(),
    "invalid-utf8": b'{"type": "mealy\xff"}',
    "crlf-malformed": b'{\r\n  "type": "mealy",\r\n  "states": 1,,\r\n}\r\n',
    "duplicate-keys": (_INITIAL % 0).replace('"states": 1', '"states": 3, "states": 1').encode(),
    "minus-zero-initial": (_INITIAL % "-0").encode(),
    "minus-zero-size": (_INT_FIELD % "-0").encode(),
    "non-associative":
        (_SEMIGROUP % (0, 0)).replace("[[0, 1], [1, 0]]", "[[1, 1], [0, 0]]").encode(),
    # read as bytes: newlines, multi-byte labels and the bracket guard
    "crlf-valid": (_SEMIGROUP % (0, 1)).replace(", ", ",\r\n  ").encode(),
    "lone-cr-whitespace": (_SEMIGROUP % (0, 1)).replace(", ", ",\r").encode(),
    "utf8-labels-beside-a-product": _UTF8_LABELS.encode(),
    "brackets-at-the-guard": _with_brackets(_SEMIGROUP % (0, 1), _ORJSON_BRACKETS),
    "brackets-past-the-guard": _with_brackets(_SEMIGROUP % (0, 1), _ORJSON_BRACKETS + 1),
}


def _outcome(loader, path):
    """What ``loader`` makes of the file: the object's text, or the error."""
    try:
        return dumps(loader(path))
    except Exception as exc:  # the kind of error must match too
        return type(exc).__name__, str(exc)


class TestReaderMatchesJson:
    """``load`` gives what ``json`` alone gives (``load_oracle``): the same
    object bytes or the same error."""

    @pytest.mark.parametrize("text", READER_CASES.values(), ids=READER_CASES.keys())
    def test_reader_cases(self, tmp_path, text):
        path = tmp_path / "case.json"
        path.write_bytes(text)
        assert _outcome(load, path) == _outcome(load_oracle, path)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(sorted(CORPUS)), st.data())
    def test_one_byte_edit_reads_as_json_reads_it(self, tmp_path_factory, name, data):
        text = (FIXTURES / name).read_bytes()
        at = data.draw(st.integers(0, len(text)), label="at")
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]), label="edit")
        byte = bytes([data.draw(st.sampled_from(b'0123456789-+.eE"\\[]{},:') | st.integers(0, 255),
                                label="byte")])
        text = text[:at] + (b"" if edit == "delete" else byte) + text[at + (edit != "insert"):]
        path = tmp_path_factory.getbasetemp() / "edited.json"
        path.write_bytes(text)
        assert _outcome(load, path) == _outcome(load_oracle, path)

    @pytest.mark.parametrize("refused", [False, True], ids=["installed", "depth-limited"])
    @pytest.mark.parametrize("note", ["[" * 5000 + "]" * 5000,
                                      '{"a": ' * 5000 + "1" + "}" * 5000])
    def test_deep_nesting_in_an_ignored_key_loads_where_orjson_reads_it(
            self, tmp_path, monkeypatch, note, refused):
        # the one verdict that may change: json's recursion limit, not the
        # file, rejected this nesting where the loader never looks.  The
        # file loads where the installed orjson reads the nesting (3.8 has
        # no depth limit); where orjson refuses it, as a release with a
        # depth limit does, json's verdict stands
        path = tmp_path / "deep.json"
        path.write_text((FIXTURES / "mealy_odometer.json").read_text()[:-2]
                        + f', "note": {note}}}')
        with pytest.raises(SchemaError, match=r": nested too deeply$"):
            load_oracle(path)
        try:
            orjson.loads(note)
            reads = not refused
        except orjson.JSONDecodeError:
            reads = False
        if refused:
            def loads(text):  # load passes bytes; the error's document is a str
                raise orjson.JSONDecodeError("recursion limit reached", "", 0)
            monkeypatch.setattr(orjson, "loads", loads)
        if reads:
            assert load(path) == load(FIXTURES / "mealy_odometer.json")
        else:
            with pytest.raises(SchemaError, match=r": nested too deeply$"):
                load(path)
        assert main(["check", str(path)]) == (0 if reads else 2)

    @pytest.mark.parametrize("extra,reads", [(0, 1), (1, 0)], ids=["at", "past"])
    def test_the_guard_counts_the_brackets_of_the_bytes(self, tmp_path, monkeypatch,
                                                        extra, reads):
        # multi-byte labels hold no bracket byte, so the count is exact
        path = tmp_path / "guard.json"
        path.write_bytes(_with_brackets(_UTF8_LABELS, _ORJSON_BRACKETS + extra))
        calls = []
        loads = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda raw: calls.append(raw) or loads(raw))
        assert load(path).states.labels == ("\u00e9", "\U0001f600")
        assert len(calls) == reads and all(type(raw) is bytes for raw in calls)

    def test_nesting_past_the_bracket_budget_is_read_by_json(self, tmp_path):
        # orjson 3.8 would recurse 100k levels on the C stack and crash
        depth = 10 * _ORJSON_BRACKETS
        path = tmp_path / "deeper.json"
        path.write_text('{"type": "mealy", "note": ' + '{"a": ' * depth + "1" + "}" * depth + "}")
        proc = subprocess.run([sys.executable, "-m", "autalg.cli", "check", str(path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, f"error: {path}: nested too deeply\n")


class TestCheckCommand:
    @pytest.mark.parametrize("name,expected", sorted(CHECK_EXPECTATIONS.items()))
    def test_exit_codes(self, name, expected):
        assert main(["check", str(FIXTURES / name)]) == expected

    def test_missing_file_is_an_input_error(self):
        assert main(["check", str(FIXTURES / "no_such_file.json")]) == 2

    def test_semigroup_triple_against_components(self):
        code = main(["check", str(FIXTURES / "cascade_triple_semigroup.json"),
                     "--components", str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "first_semigroup_z2.json")])
        assert code == 0

    def test_word_bound_check_on_pure_files(self):
        # the length sets no work, so 64 (2**64 words) passes at once
        for max_len in ("4", "64"):
            assert main(["check", str(FIXTURES / "first_pure_swap.json"),
                         "--max-len", max_len]) == 0
            assert main(["check", str(FIXTURES / "second_pure_odometer.json"),
                         "--max-len", max_len]) == 0

    def test_word_bound_check_compares_generator_columns(self, monkeypatch, capsys):
        import autalg.cli as cli

        def altered(m):
            image = semigroupify(m)
            g = image.gamma.generators[0]
            out = [list(row) for row in image.out]
            out[1][g] = 1 - out[1][g]
            return dataclasses.replace(image, out=out)

        monkeypatch.setattr(cli, "semigroupify", altered)
        assert main(["check", str(FIXTURES / "first_pure_swap.json"),
                     "--max-len", "1"]) == 1
        assert capsys.readouterr().out == (
            "fail: pure/semigroup word agreement at (1, (0,)): "
            "lhs = Run(state=0, output=1), rhs = Run(state=0, output=0)\n")

    def test_negative_max_len_is_an_input_error(self, capsys):
        assert main(["check", str(FIXTURES / "second_pure_odometer.json"),
                     "--max-len", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-len must be at least 0\n"

    def test_corrupt_witness_is_printed(self, capsys):
        assert main(["check", str(FIXTURES / "first_semigroup_corrupt.json")]) == 1
        out = capsys.readouterr().out
        assert "fail" in out and "lhs" in out

    def test_dot_export(self, tmp_path):
        target = tmp_path / "m.dot"
        assert main(["check", str(FIXTURES / "mealy_odometer.json"),
                     "--dot", str(target)]) == 0
        assert target.read_text().startswith("digraph")

    @pytest.mark.parametrize("name, cls", [("serial_reset.json", "SerialConnection"),
                                           ("cascade_triple_pure.json", "CascadeTriplePure"),
                                           ("hom_mu_parity.json", "GeneratorHom")])
    def test_dot_without_a_renderer_is_an_input_error(self, tmp_path, capsys, name, cls):
        target = tmp_path / "x.dot"
        assert main(["check", str(FIXTURES / name), "--dot", str(target)]) == 2
        assert capsys.readouterr() == ("", f"error: no DOT renderer for {cls}\n")
        assert not target.exists()


def _z3_wreath_z2_embedding(tmp_path, k: int) -> tuple[list[str], list[int]]:
    """Files for embedding a sub-cascade into Z3 wr Z2 on k points, Z2
    swapping the points 2i and 2i + 1, and the ranks the embedding must
    print: Gamma is generated by two wreath elements (bar, s), stored as
    flat tuples bar + (s,), whose rank reads bar in base 3, then s."""
    z2 = SemigroupTable(2, ((0, 1), (1, 0)))
    z3 = SemigroupTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))

    def multiply(e, f):  # (bar, s)(bar', s') == (a |-> bar(a) bar'(a.s), s s')
        return tuple((e[a] + f[a ^ e[k]]) % 3 for a in range(k)) + (e[k] ^ f[k],)
    closure = close_generators([(1,) + (0,) * (k - 1) + (1,), (0, 0, 2, 1) + (0,) * (k - 3)],
                               multiply)
    elements = [closure.elements[i] for i in range(closure.table.order)]
    triple = CascadeTripleSemigroup(closure.table,
                                    alpha=tuple(tuple(e[a] for e in elements) for a in range(k)),
                                    beta=tuple(e[k] for e in elements))
    m1 = SemigroupAutomatonFirst(FiniteSet(3), z3, FiniteSet(3), z3.product, z3.product)
    m2 = SemigroupAutomatonFirst(FiniteSet(k), z2, FiniteSet(1),
                                 tuple((a, a ^ 1) for a in range(k)), ((0, 0),) * k)
    paths = []
    for name, obj in (("triple", triple), ("m1", m1), ("m2", m2)):
        paths.append(str(tmp_path / f"{name}.json"))
        save(paths[-1], obj)
    ranks = [int("".join(map(str, e[:k])), 3) * 2 + e[k] for e in elements]
    return paths, ranks


class TestConstructCommand:
    def test_semigroupify_writes_a_passing_file(self, tmp_path):
        out = tmp_path / "sg.json"
        assert main(["construct", "semigroupify",
                     str(FIXTURES / "first_pure_swap.json"), "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0
        built = load(out)
        assert built == semigroupify(load(FIXTURES / "first_pure_swap.json"))
        assert built.gamma.order == 2

    def test_semigroupify_cap_is_an_input_error(self, tmp_path, capsys):
        assert main(["construct", "semigroupify", str(FIXTURES / "first_pure_swap.json"),
                     "--cap", "1", "-o", str(tmp_path / "never.json")]) == 2
        assert capsys.readouterr().err == (
            "error: closure exceeded cap 1: 2 elements found by words of length 2\n")
        assert not (tmp_path / "never.json").exists()

    def test_wreath_past_the_cell_budget_is_an_input_error(self, tmp_path, capsys):
        labels, out = str(FIXTURES / "first_semigroup_labels.json"), tmp_path / "never.json"
        assert main(["construct", "wreath", labels, labels, "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: wreath product of order 20736 needs 429981696 table cells "
                "(859963392 bytes), over the budget of 67108864 cells\n")
        assert not out.exists()

    def test_cascade_pure(self, tmp_path):
        out = tmp_path / "cascade.json"
        assert main(["construct", "cascade",
                     str(FIXTURES / "first_pure_keepswap.json"),
                     str(FIXTURES / "first_pure_tick.json"),
                     str(FIXTURES / "cascade_triple_pure.json"),
                     "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0
        assert load(out).states.size == 4

    def test_cascade_semigroup(self, tmp_path):
        out = tmp_path / "cascade.json"
        assert main(["construct", "cascade",
                     str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "cascade_triple_semigroup.json"),
                     "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_wreath_and_triple(self, tmp_path):
        out = tmp_path / "wreath.json"
        triple = tmp_path / "triple.json"
        assert main(["construct", "wreath",
                     str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "first_semigroup_z2.json"),
                     "-o", str(out), "--triple-out", str(triple)]) == 0
        assert main(["check", str(out)]) == 0
        assert load(out).gamma.order == 8
        assert main(["check", str(triple), "--components",
                     str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "first_semigroup_z2.json")]) == 0

    def test_wreath_cap_is_an_input_error(self, tmp_path):
        assert main(["construct", "wreath",
                     str(FIXTURES / "first_semigroup_z2.json"),
                     str(FIXTURES / "first_semigroup_z2.json"),
                     "--cap", "5", "-o", str(tmp_path / "w.json")]) == 2

    def test_serial_and_derive_second_round_trip(self, tmp_path):
        serial = tmp_path / "serial.json"
        derived = tmp_path / "derived.json"
        assert main(["construct", "serial",
                     str(FIXTURES / "second_semigroup_parity.json"),
                     "-o", str(serial)]) == 0
        assert main(["check", str(serial)]) == 0
        assert main(["construct", "derive-second", str(serial),
                     "-o", str(derived)]) == 0
        assert load(derived) == load(FIXTURES / "second_semigroup_parity.json")

    def test_quotient_success(self, tmp_path):
        out = tmp_path / "quotient.json"
        assert main(["construct", "quotient",
                     str(FIXTURES / "second_pure_parity.json"),
                     str(FIXTURES / "hom_mu_parity.json"),
                     str(FIXTURES / "hom_nu_parity.json"),
                     "-o", str(out)]) == 0
        assert load(out) == load(FIXTURES / "second_semigroup_parity.json")

    def test_quotient_incompatibility_exits_one(self, tmp_path, capsys):
        code = main(["construct", "quotient",
                     str(FIXTURES / "second_pure_twoinputs.json"),
                     str(FIXTURES / "hom_mu_identify.json"),
                     str(FIXTURES / "hom_nu_leftzero.json"),
                     "-o", str(tmp_path / "never.json")])
        assert code == 1
        assert capsys.readouterr().out == (
            "incompatible: words (0,) and (1,) share an input image but behave "
            "as (0, 0) vs (0, 1) from state 0\n")
        assert not (tmp_path / "never.json").exists()

    EMBED_INPUTS = [str(FIXTURES / "cascade_triple_semigroup.json"),
                    str(FIXTURES / "first_semigroup_z2.json"),
                    str(FIXTURES / "first_semigroup_z2.json")]

    def test_embed(self, tmp_path, capsys):
        code = main(["construct", "embed", *self.EMBED_INPUTS])
        assert code == 0
        assert capsys.readouterr() == ("embedding 0 7\n", "")
        out = tmp_path / "phi.json"
        assert main(["construct", "embed", *self.EMBED_INPUTS, "-o", str(out)]) == 0
        assert capsys.readouterr() == (f"embedding 0 7\nwrote {out}\n", "")
        assert out.read_bytes() == (b'{\n  "mapping": [\n    0,\n    7\n  ],\n'
                                    b'  "type": "embedding"\n}\n')

    def test_embed_past_the_cap_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "phi.json"
        assert main(["construct", "embed", *self.EMBED_INPUTS, "--cap", "3",
                     "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: wreath product order 8 exceeds cap 3\n")
        assert not out.exists()

    def test_embed_over_a_non_action_is_an_input_error(self, tmp_path, capsys):
        # the triple is valid, but m2's table is no action of Z2, so
        # there is no wreath product to embed into
        z2 = {"order": 2, "product": [[0, 1], [1, 0]]}
        objs = {"triple": {"type": "cascade-triple", "gamma": z2,
                           "alpha": [[0, 1], [0, 1]], "beta": [0, 0]},
                "m1": {"type": "first-semigroup", "states": {"size": 2},
                       "outputs": {"size": 2}, "semigroup": z2,
                       "next": [[0, 1], [1, 0]], "out": [[0, 1], [1, 0]]},
                "m2": {"type": "first-semigroup", "states": {"size": 2},
                       "outputs": {"size": 1}, "semigroup": z2,
                       "next": [[0, 0], [1, 0]], "out": [[0, 0], [0, 0]]}}
        paths = []
        for name, obj in objs.items():
            paths.append(str(tmp_path / f"{name}.json"))
            Path(paths[-1]).write_text(json.dumps(obj))
        assert main(["check", paths[0], "--components", *paths[1:]]) == 0
        assert capsys.readouterr().out == "pass\n"
        assert main(["construct", "embed", *paths]) == 2
        assert capsys.readouterr() == (
            "", "error: not an action: a.(s s') != (a.s).s' at (1, 1, 1)\n")

    def test_embed_builds_no_wreath_table(self, tmp_path, capsys):
        # Z3 wr Z2 on 8 points has order 13,122: its table alone is 1.4 GB
        paths, ranks = _z3_wreath_z2_embedding(tmp_path, 8)
        tracemalloc.start()
        try:
            code = main(["construct", "embed", *paths])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out == "embedding " + " ".join(map(str, ranks)) + "\n"
        assert peak < 50 * 2 ** 20

    def test_dot_without_a_renderer_writes_no_file(self, tmp_path, capsys):
        out, target = tmp_path / "y.json", tmp_path / "x.dot"
        assert main(["construct", "serial", str(FIXTURES / "second_semigroup_parity.json"),
                     "-o", str(out), "--dot", str(target)]) == 2
        assert capsys.readouterr() == ("", "error: no DOT renderer for SerialConnection\n")
        assert not out.exists() and not target.exists()

    def test_wrong_arity_is_a_usage_error(self, capsys):
        assert main(["construct", "semigroupify"]) == 2
        capsys.readouterr()
        assert main(["construct", "cascade",
                     str(FIXTURES / "first_pure_swap.json")]) == 2
        assert capsys.readouterr() == ("", "error: cascade takes 3 input file(s), got 1\n")
        assert main(["group", "compose", str(FIXTURES / "mealy_odometer.json")]) == 2
        assert capsys.readouterr() == ("", "error: compose takes 2 input file(s), got 1\n")
        # the verb lists in order; the heading above the options differs
        # between Python versions, so only the brace strings are compared
        for command, verbs in (
                ("construct", "{semigroupify,cascade,wreath,serial,derive-second,quotient,embed}"),
                ("group", "{apply,compose,invert,equal,order,minimize}")):
            assert main([command, "-h"]) == 0
            assert set(re.findall(r"\{[^}]*\}", capsys.readouterr().out)) == {verbs}

    def test_one_input_apply_reports_the_word(self, capsys):
        assert main(["group", "apply", str(FIXTURES / "mealy_odometer.json")]) == 2
        assert "apply takes a machine file and a word" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["group", "order", "--max-power", "8", str(FIXTURES / "mealy_odometer.json")],
        ["construct", "wreath", "--cap", "1000", str(FIXTURES / "first_semigroup_z2.json"),
         str(FIXTURES / "first_semigroup_z2.json")],
    ])
    def test_option_before_inputs(self, argv):
        assert main(argv) == 0

    def test_output_option_before_input(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["construct", "semigroupify", "-o", str(out),
                     str(FIXTURES / "first_pure_swap.json")]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv", [
        [],
        ["construct"],
        ["construct", "bogus", "x"],
        ["check"],
        ["group", "order"],
        ["group", "apply"],
        ["construct", "semigroupify", str(FIXTURES / "first_pure_swap.json"),
         "--cap", "abc"],
    ])
    def test_argparse_usage_error_returns_2(self, capsys, argv):
        assert main(argv) == 2
        assert "usage: autalg" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["-h"]) == 0
        assert "usage: autalg" in capsys.readouterr().out

    def test_verification_error_is_an_error_exit(self, monkeypatch, capsys):
        import autalg.cli as cli

        def failing(m, cap):
            raise VerificationError("closure table differs from the pair product")

        monkeypatch.setattr(cli, "semigroupify", failing)
        assert main(["construct", "semigroupify",
                     str(FIXTURES / "first_pure_swap.json")]) == 2
        assert capsys.readouterr().err == (
            "error: closure table differs from the pair product\n")

    def test_memory_error_is_an_error_exit(self, monkeypatch, capsys):
        import autalg.cli as cli

        def exhausted(m):
            raise MemoryError

        monkeypatch.setattr(cli, "check_first_axioms", exhausted)
        assert main(["check", str(FIXTURES / "first_semigroup_swap.json")]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("verb", ["order", "invert"])
    def test_closed_stdout_is_an_error_exit(self, verb, unbuffered):
        # the read end is closed before the run; the write fails in print
        # when stdout is unbuffered, else in the flush after it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "autalg.cli", "group", verb,
                 str(FIXTURES / "mealy_grigorchuk.json")],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_wrong_input_type_is_an_input_error(self):
        assert main(["construct", "semigroupify",
                     str(FIXTURES / "mealy_odometer.json")]) == 2

    def test_pure_triple_accepts_second_pure_components(self):
        assert main(["construct", "cascade",
                     str(FIXTURES / "second_pure_twoinputs.json"),
                     str(FIXTURES / "first_pure_tick.json"),
                     str(FIXTURES / "cascade_triple_pure.json")]) == 0


class TestGroupCommand:
    def test_apply_odometer(self, capsys):
        assert main(["group", "apply", str(FIXTURES / "mealy_odometer.json"),
                     "00"]) == 0
        assert capsys.readouterr().out.strip() == "1 0"

    def test_apply_space_separated_word(self, capsys):
        assert main(["group", "apply", str(FIXTURES / "mealy_odometer.json"),
                     "0", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1 0"

    def test_equal_identity_identity(self, capsys):
        path = str(FIXTURES / "mealy_identity.json")
        assert main(["group", "equal", path, path]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_equal_odometer_identity_fails(self, capsys):
        assert main(["group", "equal", str(FIXTURES / "mealy_odometer.json"),
                     str(FIXTURES / "mealy_identity.json")]) == 1
        assert "false" in capsys.readouterr().out

    def test_equal_with_depth_cross_check(self, capsys):
        path = str(FIXTURES / "mealy_odometer.json")
        assert main(["group", "equal", path, path, "--depth", "5"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_equal_elements_agree_at_any_depth(self, capsys):
        # the exact verdict answers the cross-check: no 2**64 words are read
        path = str(FIXTURES / "mealy_odometer.json")
        assert main(["group", "equal", path, path, "--depth", "64"]) == 0
        assert capsys.readouterr().out == "true\nwords up to length 64 agree\n"

    def test_unequal_elements_disagree_from_the_first_difference(self, capsys):
        assert main(["group", "equal", str(FIXTURES / "mealy_odometer.json"),
                     str(FIXTURES / "mealy_identity.json"), "--depth", "3"]) == 1
        assert capsys.readouterr().out == "false\nwords up to length 3 disagree\n"

    def test_depth_sets_no_work_on_unequal_elements(self, tmp_path, capsys):
        # the odometer to the 2^30 fixes every word of up to 30 letters:
        # 2^29 words of length 29 are decided without reading one
        power = odometer()
        for _ in range(30):
            power = minimize_element(element_compose(power, power))
        path = tmp_path / "power.json"
        save(path, power)
        identity = str(FIXTURES / "mealy_identity.json")
        for depth, verdict in (("29", "agree"), ("30", "agree"), ("31", "disagree")):
            assert main(["group", "equal", str(path), identity, "--depth", depth]) == 1
            assert capsys.readouterr().out == f"false\nwords up to length {depth} {verdict}\n"

    def test_depth_zero_is_off_and_a_negative_depth_an_input_error(self, capsys):
        path = str(FIXTURES / "mealy_odometer.json")
        assert main(["group", "equal", path, path, "--depth", "0"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["group", "equal", path, path, "--depth", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --depth must be at least 0\n"

    @pytest.mark.parametrize("option", ["--max-power", "--max-states"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_order_bounds_below_one_are_an_input_error(self, capsys, option, value):
        assert main(["group", "order", str(FIXTURES / "mealy_odometer.json"),
                     option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be at least 1\n"

    def test_order_of_the_swap_generator(self, capsys):
        assert main(["group", "order", str(FIXTURES / "mealy_grigorchuk.json")]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_state_cap_bounds_every_minimized_power(self, capsys):
        assert main(["group", "order", str(FIXTURES / "mealy_odometer.json"),
                     "--max-states", "3"]) == 0
        assert capsys.readouterr().out == "exceeds bound (state cap, reached power 3)\n"

    def test_order_bound_reported_but_passes(self, capsys):
        assert main(["group", "order", str(FIXTURES / "mealy_odometer.json"),
                     "--max-power", "8"]) == 0
        assert "exceeds bound" in capsys.readouterr().out

    def test_invert_noninvertible_is_an_input_error(self, tmp_path):
        assert main(["group", "invert", str(FIXTURES / "mealy_noninvertible.json"),
                     "-o", str(tmp_path / "inv.json")]) == 2

    def test_compose_then_apply(self, tmp_path, capsys):
        out = tmp_path / "twice.json"
        path = str(FIXTURES / "mealy_odometer.json")
        assert main(["group", "compose", path, path, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["group", "apply", str(out), "00"]) == 0
        assert capsys.readouterr().out.strip() == "0 1"

    def test_invert_then_apply(self, tmp_path, capsys):
        out = tmp_path / "back.json"
        assert main(["group", "invert", str(FIXTURES / "mealy_odometer.json"),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["group", "apply", str(out), "10"]) == 0
        assert capsys.readouterr().out.strip() == "0 0"

    def test_minimize_keeps_behavior(self, tmp_path):
        big = tmp_path / "big.json"
        small = tmp_path / "small.json"
        path = str(FIXTURES / "mealy_odometer.json")
        assert main(["group", "compose", path, path, "-o", str(big)]) == 0
        assert main(["group", "minimize", str(big), "-o", str(small)]) == 0
        e_big, e_small = load(big), load(small)
        assert e_small.machine.states <= e_big.machine.states
        for w in [Word((0, 1, 0), 2), Word((1, 1, 1), 2)]:
            assert element_apply(e_big, w) == element_apply(e_small, w)


class TestWordParsing:
    def test_compact_digits(self):
        assert parse_word(["011"], 2).letters == (0, 1, 1)

    def test_separate_tokens(self):
        assert parse_word(["0", "1", "1"], 2).letters == (0, 1, 1)

    def test_multidigit_letters_needs_separation(self):
        # over 11 letters "10" could be one letter or two, so each token is
        # one letter; the compact form holds only where every letter is a digit
        assert parse_word(["10", "3"], 11).letters == (10, 3)
        assert parse_word(["10"], 11).letters == (10,)
        assert parse_word(["10"], 10).letters == (1, 0)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_word(["zero"], 2)


class TestCommandResult:
    def test_exit_codes(self):
        assert CommandResult("pass").exit_code == 0
        assert CommandResult("fail").exit_code == 1
        assert CommandResult("error").exit_code == 2


# a cascade's or a checked triple's input files of the wrong type
@pytest.mark.parametrize("argv, bad", [
    (["check", "cascade_triple_pure.json", "--components",
      "mealy_odometer.json", "mealy_odometer.json"], "mealy_odometer.json"),
    (["check", "cascade_triple_pure.json", "--components",
      "first_pure_keepswap.json", "first_semigroup_z2.json"], "first_semigroup_z2.json"),
    (["check", "cascade_triple_semigroup.json", "--components",
      "first_pure_swap.json", "first_semigroup_z2.json"], "first_pure_swap.json"),
    (["check", "cascade_triple_semigroup.json", "--components",
      "first_semigroup_z2.json", "serial_reset.json"], "serial_reset.json"),
    (["check", "cascade_triple_semigroup.json", "--components",
      "second_semigroup_parity.json", "first_semigroup_z2.json"],
     "second_semigroup_parity.json"),
    (["construct", "cascade", "first_pure_swap.json", "first_pure_swap.json",
      "first_pure_swap.json"], "first_pure_swap.json"),
    (["construct", "cascade", "first_pure_keepswap.json", "mealy_odometer.json",
      "cascade_triple_pure.json"], "mealy_odometer.json"),
    (["construct", "cascade", "first_semigroup_z2.json", "first_semigroup_z2.json",
      "cascade_triple_pure.json"], "first_semigroup_z2.json"),
    (["construct", "cascade", "second_semigroup_parity.json",
      "first_semigroup_z2.json", "cascade_triple_semigroup.json"],
     "second_semigroup_parity.json"),
    (["construct", "cascade", "first_pure_keepswap.json", "first_pure_tick.json",
      "hom_mu_parity.json"], "hom_mu_parity.json"),
])
def test_wrong_component_type_is_an_input_error(capsys, argv, bad):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {FIXTURES / bad}: expected ")


# an output option a verb has no use for, with inputs the verb accepts
@pytest.mark.parametrize("argv, message", [
    (["construct", "embed", "cascade_triple_semigroup.json", "first_semigroup_z2.json",
      "first_semigroup_z2.json", "--dot", "OUT"], "embed takes no --dot"),
    *[(["construct", *inputs, "--triple-out", "OUT"], f"{inputs[0]} takes no --triple-out")
      for inputs in (["semigroupify", "first_pure_swap.json"],
                     ["cascade", "first_pure_keepswap.json", "first_pure_tick.json",
                      "cascade_triple_pure.json"],
                     ["serial", "second_semigroup_parity.json"],
                     ["derive-second", "serial_reset.json"],
                     ["quotient", "second_pure_parity.json", "hom_mu_parity.json",
                      "hom_nu_parity.json"],
                     ["embed", "cascade_triple_semigroup.json", "first_semigroup_z2.json",
                      "first_semigroup_z2.json"])],
    *[(["group", *inputs, option, "OUT"], f"{inputs[0]} takes no {name}")
      for inputs in (["apply", "mealy_odometer.json", "01"],
                     ["equal", "mealy_odometer.json", "mealy_identity.json"],
                     ["order", "mealy_odometer.json"])
      for option, name in (("-o", "--output"), ("--output", "--output"), ("--dot", "--dot"))],
])
def test_unused_option_is_a_usage_error(tmp_path, capsys, argv, message):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["first_semigroup_z2.json", "mealy_odometer.json",
                                  "first_pure_swap.json", "hom_mu_parity.json"])
def test_components_on_a_non_triple_is_a_usage_error(tmp_path, capsys, name):
    z2 = str(FIXTURES / "first_semigroup_z2.json")
    target = tmp_path / "x.dot"
    assert main(["check", str(FIXTURES / name), "--components", z2, z2,
                 "--dot", str(target)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {FIXTURES / name}: --components takes a cascade-triple\n")
    assert not target.exists()


# the package functions that bench/tracing.py wraps as attributes of
# ``cli``, each with a call that reaches it
TRACED_IN_CLI = {
    "semigroupify": ["construct", "semigroupify", "first_pure_swap.json"],
    "check_first_axioms": ["check", "first_semigroup_swap.json"],
    "check_second_axioms": ["check", "second_semigroup_parity.json"],
    "check_serial": ["check", "serial_reset.json"],
    "check_semigroup_triple": ["check", "cascade_triple_semigroup.json", "--components",
                               "first_semigroup_z2.json", "first_semigroup_z2.json"],
    "embed_into_wreath": ["construct", "embed", "cascade_triple_semigroup.json",
                          "first_semigroup_z2.json", "first_semigroup_z2.json"],
    "cascade_semigroup": ["construct", "cascade", "first_semigroup_z2.json",
                          "first_semigroup_z2.json", "cascade_triple_semigroup.json"],
    "quotient_construct": ["construct", "quotient", "second_pure_parity.json",
                           "hom_mu_parity.json", "hom_nu_parity.json"],
    "element_order_bounded": ["group", "order", "mealy_odometer.json"],
    "element_equal": ["group", "equal", "mealy_odometer.json", "mealy_identity.json"],
    "minimize_element": ["group", "minimize", "mealy_odometer.json"],
    "element_compose": ["group", "compose", "mealy_odometer.json", "mealy_odometer.json"],
}


@pytest.mark.parametrize("name", TRACED_IN_CLI)
def test_verbs_call_the_traced_names_through_cli(monkeypatch, capsys, name):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in TRACED_IN_CLI[name]]
    code = main(argv)
    expected = capsys.readouterr()
    calls, original = [], getattr(cli, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, recording)
    assert main(argv) == code
    assert capsys.readouterr() == expected
    assert calls


def test_cli_keeps_the_wreath_product_the_tracer_wraps():
    assert cli.wreath_product is wreath_product


def test_main_runs_repeatedly_in_one_process(capsys):
    assert main(["group", "order"]) == 2
    assert "usage: autalg" in capsys.readouterr().err
    assert main(["-h"]) == 0
    assert "usage: autalg" in capsys.readouterr().out
    assert main(["group", "order", str(FIXTURES / "mealy_grigorchuk.json")]) == 0
    assert capsys.readouterr() == ("2\n", "")
    assert main(["check", str(FIXTURES / "first_semigroup_corrupt.json")]) == 1
    assert capsys.readouterr().out.startswith("fail")
    assert main(["check", str(FIXTURES / "mealy_odometer.json")]) == 0
    assert capsys.readouterr() == ("pass (invertible)\n", "")


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "autalg.cli", "group", "apply",
         str(FIXTURES / "mealy_odometer.json"), "00"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 0"


# runs ``cli.main`` on every argv list read from stdin, under a 3 GB
# address-space limit on this interpreter alone; prints the exit codes
# and every call that raised, exited outside 0/1/2 or ran out of memory
SWEEP_CHILD = """
import contextlib, io, json, os, resource, sys
from collections import Counter
from autalg.cli import main
sink = open(os.devnull, "w")
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
codes, bad = Counter(), []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # main returns its exit code, raising nothing
        code = repr(exc)
    codes[str(code)] += 1
    if code not in (0, 1, 2) or "out of memory" in err.getvalue():
        bad.append([argv, code, err.getvalue()])
print(json.dumps({"codes": codes, "bad": bad}))
"""

ODD_WORDS = [["0"], ["01"], ["0", "1", "1"], ["00", "11"], ["2"], ["-1"], ["x"], [""], [" "],
             ["\u0663"], ["1.5"], ["9" * 30], ["0" * 200], ["--"]]


def sweep_calls(rng: Random, per_verb: int) -> list[list[str]]:
    """Every verb on fixtures of its arity, each file tuple of an arity
    above one sampled ``per_verb`` times, and ``group apply`` on odd words."""
    files = [str(p) for p in sorted(FIXTURES.glob("*.json"))]
    triples = [f for f in files if "cascade_triple" in f]

    def tuples(k: int) -> list[list[str]]:
        if k == 1:
            return [[f] for f in files]
        return [[rng.choice(files) for _ in range(k)] for _ in range(per_verb)]
    calls = [["check", *t] for t in tuples(1)]
    calls += [["check", *t, "--max-len", "3"] for t in tuples(1)]
    calls += [["check", rng.choice(triples), "--components", *t] for t in tuples(2)]
    for verb, (command, arity, _, _) in cli._VERBS.items():
        if arity is not None:
            calls += [[command, verb, *t] for t in tuples(arity)]
    calls += [["group", "apply", rng.choice(files), *rng.choice(ODD_WORDS)]
              for _ in range(per_verb)]
    # order 20,736 fits the element cap; its table is refused by the cell budget
    labels = str(FIXTURES / "first_semigroup_labels.json")
    return calls + [["construct", "wreath", labels, labels]]


def test_exit_code_contract_sweep():
    calls = sweep_calls(Random(6), 128)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SWEEP_CHILD], input=json.dumps(calls),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["bad"] == []
    assert sum(result["codes"].values()) == len(calls)


DOT_PINS = {
    "first_pure_swap.json":
        'digraph {\n  rankdir=LR;\n  0 [label="even"];\n  1 [label="odd"];\n'
        '  0 -> 1 [label="x/0"];\n  1 -> 0 [label="x/1"];\n}\n',
    "first_semigroup_swap.json":
        'digraph {\n  rankdir=LR;\n  0 [label="even"];\n  1 [label="odd"];\n'
        '  0 -> 1 [label="g0/0"];\n  0 -> 0 [label="g0g0/1"];\n'
        '  1 -> 0 [label="g0/1"];\n  1 -> 1 [label="g0g0/0"];\n}\n',
    "second_semigroup_parity.json":
        'digraph {\n  rankdir=LR;\n  0 [label="0"];\n  1 [label="1"];\n'
        '  0 -> 0 [label="e0/e0"];\n  0 -> 1 [label="e1/e1"];\n'
        '  1 -> 1 [label="e0/e0"];\n  1 -> 0 [label="e1/e1"];\n}\n',
    "mealy_odometer.json":
        'digraph {\n  rankdir=LR;\n  0 [shape=doublecircle];\n  1 [shape=circle];\n'
        '  0 -> 1 [label="0/1"];\n  0 -> 0 [label="1/0"];\n'
        '  1 -> 1 [label="0/0"];\n  1 -> 1 [label="1/1"];\n}\n',
}


@pytest.mark.parametrize("name", sorted(DOT_PINS))
def test_dot_text_is_pinned(name):
    assert to_dot(load(FIXTURES / name)) == DOT_PINS[name]


def test_dot_renders_every_automaton_shape():
    for name in ("first_pure_swap.json", "first_semigroup_swap.json",
                 "second_pure_odometer.json", "second_semigroup_parity.json",
                 "mealy_odometer.json"):
        text = to_dot(load(FIXTURES / name))
        assert text.startswith("digraph") and text.rstrip().endswith("}")
