"""Semigroup automata, serial connections and semigroup cascade triples
hold their tables as read-only narrow arrays.

The loader builds each array in one pass and the constructors check it
by its shape and extremes; a table that fails either is walked entry by
entry, as every table was when they were stored as tuples.  The pins
below are what that tuple walk said for each malformed table, recorded
before the arrays replaced it.
"""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import orjson
import pytest

from autalg import (
    FiniteSet,
    SemigroupAutomatonFirst,
    SemigroupTable,
    check_semigroup_triple,
    quotient_construct,
    semigroupify,
    wreath_product,
    wreath_triple,
)
from autalg import core
from autalg.cli import main
from autalg.schema import (_BLOCK, _ORJSON_BRACKETS, SchemaError, _brackets, dumps, load,
                           load_object)
from helpers import assert_same_value, greedy_generators_oracle, revalidated

FIXTURES = Path(__file__).parent / "fixtures"
FIRST_Z2 = str(FIXTURES / "first_semigroup_z2.json")
# the fixture each object type's tables are broken in; a triple is checked
# against first_semigroup_z2.json as both components
BASES = {"first-semigroup": "first_semigroup_z2.json",
         "second-semigroup": "second_semigroup_parity.json",
         "serial": "serial_reset.json", "cascade-triple": "cascade_triple_semigroup.json"}
# every table there has two rows and columns, and entries below 2
ENTRIES = {"bool": True, "float": 1.0, "negative": -1, "out-of-range": 2, "above-255": 256}


def _broken(table: list, kind: str) -> list:
    """``table`` with one fault: an entry replaced, a row grown or
    emptied; beta, a single row, is treated as row 1."""
    table = copy.deepcopy(table)
    row = table if not isinstance(table[0], list) else table[1]
    if kind == "ragged":
        row.append(0)
    elif kind == "empty-row":
        row.clear()
    else:
        (table if row is table else table[0])[1] = ENTRIES[kind]
    return table


# "<type>.<field>-<fault>": (the error ``autalg check`` prints, {path} the
# file's; the constructor's message), and for a triple, whose constructor
# takes any entries, the exit code of ``check`` without --components, the
# message then being that of the check against the components
PINS = {
    "first-semigroup.next-bool":
        ("{path}.next[0][1]: expected an integer, got True", "next[0][1] = True out of range 0..1"),
    "first-semigroup.next-float":
        ("{path}.next[0][1]: expected an integer, got 1.0", "next[0][1] = 1.0 out of range 0..1"),
    "first-semigroup.next-ragged":
        ("{path}: next[1]: expected 2 entries, got 3", "next[1]: expected 2 entries, got 3"),
    "first-semigroup.next-negative":
        ("{path}: next[0][1] = -1 out of range 0..1", "next[0][1] = -1 out of range 0..1"),
    "first-semigroup.next-out-of-range":
        ("{path}: next[0][1] = 2 out of range 0..1", "next[0][1] = 2 out of range 0..1"),
    "first-semigroup.next-above-255":
        ("{path}: next[0][1] = 256 out of range 0..1", "next[0][1] = 256 out of range 0..1"),
    "first-semigroup.next-empty-row":
        ("{path}: next[1]: expected 2 entries, got 0", "next[1]: expected 2 entries, got 0"),
    "first-semigroup.out-bool":
        ("{path}.out[0][1]: expected an integer, got True", "out[0][1] = True out of range 0..1"),
    "first-semigroup.out-float":
        ("{path}.out[0][1]: expected an integer, got 1.0", "out[0][1] = 1.0 out of range 0..1"),
    "first-semigroup.out-ragged":
        ("{path}: out[1]: expected 2 entries, got 3", "out[1]: expected 2 entries, got 3"),
    "first-semigroup.out-negative":
        ("{path}: out[0][1] = -1 out of range 0..1", "out[0][1] = -1 out of range 0..1"),
    "first-semigroup.out-out-of-range":
        ("{path}: out[0][1] = 2 out of range 0..1", "out[0][1] = 2 out of range 0..1"),
    "first-semigroup.out-above-255":
        ("{path}: out[0][1] = 256 out of range 0..1", "out[0][1] = 256 out of range 0..1"),
    "first-semigroup.out-empty-row":
        ("{path}: out[1]: expected 2 entries, got 0", "out[1]: expected 2 entries, got 0"),
    "second-semigroup.next-bool":
        ("{path}.next[0][1]: expected an integer, got True", "next[0][1] = True out of range 0..1"),
    "second-semigroup.next-float":
        ("{path}.next[0][1]: expected an integer, got 1.0", "next[0][1] = 1.0 out of range 0..1"),
    "second-semigroup.next-ragged":
        ("{path}: next[1]: expected 2 entries, got 3", "next[1]: expected 2 entries, got 3"),
    "second-semigroup.next-negative":
        ("{path}: next[0][1] = -1 out of range 0..1", "next[0][1] = -1 out of range 0..1"),
    "second-semigroup.next-out-of-range":
        ("{path}: next[0][1] = 2 out of range 0..1", "next[0][1] = 2 out of range 0..1"),
    "second-semigroup.next-above-255":
        ("{path}: next[0][1] = 256 out of range 0..1", "next[0][1] = 256 out of range 0..1"),
    "second-semigroup.next-empty-row":
        ("{path}: next[1]: expected 2 entries, got 0", "next[1]: expected 2 entries, got 0"),
    "second-semigroup.out-bool":
        ("{path}.out[0][1]: expected an integer, got True", "out[0][1] = True out of range 0..1"),
    "second-semigroup.out-float":
        ("{path}.out[0][1]: expected an integer, got 1.0", "out[0][1] = 1.0 out of range 0..1"),
    "second-semigroup.out-ragged":
        ("{path}: out[1]: expected 2 entries, got 3", "out[1]: expected 2 entries, got 3"),
    "second-semigroup.out-negative":
        ("{path}: out[0][1] = -1 out of range 0..1", "out[0][1] = -1 out of range 0..1"),
    "second-semigroup.out-out-of-range":
        ("{path}: out[0][1] = 2 out of range 0..1", "out[0][1] = 2 out of range 0..1"),
    "second-semigroup.out-above-255":
        ("{path}: out[0][1] = 256 out of range 0..1", "out[0][1] = 256 out of range 0..1"),
    "second-semigroup.out-empty-row":
        ("{path}: out[1]: expected 2 entries, got 0", "out[1]: expected 2 entries, got 0"),
    "serial.alpha-bool":
        ("{path}.alpha[0][1]: expected an integer, got True",
         "alpha[0][1] = True out of range 0..1"),
    "serial.alpha-float":
        ("{path}.alpha[0][1]: expected an integer, got 1.0", "alpha[0][1] = 1.0 out of range 0..1"),
    "serial.alpha-ragged":
        ("{path}: alpha[1]: expected 2 entries, got 3", "alpha[1]: expected 2 entries, got 3"),
    "serial.alpha-negative":
        ("{path}: alpha[0][1] = -1 out of range 0..1", "alpha[0][1] = -1 out of range 0..1"),
    "serial.alpha-out-of-range":
        ("{path}: alpha[0][1] = 2 out of range 0..1", "alpha[0][1] = 2 out of range 0..1"),
    "serial.alpha-above-255":
        ("{path}: alpha[0][1] = 256 out of range 0..1", "alpha[0][1] = 256 out of range 0..1"),
    "serial.alpha-empty-row":
        ("{path}: alpha[1]: expected 2 entries, got 0", "alpha[1]: expected 2 entries, got 0"),
    "cascade-triple.alpha-bool":
        ("{path}.alpha[0][1]: expected an integer, got True",
         "alpha[0][1] = True out of range 0..1", 2),
    "cascade-triple.alpha-float":
        ("{path}.alpha[0][1]: expected an integer, got 1.0",
         "alpha[0][1] = 1.0 out of range 0..1", 2),
    "cascade-triple.alpha-ragged":
        ("{path}: alpha[1] has 3 entries for order 2", "alpha[1] has 3 entries for order 2"),
    "cascade-triple.alpha-negative":
        ("alpha[0][1] = -1 out of range 0..1", "alpha[0][1] = -1 out of range 0..1", 0),
    "cascade-triple.alpha-out-of-range":
        ("alpha[0][1] = 2 out of range 0..1", "alpha[0][1] = 2 out of range 0..1", 0),
    "cascade-triple.alpha-above-255":
        ("alpha[0][1] = 256 out of range 0..1", "alpha[0][1] = 256 out of range 0..1", 0),
    "cascade-triple.alpha-empty-row":
        ("{path}: alpha[1] has 0 entries for order 2", "alpha[1] has 0 entries for order 2"),
    "cascade-triple.beta-bool":
        ("{path}.beta[1]: expected an integer, got True", "beta[0][1] = True out of range 0..1", 2),
    "cascade-triple.beta-float":
        ("{path}.beta[1]: expected an integer, got 1.0", "beta[0][1] = 1.0 out of range 0..1", 2),
    "cascade-triple.beta-ragged":
        ("{path}: beta has 3 entries for order 2", "beta has 3 entries for order 2"),
    "cascade-triple.beta-negative":
        ("beta[0][1] = -1 out of range 0..1", "beta[0][1] = -1 out of range 0..1", 0),
    "cascade-triple.beta-out-of-range":
        ("beta[0][1] = 2 out of range 0..1", "beta[0][1] = 2 out of range 0..1", 0),
    "cascade-triple.beta-above-255":
        ("beta[0][1] = 256 out of range 0..1", "beta[0][1] = 256 out of range 0..1", 0),
    "cascade-triple.beta-empty-row":
        ("{path}: beta has 0 entries for order 2", "beta has 0 entries for order 2"),
}


def _case(name: str) -> tuple[str, str, str]:
    tag, _, rest = name.partition(".")
    field, _, kind = rest.partition("-")
    return tag, field, kind


def _write(tmp_path, name: str) -> tuple[Path, list]:
    tag, field, kind = _case(name)
    data = json.loads((FIXTURES / BASES[tag]).read_text())
    data[field] = _broken(data[field], kind)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data))
    return path, data


@pytest.mark.parametrize("name", PINS)
def test_check_prints_the_recorded_error(tmp_path, capsys, name):
    path, _ = _write(tmp_path, name)
    components = ["--components", FIRST_Z2, FIRST_Z2] if name.startswith("cascade") else []
    assert main(["check", str(path), *components]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: " + PINS[name][0].replace("{path}", str(path)) + "\n")


@pytest.mark.parametrize("rows", ["lists", "tuples"])
@pytest.mark.parametrize("name", PINS)
def test_constructor_gives_the_recorded_message(tmp_path, capsys, name, rows):
    tag, field, kind = _case(name)
    obj = load(FIXTURES / BASES[tag])
    bad = _broken(json.loads((FIXTURES / BASES[tag]).read_text())[field], kind)
    if rows == "tuples":
        bad = tuple(tuple(r) if isinstance(r, list) else r for r in bad)
    message = PINS[name][1]
    if len(PINS[name]) == 2:
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(obj, **{field: bad})
        assert str(raised.value) == message
        return
    # a triple keeps entries that are no indices as tuples, for the check
    # against the components to name, and dumps them as json does
    built = dataclasses.replace(obj, **{field: bad})
    z2 = load(FIRST_Z2)
    with pytest.raises(ValueError) as raised:
        check_semigroup_triple(built, z2, z2)
    assert str(raised.value) == message
    path, data = _write(tmp_path, name)
    assert dumps(built) == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert main(["check", str(path)]) == PINS[name][2]
    capsys.readouterr()


SEMIGROUP_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json")
    if json.loads(p.read_text())["type"] in ("first-semigroup", "second-semigroup", "serial")
    or "gamma" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")
                                        if p.name != "first_pure_bad_range.json"))
def test_every_fixture_round_trips_to_its_bytes(name):
    obj = load(FIXTURES / name)
    assert dumps(obj).encode() == (FIXTURES / name).read_bytes()
    again = load_object(orjson.loads(dumps(obj)))
    assert again == obj and hash(again) == hash(obj)


@pytest.mark.parametrize("name", SEMIGROUP_FIXTURES)
def test_tables_load_as_read_only_narrow_arrays(name):
    obj = load(FIXTURES / name)
    assert_same_value(obj, revalidated(obj))
    tables = [getattr(obj, f) for f in ("next", "out", "alpha", "beta") if hasattr(obj, f)]
    assert tables and all(type(t) is np.ndarray for t in tables)


def test_an_entry_past_255_is_stored_in_two_bytes():
    # 300 states, each moved to the next by the one element of Gamma
    m = SemigroupAutomatonFirst(FiniteSet(300), SemigroupTable(1, ((0,),)), FiniteSet(1),
                                [[(a + 1) % 300] for a in range(300)], [[0]] * 300)
    assert (m.next.dtype, m.out.dtype) == (np.uint16, np.uint8)
    assert_same_value(m, revalidated(m))
    assert_same_value(m, load_object(json.loads(dumps(m))))


def test_an_automaton_is_unequal_to_one_with_another_table():
    m = load(FIRST_Z2)
    other = dataclasses.replace(m, out=((0, 0), (1, 1)))
    assert m != other and m == dataclasses.replace(m, out=m.out.tolist())


def _straddling(brackets: int) -> bytes:
    """A first-semigroup automaton whose "note" brings its opening
    brackets to ``brackets``, padded so that two of them sit on either
    side of the first block boundary."""
    text = (FIXTURES / "first_semigroup_z2.json").read_bytes()
    pad = brackets - _brackets(text) - 1
    head = text[:text.rindex(b"}")].rstrip() + b', "note": ['
    items = [b"[]"] * pad
    first = head + b", ".join(items[:pad // 2]) + b","
    # an empty list whose "[" ends the first block and whose "]" begins the second
    text = first.ljust(_BLOCK - 1) + b", ".join(items[pad // 2:]) + b"]}\n"
    assert text[_BLOCK - 1:_BLOCK + 1] == b"[]"
    return text


@pytest.mark.parametrize("extra,reads", [(0, 1), (1, 0)], ids=["at", "past"])
def test_the_block_guard_straddles_a_block_boundary(tmp_path, monkeypatch, extra, reads):
    path = tmp_path / "blocks.json"
    text = _straddling(_ORJSON_BRACKETS + extra)
    assert len(text) > _BLOCK and text.count(b"[") + text.count(b"{") == _ORJSON_BRACKETS + extra
    assert b"[" in text[:_BLOCK] and b"[" in text[_BLOCK:]
    path.write_bytes(text)
    expected = load(FIRST_Z2)
    calls = []
    loads = orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda raw: calls.append(raw) or loads(raw))
    assert load(path) == expected
    assert len(calls) == reads


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_brackets_are_counted_across_blocks(size):
    raw = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
    raw = raw[:size - 1] + b"[" if size else raw  # a bracket as the last byte
    assert _brackets(raw) == raw.count(b"[") + raw.count(b"{")


def test_a_wreath_table_chooses_its_generators_on_first_read(monkeypatch, capsys, tmp_path):
    z2 = load(FIRST_Z2)
    table = wreath_product(z2.gamma, z2.states, z2.next, z2.gamma).table
    assert core._GENERATING_SET.__get__(table) is None
    read = wreath_product(z2.gamma, z2.states, z2.next, z2.gamma).table
    assert read.generating_set == greedy_generators_oracle(read.product)
    assert table == read and hash(table) == hash(read)
    assert core._GENERATING_SET.__get__(table) is None  # == and hash do not read it

    orders = []
    greedy = core._greedy_generators
    monkeypatch.setattr(core, "_greedy_generators",
                        lambda product: orders.append(len(product)) or greedy(product))
    out = tmp_path / "w.json"
    assert main(["construct", "wreath", FIRST_Z2, FIRST_Z2, "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "wreath_z2_z2.json").read_bytes()
    assert orders == [2, 2]  # the components' tables, which list no generators
    capsys.readouterr()


def test_tuple_rows_in_data_are_refused_as_before():
    # load_object takes Python data, where rows may be tuples: the plain
    # checks refuse them, naming the row
    data = json.loads((FIXTURES / "first_semigroup_z2.json").read_text())
    data["next"] = [tuple(row) for row in data["next"]]
    with pytest.raises(SchemaError) as raised:
        load_object(data)
    assert str(raised.value) == "file.next[0]: expected a list"


def test_a_read_only_view_of_a_writable_array_is_copied():
    # the automaton must not change when the caller writes to its array
    base = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    view = base.view()
    view.flags.writeable = False
    m = SemigroupAutomatonFirst(FiniteSet(2), SemigroupTable(2, view), FiniteSet(2), view, view)
    before = hash(m)
    base[0, 0] = 1
    assert m.next.tolist() == [[0, 1], [1, 0]] and m.gamma.array.tolist() == [[0, 1], [1, 0]]
    assert hash(m) == before


def _flag_only(source: str) -> np.ndarray:
    """A 2 x 2 table marked read-only over memory its owner can write."""
    if source == "bytearray":
        array = np.frombuffer(bytearray([0, 1, 1, 0]), np.uint8).reshape(2, 2)
    else:
        array = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("source", ["bytearray", "owner"])
def test_a_table_read_only_by_its_flag_alone_is_copied(source):
    array = _flag_only(source)
    m = SemigroupAutomatonFirst(FiniteSet(2), SemigroupTable(2, array), FiniteSet(2),
                                array, array)
    for stored in (m.next, m.out, m.gamma.array):
        assert stored is not array and not np.shares_memory(stored, array)
        with pytest.raises(ValueError):
            stored.flags.writeable = True


def _stored_arrays() -> list[tuple[str, object, np.ndarray]]:
    """(name, owner, array) for every table array an object stores, as
    loaded and as the package builds it."""
    z2 = load(FIRST_Z2)
    triple = load(str(FIXTURES / "cascade_triple_semigroup.json"))
    serial = load(str(FIXTURES / "serial_reset.json"))
    second = load(str(FIXTURES / "second_semigroup_parity.json"))
    closure = core.close_generators([1, 2], lambda i, j: (i * j) % 7)
    swap = semigroupify(load(str(FIXTURES / "first_pure_swap.json")))
    parity = quotient_construct(load(str(FIXTURES / "second_pure_parity.json")),
                                load(str(FIXTURES / "hom_mu_parity.json")),
                                load(str(FIXTURES / "hom_nu_parity.json")))
    wreath = wreath_product(z2.gamma, z2.states, z2.next, z2.gamma)
    built = wreath_triple(wreath)
    return [("loaded gamma", z2, z2.gamma.array), ("closure", closure.table, closure.table.array),
            ("first next", z2, z2.next), ("first out", z2, z2.out),
            ("second next", second, second.next), ("second out", second, second.out),
            ("semigroupify next", swap, swap.next), ("semigroupify out", swap, swap.out),
            ("quotient next", parity, parity.next), ("quotient out", parity, parity.out),
            ("serial alpha", serial, serial.alpha),
            ("triple alpha", triple, triple.alpha), ("triple beta", triple, triple.beta),
            ("wreath table", wreath, wreath.table.array), ("wreath action", wreath, wreath.action),
            ("wreath triple alpha", built, built.alpha), ("wreath triple beta", built, built.beta)]


@pytest.mark.parametrize("name", [name for name, _, _ in _stored_arrays()])
def test_no_stored_table_can_be_made_writable(name):
    # the memory under every stored table is read-only, so the flag
    # cannot be flipped back and the value, and its hash, cannot change
    _, owner, array = next(row for row in _stored_arrays() if row[0] == name)
    before = hash(owner)
    with pytest.raises(ValueError):
        array.flags.writeable = True
    assert not array.flags.writeable and hash(owner) == before
