"""A single self-describing JSON schema for every object the command line
handles, with a "type" discriminator.

All indices are zero-based.  Files are written with sorted keys and a
canonical element order, so equal objects produce identical bytes.

The type table ``_TYPES`` is the one place where a tag, its class and
its fields are decided: ``load_object`` and ``dump_object`` both read
it, and each field kind has one load and one dump function.  Two tags
name two classes each, and a key picks between them:

* ``cascade-triple`` is a semigroup triple when ``gamma`` is present,
  else a pure triple (whose ``inputs`` default to one per ``beta`` entry);
* ``mealy`` is a ``MealyElement`` when ``initial`` is present, else a
  ``MealyMachine``.

Tables are the bulk of every file, so both directions have a fast path:

* the writer writes a semigroup ``product`` from ``SemigroupTable.array``,
  which ``dump_semigroup_table`` passes on as it is: one gather turns the
  array into decimal strings, from a table sized to its largest entry,
  and those are joined once per row.  No cell becomes a Python int, and
  ``dump_object`` alone turns the array into lists, for callers that
  edit the data;
* the writer writes every other list of plain ints, or list of non-empty
  rows of them (``next``, ``out``, ``names``), by looking each cell up in
  ``_digits``, a table of the decimal strings of 0..4095 that makes any
  other int's on lookup, and joining each row once;
* the reader turns a semigroup ``product`` into an array with one
  ``np.array`` call, whose dtype and shape reject floats, ``None``,
  strings, ints beyond int64 and ragged rows.

The list paths must keep bools out, since ``True == 1`` and
``hash(True) == hash(1)``: the list writer scans the cell types before
any lookup, and the reader type-tests the cells that are at most 1, the
only ones where ``np.array`` can have turned a bool into an int.  A
table that leaves a fast path is handled by the plain code, so output
bytes and error messages do not depend on which path ran.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .cascade import CascadeTriplePure, CascadeTripleSemigroup
from .core import FiniteSet, SemigroupTable
from .first_type import PureAutomatonFirst, SemigroupAutomatonFirst
from .mealy import MealyElement, MealyMachine
from .second_type import GeneratorHom, PureAutomatonSecond, SemigroupAutomatonSecond
from .serial import SerialConnection


class SchemaError(ValueError):
    """The file does not match the schema; the message names the spot."""


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _get(data: dict, key: str, where: str):
    _expect(isinstance(data, dict), where, "expected an object")
    _expect(key in data, where, f"missing key {key!r}")
    return data[key]


def _int(value, where: str) -> int:
    """An integer that is not a bool (JSON true/false load as bools)."""
    _expect(isinstance(value, int) and not isinstance(value, bool), where,
            f"expected an integer, got {value!r}")
    return value


def _int_table(value, where: str) -> tuple[tuple[int, ...], ...]:
    _expect(isinstance(value, list), where, "expected a list of rows")
    if set(map(type, value)) <= {list} and set(map(type, chain.from_iterable(value))) <= {int}:
        return tuple(map(tuple, value))
    return tuple(_int_list(row, f"{where}[{i}]") for i, row in enumerate(value))


def _int_array(value, where: str) -> np.ndarray | tuple[tuple[int, ...], ...]:
    """A list of equal-length rows of plain ints as one ``np.intp`` array;
    any other table gets ``_int_table``'s checks and messages."""
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
            return array.astype(np.intp, copy=False)
    return _int_table(value, where)


def _int_list(value, where: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), where, "expected a list")
    if not set(map(type, value)) <= {int}:  # JSON integers; anything else is judged by _int
        for j, v in enumerate(value):
            _int(v, f"{where}[{j}]")
    return tuple(value)


def _build(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError a SchemaError at ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dump_finite_set(s: FiniteSet) -> dict:
    data: dict = {"size": s.size}
    if s.labels is not None:
        data["labels"] = list(s.labels)
    return data


def load_finite_set(data, where: str) -> FiniteSet:
    size = _int(_get(data, "size", where), f"{where}.size")
    labels = data.get("labels")
    if labels is not None:
        _expect(isinstance(labels, list), f"{where}.labels", "expected a list")
    return _build(FiniteSet, where, size, tuple(labels) if labels is not None else None)


def _rows(table) -> list:
    return [list(r) for r in table]


def dump_semigroup_table(t: SemigroupTable) -> dict:
    """The table's fields, its product as the table's own read-only array:
    ``dumps`` writes it from there, and ``dump_object`` turns it into
    lists."""
    return {
        "order": t.order,
        "product": t.array,
        "generators": list(t.generators) if t.generators is not None else None,
        "names": _rows(t.names) if t.names is not None else None,
    }


def load_semigroup_table(data, where: str) -> SemigroupTable:
    order = _int(_get(data, "order", where), f"{where}.order")
    product = _int_array(_get(data, "product", where), f"{where}.product")
    generators = data.get("generators")
    if generators is not None:
        generators = _int_list(generators, f"{where}.generators")
    names = data.get("names")
    if names is not None:
        names = _int_table(names, f"{where}.names")
    return _build(SemigroupTable, where, order, product, generators, names)


# A field kind is a pair of functions: load(data, key, where, loaded)
# reads the field from its object's JSON ``data``, given the fields
# ``loaded`` before it, and dump(value, key) gives the JSON entries that
# hold it.


def _keyed(load: Callable, dump: Callable) -> tuple[Callable, Callable]:
    """The kind of a required field stored under its own key."""
    return (lambda data, key, where, loaded: load(_get(data, key, where), f"{where}.{key}"),
            lambda value, key: {key: dump(value)})


def _load_class(cls, data, where: str):
    """Load ``data`` as the table's ``cls``, whose tag it carries."""
    _, _, _, fields = _BY_CLASS[cls]
    loaded: dict = {}
    for key, (load, _) in fields:
        loaded[key] = load(data, key, where, loaded)
    return _build(cls, where, **{_ATTRIBUTE.get(key, key): value for key, value in loaded.items()})


def dump_object(obj) -> dict:
    """Serialize any supported object, tagged with its type, as plain JSON
    data."""
    return _lists(_dump(obj))


def _lists(data):
    """``data`` with each array in it, a product, as a list of rows."""
    if type(data) is dict:
        return {key: _lists(value) for key, value in data.items()}
    return data.tolist() if type(data) is np.ndarray else data


def _dump(obj) -> dict:
    """``dump_object``'s data, each product still an array."""
    row = _BY_CLASS.get(type(obj))
    if row is None:
        raise TypeError(f"no schema for {type(obj).__name__}")
    tag, _, _, fields = row
    data = {"type": tag}
    for key, (_, dump) in fields:
        data.update(dump(getattr(obj, _ATTRIBUTE.get(key, key)), key))
    return data


def load_object(data, where: str = "file"):
    """Deserialize any supported object by its type tag."""
    tag = _get(data, "type", where)
    for _, cls, selector, _ in _BY_TAG.get(tag, ()) if isinstance(tag, str) else ():
        if selector is None or selector in data:
            return _load_class(cls, data, where)
    raise SchemaError(f"{where}: unknown type {tag!r}")


def _require_first_semigroup(data, key: str, where: str, loaded: dict):
    _expect(isinstance(loaded[key], SemigroupAutomatonFirst), f"{where}.{key}",
            "must be a first-semigroup automaton")
    return loaded[key]


def _load_triple_inputs(data, key: str, where: str, loaded: dict) -> FiniteSet:
    """A pure triple's inputs, which may be left out: one per beta entry."""
    if key in data:
        return load_finite_set(data[key], f"{where}.{key}")
    return _build(FiniteSet, where, len(loaded["beta"]))


_INT = _keyed(_int, int)
_INT_LIST = _keyed(_int_list, list)
_INT_TABLE = _keyed(_int_table, _rows)
_FINITE_SET = _keyed(load_finite_set, dump_finite_set)
_SEMIGROUP = _keyed(load_semigroup_table, dump_semigroup_table)
_OBJECT = _keyed(load_object, _dump)
# a check on a field loaded earlier, which writes nothing
_MUST_BE_FIRST_SEMIGROUP = (_require_first_semigroup, lambda value, key: {})
_TRIPLE_INPUTS = (_load_triple_inputs, _FINITE_SET[1])
# a machine stored in the same JSON object as the element that pins it
_MEALY_MACHINE = (lambda data, key, where, loaded: _load_class(MealyMachine, data, where),
                  lambda value, key: _dump(value))

_TABLES = (("next", _INT_TABLE), ("out", _INT_TABLE))
_PURE = (("states", _FINITE_SET), ("inputs", _FINITE_SET), ("outputs", _FINITE_SET), *_TABLES)

# (tag, class, key whose presence selects the class, fields in load order)
_TYPES = (
    ("first-pure", PureAutomatonFirst, None, _PURE),
    ("first-semigroup", SemigroupAutomatonFirst, None, (
        ("states", _FINITE_SET), ("semigroup", _SEMIGROUP), ("outputs", _FINITE_SET), *_TABLES)),
    ("second-pure", PureAutomatonSecond, None, _PURE),
    ("second-semigroup", SemigroupAutomatonSecond, None, (
        ("states", _FINITE_SET), ("semigroup", _SEMIGROUP), ("sigma", _SEMIGROUP), *_TABLES)),
    ("cascade-triple", CascadeTripleSemigroup, "gamma", (
        ("alpha", _INT_TABLE), ("beta", _INT_LIST), ("gamma", _SEMIGROUP))),
    ("cascade-triple", CascadeTriplePure, None, (
        ("alpha", _INT_TABLE), ("beta", _INT_LIST), ("inputs", _TRIPLE_INPUTS))),
    # the machine is validated before the initial state is read
    ("mealy", MealyElement, "initial", (("machine", _MEALY_MACHINE), ("initial", _INT))),
    ("mealy", MealyMachine, None, (("states", _INT), ("alphabet", _INT), *_TABLES)),
    ("generator-hom", GeneratorHom, None, (
        ("alphabet_size", _INT), ("target", _SEMIGROUP), ("assignment", _INT_LIST))),
    # the components are type-checked only once both have loaded
    ("serial", SerialConnection, None, (
        ("first", _OBJECT), ("second", _OBJECT), ("first", _MUST_BE_FIRST_SEMIGROUP),
        ("second", _MUST_BE_FIRST_SEMIGROUP), ("alpha", _INT_TABLE))),
)
_BY_TAG = {tag: [row for row in _TYPES if row[0] == tag] for tag, *_ in _TYPES}
_BY_CLASS = {row[1]: row for row in _TYPES}
# JSON keys that name a differently named attribute
_ATTRIBUTE = {"semigroup": "gamma"}


class _Digits(dict):
    """Decimal strings of ints: stored for 0..4095, the states, letters
    and generator positions the list paths write; made on lookup for any
    other int."""

    def __missing__(self, key: int) -> str:
        return str(key)


_digits = _Digits(zip(range(4096), map(str, range(4096)))).__getitem__


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, nested ``pad`` deep.  With an indent ``json.dumps`` runs its
    pure-Python encoder; this writer joins each product array (as its
    list of rows), each list of plain ints, and each list of non-empty
    rows of plain ints, at C speed, and hands everything else it does not
    write itself (other scalars, empty containers, dicts with non-str
    keys) to ``json.dumps``."""
    if type(value) is int:
        return str(value)
    if type(value) is np.ndarray:
        return _encode_product(value, pad)
    if type(value) in (list, tuple) and value:
        inner = pad + "  "
        # the type scans come before any lookup: _digits(True) would be "1"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(_digits, value)
        elif (kinds <= {list, tuple} and all(value)
              and set(map(type, chain.from_iterable(value))) == {int}):
            return _encode_rows(map(map, repeat(_digits), value), pad)
        else:
            items = (_encode(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(value) is dict and value and set(map(type, value)) == {str}:
        inner = pad + "  "
        items = (f"{json.dumps(k)}: {_encode(value[k], inner)}" for k in sorted(value))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    # escaped strings hold no raw newline, so re-indenting is exact
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _encode_rows(rows, pad: str) -> str:
    """Non-empty rows of decimal strings as ``_encode`` writes a list of
    rows of ints, nested ``pad`` deep: one join per row, one for all."""
    inner, deeper = pad + "  ", pad + "    "
    return (f"[\n{inner}[\n{deeper}"
            + f"\n{inner}],\n{inner}[\n{deeper}".join(map(f",\n{deeper}".join, rows))
            + f"\n{inner}]\n{pad}]")


def _encode_product(array: np.ndarray, pad: str) -> str:
    """A product, an n x n array of element indices with n >= 1, as
    ``_encode`` writes its list of rows: one gather into the decimal
    strings of 0..max, with no cell turned into a Python int."""
    digits = np.array([*map(str, range(int(array.max()) + 1))], dtype=object)
    return _encode_rows(digits[array].tolist(), pad)


def dumps(obj) -> str:
    """The object's JSON text: sorted keys, two-space indent, a final
    newline; byte for byte what ``json.dumps(..., indent=2,
    sort_keys=True)`` gives."""
    return _encode(_dump(obj), "") + "\n"


def save(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj))


def load(path: str | Path):
    try:  # the text is freed before validation, which allocates tables of its size
        return load_object(json.loads(Path(path).read_text(encoding="utf-8")), where=str(path))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply") from exc
