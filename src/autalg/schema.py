"""A single self-describing JSON schema for every object the command line
handles, with a "type" discriminator.

All indices are zero-based.  Files are written with sorted keys and a
canonical element order, so equal objects produce identical bytes.

The type table ``_TYPES`` is the one place where a tag, its class and
its fields are decided: ``load_object`` and ``dump_object`` both read
it, and each field kind has one load and one dump function.  It names
each class by its exported name and reads it from the ``autalg``
package, whose ``_EXPORTS`` is the one table of the module that defines
each class; the package imports a class's module on its first use, so
reading a file loads only its own types' modules.  Two tags name two
classes each, and a key picks between them:

* ``cascade-triple`` is a semigroup triple when ``gamma`` is present,
  else a pure triple (whose ``inputs`` default to one per ``beta`` entry);
* ``mealy`` is a ``MealyElement`` when ``initial`` is present, else a
  ``MealyMachine``.

Both directions of the codec run through ``orjson``; ``json``, the exact
reference, runs only where orjson would give other bytes, another
verdict or another message:

* ``dumps`` writes products straight from ``SemigroupTable.array``.  It
  falls back to ``json.dumps(dump_object(obj), indent=2, sort_keys=True)``
  where orjson raises ``TypeError`` (an int beyond 64 bits, a lone
  surrogate) or writes a byte above 0x7e: raw UTF-8 or DEL, where json
  writes ``\\u`` escapes.
* ``load`` hands the file's bytes to orjson, which checks the UTF-8
  itself and rejects a byte order mark.  It falls back to
  ``json.loads(read_text(encoding="utf-8"))`` where orjson rejects the
  bytes (invalid UTF-8, a BOM, NaN, Infinity, 1e400, a lone
  ``\\ud800``, any malformed file), so the UTF-8 message is
  ``read_text``'s and json's error positions in CRLF files stay as they
  were.  A CR, alone or before LF, is JSON whitespace outside strings and
  is refused inside them, so ``read_text``'s newline translation changes
  nothing orjson reads.  It also falls back where a loader check raises,
  since orjson reads an integer literal outside [-2**63, 2**64) as a
  float; and where a label is not a string, since labels are kept as
  ``str(x)`` and 10**30 would become "1e+30".  An error from an object's
  own constructor is final: a float reaches one only as a label.
* orjson 3.8 recurses on the C stack with no limit, so a file with over
  ``_ORJSON_BRACKETS`` opening brackets (a table of order above ~5,000)
  goes to json.  ``_brackets`` counts them on the bytes, ``_BLOCK`` (64
  KiB) at a time so that its temporaries stay in cache, with one
  comparison a byte: ``[`` and ``{`` are the two bytes that OR 0x20 maps
  to 0x7b.  Below that, nesting past json's
  recursion limit (~995 levels from the command line) in a key the
  loader ignores loads where the installed orjson reads it, as 3.8 does;
  where orjson refuses it, json's verdict, which hung on the caller's
  stack depth, stands.

The reader turns a ``product`` into one array: ``core._byte_rows`` reads
entries in 0..255 by ``bytearray``, ``np.array`` any others.  Both refuse
floats, ``None``, strings and ragged rows and take a bool for 0 or 1, so
the cells that are at most 1 are type-tested.  ``SemigroupTable``
range-checks the array and stores it in its order's narrow dtype.

The tables of the semigroup automata (``next``, ``out``), of a serial
connection (``alpha``) and of a semigroup cascade triple (``alpha``; its
``beta`` is read as a list) load as arrays too, in one pass
(``core._int_rows``): one type test over the cells,
``set(map(type, chain.from_iterable(rows))) <= {int}``, then
``_byte_rows``, else ``np.array``.  Their entries are mostly 0 or 1 where
the states are few, so the type test reads every cell.  The object's
constructor checks the array by its shape and extremes and stores it
read-only in the narrowest unsigned dtype of its largest entry; pure
automata, letter machines, pure triples and names stay tuples.  ``dumps``
writes each array as it writes a product.

Any table that is not read as an array, and any array that fails its
constructor's check, gets the plain checks (``_int_table``, then
``core.as_table``) and their messages, the same as when tables were kept
as tuples.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

from .core import FiniteSet, SemigroupTable, _byte_rows, _int_rows


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
    """A list of equal-length rows of plain ints as one integer array, not
    range-checked: ``SemigroupTable`` checks it and narrows it to its
    order's dtype.  Entries in 0..255 are read by ``_byte_rows``, others
    by ``np.array``.  Any other table gets ``_int_table``'s checks and
    messages."""
    _expect(isinstance(value, list), where, "expected a list of rows")
    array = _byte_rows(value)
    if array is None:
        try:
            array = np.array(value)
        except ValueError:  # ragged rows, or nested too deeply for an array
            return _int_table(value, where)
    if (array.ndim == 2 and array.dtype.kind in "iu" and np.can_cast(array.dtype, np.intp)
            and set(map(type, value)) <= {list}):
        rows, cols = (array <= 1).nonzero()  # where a bool may have been read as 0 or 1
        cells = map(list.__getitem__, map(value.__getitem__, rows.tolist()), cols.tolist())
        if set(map(type, cells)) <= {int}:
            return array
    return _int_table(value, where)


def _index_table(value, where: str) -> np.ndarray | tuple[tuple[int, ...], ...]:
    """An automaton's or a triple's list of list rows of plain ints as one
    integer array (``core._int_rows``), not range-checked: the object's
    constructor checks it by its shape and extremes.  Any other table
    gets ``_int_table``'s checks and messages."""
    _expect(isinstance(value, list), where, "expected a list of rows")
    array = _int_rows(value) if set(map(type, value)) <= {list} else None
    return _int_table(value, where) if array is None else array


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


def _array_or(dump: Callable) -> Callable:
    """A field's dump that writes an array as it is, as a product is
    written, and any other value by ``dump``."""
    return lambda value: value if type(value) is np.ndarray else dump(value)


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


def _class(name: str) -> type:
    """The class the package exports as ``name``, its module imported on
    first use."""
    return getattr(sys.modules[__package__], name)


def _load_class(row: tuple, data, where: str):
    """Load ``data`` as the class of the table's ``row``, whose tag it carries."""
    _, name, _, fields = row
    loaded: dict = {}
    for key, (load, _) in fields:
        loaded[key] = load(data, key, where, loaded)
    return _build(_class(name), where,
                  **{_ATTRIBUTE.get(key, key): value for key, value in loaded.items()})


def dump_object(obj) -> dict:
    """Serialize any supported object, tagged with its type, as plain JSON
    data."""
    return _lists(_dump(obj))


def _lists(data):
    """``data`` with each array in it, a product or an automaton's or a
    triple's table, as lists."""
    if type(data) is dict:
        return {key: _lists(value) for key, value in data.items()}
    return data.tolist() if type(data) is np.ndarray else data


def _dump(obj) -> dict:
    """``dump_object``'s data, each array still an array."""
    row = _BY_NAME.get(type(obj).__name__)
    if row is None or _class(row[1]) is not type(obj):
        raise TypeError(f"no schema for {type(obj).__name__}")
    tag, _, _, fields = row
    data = {"type": tag}
    for key, (_, dump) in fields:
        data.update(dump(getattr(obj, _ATTRIBUTE.get(key, key)), key))
    return data


def load_object(data, where: str = "file"):
    """Deserialize any supported object by its type tag."""
    tag = _get(data, "type", where)
    for row in _BY_TAG.get(tag, ()) if isinstance(tag, str) else ():
        if row[2] is None or row[2] in data:  # no selecting key, or its key is present
            return _load_class(row, data, where)
    raise SchemaError(f"{where}: unknown type {tag!r}")


def _require_first_semigroup(data, key: str, where: str, loaded: dict):
    _expect(isinstance(loaded[key], _class("SemigroupAutomatonFirst")),
            f"{where}.{key}", "must be a first-semigroup automaton")
    return loaded[key]


def _load_triple_inputs(data, key: str, where: str, loaded: dict) -> FiniteSet:
    """A pure triple's inputs, which may be left out: one per beta entry."""
    if key in data:
        return load_finite_set(data[key], f"{where}.{key}")
    return _build(FiniteSet, where, len(loaded["beta"]))


_INT = _keyed(_int, int)
_INT_LIST = _keyed(_int_list, list)
_INT_TABLE = _keyed(_int_table, _rows)
_ARRAY = _keyed(_index_table, _array_or(_rows))
_FINITE_SET = _keyed(load_finite_set, dump_finite_set)
_SEMIGROUP = _keyed(load_semigroup_table, dump_semigroup_table)
_OBJECT = _keyed(load_object, _dump)
# a check on a field loaded earlier, which writes nothing
_MUST_BE_FIRST_SEMIGROUP = (_require_first_semigroup, lambda value, key: {})
_TRIPLE_INPUTS = (_load_triple_inputs, _FINITE_SET[1])
# a machine stored in the same JSON object as the element that pins it
_MEALY_MACHINE = (
    lambda data, key, where, loaded: _load_class(_BY_NAME["MealyMachine"], data, where),
    lambda value, key: _dump(value))

_TABLES = (("next", _INT_TABLE), ("out", _INT_TABLE))
_ARRAYS = (("next", _ARRAY), ("out", _ARRAY))
_PURE = (("states", _FINITE_SET), ("inputs", _FINITE_SET), ("outputs", _FINITE_SET), *_TABLES)

# (tag, class by exported name, key whose presence selects the class,
# fields in load order)
_TYPES = (
    ("first-pure", "PureAutomatonFirst", None, _PURE),
    ("first-semigroup", "SemigroupAutomatonFirst", None, (
        ("states", _FINITE_SET), ("semigroup", _SEMIGROUP), ("outputs", _FINITE_SET), *_ARRAYS)),
    ("second-pure", "PureAutomatonSecond", None, _PURE),
    ("second-semigroup", "SemigroupAutomatonSecond", None, (
        ("states", _FINITE_SET), ("semigroup", _SEMIGROUP), ("sigma", _SEMIGROUP), *_ARRAYS)),
    ("cascade-triple", "CascadeTripleSemigroup", "gamma", (
        ("alpha", _ARRAY), ("beta", _keyed(_int_list, _array_or(list))), ("gamma", _SEMIGROUP))),
    ("cascade-triple", "CascadeTriplePure", None, (
        ("alpha", _INT_TABLE), ("beta", _INT_LIST), ("inputs", _TRIPLE_INPUTS))),
    # the machine is validated before the initial state is read
    ("mealy", "MealyElement", "initial", (("machine", _MEALY_MACHINE), ("initial", _INT))),
    ("mealy", "MealyMachine", None, (("states", _INT), ("alphabet", _INT), *_TABLES)),
    ("generator-hom", "GeneratorHom", None, (
        ("alphabet_size", _INT), ("target", _SEMIGROUP), ("assignment", _INT_LIST))),
    # the components are type-checked only once both have loaded
    ("serial", "SerialConnection", None, (
        ("first", _OBJECT), ("second", _OBJECT), ("first", _MUST_BE_FIRST_SEMIGROUP),
        ("second", _MUST_BE_FIRST_SEMIGROUP), ("alpha", _ARRAY))),
)
_BY_TAG = {tag: [row for row in _TYPES if row[0] == tag] for tag, *_ in _TYPES}
# class name -> row; the names are distinct, and ``_dump`` checks the class itself
_BY_NAME = {row[1]: row for row in _TYPES}
# JSON keys that name a differently named attribute
_ATTRIBUTE = {"semigroup": "gamma"}


# orjson 3.8 overflows the C stack at a few ten thousand nested objects
_ORJSON_BRACKETS = 10_000
# bytes the bracket guard compares at a time, so its temporary stays in cache
_BLOCK = 1 << 16
# DEL and whole UTF-8 sequences: every byte of a multi-byte one is >= 0x80
_RAW = re.compile(rb"[\x7f-\xff]+")
_ORJSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                   | orjson.OPT_APPEND_NEWLINE)


def _raw(text: bytes) -> bool:
    """Does ``text`` hold DEL or non-ASCII bytes, which json writes escaped?"""
    return not text.isascii() or b"\x7f" in text


def _escaped(run: re.Match) -> bytes:
    return json.dumps(run.group().decode())[1:-1].encode()


def _text(data) -> str:
    """``json.dumps(_lists(data), indent=2, sort_keys=True) + "\\n"``.

    orjson writes DEL and non-ASCII code points raw, json as \\u escapes;
    only those runs, which lie inside strings, are re-encoded by json."""
    try:
        text = orjson.dumps(data, option=_ORJSON_OPTIONS)
    except TypeError:  # an int beyond 64 bits, a lone surrogate
        return json.dumps(_lists(data), indent=2, sort_keys=True) + "\n"
    if _raw(text):
        # only strings hold such runs, so the pieces between quotes that do are short
        text = b'"'.join(_RAW.sub(_escaped, piece) if _raw(piece) else piece
                         for piece in text.split(b'"'))
    return text.decode()


def dumps(obj) -> str:
    """The object's JSON text, byte for byte ``json.dumps(dump_object(obj),
    indent=2, sort_keys=True) + "\\n"``."""
    return _text(_dump(obj))


def save(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj))


def _odd_label(data) -> bool:
    """Whether an object in ``data`` has a label that is not a string;
    objects nest only as values of objects."""
    objects = [data]
    while objects:
        node = objects.pop()
        if type(node) is dict:
            labels = node.get("labels")
            if type(labels) is list and not set(map(type, labels)) <= {str}:
                return True
            objects.extend(node.values())
    return False


def _brackets(raw: bytes) -> int:
    """The opening brackets in ``raw``, counted ``_BLOCK`` bytes at a time
    with one comparison a byte: ``[`` (0x5b) and ``{`` (0x7b) are the only
    bytes that setting bit 0x20 makes 0x7b, and in UTF-8 they occur only
    as the brackets themselves."""
    byte = np.frombuffer(raw, dtype=np.uint8)
    return sum(np.count_nonzero((byte[lo:lo + _BLOCK] | 0x20) == ord("{"))
               for lo in range(0, len(byte), _BLOCK))


def _load_orjson(path: str | Path):
    """``load`` through orjson, or None where json may read the file
    differently (see the module docstring)."""
    try:
        raw = Path(path).read_bytes()
        # a file no longer than the budget cannot hold more brackets
        if len(raw) <= _ORJSON_BRACKETS or _brackets(raw) <= _ORJSON_BRACKETS:
            data = orjson.loads(raw)
            del raw  # freed before validation, which allocates tables of its size
            if not _odd_label(data):
                return load_object(data, where=str(path))
    except SchemaError as exc:
        if exc.__cause__ is not None:  # from an object's constructor: final
            raise
    except (orjson.JSONDecodeError, RecursionError):
        pass
    return None


def load(path: str | Path):
    """The object in the JSON file at ``path``, as ``json`` reads it."""
    obj = _load_orjson(path)
    if obj is not None:
        return obj
    try:  # the text is freed before validation, which allocates tables of its size
        return load_object(json.loads(Path(path).read_text(encoding="utf-8")), where=str(path))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply") from exc
