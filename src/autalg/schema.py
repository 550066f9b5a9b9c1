"""A single self-describing JSON schema for every object the command line
handles, with a "type" discriminator.

All indices are zero-based.  Files are written with sorted keys and a
canonical element order, so equal objects produce identical bytes.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

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


def _int_list(value, where: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), where, "expected a list")
    if not set(map(type, value)) <= {int}:  # JSON integers; anything else is judged by _int
        for j, v in enumerate(value):
            _int(v, f"{where}[{j}]")
    return tuple(value)


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
    try:
        return FiniteSet(size, tuple(labels) if labels is not None else None)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dump_semigroup_table(t: SemigroupTable) -> dict:
    return {
        "order": t.order,
        "product": [list(r) for r in t.product],
        "generators": list(t.generators) if t.generators is not None else None,
        "names": [list(w) for w in t.names] if t.names is not None else None,
    }


def load_semigroup_table(data, where: str) -> SemigroupTable:
    order = _int(_get(data, "order", where), f"{where}.order")
    product = _int_table(_get(data, "product", where), f"{where}.product")
    generators = data.get("generators")
    names = data.get("names")
    try:
        return SemigroupTable(
            order, product,
            _int_list(generators, f"{where}.generators") if generators is not None else None,
            _int_table(names, f"{where}.names") if names is not None else None)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _dump_tables(obj) -> dict:
    return {"next": [list(r) for r in obj.next], "out": [list(r) for r in obj.out]}


def dump_object(obj) -> dict:
    """Serialize any supported object, tagged with its type."""
    if isinstance(obj, PureAutomatonFirst):
        return {"type": "first-pure", "states": dump_finite_set(obj.states),
                "inputs": dump_finite_set(obj.inputs),
                "outputs": dump_finite_set(obj.outputs), **_dump_tables(obj)}
    if isinstance(obj, SemigroupAutomatonFirst):
        return {"type": "first-semigroup", "states": dump_finite_set(obj.states),
                "semigroup": dump_semigroup_table(obj.gamma),
                "outputs": dump_finite_set(obj.outputs), **_dump_tables(obj)}
    if isinstance(obj, PureAutomatonSecond):
        return {"type": "second-pure", "states": dump_finite_set(obj.states),
                "inputs": dump_finite_set(obj.inputs),
                "outputs": dump_finite_set(obj.outputs), **_dump_tables(obj)}
    if isinstance(obj, SemigroupAutomatonSecond):
        return {"type": "second-semigroup", "states": dump_finite_set(obj.states),
                "semigroup": dump_semigroup_table(obj.gamma),
                "sigma": dump_semigroup_table(obj.sigma), **_dump_tables(obj)}
    if isinstance(obj, CascadeTriplePure):
        return {"type": "cascade-triple", "inputs": dump_finite_set(obj.inputs),
                "alpha": [list(r) for r in obj.alpha], "beta": list(obj.beta)}
    if isinstance(obj, CascadeTripleSemigroup):
        return {"type": "cascade-triple", "gamma": dump_semigroup_table(obj.gamma),
                "alpha": [list(r) for r in obj.alpha], "beta": list(obj.beta)}
    if isinstance(obj, MealyElement):
        data = dump_object(obj.machine)
        data["initial"] = obj.initial
        return data
    if isinstance(obj, MealyMachine):
        return {"type": "mealy", "states": obj.states, "alphabet": obj.alphabet,
                "next": [list(r) for r in obj.next], "out": [list(r) for r in obj.out]}
    if isinstance(obj, GeneratorHom):
        return {"type": "generator-hom", "alphabet_size": obj.alphabet_size,
                "target": dump_semigroup_table(obj.target),
                "assignment": list(obj.assignment)}
    if isinstance(obj, SerialConnection):
        return {"type": "serial", "first": dump_object(obj.first),
                "second": dump_object(obj.second),
                "alpha": [list(r) for r in obj.alpha]}
    raise TypeError(f"no schema for {type(obj).__name__}")


def load_object(data, where: str = "file"):
    """Deserialize any supported object by its type tag."""
    kind = _get(data, "type", where)
    try:
        if kind == "first-pure":
            return PureAutomatonFirst(
                load_finite_set(_get(data, "states", where), f"{where}.states"),
                load_finite_set(_get(data, "inputs", where), f"{where}.inputs"),
                load_finite_set(_get(data, "outputs", where), f"{where}.outputs"),
                _int_table(_get(data, "next", where), f"{where}.next"),
                _int_table(_get(data, "out", where), f"{where}.out"))
        if kind == "first-semigroup":
            return SemigroupAutomatonFirst(
                load_finite_set(_get(data, "states", where), f"{where}.states"),
                load_semigroup_table(_get(data, "semigroup", where), f"{where}.semigroup"),
                load_finite_set(_get(data, "outputs", where), f"{where}.outputs"),
                _int_table(_get(data, "next", where), f"{where}.next"),
                _int_table(_get(data, "out", where), f"{where}.out"))
        if kind == "second-pure":
            return PureAutomatonSecond(
                load_finite_set(_get(data, "states", where), f"{where}.states"),
                load_finite_set(_get(data, "inputs", where), f"{where}.inputs"),
                load_finite_set(_get(data, "outputs", where), f"{where}.outputs"),
                _int_table(_get(data, "next", where), f"{where}.next"),
                _int_table(_get(data, "out", where), f"{where}.out"))
        if kind == "second-semigroup":
            return SemigroupAutomatonSecond(
                load_finite_set(_get(data, "states", where), f"{where}.states"),
                load_semigroup_table(_get(data, "semigroup", where), f"{where}.semigroup"),
                load_semigroup_table(_get(data, "sigma", where), f"{where}.sigma"),
                _int_table(_get(data, "next", where), f"{where}.next"),
                _int_table(_get(data, "out", where), f"{where}.out"))
        if kind == "cascade-triple":
            alpha = _int_table(_get(data, "alpha", where), f"{where}.alpha")
            beta = _int_list(_get(data, "beta", where), f"{where}.beta")
            if "gamma" in data:
                return CascadeTripleSemigroup(
                    load_semigroup_table(data["gamma"], f"{where}.gamma"), alpha, beta)
            inputs = (load_finite_set(data["inputs"], f"{where}.inputs")
                      if "inputs" in data else FiniteSet(len(beta)))
            return CascadeTriplePure(inputs, alpha, beta)
        if kind == "mealy":
            machine = MealyMachine(
                _int(_get(data, "states", where), f"{where}.states"),
                _int(_get(data, "alphabet", where), f"{where}.alphabet"),
                _int_table(_get(data, "next", where), f"{where}.next"),
                _int_table(_get(data, "out", where), f"{where}.out"))
            if "initial" in data:
                return MealyElement(machine, _int(data["initial"], f"{where}.initial"))
            return machine
        if kind == "generator-hom":
            return GeneratorHom(
                _int(_get(data, "alphabet_size", where), f"{where}.alphabet_size"),
                load_semigroup_table(_get(data, "target", where), f"{where}.target"),
                _int_list(_get(data, "assignment", where), f"{where}.assignment"))
        if kind == "serial":
            first = load_object(_get(data, "first", where), f"{where}.first")
            second = load_object(_get(data, "second", where), f"{where}.second")
            _expect(isinstance(first, SemigroupAutomatonFirst), f"{where}.first",
                    "must be a first-semigroup automaton")
            _expect(isinstance(second, SemigroupAutomatonFirst), f"{where}.second",
                    "must be a first-semigroup automaton")
            return SerialConnection(first, second,
                                    _int_table(_get(data, "alpha", where), f"{where}.alpha"))
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: unknown type {kind!r}")


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, nested ``pad`` deep.  With an indent ``json.dumps`` runs its
    pure-Python encoder; this writer joins each list of plain ints in one
    call and hands everything else it does not write itself (other
    scalars, empty containers, dicts with non-str keys) to ``json.dumps``."""
    if type(value) is int:
        return str(value)
    if type(value) in (list, tuple) and value:
        inner = pad + "  "
        items = (map(str, value) if set(map(type, value)) == {int}
                 else (_encode(v, inner) for v in value))
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(value) is dict and value and set(map(type, value)) == {str}:
        inner = pad + "  "
        items = (f"{json.dumps(k)}: {_encode(value[k], inner)}" for k in sorted(value))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    # escaped strings hold no raw newline, so re-indenting is exact
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dumps(obj) -> str:
    """The object's JSON text: sorted keys, two-space indent, a final
    newline; byte for byte what ``json.dumps(..., indent=2,
    sort_keys=True)`` gives."""
    return _encode(dump_object(obj), "") + "\n"


def save(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj))


def load(path: str | Path):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return load_object(data, where=str(path))
