"""Seeded workload generator: writes every input file at set-up and pairs
each CLI operation with the exit code and output its input implies.

The program sees only the JSON files written here.  Each closure slot
draws random automata until the oracle's closure order lands in a narrow
window, so one seed costs about as much to run as another; about a third
of the ``check`` files carry one flipped table entry.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import numpy as np

import oracle as O

WORKLOADS = ("construct", "check", "group")


@dataclass
class Op:
    """One CLI call: ``argv`` relative to the input directory, the exit
    code its input implies, and a check of (stdout, output file) that
    returns a description of the first mismatch, or None."""

    name: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str, bytes | None], str | None]
    output: str | None = None


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the inputs of ``workload`` for ``seed`` into ``directory``."""
    rng = Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    make = {"construct": _construct, "check": _check, "group": _group}[workload]

    def write(name: str, obj) -> str:
        """Write ``obj`` as the program writes JSON; return its relative path."""
        (directory / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return name
    return make(rng, write)


# --- comparing parsed output with an expected object ------------------------

def mismatch(actual, expected, where: str = "$") -> str | None:
    """First place where parsed JSON differs from ``expected``; numpy
    arrays in ``expected`` stand for nested integer lists."""
    if isinstance(expected, np.ndarray):
        try:
            got = np.asarray(actual, dtype=np.int64)
        except (TypeError, ValueError):
            return f"{where}: not an integer table"
        if got.shape != expected.shape or not np.array_equal(got, expected):
            return f"{where}: table differs from the oracle"
        return None
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
        for key in sorted(expected):
            found = mismatch(actual[key], expected[key], f"{where}.{key}")
            if found:
                return found
        return None
    if actual != expected:
        return f"{where}: {str(actual)[:80]} != {str(expected)[:80]}"
    return None


def _json_check(expected) -> Callable[[str, bytes | None], str | None]:
    def check(stdout: str, data: bytes | None) -> str | None:
        try:
            parsed = json.loads(data if data is not None else stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        return mismatch(parsed, expected)
    return check


def _text_check(expected: str) -> Callable[[str, bytes | None], str | None]:
    def check(stdout: str, data: bytes | None) -> str | None:
        got = stdout.strip()
        return None if got == expected else f"stdout {got[:120]!r} != {expected[:120]!r}"
    return check


def _no_output(stdout: str, data: bytes | None) -> str | None:
    return None if not stdout.strip() else f"unexpected stdout {stdout[:120]!r}"


_FAIL = re.compile(r"^(?:(first component|second component|connection): )?fail: (.*?) at "
                   r"\(([-\d, ]*)\): lhs = (-?\d+), rhs = (-?\d+)$")


def _violation_check(laws: dict[str, Callable[[tuple], tuple[int, int]]]):
    """Accept a law failure only if the reported instance really breaks the
    named law with the reported sides; ``laws`` maps a law-name prefix
    (optionally "part: law") to an evaluator of (lhs, rhs)."""
    def check(stdout: str, data: bytes | None) -> str | None:
        found = _FAIL.match(stdout.strip())
        if not found:
            return f"unrecognised failure report {stdout.strip()[:160]!r}"
        part, law, witness, lhs, rhs = found.groups()
        prefix = f"{part}:" if part else ""
        key = next((k for k in laws if k.startswith(prefix)
                    and ":" not in k[len(prefix):] and law.startswith(k[len(prefix):])), None)
        if key is None:
            return f"law {law!r} ({part}) was not expected to fail"
        triple = tuple(int(v) for v in witness.split(",") if v.strip())
        try:
            if min(triple) < 0:
                raise IndexError
            want = laws[key](triple)
        except (IndexError, ValueError):
            return f"witness {triple} out of range"
        if want != (int(lhs), int(rhs)) or want[0] == want[1]:
            return f"witness {triple} of {law!r}: oracle sides {want}, reported ({lhs}, {rhs})"
        return None
    return check


# --- table objects --------------------------------------------------------------

def table_dict(table: np.ndarray, letters=None, names=None) -> dict:
    return {"order": len(table), "product": table.tolist(),
            "generators": list(letters) if letters is not None else None,
            "names": [list(w) for w in names] if names is not None else None}


def _expected_table(table: np.ndarray, letters=None, names=None) -> dict:
    d = table_dict(table, letters, names)
    d["product"] = table
    return d


def _cyclic(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def _i32(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int32)


# --- first-type closures (semigroupify) -----------------------------------------

def _pure_first(rng: Random, a: int, x: int, b: int, lo: int, hi: int):
    """A random first-pure automaton whose closure order is in [lo, hi],
    with the closure's elements, names, letters and table."""
    mul = O.pair_mul(a)
    while True:
        nxt = [[rng.randrange(a) for _ in range(x)] for _ in range(a)]
        out = [[rng.randrange(b) for _ in range(x)] for _ in range(a)]
        gens = [tuple(nxt[s][c] for s in range(a)) + tuple(out[s][c] for s in range(a))
                for c in range(x)]
        found = O.bfs_closure(gens, mul[0], cap=hi)
        if found is not None and len(found[0]) >= lo:
            return nxt, out, found + (O.product_table(found[0], mul[1]),)


def _full_transformations(rng: Random, a: int):
    """Generators of the full transformation monoid T_a (a cycle, a
    transposition and a rank a-1 map), conjugated by a random relabelling
    of the points and presented as a first-pure automaton with one output."""
    perm = list(range(a))
    rng.shuffle(perm)
    inv = [perm.index(i) for i in range(a)]
    base = [tuple((i + 1) % a for i in range(a)), (1, 0) + tuple(range(2, a)),
            (1,) + tuple(range(1, a))]
    gens = [tuple(perm[t[inv[i]]] for i in range(a)) for t in base]
    rng.shuffle(gens)
    nxt = [[g[s] for g in gens] for s in range(a)]
    out = [[0] * len(gens) for _ in range(a)]
    mul = O.pair_mul(a)
    pairs = [g + (0,) * a for g in gens]
    found = O.bfs_closure(pairs, mul[0])
    return nxt, out, found + (O.product_table(found[0], mul[1]),)


def _first_pure_dict(nxt, out, a, x, b) -> dict:
    return {"type": "first-pure", "states": {"size": a}, "inputs": {"size": x},
            "outputs": {"size": b}, "next": nxt, "out": out}


def _semigroupified(a: int, b: int, closure) -> dict:
    """The expected first-semigroup automaton of a closure, tables as arrays."""
    elements, names, letters, table = closure
    E = np.array(elements, dtype=np.int64)
    return {"type": "first-semigroup", "states": {"size": a}, "outputs": {"size": b},
            "semigroup": _expected_table(table, letters, names),
            "next": E[:, :a].T.copy(), "out": E[:, a:].T.copy()}


def _plain(obj):
    """Replace arrays by nested lists, for writing."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


# --- wreath products of Z3 by Z2 ----------------------------------------------------

def _wreath_parts(rng: Random, k: int):
    """m1: Z3 rotating 3 states; m2: Z2 acting on k points by a random
    involution; outputs read off the state reached, so both obey the
    action laws."""
    z3, z2 = _cyclic(3), _cyclic(2)
    f1 = [rng.randrange(2) for _ in range(3)]
    next1 = z3.copy()  # a . g = a + g mod 3
    points = list(range(k))
    rng.shuffle(points)
    swaps = rng.randint(1, k // 2)
    invol = list(range(k))
    for i in range(swaps):
        p, q = points[2 * i], points[2 * i + 1]
        invol[p], invol[q] = q, p
    next2 = np.array([[p, invol[p]] for p in range(k)], dtype=np.int64)
    f2 = np.array([rng.randrange(2) for _ in range(k)])
    m1 = {"type": "first-semigroup", "states": {"size": 3}, "semigroup": table_dict(z3),
          "outputs": {"size": 2}, "next": next1.tolist(),
          "out": np.array(f1)[next1].tolist()}
    m2 = {"type": "first-semigroup", "states": {"size": k}, "semigroup": table_dict(z2),
          "outputs": {"size": 2}, "next": next2.tolist(), "out": f2[next2].tolist()}
    return m1, m2, z3, z2, next2


def _wreath_elements(k: int) -> list[tuple[int, ...]]:
    """(bar, g2) with bar lexicographic and g2 fastest: the documented
    enumeration, so element rank is arithmetic."""
    return [bar + (s,) for bar in itertools.product(range(3), repeat=k) for s in range(2)]


def _wreath_rank(e) -> int:
    rank = 0
    for v in e[:-1]:
        rank = rank * 3 + int(v)
    return rank * 2 + int(e[-1])


def _wreath_automaton(rng: Random, k: int):
    m1, m2, z3, z2, next2 = _wreath_parts(rng, k)
    elements = _wreath_elements(k)
    table = O.product_table(elements, O.wreath_mul(k, z3, z2, next2)[1])
    E = np.array(elements, dtype=np.int64)
    n1, o1 = np.array(m1["next"]), np.array(m1["out"])
    n2, o2 = next2, np.array(m2["out"])
    nxt = np.array([n1[a1][E[:, a2]] * k + n2[a2][E[:, k]]
                    for a1 in range(3) for a2 in range(k)])
    out = np.array([o1[a1][E[:, a2]] * 2 + o2[a2][E[:, k]]
                    for a1 in range(3) for a2 in range(k)])
    labels = [f"({i},{j})" for i in range(3) for j in range(k)]
    expected = {"type": "first-semigroup",
                "states": {"size": 3 * k, "labels": labels},
                "outputs": {"size": 4, "labels": [f"({i},{j})" for i in range(2) for j in range(2)]},
                "semigroup": _expected_table(table), "next": nxt, "out": out}
    return m1, m2, expected


def _wreath_triple(rng: Random, k: int, gens: int, order: int):
    """A sub-cascade of the wreath product: a subsemigroup of the given
    order generated by ``gens`` random wreath elements, steered by its own
    coordinates.  The wreath product here is a group of order 2 * 3**k,
    so ``order`` must be a subgroup order."""
    m1, m2, z3, z2, next2 = _wreath_parts(rng, k)
    mul = O.wreath_mul(k, z3, z2, next2)
    universe = _wreath_elements(k)
    while True:
        found = O.bfs_closure([rng.choice(universe) for _ in range(gens)], mul[0], cap=order)
        if found is not None and len(found[0]) == order:
            break
    elements, names, letters = found
    table = O.product_table(elements, mul[1])
    E = np.array(elements, dtype=np.int64)
    triple = {"type": "cascade-triple", "gamma": table_dict(table, letters, names),
              "alpha": E[:, :k].T.tolist(), "beta": E[:, k].tolist()}
    phi = [_wreath_rank(e) for e in elements]
    return m1, m2, triple, phi, (table, E[:, :k].T.copy(), E[:, k].copy(), z3, z2, next2)


# --- accumulating closures (second type, serial, quotient) ---------------------------

def _small_sigma(rng: Random, y: int):
    """Output semigroup: generated by y random self-maps of 3 points."""
    mt = O.transform_mul()
    while True:
        gens = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(y)]
        found = O.bfs_closure(gens, mt[0])
        if len(found[0]) >= 2:
            return found + (O.product_table(found[0], mt[1]),)


def _accumulating(rng: Random, a: int, x: int, y: int, lo: int, hi: int,
                  witness: bool = False):
    """A random second-pure automaton and the closure of its letters in the
    accumulating pair semigroup, of order in [lo, hi].  With ``witness``
    the transition semigroup alone must be smaller, so reading inputs
    through it loses output information."""
    while True:
        s_el, s_names, s_letters, s_table = _small_sigma(rng, y)
        mul = O.acc_mul(a, s_table)
        nxt = [[rng.randrange(a) for _ in range(x)] for _ in range(a)]
        out = [[rng.randrange(y) for _ in range(x)] for _ in range(a)]
        gens = [tuple(nxt[s][c] for s in range(a)) + tuple(s_letters[out[s][c]] for s in range(a))
                for c in range(x)]
        found = O.bfs_closure(gens, mul[0], cap=hi)
        if found is None or len(found[0]) < lo:
            continue
        trans = O.bfs_closure([g[:a] for g in gens], O.transform_mul()[0])
        if witness and len(trans[0]) == len(found[0]):
            continue
        sigma = (s_letters, s_names, s_table)
        return nxt, out, sigma, found + (O.product_table(found[0], mul[1]),), trans


def _second_dict(a: int, closure, sigma) -> dict:
    elements, names, letters, table = closure
    s_letters, s_names, s_table = sigma
    E = np.array(elements, dtype=np.int64)
    return {"type": "second-semigroup", "states": {"size": a},
            "semigroup": _expected_table(table, letters, names),
            "sigma": _expected_table(s_table, s_letters, s_names),
            "next": E[:, :a].T.copy(), "out": E[:, a:].T.copy()}


def _serial_dict(second: dict) -> dict:
    """View an accumulating automaton as a serial connection, Sigma acting
    on itself by right multiplication (``autalg``'s serial_from_second)."""
    a, sig = second["states"]["size"], second["sigma"]
    order, s_order = second["semigroup"]["order"], sig["order"]
    return {"type": "serial",
            "first": {"type": "first-semigroup", "states": {"size": a},
                      "semigroup": second["semigroup"], "outputs": {"size": 1},
                      "next": second["next"], "out": np.zeros((a, order), dtype=np.int64)},
            "second": {"type": "first-semigroup", "states": {"size": s_order},
                       "semigroup": sig, "outputs": {"size": 1}, "next": sig["product"],
                       "out": np.zeros((s_order, s_order), dtype=np.int64)},
            "alpha": second["out"]}


# --- flipping one entry ---------------------------------------------------------------

EARLY = 0.05


def _flip(rng: Random, arr: np.ndarray, bound: int,
          violation: Callable[[], float | None]) -> None:
    """Change one entry of ``arr`` in place to another value below ``bound``
    so that ``violation()`` reports a broken law.  Entries near the start
    of the checkers' scan are tried first, and a flip the scan meets within
    its first ``EARLY`` share is preferred, so a flipped file costs about
    as much from one seed to the next."""
    rows, cols = arr.shape
    for tries, early in ((300, True), (300, False)):
        for _ in range(tries):
            i = rng.randrange(rows) if not early or rows == 1 else 0
            j = rng.randrange(cols if not early else max(1, cols // 20))
            old = int(arr[i, j])
            arr[i, j] = (old + rng.randrange(1, bound)) % bound
            found = violation()
            if found is not None and (found < EARLY or not early):
                return
            arr[i, j] = old
    raise RuntimeError("no flip breaks the laws")


def _first_laws(nxt, out, prod, part: str = ""):
    nxt, out, prod = _i32(nxt), _i32(out), _i32(prod)
    prefix = part + ":" if part else ""
    return {prefix + "state law": lambda w: (int(nxt[w[0], prod[w[1], w[2]]]),
                                             int(nxt[nxt[w[0], w[1]], w[2]])),
            prefix + "output law": lambda w: (int(out[w[0], prod[w[1], w[2]]]),
                                              int(out[nxt[w[0], w[1]], w[2]]))}


def _accumulation_laws(nxt, out, prod, sprod, law: str, part: str = ""):
    nxt, out, prod, sprod = _i32(nxt), _i32(out), _i32(prod), _i32(sprod)
    prefix = part + ":" if part else ""
    return {prefix + "state law": lambda w: (int(nxt[w[0], prod[w[1], w[2]]]),
                                             int(nxt[nxt[w[0], w[1]], w[2]])),
            prefix + law: lambda w: (int(out[w[0], prod[w[1], w[2]]]),
                                     int(sprod[out[w[0], w[1]], out[nxt[w[0], w[1]], w[2]]]))}


def _check_first_file(rng, write, name, closure, a, b, kind):
    """A first-semigroup file: valid, with a flipped law entry, or with a
    flipped product entry."""
    obj = _semigroupified(a, b, closure)
    prod, nxt, out = obj["semigroup"]["product"], obj["next"], obj["out"]
    if kind == "valid":
        return Op(name, ["check", write(name, _plain(obj))], 0, _text_check("pass"))
    if kind == "product":
        _flip(rng, prod, len(prod), lambda: None if O.is_associative(prod) else 0.0)
        return Op(name, ["check", write(name, _plain(obj))], 2, _no_output)
    table = nxt if rng.random() < 0.5 else out
    bound = a if table is nxt else b
    _flip(rng, table, bound, lambda: O.first_laws_break(nxt, out, prod))
    return Op(name, ["check", write(name, _plain(obj))], 1,
              _violation_check(_first_laws(nxt, out, prod)))


def _check_second_file(rng, write, name, a, x, y, lo, hi, kind, serial: bool):
    nxt, out, sigma, closure, _ = _accumulating(rng, a, x, y, lo, hi)
    obj = _second_dict(a, closure, sigma)
    prod, sprod = obj["semigroup"]["product"], obj["sigma"]["product"]
    if serial:
        obj = _serial_dict(obj)
        nxt2, out2 = obj["first"]["next"], obj["alpha"]
    else:
        nxt2, out2 = obj["next"], obj["out"]
    if kind == "flip":
        table = nxt2 if rng.random() < 0.5 else out2
        bound = a if table is nxt2 else len(sprod)
        _flip(rng, table, bound, lambda: O.second_laws_break(nxt2, out2, prod, sprod))
    if serial:
        laws = {**_first_laws(nxt2, obj["first"]["out"], prod, "first component"),
                **_accumulation_laws(nxt2, out2, prod, sprod, "connecting law", "connection")}
    else:
        laws = _accumulation_laws(nxt2, out2, prod, sprod, "accumulation law")
    path = write(name, _plain(obj))
    if kind == "valid":
        return Op(name, ["check", path], 0, _text_check("pass"))
    return Op(name, ["check", path], 1, _violation_check(laws))


def _check_triple_file(rng, write, name, k, gens, order, kind):
    m1, m2, triple, _, (table, alpha, beta, p1, p2, next2) = _wreath_triple(rng, k, gens, order)
    paths = [write(name + "-m1.json", m1), write(name + "-m2.json", m2)]
    if kind == "flip":
        if rng.random() < 0.5:
            _flip(rng, alpha, 3, lambda: O.crossed_law_break(alpha, beta, table, p1, next2))
        else:
            _flip(rng, beta[None, :], 2, lambda: O.beta_hom_break(beta, table, p2))
        triple["alpha"], triple["beta"] = alpha.tolist(), beta.tolist()
    path = write(name + ".json", triple)
    argv = ["check", path, "--components", *paths]
    if kind == "valid":
        return Op(name, argv, 0, _text_check("pass"))
    laws = {"beta homomorphism": lambda w: (int(beta[table[w[0], w[1]]]),
                                            int(p2[beta[w[0]], beta[w[1]]])),
            "crossed law": lambda w: (int(alpha[w[0], table[w[1], w[2]]]),
                                      int(p1[alpha[w[0], w[1]],
                                             alpha[next2[w[0], beta[w[1]]], w[2]]]))}
    return Op(name, argv, 1, _violation_check(laws))


# --- letter machines ---------------------------------------------------------------------

_GRIG = (((4, 4), (0, 2), (0, 3), (4, 1), (4, 4)),
         ((1, 0), (0, 1), (0, 1), (0, 1), (0, 1)))
_ODOMETER = (((1, 0), (1, 1)), ((1, 0), (0, 1)))


def _relabel(rng: Random, m: O.Machine):
    """The same machine with states renumbered and letters swapped at
    random: a conjugate, so orders and equalities are unchanged."""
    n = len(m[0])
    perm = list(range(n))
    rng.shuffle(perm)
    tau = (1, 0) if rng.random() < 0.5 else (0, 1)
    nxt = [[0, 0] for _ in range(n)]
    out = [[0, 0] for _ in range(n)]
    for q in range(n):
        for x in range(2):
            nxt[perm[q]][tau[x]] = perm[m[0][q][x]]
            out[perm[q]][tau[x]] = tau[m[1][q][x]]
    return (tuple(map(tuple, nxt)), tuple(map(tuple, out))), perm


def _mealy_dict(m: O.Machine, initial: int) -> dict:
    return {"type": "mealy", "states": len(m[0]), "alphabet": 2,
            "next": [list(r) for r in m[0]], "out": [list(r) for r in m[1]], "initial": initial}


def _product(chain) -> tuple[O.Machine, int]:
    """One machine for a chain of elements, composed pairwise so that
    abac is the product of the machines of ab and ac."""
    parts = list(chain)
    while len(parts) > 1:
        paired = [O.compose_machines(*parts[i], *parts[i + 1]) for i in range(0, len(parts) - 1, 2)]
        parts = paired + ([parts[-1]] if len(parts) % 2 else [])
    return parts[0]


def _machine_check(reference_chain, depth: int = 8):
    """Output element must act like the reference on every word up to
    ``depth`` letters."""
    def check(stdout: str, data: bytes | None) -> str | None:
        try:
            obj = json.loads(stdout)
            m = (tuple(map(tuple, obj["next"])), tuple(map(tuple, obj["out"])))
            q = obj.get("initial", 0)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"output is not a machine: {exc}"
        if not O.agree_to_depth([(m, q)], reference_chain, 2, depth):
            return f"result differs from the oracle on words up to length {depth}"
        return None
    return check


def _minimal_check(reference_chain, depth: int = 8):
    same = _machine_check(reference_chain, depth)

    def check(stdout: str, data: bytes | None) -> str | None:
        found = same(stdout, data)
        if found:
            return found
        obj = json.loads(stdout)
        m = (tuple(map(tuple, obj["next"])), tuple(map(tuple, obj["out"])))
        if not O.distinct_states(m, 2, depth):
            return f"two states act alike on all words up to length {depth}"
        return None
    return check


# --- workloads --------------------------------------------------------------------------------

def _construct(rng: Random, write) -> list[Op]:
    ops: list[Op] = []

    def semigroupify(name, a, x, b, lo, hi):
        nxt, out, closure = _pure_first(rng, a, x, b, lo, hi)
        path = write(name + ".json", _first_pure_dict(nxt, out, a, x, b))
        ops.append(Op(name, ["construct", "semigroupify", path, "-o", name + "-out.json"], 0,
                      _json_check(_semigroupified(a, b, closure)), name + "-out.json"))

    nxt, out, closure = _full_transformations(rng, 3)
    path = write("closure-t3.json", _first_pure_dict(nxt, out, 3, 3, 1))
    ops.append(Op("closure-t3", ["construct", "semigroupify", path, "-o", "closure-t3-out.json"],
                  0, _json_check(_semigroupified(3, 1, closure)), "closure-t3-out.json"))
    for i in range(2):
        semigroupify(f"closure-100-{i}", 6, 2, 1, 98, 102)
    for i in range(4):
        semigroupify(f"closure-60-{i}", 5, 2, 2, 58, 62)
    for i in range(4):
        semigroupify(f"closure-40-{i}", 5, 2, 2, 39, 41)
    for i in range(20):
        semigroupify(f"closure-small-{i}", 4, 2, 2, 24, 26)
    for k in (3, 4):
        m1, m2, expected = _wreath_automaton(rng, k)
        name = f"wreath-{k}"
        p1, p2 = write(name + "-m1.json", m1), write(name + "-m2.json", m2)
        ops.append(Op(name, ["construct", "wreath", p1, p2, "-o", name + "-out.json"], 0,
                      _json_check(expected), name + "-out.json"))
    for k in (3, 4):
        m1, m2, triple, phi, _ = _wreath_triple(rng, k, 2, 54)
        name = f"embed-{k}"
        paths = [write(name + ".json", triple), write(name + "-m1.json", m1),
                 write(name + "-m2.json", m2)]
        ops.append(Op(name, ["construct", "embed", *paths], 0,
                      _text_check("embedding " + " ".join(map(str, phi)))))
    return ops


def _check(rng: Random, write) -> list[Op]:
    ops: list[Op] = []
    plan = [("200", 5, 3, 2, 197, 203, ["valid", "law", "product"]),
            ("150", 5, 2, 2, 148, 152, ["valid", "valid", "law", "product"]),
            ("60", 5, 2, 2, 58, 62, ["valid"] * 13 + ["law", "law", "product"])]
    for label, a, x, b, lo, hi, kinds in plan:
        for i, kind in enumerate(kinds):
            _, _, closure = _pure_first(rng, a, x, b, lo, hi)
            ops.append(_check_first_file(rng, write, f"first-{label}-{i}-{kind}.json",
                                         closure, a, b, kind))
    for serial in (False, True):
        stem = "serial" if serial else "second"
        for i, (lo, hi, kind) in enumerate([(195, 205, "valid"), (195, 205, "flip"),
                                            (48, 52, "valid"), (48, 52, "valid"),
                                            (48, 52, "flip")]):
            ops.append(_check_second_file(rng, write, f"{stem}-{i}-{kind}.json", 3, 3, 2,
                                          lo, hi, kind, serial))
    for i, (k, gens, order, kind) in enumerate([(5, 3, 162, "valid"), (5, 3, 162, "flip"),
                                               (4, 2, 54, "valid"), (4, 2, 54, "valid"),
                                               (3, 2, 18, "flip")]):
        ops.append(_check_triple_file(rng, write, f"triple-{i}-{kind}", k, gens, order, kind))
    return ops


def _group(rng: Random, write) -> list[Op]:
    ops: list[Op] = []
    grig, perm = _relabel(rng, _GRIG)
    state = {c: perm[i] for i, c in enumerate("abcde")}

    def chain(word):
        return [(grig, state[c]) for c in word]

    def element(name, word):
        return write(name + ".json", _mealy_dict(*_product(chain(word))))

    def order_op(name, length, order):
        """An order search on a random word of the given length and order:
        the cost of a search grows with the order it has to reach."""
        while True:
            w = word(length)
            if {O.level_order(chain(w), 2, d) for d in (8, 10)} == {order}:
                break
        ops.append(Op(name, ["group", "order", element(name, w)], 0, _text_check(str(order))))

    def word(length):
        """Alternate a with one of b, c, d, starting on either side."""
        letters = [rng.choice("abcd")]
        for _ in range(length - 1):
            letters.append(rng.choice("bcd") if letters[-1] == "a" else "a")
        return "".join(letters)

    for i, order in enumerate((4, 2)):
        order_op(f"order-3-{i}", 3, order)
    for i, order in enumerate((16, 8, 4, 16)):
        order_op(f"order-2-{i}", 2, order)
    odo, perm = _relabel(rng, _ODOMETER)
    carry = perm[0]
    for name, m, power in [("order-odometer", (odo, carry), 128),
                           ("order-odometer2", O.compose_machines(odo, carry, odo, carry), 64)]:
        path = write(name + ".json", _mealy_dict(*m))
        ops.append(Op(name, ["group", "order", path, "--max-power", str(power)], 0,
                      _text_check(f"exceeds bound (power cap, reached power {power})")))
    for i in range(4):
        w = word(3)
        pos = next(j for j, c in enumerate(w) if c != "a")
        pair = "".join(c for c in "bcd" if c != w[pos])
        same = w[:pos] + rng.choice([pair, pair[::-1]]) + w[pos + 1:]
        name = f"equal-{i}"
        base = element(name + "-u", w)
        ops.append(Op(name + "-true", ["group", "equal", base, element(name + "-v", same)], 0,
                      _text_check("true")))
        while True:
            other = w[:pos] + rng.choice([c for c in "bcd" if c != w[pos]]) + w[pos + 1:]
            if not O.agree_to_depth(chain(w), chain(other), 2, 8):
                break
        ops.append(Op(name + "-false", ["group", "equal", base, element(name + "-w", other)], 1,
                      _text_check("false")))
    for i, length in enumerate((4, 4, 3, 3)):
        w = word(length)
        ops.append(Op(f"minimize-{i}", ["group", "minimize", element(f"minimize-{i}", w)], 0,
                      _minimal_check(chain(w))))
    for i in range(4):
        u, v = word(2), word(2)
        ops.append(Op(f"compose-{i}", ["group", "compose", element(f"compose-{i}-u", u),
                                       element(f"compose-{i}-v", v)], 0,
                      _machine_check(chain(u) + chain(v))))
    for i in range(8):
        ops.append(_quotient_op(rng, write, f"quotient-{i}", witness=i % 2 == 1))
    return ops


_WITNESS = re.compile(r"^incompatible: words \(([\d, ]*)\) and \(([\d, ]*)\) share an input "
                      r"image but behave as \((\d+), (\d+)\) vs \((\d+), (\d+)\) from state (\d+)$")


def _quotient_op(rng: Random, write, name: str, witness: bool) -> Op:
    a, x, y = 3, 3, 2
    nxt, out, sigma, closure, trans = _accumulating(rng, a, x, y, 148, 152, witness)
    s_letters, s_names, s_table = sigma
    if witness:
        t_el, t_names, t_letters = trans
        gamma = (O.product_table(t_el, O.transform_mul()[1]), t_letters, t_names)
    else:
        gamma = (closure[3], closure[2], closure[1])
    pure = {"type": "second-pure", "states": {"size": a}, "inputs": {"size": x},
            "outputs": {"size": y}, "next": nxt, "out": out}
    mu = {"type": "generator-hom", "alphabet_size": x,
          "target": table_dict(gamma[0], gamma[1], gamma[2]), "assignment": list(gamma[1])}
    nu = {"type": "generator-hom", "alphabet_size": y,
          "target": table_dict(s_table, s_letters, s_names), "assignment": list(s_letters)}
    argv = ["construct", "quotient", write(name + ".json", pure),
            write(name + "-mu.json", mu), write(name + "-nu.json", nu)]
    if not witness:
        return Op(name, argv, 0, _json_check(_second_dict(a, closure, sigma)))
    gprod, sprod = gamma[0].tolist(), s_table.tolist()

    def behaviour(start, letters):
        g, s, q = None, None, start
        for c in letters:
            g = gamma[1][c] if g is None else gprod[g][gamma[1][c]]
            o = s_letters[out[q][c]]
            s = o if s is None else sprod[s][o]
            q = nxt[q][c]
        return g, (q, s)

    def check(stdout: str, data: bytes | None) -> str | None:
        found = _WITNESS.match(stdout.strip())
        if not found:
            return f"unrecognised witness report {stdout.strip()[:160]!r}"
        u, v = ([int(c) for c in grp.split(",") if c.strip()] for grp in found.groups()[:2])
        claimed = tuple(int(c) for c in found.groups()[2:6])
        start = int(found.group(7))
        try:
            (gu, bu), (gv, bv) = behaviour(start, u), behaviour(start, v)
        except IndexError:
            return "witness out of range"
        if not u or not v or gu != gv or bu == bv or bu + bv != claimed:
            return f"not a genuine witness: images {gu}, {gv}, behaviours {bu}, {bv}"
        return None
    return Op(name, argv, 1, check)
