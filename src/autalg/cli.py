"""Command-line front end.

Exit codes are uniform across verbs: 0 for a pass or a computed result,
1 for a failed property (an axiom violation, an incompatible quotient, a
false equality, an invalid embedding triple), 2 for usage or input errors,
for a construction that fails its own built-in verification
(``VerificationError``, printed as ``error: ...``), for running out of
memory (``MemoryError``, printed as ``error: out of memory``) and for a
standard output whose reader has gone (``BrokenPipeError``, as in
``autalg group invert m.json | head -1``), which prints nothing more.

Each ``construct`` and ``group`` verb is one row of ``_VERBS``: its
command, its arity, the output options it refuses and the function that
runs it.  ``build_parser`` takes each command's verb choices from the
table, and ``main`` checks a verb's arguments and dispatches it through
its row; ``check``, which has no verb, runs ``cmd_check``.  A run function
returns a plain ``(exit code, message)`` tuple, and ``main`` prints the
message.  A usage error that argparse does not catch (a verb's arity, an
option it refuses, a bound below its least value) raises ``ValueError``
inside the same ``try`` as a run, so every ``error: ...`` line leaves
through one path.

This module imports no other module of the package at the top but
``limits``.  The ``schema`` and ``dot`` modules and the names ``autalg``
exports resolve on first use as attributes of this module (PEP 562), so
a verb loads only the modules it runs, and an ``ImportError`` inside a
verb exits 2.  The run functions read them as ``_cli.name`` at call time,
never through references taken when the table is built, since the bench
tracer (``bench/tracing.py``) and the tests wrap them here.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from pathlib import Path

from .limits import DEFAULT_CAP, CapExceeded, VerificationError

# this module, as whose attributes the run functions read the names
# ``__getattr__`` resolves (see the module docstring)
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """The ``schema`` or ``dot`` module, or a name ``autalg`` exports,
    imported on first use and kept in this module's globals."""
    if name in ("schema", "dot"):
        value = importlib.import_module(f"{__package__}.{name}")
    elif name in sys.modules[__package__].__all__:
        value = getattr(sys.modules[__package__], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def parse_word(tokens: list[str], alphabet_size: int) -> Word:
    """Letters as whitespace-separated labels, one letter per token.

    The compact form, a single all-digit token read one character per
    letter, is accepted only for alphabets of at most ten letters, where
    every letter is one digit; otherwise each token is one letter."""
    compact = (len(tokens) == 1 and len(tokens[0]) > 1 and alphabet_size <= 10
               and tokens[0].isdigit())
    try:
        letters = tuple(map(int, tokens[0] if compact else tokens))
    except ValueError:
        raise ValueError(f"cannot parse word from {tokens!r}") from None
    return _cli.Word(letters, alphabet_size)


def format_word(w: Word) -> str:
    return " ".join(str(letter) for letter in w.letters)


def _write(path: str | None, obj) -> str:
    if path is None:
        return _cli.schema.dumps(obj).rstrip("\n")
    _cli.schema.save(path, obj)
    return f"wrote {path}"


def _emit(args, built) -> tuple[int, str]:
    """Write a built object, then its DOT rendering.  The rendering is
    made first, so an object that has none writes no file."""
    text = None if args.dot is None else _cli.dot.to_dot(built)
    message = _write(args.output, built)
    if text is not None:
        Path(args.dot).write_text(text, encoding="utf-8")
    return 0, message


def _load_as(path: str, kind, what: str):
    obj = _cli.schema.load(path)
    if not isinstance(obj, kind):
        raise _cli.schema.SchemaError(f"{path}: expected {what}")
    return obj


def _component_type(triple) -> tuple:
    """The automaton type a cascade triple steers, and its name."""
    if isinstance(triple, _cli.CascadeTripleSemigroup):
        return _cli.SemigroupAutomatonFirst, "a first-semigroup automaton"
    return ((_cli.PureAutomatonFirst, _cli.PureAutomatonSecond),
            "a first-pure or second-pure automaton")


def cmd_check(args) -> tuple[int, str]:
    obj = _cli.schema.load(args.file)
    # dispatched on the class name, so no other type's module is imported
    kind = type(obj).__name__
    triple = kind in ("CascadeTriplePure", "CascadeTripleSemigroup")
    if args.components and not triple:
        raise ValueError(f"{args.file}: --components takes a cascade-triple")
    if args.dot is not None:
        Path(args.dot).write_text(_cli.dot.to_dot(obj), encoding="utf-8")
    report = _cli.CheckReport.passed()
    notes = []
    if kind == "SemigroupAutomatonFirst":
        report = _cli.check_first_axioms(obj)
    elif kind == "SemigroupAutomatonSecond":
        report = _cli.check_second_axioms(obj)
    elif kind == "SerialConnection":
        # each part runs only once the parts before it pass
        for name, check, part in (("first component", _cli.check_first_axioms, obj.first),
                                  ("second component", _cli.check_first_axioms, obj.second),
                                  ("connection", _cli.check_serial, obj)):
            report = check(part)
            if not report.ok:
                notes.append(name)
                break
    elif triple:
        if args.components:
            m1, m2 = (_load_as(path, *_component_type(obj)) for path in args.components)
            if kind == "CascadeTriplePure":
                _cli.check_pure_triple(obj, m1, m2)
            else:
                report = _cli.check_semigroup_triple(obj, m1, m2)
        else:
            notes.append("structure only; pass --components to verify against automata")
    elif kind in ("MealyMachine", "MealyElement"):
        machine = obj.machine if kind == "MealyElement" else obj
        notes.append("invertible" if _cli.is_invertible(machine) else "not invertible")
    if not report.ok:
        prefix = f"{notes[0]}: " if notes else ""
        return 1, prefix + report.describe()
    suffix = f" ({'; '.join(notes)})" if notes else ""
    return 0, "pass" + suffix


def _cascade(args) -> tuple[int, str]:
    triple = _load_as(args.inputs[2], (_cli.CascadeTriplePure, _cli.CascadeTripleSemigroup),
                      "a cascade-triple")
    m1, m2 = (_load_as(path, *_component_type(triple)) for path in args.inputs[:2])
    if isinstance(triple, _cli.CascadeTriplePure):
        return _emit(args, _cli.cascade_pure(m1, m2, triple))
    report = _cli.check_semigroup_triple(triple, m1, m2)
    if not report.ok:
        return 1, report.describe()
    return _emit(args, _cli.cascade_semigroup(m1, m2, triple))


def _wreath(args) -> tuple[int, str]:
    m1, m2 = (_load_as(path, _cli.SemigroupAutomatonFirst, "a first-semigroup automaton")
              for path in args.inputs)
    built, triple = _cli.wreath_automaton(m1, m2, cap=args.cap)
    if args.triple_out:
        _cli.schema.save(args.triple_out, triple)
    return _emit(args, built)


def _quotient(args) -> tuple[int, str]:
    source = _load_as(args.inputs[0], _cli.PureAutomatonSecond, "a second-pure automaton")
    mu, nu = (_load_as(path, _cli.GeneratorHom, "a generator-hom") for path in args.inputs[1:])
    outcome = _cli.quotient_construct(source, mu, nu)
    if isinstance(outcome, _cli.QuotientWitness):
        return 1, "incompatible: " + outcome.describe()
    return _emit(args, outcome)


def _embed(args) -> tuple[int, str]:
    triple = _load_as(args.inputs[0], _cli.CascadeTripleSemigroup, "a semigroup cascade-triple")
    m1, m2 = (_load_as(path, _cli.SemigroupAutomatonFirst, "a first-semigroup automaton")
              for path in args.inputs[1:])
    mapping = _cli.embed_into_wreath(triple, m1, m2, cap=args.cap)
    if isinstance(mapping, _cli.CheckReport):
        return 1, "triple invalid: " + mapping.describe()
    message = "embedding " + " ".join(str(v) for v in mapping)
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"type": "embedding", "mapping": list(mapping)},
            indent=2, sort_keys=True) + "\n")
        message += f"\nwrote {args.output}"
    return 0, message


def _load_element(path: str) -> _cli.MealyElement:
    obj = _load_as(path, (_cli.MealyMachine, _cli.MealyElement), "a mealy machine")
    return _cli.MealyElement(obj, 0) if isinstance(obj, _cli.MealyMachine) else obj


def _apply(args) -> tuple[int, str]:
    if len(args.inputs) < 2:
        raise ValueError("apply takes a machine file and a word")
    e = _load_element(args.inputs[0])
    word = parse_word(args.inputs[1:], e.machine.alphabet)
    return 0, format_word(_cli.element_apply(e, word))


def _equal(args) -> tuple[int, str]:
    e1, e2 = map(_load_element, args.inputs)
    verdict = _cli.element_equal(e1, e2)
    lines = ["true" if verdict else "false"]
    if args.depth:
        # unequal elements agree on the words up to length d iff the
        # shortest word they map differently is longer than d
        agree = verdict or args.depth < _cli.first_difference(e1, e2)
        lines.append(f"words up to length {args.depth} "
                     + ("agree" if agree else "disagree"))
    return (0 if verdict else 1), "\n".join(lines)


# verb -> (command, arity, the output options it refuses, run); apply's
# arity is None, since its run takes a machine file and a word of any length
_VERBS = {
    "semigroupify": ("construct", 1, ("triple_out",), lambda args: _emit(args, _cli.semigroupify(
        _load_as(args.inputs[0], _cli.PureAutomatonFirst, "a first-pure automaton"),
        cap=args.cap))),
    "cascade": ("construct", 3, ("triple_out",), _cascade),
    "wreath": ("construct", 2, (), _wreath),
    "serial": ("construct", 1, ("triple_out",), lambda args: _emit(args, _cli.serial_from_second(
        _load_as(args.inputs[0], _cli.SemigroupAutomatonSecond,
                 "a second-semigroup automaton")))),
    "derive-second": ("construct", 1, ("triple_out",), lambda args: _emit(
        args, _cli.derive_second_type(_load_as(args.inputs[0], _cli.SerialConnection,
                                               "a serial connection")))),
    "quotient": ("construct", 3, ("triple_out",), _quotient),
    "embed": ("construct", 3, ("triple_out", "dot"), _embed),
    "apply": ("group", None, ("output", "dot"), _apply),
    "compose": ("group", 2, (), lambda args: _emit(
        args, _cli.element_compose(*map(_load_element, args.inputs)))),
    "invert": ("group", 1, (), lambda args: _emit(
        args, _cli.element_invert(_load_element(args.inputs[0])))),
    "equal": ("group", 2, ("output", "dot"), _equal),
    "order": ("group", 1, ("output", "dot"), lambda args: (0, _cli.element_order_bounded(
        _load_element(args.inputs[0]), max_power=args.max_power,
        max_states=args.max_states).describe())),
    "minimize": ("group", 1, (), lambda args: _emit(
        args, _cli.minimize_element(_load_element(args.inputs[0])))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` only
    reads it, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="autalg",
        description="Build, verify, and run algebraic automata stored as JSON files.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a file and verify its laws")
    check.add_argument("file")
    check.add_argument("--components", nargs=2, metavar=("M1", "M2"),
                       help="component automata for verifying a cascade triple")
    check.add_argument("--dot", help="write a DOT rendering of the object")

    construct = sub.add_parser("construct", help="run a construction and write the result")
    construct.add_argument("verb", choices=[verb for verb, row in _VERBS.items()
                                          if row[0] == "construct"])
    construct.add_argument("inputs", nargs="+", help="input files for the verb")
    construct.add_argument("-o", "--output", help="output file (default: print JSON)")
    construct.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="closure / wreath size cap")
    construct.add_argument("--triple-out", help="wreath: also write the steering triple")
    construct.add_argument("--dot", help="write a DOT rendering of the result")

    group = sub.add_parser("group", help="operate on word-machine elements")
    group.add_argument("verb", choices=[verb for verb, row in _VERBS.items()
                                      if row[0] == "group"])
    group.add_argument("inputs", nargs="+",
                       help="machine files; for apply, a machine then word letters. "
                            "The compact form, a single all-digit token read one "
                            "character per letter, is accepted only for alphabets of "
                            "at most ten letters, where every letter is one digit; "
                            "otherwise each token is one letter.")
    group.add_argument("-o", "--output", help="output file for machine results")
    group.add_argument("--depth", type=int, default=0,
                       help="equal: also say whether words up to this length agree (0: off)")
    group.add_argument("--max-power", type=int, default=64, help="order: power bound (at least 1)")
    group.add_argument("--max-states", type=int, default=100_000,
                       help="order: bound on the states of every minimized power")
    group.add_argument("--dot", help="write a DOT rendering of the result")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return exc.code
    # check has no verb: it takes one file and refuses no option
    _, arity, unused, run = _VERBS.get(getattr(args, "verb", None), (None, None, (), cmd_check))
    try:
        if arity is not None and len(args.inputs) != arity:
            raise ValueError(f"{args.verb} takes {arity} input file(s), got {len(args.inputs)}")
        for option in unused:
            if getattr(args, option) is not None:
                raise ValueError(f"{args.verb} takes no --{option.replace('_', '-')}")
        for option, low in (("depth", 0), ("max_power", 1), ("max_states", 1)):
            if getattr(args, option, low) < low:
                raise ValueError(f"--{option.replace('_', '-')} must be at least {low}")
        code, message = run(args)
    except (CapExceeded, ImportError, OSError, ValueError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    try:
        if message:
            print(message)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout's descriptor at the null device,
        # so what is still buffered is flushed there at exit, not raised again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
