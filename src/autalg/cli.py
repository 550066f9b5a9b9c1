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
its row; ``check``, which has no verb, runs ``cmd_check``.  The run
functions call the package's functions by their names in this module's
globals, never through references taken when the table is built, since
the bench tracer (``bench/tracing.py``) wraps them here.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dot as dot_mod
from . import schema
from .cascade import (
    CascadeTriplePure,
    CascadeTripleSemigroup,
    cascade_pure,
    cascade_semigroup,
    check_pure_triple,
    check_semigroup_triple,
    embed_into_wreath,
    wreath_automaton,
    wreath_product,  # noqa: F401  re-exported: the bench tracer wraps it here
)
from .core import CapExceeded, CheckReport, DEFAULT_CAP, NotInvertible, VerificationError, Word
from .first_type import (
    PureAutomatonFirst,
    SemigroupAutomatonFirst,
    act_word,
    check_first_axioms,
    semigroupify,
)
from .mealy import (
    MealyElement,
    MealyMachine,
    element_apply,
    element_compose,
    element_equal,
    element_invert,
    element_order_bounded,
    first_difference,
    is_invertible,
    minimize_element,
)
from .second_type import (
    GeneratorHom,
    PureAutomatonSecond,
    QuotientWitness,
    SemigroupAutomatonSecond,
    check_second_axioms,
    quotient_construct,
)
from .serial import SerialConnection, check_serial, derive_second_type, serial_from_second


@dataclass(frozen=True)
class CommandResult:
    """What a command concluded: a status and the message to print."""

    status: str  # pass | fail | error
    message: str = ""

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.status]


def _passed(message: str) -> CommandResult:
    return CommandResult("pass", message)


def _failed(message: str) -> CommandResult:
    return CommandResult("fail", message)


def parse_word(tokens: list[str], alphabet_size: int) -> Word:
    """Letters as whitespace-separated labels, one letter per token.

    The compact form, a single all-digit token read one character per
    letter, is accepted only for alphabets of at most ten letters, where
    every letter is one digit; otherwise each token is one letter."""
    if (len(tokens) == 1 and len(tokens[0]) > 1 and alphabet_size <= 10
            and all(c.isdigit() for c in tokens[0])):
        letters = tuple(int(c) for c in tokens[0])
    else:
        try:
            letters = tuple(int(t) for t in tokens)
        except ValueError:
            raise ValueError(f"cannot parse word from {tokens!r}") from None
    return Word(letters, alphabet_size)


def format_word(w: Word) -> str:
    return " ".join(str(letter) for letter in w.letters)


def _write(path: str | None, obj) -> str:
    if path is None:
        return schema.dumps(obj).rstrip("\n")
    schema.save(path, obj)
    return f"wrote {path}"


def _emit(args, built) -> CommandResult:
    """Write a built object, then its DOT rendering.  The rendering is
    made first, so an object that has none writes no file."""
    text = None if args.dot is None else dot_mod.to_dot(built)
    message = _write(args.output, built)
    if text is not None:
        Path(args.dot).write_text(text)
    return _passed(message)


def _load_as(path: str, kind, what: str):
    obj = schema.load(path)
    if not isinstance(obj, kind):
        raise schema.SchemaError(f"{path}: expected {what}")
    return obj


def _component_type(triple) -> tuple:
    """The automaton type a cascade triple steers, and its name."""
    if isinstance(triple, CascadeTripleSemigroup):
        return SemigroupAutomatonFirst, "a first-semigroup automaton"
    return (PureAutomatonFirst, PureAutomatonSecond), "a first-pure or second-pure automaton"


def cmd_check(args) -> CommandResult:
    obj = schema.load(args.file)
    if args.components and not isinstance(obj, (CascadeTriplePure, CascadeTripleSemigroup)):
        raise ValueError(f"{args.file}: --components takes a cascade-triple")
    if args.dot is not None:
        Path(args.dot).write_text(dot_mod.to_dot(obj))
    report = CheckReport.passed()
    notes = []
    if isinstance(obj, SemigroupAutomatonFirst):
        report = check_first_axioms(obj)
    elif isinstance(obj, SemigroupAutomatonSecond):
        report = check_second_axioms(obj)
    elif isinstance(obj, SerialConnection):
        for name, rep in (("first component", check_first_axioms(obj.first)),
                          ("second component", check_first_axioms(obj.second)),
                          ("connection", check_serial(obj))):
            if not rep.ok:
                report = rep
                notes.append(name)
                break
    elif isinstance(obj, (CascadeTriplePure, CascadeTripleSemigroup)):
        if args.components:
            m1, m2 = (_load_as(path, *_component_type(obj)) for path in args.components)
            if isinstance(obj, CascadeTriplePure):
                check_pure_triple(obj, m1, m2)
            else:
                report = check_semigroup_triple(obj, m1, m2)
        else:
            notes.append("structure only; pass --components to verify against automata")
    elif isinstance(obj, (MealyMachine, MealyElement)):
        machine = obj.machine if isinstance(obj, MealyElement) else obj
        notes.append("invertible" if is_invertible(machine) else "not invertible")
    elif isinstance(obj, PureAutomatonFirst) and args.max_len:
        # a run reads only the image's generator columns, so one-letter
        # words from every state decide the words of every length
        image = semigroupify(obj)
        for a, x in itertools.product(range(obj.states.size), range(obj.inputs.size)):
            w = Word((x,), obj.inputs.size)
            if act_word(obj, a, w) != act_word(image, a, w):
                report = CheckReport.failed("pure/semigroup word agreement", (a, w.letters),
                                            act_word(obj, a, w), act_word(image, a, w))
                break
    if not report.ok:
        prefix = f"{notes[0]}: " if notes else ""
        return _failed(prefix + report.describe())
    suffix = f" ({'; '.join(notes)})" if notes else ""
    return _passed("pass" + suffix)


def _cascade(args) -> CommandResult:
    triple = _load_as(args.inputs[2], (CascadeTriplePure, CascadeTripleSemigroup),
                      "a cascade-triple")
    m1, m2 = (_load_as(path, *_component_type(triple)) for path in args.inputs[:2])
    if isinstance(triple, CascadeTriplePure):
        return _emit(args, cascade_pure(m1, m2, triple))
    report = check_semigroup_triple(triple, m1, m2)
    if not report.ok:
        return _failed(report.describe())
    return _emit(args, cascade_semigroup(m1, m2, triple))


def _wreath(args) -> CommandResult:
    m1, m2 = (_load_as(path, SemigroupAutomatonFirst, "a first-semigroup automaton")
              for path in args.inputs)
    built, triple = wreath_automaton(m1, m2, cap=args.cap)
    if args.triple_out:
        schema.save(args.triple_out, triple)
    return _emit(args, built)


def _quotient(args) -> CommandResult:
    source = _load_as(args.inputs[0], PureAutomatonSecond, "a second-pure automaton")
    mu, nu = (_load_as(path, GeneratorHom, "a generator-hom") for path in args.inputs[1:])
    outcome = quotient_construct(source, mu, nu)
    if isinstance(outcome, QuotientWitness):
        return _failed("incompatible: " + outcome.describe())
    return _emit(args, outcome)


def _embed(args) -> CommandResult:
    triple = _load_as(args.inputs[0], CascadeTripleSemigroup, "a semigroup cascade-triple")
    m1, m2 = (_load_as(path, SemigroupAutomatonFirst, "a first-semigroup automaton")
              for path in args.inputs[1:])
    mapping = embed_into_wreath(triple, m1, m2, cap=args.cap)
    if isinstance(mapping, CheckReport):
        return _failed("triple invalid: " + mapping.describe())
    message = "embedding " + " ".join(str(v) for v in mapping)
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"type": "embedding", "mapping": list(mapping)},
            indent=2, sort_keys=True) + "\n")
        message += f"\nwrote {args.output}"
    return _passed(message)


def _load_element(path: str) -> MealyElement:
    obj = _load_as(path, (MealyMachine, MealyElement), "a mealy machine")
    return MealyElement(obj, 0) if isinstance(obj, MealyMachine) else obj


def _apply(args) -> CommandResult:
    if len(args.inputs) < 2:
        raise ValueError("apply takes a machine file and a word")
    e = _load_element(args.inputs[0])
    return _passed(format_word(element_apply(e, parse_word(args.inputs[1:], e.machine.alphabet))))


def _equal(args) -> CommandResult:
    e1, e2 = map(_load_element, args.inputs)
    verdict = element_equal(e1, e2)
    lines = ["true" if verdict else "false"]
    if args.depth:
        # unequal elements agree on the words up to length d iff the
        # shortest word they map differently is longer than d
        agree = verdict or args.depth < first_difference(e1, e2)
        lines.append(f"words up to length {args.depth} "
                     + ("agree" if agree else "disagree"))
    message = "\n".join(lines)
    if verdict:
        return _passed(message)
    return _failed(message)


# verb -> (command, arity, the output options it refuses, run); apply's
# arity is None, since its run takes a machine file and a word of any length
_VERBS = {
    "semigroupify": ("construct", 1, ("triple_out",), lambda args: _emit(args, semigroupify(
        _load_as(args.inputs[0], PureAutomatonFirst, "a first-pure automaton"), cap=args.cap))),
    "cascade": ("construct", 3, ("triple_out",), _cascade),
    "wreath": ("construct", 2, (), _wreath),
    "serial": ("construct", 1, ("triple_out",), lambda args: _emit(args, serial_from_second(
        _load_as(args.inputs[0], SemigroupAutomatonSecond, "a second-semigroup automaton")))),
    "derive-second": ("construct", 1, ("triple_out",), lambda args: _emit(
        args, derive_second_type(_load_as(args.inputs[0], SerialConnection,
                                          "a serial connection")))),
    "quotient": ("construct", 3, ("triple_out",), _quotient),
    "embed": ("construct", 3, ("triple_out", "dot"), _embed),
    "apply": ("group", None, ("output", "dot"), _apply),
    "compose": ("group", 2, (), lambda args: _emit(
        args, element_compose(*map(_load_element, args.inputs)))),
    "invert": ("group", 1, (), lambda args: _emit(
        args, element_invert(_load_element(args.inputs[0])))),
    "equal": ("group", 2, ("output", "dot"), _equal),
    "order": ("group", 1, ("output", "dot"), lambda args: _passed(element_order_bounded(
        _load_element(args.inputs[0]), max_power=args.max_power,
        max_states=args.max_states).describe())),
    "minimize": ("group", 1, (), lambda args: _emit(
        args, minimize_element(_load_element(args.inputs[0])))),
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
    check.add_argument("--max-len", type=int, default=0,
                       help="also check the pure models' word laws (0: off).  They are "
                            "decided from the generator columns for every length "
                            "at once, so the length sets no work")
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
    if arity is not None and len(args.inputs) != arity:
        print(f"error: {args.verb} takes {arity} input file(s), got {len(args.inputs)}",
              file=sys.stderr)
        return 2
    for option in unused:
        if getattr(args, option) is not None:
            print(f"error: {args.verb} takes no --{option.replace('_', '-')}", file=sys.stderr)
            return 2
    for option, low in (("max_len", 0), ("depth", 0), ("max_power", 1), ("max_states", 1)):
        if getattr(args, option, low) < low:
            print(f"error: --{option.replace('_', '-')} must be at least {low}", file=sys.stderr)
            return 2
    try:
        result = run(args)
    except (schema.SchemaError, CapExceeded, NotInvertible, OSError, ValueError,
            VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    try:
        if result.message:
            print(result.message)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout's descriptor at the null device,
        # so what is still buffered is flushed there at exit, not raised again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
