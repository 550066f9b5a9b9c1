"""Command-line front end.

Exit codes are uniform across verbs: 0 for a pass or a computed result,
1 for a failed property (an axiom violation, an incompatible quotient, a
false equality, an invalid embedding triple), 2 for usage or input errors,
for a construction that fails its own built-in verification
(``VerificationError``, printed as ``error: ...``), for running out of
memory (``MemoryError``, printed as ``error: out of memory``) and for a
standard output whose reader has gone (``BrokenPipeError``, as in
``autalg group invert m.json | head -1``), which prints nothing more.
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


def cmd_construct(args) -> CommandResult:
    verb = args.verb
    if verb == "semigroupify":
        source = _load_as(args.inputs[0], PureAutomatonFirst, "a first-pure automaton")
        built = semigroupify(source, cap=args.cap)
    elif verb == "cascade":
        triple = _load_as(args.inputs[2], (CascadeTriplePure, CascadeTripleSemigroup),
                          "a cascade-triple")
        m1, m2 = (_load_as(path, *_component_type(triple)) for path in args.inputs[:2])
        if isinstance(triple, CascadeTripleSemigroup):
            report = check_semigroup_triple(triple, m1, m2)
            if not report.ok:
                return _failed(report.describe())
            built = cascade_semigroup(m1, m2, triple)
        else:
            built = cascade_pure(m1, m2, triple)
    elif verb == "wreath":
        m1 = _load_as(args.inputs[0], SemigroupAutomatonFirst, "a first-semigroup automaton")
        m2 = _load_as(args.inputs[1], SemigroupAutomatonFirst, "a first-semigroup automaton")
        built, triple = wreath_automaton(m1, m2, cap=args.cap)
        if args.triple_out:
            schema.save(args.triple_out, triple)
    elif verb == "serial":
        source = _load_as(args.inputs[0], SemigroupAutomatonSecond,
                          "a second-semigroup automaton")
        built = serial_from_second(source)
    elif verb == "derive-second":
        source = _load_as(args.inputs[0], SerialConnection, "a serial connection")
        built = derive_second_type(source)
    elif verb == "quotient":
        source = _load_as(args.inputs[0], PureAutomatonSecond, "a second-pure automaton")
        mu = _load_as(args.inputs[1], GeneratorHom, "a generator-hom")
        nu = _load_as(args.inputs[2], GeneratorHom, "a generator-hom")
        outcome = quotient_construct(source, mu, nu)
        if isinstance(outcome, QuotientWitness):
            return _failed("incompatible: " + outcome.describe())
        built = outcome
    elif verb == "embed":
        triple = _load_as(args.inputs[0], CascadeTripleSemigroup, "a semigroup cascade-triple")
        m1 = _load_as(args.inputs[1], SemigroupAutomatonFirst, "a first-semigroup automaton")
        m2 = _load_as(args.inputs[2], SemigroupAutomatonFirst, "a first-semigroup automaton")
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
    else:  # unreachable behind argparse choices
        raise ValueError(f"unknown verb {verb!r}")
    return _emit(args, built)


def _load_element(path: str) -> MealyElement:
    obj = _load_as(path, (MealyMachine, MealyElement), "a mealy machine")
    return MealyElement(obj, 0) if isinstance(obj, MealyMachine) else obj


def cmd_group(args) -> CommandResult:
    verb = args.verb
    if verb == "apply":
        e = _load_element(args.inputs[0])
        w = parse_word(args.inputs[1:], e.machine.alphabet)
        return _passed(format_word(element_apply(e, w)))
    if verb == "compose":
        e1 = _load_element(args.inputs[0])
        e2 = _load_element(args.inputs[1])
        return _emit(args, element_compose(e1, e2))
    if verb == "invert":
        return _emit(args, element_invert(_load_element(args.inputs[0])))
    if verb == "equal":
        e1 = _load_element(args.inputs[0])
        e2 = _load_element(args.inputs[1])
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
    if verb == "order":
        e = _load_element(args.inputs[0])
        result = element_order_bounded(e, max_power=args.max_power,
                                       max_states=args.max_states)
        return _passed(result.describe())
    if verb == "minimize":
        return _emit(args, minimize_element(_load_element(args.inputs[0])))
    raise ValueError(f"unknown verb {verb!r}")


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
    check.set_defaults(func=cmd_check)

    construct = sub.add_parser("construct", help="run a construction and write the result")
    construct.add_argument("verb", choices=["semigroupify", "cascade", "wreath", "serial",
                                            "derive-second", "quotient", "embed"])
    construct.add_argument("inputs", nargs="+", help="input files for the verb")
    construct.add_argument("-o", "--output", help="output file (default: print JSON)")
    construct.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="closure / wreath size cap")
    construct.add_argument("--triple-out", help="wreath: also write the steering triple")
    construct.add_argument("--dot", help="write a DOT rendering of the result")
    construct.set_defaults(func=cmd_construct)

    group = sub.add_parser("group", help="operate on word-machine elements")
    group.add_argument("verb", choices=["apply", "compose", "invert", "equal",
                                        "order", "minimize"])
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
    group.set_defaults(func=cmd_group)
    return parser


_ARITY = {"semigroupify": 1, "cascade": 3, "wreath": 2, "serial": 1,
          "derive-second": 1, "quotient": 3, "embed": 3,
          "compose": 2, "invert": 1, "equal": 2, "order": 1, "minimize": 1}
# the output options a verb has no use for: given, they are an error
_UNUSED = {**dict.fromkeys(("semigroupify", "cascade", "serial", "derive-second", "quotient"),
                           ("triple_out",)),
           "embed": ("triple_out", "dot"),
           **dict.fromkeys(("apply", "equal", "order"), ("output", "dot"))}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return exc.code
    arity = _ARITY.get(getattr(args, "verb", None))
    if arity is not None and len(args.inputs) != arity:
        print(f"error: {args.verb} takes {arity} input file(s), got {len(args.inputs)}",
              file=sys.stderr)
        return 2
    for option in _UNUSED.get(getattr(args, "verb", None), ()):
        if getattr(args, option) is not None:
            print(f"error: {args.verb} takes no --{option.replace('_', '-')}", file=sys.stderr)
            return 2
    for option, low in (("max_len", 0), ("depth", 0), ("max_power", 1), ("max_states", 1)):
        if getattr(args, option, low) < low:
            print(f"error: --{option.replace('_', '-')} must be at least {low}", file=sys.stderr)
            return 2
    if getattr(args, "verb", None) == "apply" and len(args.inputs) < 2:
        print("error: apply takes a machine file and a word", file=sys.stderr)
        return 2
    try:
        result = args.func(args)
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
