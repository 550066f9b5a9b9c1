#!/usr/bin/env python3
"""Regenerate the JSON fixture corpus under tests/fixtures/.

``main`` takes the output directory, so a test can regenerate the corpus
elsewhere and compare it with the committed files byte for byte.

Valid files are produced through the package's own constructions; the
law-violating ones are valid files with one table entry flipped, and the
schema-violating one is written as raw JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from autalg import (
    CascadeTripleSemigroup,
    FiniteSet,
    GeneratorHom,
    PureAutomatonFirst,
    PureAutomatonSecond,
    SemigroupAutomatonFirst,
    SemigroupAutomatonSecond,
    SemigroupTable,
    SerialConnection,
    grigorchuk_elements,
    identity_element,
    odometer,
    semiautomaton,
    semigroupify,
    wreath_automaton,
)
from autalg.mealy import MealyMachine
from autalg.schema import dump_object, save

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

Z2 = SemigroupTable(2, ((0, 1), (1, 0)))
LEFT_ZERO = SemigroupTable(2, ((0, 0), (1, 1)))


def swap_automaton() -> PureAutomatonFirst:
    return PureAutomatonFirst(FiniteSet(2, ("even", "odd")), FiniteSet(1, ("x",)),
                              FiniteSet(2), ((1,), (0,)), ((0,), (1,)))


def regular_z2() -> SemigroupAutomatonFirst:
    return SemigroupAutomatonFirst(FiniteSet(2), Z2, FiniteSet(2),
                                   Z2.product, Z2.product)


def labelled_automaton() -> PureAutomatonFirst:
    """Labels that JSON text holds only as escapes: a Latin-1 letter, DEL
    and an astral emoji."""
    labels = FiniteSet(3, ("\u00e9", "\x7f", "\U0001f600"))
    return PureAutomatonFirst(labels, FiniteSet(2), labels,
                              ((1, 1), (2, 0), (0, 2)), ((0, 2), (1, 1), (2, 0)))


def parity_second() -> PureAutomatonSecond:
    return PureAutomatonSecond(FiniteSet(2), FiniteSet(1), FiniteSet(1),
                               ((1,), (0,)), ((0,), (0,)))


def parity_quotient() -> SemigroupAutomatonSecond:
    from autalg import quotient_construct
    result = quotient_construct(parity_second(), GeneratorHom(1, Z2, (1,)),
                                GeneratorHom(1, Z2, (1,)))
    assert isinstance(result, SemigroupAutomatonSecond)
    return result


def reset_serial() -> SerialConnection:
    gamma = SemigroupTable(2, ((0, 0), (0, 1)))
    first = semiautomaton(FiniteSet(2), gamma, ((1, 0), (1, 1)))
    right_zero = SemigroupTable(2, ((0, 1), (0, 1)))
    second = semiautomaton(FiniteSet(2), right_zero, ((0, 1), (0, 1)))
    return SerialConnection(first, second, ((1, 0), (1, 1)))


def flip_entry(data: dict, table: str, i: int, j: int, bound: int) -> dict:
    data = json.loads(json.dumps(data))
    data[table][i][j] = (data[table][i][j] + 1) % bound
    return data


def main(out_dir: Path = FIXTURES) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_raw(name: str, data: dict) -> None:
        (out_dir / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    # valid objects, one per schema type
    save(out_dir / "first_pure_swap.json", swap_automaton())
    save(out_dir / "first_pure_trivial.json",
         PureAutomatonFirst(FiniteSet(1), FiniteSet(1), FiniteSet(1), ((0,),), ((0,),)))
    save(out_dir / "first_semigroup_swap.json", semigroupify(swap_automaton()))
    save(out_dir / "first_semigroup_z2.json", regular_z2())
    save(out_dir / "first_pure_labels.json", labelled_automaton())
    save(out_dir / "first_semigroup_labels.json", semigroupify(labelled_automaton()))
    save(out_dir / "wreath_z2_z2.json", wreath_automaton(regular_z2(), regular_z2())[0])
    save(out_dir / "second_pure_parity.json", parity_second())
    odo = odometer().machine
    save(out_dir / "second_pure_odometer.json",
         PureAutomatonSecond(FiniteSet(2, ("add", "copy")), FiniteSet(2), FiniteSet(2),
                             odo.next, odo.out))
    save(out_dir / "second_semigroup_parity.json", parity_quotient())
    save(out_dir / "hom_mu_parity.json", GeneratorHom(1, Z2, (1,)))
    save(out_dir / "hom_nu_parity.json", GeneratorHom(1, Z2, (1,)))
    save(out_dir / "serial_reset.json", reset_serial())
    save(out_dir / "mealy_odometer.json", odometer())
    save(out_dir / "mealy_identity.json", identity_element(2))
    save(out_dir / "mealy_grigorchuk.json", grigorchuk_elements()["a"].machine)
    save(out_dir / "mealy_noninvertible.json",
         MealyMachine(1, 2, ((0, 0),), ((0, 0),)))

    # quotient incompatibility: two inputs acting alike with distinct
    # outputs, identified by mu while nu separates the letters
    save(out_dir / "second_pure_twoinputs.json",
         PureAutomatonSecond(FiniteSet(1), FiniteSet(2), FiniteSet(2),
                             ((0, 0),), ((0, 1),)))
    save(out_dir / "hom_mu_identify.json", GeneratorHom(2, Z2, (1, 1)))
    save(out_dir / "hom_nu_leftzero.json", GeneratorHom(2, LEFT_ZERO, (0, 1)))

    # cascade triples: a pure one steering a two-input machine, and the
    # lawful semigroup one over Z2 (identity beta, constant-column alpha)
    write_raw("cascade_triple_pure.json",
              {"type": "cascade-triple", "inputs": {"size": 1},
               "alpha": [[0], [1]], "beta": [0]})
    m1 = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                            ((0, 1), (1, 0)), ((0, 0), (1, 1)))
    m2 = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(2),
                            ((1,), (0,)), ((0,), (1,)))
    save(out_dir / "first_pure_keepswap.json", m1)
    save(out_dir / "first_pure_tick.json", m2)
    save(out_dir / "cascade_triple_semigroup.json",
         CascadeTripleSemigroup(Z2, ((0, 1), (0, 1)), (0, 1)))

    # law violations: flip one entry of a passing file
    good = dump_object(semigroupify(swap_automaton()))
    write_raw("first_semigroup_corrupt.json",
              flip_entry(good, "next", 0, 0, good["states"]["size"]))
    good2 = dump_object(parity_quotient())
    write_raw("second_semigroup_corrupt.json",
              flip_entry(good2, "out", 0, 0, good2["sigma"]["order"]))
    serial_data = dump_object(reset_serial())
    serial_data["alpha"][0][0] = (serial_data["alpha"][0][0] + 1) % 2
    write_raw("serial_corrupt.json", serial_data)

    # schema violation: a next entry pointing past the state set
    bad = dump_object(swap_automaton())
    bad["next"][0][0] = 5
    write_raw("first_pure_bad_range.json", bad)

    print(f"wrote fixtures to {out_dir}")


if __name__ == "__main__":
    main()
