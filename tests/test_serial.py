import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    AutomatonMapping,
    FiniteSet,
    GeneratorHom,
    NotInvertible,
    PureAutomatonSecond,
    SemigroupTable,
    SerialConnection,
    Word,
    apply_mapping,
    check_second_axioms,
    check_serial,
    decode_mapping,
    derive_second_type,
    quotient_construct,
    semiautomaton,
    serial_action,
    serial_from_second,
)
from autalg.mealy import odometer
from helpers import all_words, random_mealy, random_pure_second

Z2 = SemigroupTable(2, ((0, 1), (1, 0)))
TRIVIAL = SemigroupTable(1, ((0,),))


def odometer_base() -> PureAutomatonSecond:
    m = odometer().machine
    return PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2), m.next, m.out)


def reset_connection() -> SerialConnection:
    """Built on the odometer's transition semigroup {reset-to-copy, id};
    with a right-zero output semigroup the connecting law pins alpha
    everywhere except at (state 0, identity)."""
    gamma = SemigroupTable(2, ((0, 0), (0, 1)))  # element 0 absorbs
    first = semiautomaton(FiniteSet(2), gamma, next_table=((1, 0), (1, 1)))
    right_zero = SemigroupTable(2, ((0, 1), (0, 1)))
    second = semiautomaton(FiniteSet(2), right_zero, next_table=((0, 1), (0, 1)))
    alpha = ((1, 0), (1, 1))
    return SerialConnection(first, second, alpha)


class TestCheckSerial:
    def test_reset_connection_is_lawful(self):
        assert check_serial(reset_connection()).ok

    def test_corrupted_alpha_fails(self):
        s = reset_connection()
        bad_alpha = s.alpha.tolist()
        bad_alpha[0][0] = 1 - bad_alpha[0][0]
        bad = SerialConnection(s.first, s.second, tuple(map(tuple, bad_alpha)))
        assert not check_serial(bad).ok

    def test_components_must_be_semiautomata(self):
        from autalg import SemigroupAutomatonFirst
        noisy = SemigroupAutomatonFirst(FiniteSet(1), TRIVIAL, FiniteSet(2),
                                        ((0,),), ((1,),))
        with pytest.raises(ValueError, match="semiautomata"):
            SerialConnection(noisy, noisy, ((0,),))


class TestSerialAction:
    def test_trivial_output_semigroup_freezes_second_coordinate(self):
        first = semiautomaton(FiniteSet(2), Z2, next_table=((0, 1), (1, 0)))
        second = semiautomaton(FiniteSet(2), TRIVIAL, next_table=((0,), (1,)))
        s = SerialConnection(first, second, ((0, 0), (0, 0)))
        assert check_serial(s).ok
        for a in range(2):
            for b in range(2):
                for g in range(2):
                    assert serial_action(s, a, b, g)[1] == b

    def test_iterated_action_equals_product_action(self):
        rng = Random(17)
        for _ in range(20):
            s = _random_valid_serial(rng)
            gamma = s.first.gamma
            for a in range(s.first.states.size):
                for b in range(s.second.states.size):
                    for g1 in range(gamma.order):
                        for g2 in range(gamma.order):
                            step = serial_action(s, *serial_action(s, a, b, g1), g2)
                            joint = serial_action(s, a, b, gamma.product[g1][g2])
                            assert step == joint

    def test_reset_connection_two_step_trace(self):
        # frozen by hand: element 0 resets the first machine to state 1
        # and feeds the second machine input 1; at state 0 the identity
        # element feeds input 0, resetting the second machine
        s = reset_connection()
        assert serial_action(s, 0, 0, 0) == (1, 1)
        assert serial_action(s, *serial_action(s, 0, 0, 0), 1) == (1, 1)
        assert serial_action(s, 0, 0, 1) == (0, 0)


class TestDeriveSecondType:
    def test_trivial_sigma_constant_star(self):
        first = semiautomaton(FiniteSet(2), Z2, next_table=((0, 1), (1, 0)))
        second = semiautomaton(FiniteSet(1), TRIVIAL, next_table=((0,),))
        s = SerialConnection(first, second, ((0, 0), (0, 0)))
        derived = derive_second_type(s)
        assert derived.out.tolist() == [[0, 0], [0, 0]]
        assert check_second_axioms(derived).ok

    def test_lawful_serial_yields_lawful_second_type(self):
        rng = Random(29)
        for _ in range(30):
            s = _random_valid_serial(rng)
            assert check_serial(s).ok
            assert check_second_axioms(derive_second_type(s)).ok

    def test_round_trip_through_regular_serial_form(self):
        q = quotient_construct(
            PureAutomatonSecond(FiniteSet(2), FiniteSet(1), FiniteSet(1),
                                ((1,), (0,)), ((0,), (0,))),
            GeneratorHom(1, Z2, (1,)), GeneratorHom(1, Z2, (1,)))
        again = derive_second_type(serial_from_second(q))
        assert again == q


class TestApplyMapping:
    def test_single_output_letter_machines_are_constant(self):
        rng = Random(31)
        m = random_pure_second(rng, 2, 2, 1)
        f = AutomatonMapping(m, 0)
        for w in all_words(2, 4):
            image = apply_mapping(f, w)
            assert image.letters == (0,) * len(w)

    def test_echo_machine_is_the_identity_on_words(self):
        m = PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                ((1, 0), (0, 1)), ((0, 1), (0, 1)))
        f = AutomatonMapping(m, 0)
        for w in all_words(2, 5):
            assert apply_mapping(f, w) == w

    def test_odometer_add_state(self):
        f = AutomatonMapping(odometer_base(), 0)
        assert apply_mapping(f, Word((0, 1, 1), 2)).letters == (1, 1, 1)

    def test_prefix_compatible(self):
        rng = Random(37)
        for _ in range(30):
            m = random_pure_second(rng, 3, 2, 2)
            f = AutomatonMapping(m, rng.randrange(3))
            w = Word(tuple(rng.randrange(2) for _ in range(6)), 2)
            image = apply_mapping(f, w)
            for k in range(1, 6):
                prefix = Word(w.letters[:k], 2)
                assert apply_mapping(f, prefix).letters == image.letters[:k]

    def test_not_a_homomorphism_witness(self):
        # the adder on 0: maps 0 to 1 but 00 to 10, not 11
        f = AutomatonMapping(odometer_base(), 0)
        u = Word((0,), 2)
        assert apply_mapping(f, u + u) != apply_mapping(f, u) + apply_mapping(f, u)


class TestDecodeMapping:
    def test_echo_machine_decodes_as_identity(self):
        m = PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                ((1, 0), (0, 1)), ((0, 1), (0, 1)))
        f = AutomatonMapping(m, 0)
        for w in all_words(2, 5):
            assert decode_mapping(f, w) == w

    def test_odometer_decodes_the_increment(self):
        f = AutomatonMapping(odometer_base(), 0)
        assert decode_mapping(f, Word((1, 1, 1), 2)).letters == (0, 1, 1)

    def test_round_trip_both_ways_to_length_six(self):
        f = AutomatonMapping(odometer_base(), 0)
        for w in all_words(2, 6):
            assert decode_mapping(f, apply_mapping(f, w)) == w
            assert apply_mapping(f, decode_mapping(f, w)) == w

    def test_non_bijective_reachable_state_reported(self):
        m = PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                next=((1, 1), (1, 1)),
                                out=((0, 1), (0, 0)))
        f = AutomatonMapping(m, 0)
        with pytest.raises(NotInvertible) as info:
            decode_mapping(f, Word((0, 0), 2))
        assert info.value.state == 1

    def test_unreachable_bad_state_is_tolerated(self):
        m = PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                                next=((0, 0), (1, 1)),
                                out=((0, 1), (0, 0)))
        f = AutomatonMapping(m, 0)
        assert decode_mapping(f, Word((0, 1), 2)).letters == (0, 1)

    def test_injective_on_each_length_class(self):
        rng = Random(41)
        for _ in range(15):
            machine = random_mealy(rng, 3, 2, invertible=True)
            base = PureAutomatonSecond(FiniteSet(3), FiniteSet(2), FiniteSet(2),
                                       machine.next, machine.out)
            f = AutomatonMapping(base, 0)
            for length in (3, 5):
                images = {apply_mapping(f, Word(ls, 2)).letters
                          for ls in itertools.product(range(2), repeat=length)}
                assert len(images) == 2 ** length


def _random_valid_serial(rng: Random) -> SerialConnection:
    """Sample a lawful serial connection by deriving alpha from a
    quotient-compatible second-type automaton."""
    while True:
        m = random_pure_second(rng, 2, 2, 2)
        mu = _closure_hom(rng, 2)
        nu = _closure_hom(rng, 2)
        q = quotient_construct(m, mu, nu)
        from autalg import SemigroupAutomatonSecond
        if isinstance(q, SemigroupAutomatonSecond):
            return serial_from_second(q)


def _closure_hom(rng: Random, alphabet: int) -> GeneratorHom:
    from helpers import random_closure
    closure = random_closure(rng, alphabet, 3)
    return GeneratorHom(alphabet, closure.table, closure.table.generators)
