from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    MealyElement,
    MealyMachine,
    NotInvertible,
    Word,
    element_apply,
    element_compose,
    element_equal,
    element_invert,
    element_order_bounded,
    first_difference,
    grigorchuk_elements,
    identity_element,
    is_invertible,
    minimize_element,
    odometer,
)
from autalg.mealy import _bisimulation_blocks, _minimal, _reachable_product
from autalg.schema import dumps
from helpers import (
    all_words,
    blocks_reference,
    equal_oracle,
    minimize_oracle,
    minimize_reference,
    order_oracle,
    order_reference,
    power_step_reference,
    plus_k_oracle,
    random_mealy,
    relabel,
    words_agree_to_depth,
)


@st.composite
def elements(draw, alphabet: int, max_states: int = 6, invertible: bool | None = None):
    """A random element over ``alphabet`` letters.  The initial state is
    random, so states are often unreachable; letter maps are permutations
    at every state or arbitrary."""
    n = draw(st.integers(1, max_states))
    nxt = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=alphabet,
                                 max_size=alphabet), min_size=n, max_size=n))
    if invertible is None:
        invertible = draw(st.booleans())
    if invertible:
        out = [draw(st.permutations(range(alphabet))) for _ in range(n)]
    else:
        out = draw(st.lists(st.lists(st.integers(0, alphabet - 1), min_size=alphabet,
                                     max_size=alphabet), min_size=n, max_size=n))
    m = MealyMachine(n, alphabet, tuple(map(tuple, nxt)), tuple(map(tuple, out)))
    return MealyElement(m, draw(st.integers(0, n - 1)))


class TestElementApply:
    def test_identity(self):
        e = identity_element(2)
        for w in all_words(2, 4):
            assert element_apply(e, w) == w

    def test_odometer_increments_zero_words(self):
        e = odometer()
        for n in range(1, 8):
            got = element_apply(e, Word((0,) * n, 2))
            assert got.letters == (1,) + (0,) * (n - 1)

    def test_swap_generator_toggles_first_letter_only(self):
        a = grigorchuk_elements()["a"]
        for w in all_words(2, 6):
            image = element_apply(a, w)
            assert image.letters[0] == 1 - w.letters[0]
            assert image.letters[1:] == w.letters[1:]

    def test_length_preserved(self):
        rng = Random(3)
        for _ in range(30):
            m = random_mealy(rng, 3, 2, invertible=False)
            e = MealyElement(m, rng.randrange(3))
            w = Word(tuple(rng.randrange(2) for _ in range(rng.randint(1, 8))), 2)
            assert len(element_apply(e, w)) == len(w)

    def test_word_over_another_alphabet_is_rejected(self):
        with pytest.raises(ValueError, match=r"^word over 3 letters, 2 inputs$"):
            element_apply(odometer(), Word((2,), 3))


class TestElementCompose:
    def test_identity_is_neutral(self):
        e = odometer()
        assert element_equal(element_compose(e, identity_element(2)), e)
        assert element_equal(element_compose(identity_element(2), e), e)

    def test_odometer_squared_adds_two(self):
        ee = element_compose(odometer(), odometer())
        assert element_apply(ee, Word((0, 0), 2)).letters == (0, 1)
        for w in all_words(2, 6):
            assert element_apply(ee, w) == plus_k_oracle(w, 2)

    def test_swap_generator_squares_to_identity(self):
        a = grigorchuk_elements()["a"]
        assert element_equal(element_compose(a, a), identity_element(2))

    def test_left_element_acts_first(self):
        rng = Random(5)
        for _ in range(25):
            e1 = MealyElement(random_mealy(rng, 3, 2, invertible=False), 0)
            e2 = MealyElement(random_mealy(rng, 2, 2, invertible=False), 0)
            both = element_compose(e1, e2)
            for w in all_words(2, 5):
                assert element_apply(both, w) == element_apply(e2, element_apply(e1, w))

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            element_compose(odometer(), identity_element(3))


class TestElementInvert:
    def test_identity_inverts_to_itself(self):
        e = identity_element(2)
        assert element_invert(e) == e

    def test_odometer_inverse_decrements(self):
        inv = element_invert(odometer())
        assert element_apply(inv, Word((1, 0), 2)).letters == (0, 0)
        for w in all_words(2, 6):
            assert element_apply(inv, w) == plus_k_oracle(w, -1)

    def test_involutions_equal_their_inverses(self):
        for name, e in grigorchuk_elements().items():
            assert element_equal(element_invert(e), e), name

    def test_inverse_laws(self):
        rng = Random(7)
        ident = identity_element(2)
        for _ in range(25):
            e = MealyElement(random_mealy(rng, 3, 2, invertible=True), 0)
            assert element_equal(element_compose(e, element_invert(e)), ident)
            assert element_equal(element_compose(element_invert(e), e), ident)

    def test_non_invertible_rejected(self):
        m = MealyMachine(1, 2, ((0, 0),), ((0, 0),))
        with pytest.raises(NotInvertible):
            element_invert(MealyElement(m, 0))


class TestElementEqual:
    def test_reflexive(self):
        e = odometer()
        assert element_equal(e, e)

    def test_odometer_differs_from_identity(self):
        assert not element_equal(odometer(), identity_element(2))
        assert element_apply(odometer(), Word((0,), 2)) != Word((0,), 2)

    def test_known_relation_bc_equals_d(self):
        g = grigorchuk_elements()
        bc = element_compose(g["b"], g["c"])
        assert element_equal(bc, g["d"])
        assert words_agree_to_depth(bc, g["d"], 12)

    def test_agrees_with_word_oracle(self):
        rng = Random(11)
        for _ in range(150):
            e1 = MealyElement(random_mealy(rng, 3, 2, invertible=True), 0)
            e2 = MealyElement(random_mealy(rng, 3, 2, invertible=True), 0)
            assert element_equal(e1, e2) == words_agree_to_depth(e1, e2, 8)

    def test_composition_associative_up_to_equality(self):
        rng = Random(13)
        for _ in range(15):
            es = [MealyElement(random_mealy(rng, 2, 2, invertible=True), 0)
                  for _ in range(3)]
            left = element_compose(element_compose(es[0], es[1]), es[2])
            right = element_compose(es[0], element_compose(es[1], es[2]))
            assert element_equal(left, right)


class TestFirstDifference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(elements(k, 4), elements(k, 4))),
           st.integers(0, 7))
    def test_matches_the_word_enumeration(self, pair, depth):
        e1, e2 = pair
        difference = first_difference(e1, e2)
        assert (difference is None) == element_equal(e1, e2)
        agree = difference is None or depth < difference
        assert agree == words_agree_to_depth(e1, e2, depth)
        if difference is not None and difference <= 7:  # the length is the least one
            assert words_agree_to_depth(e1, e2, difference - 1)
            assert not words_agree_to_depth(e1, e2, difference)

    def test_odometer_power_differs_from_the_identity_at_its_exponent(self):
        # e^(2^k) adds 2^k: it fixes every word of length k or less
        power = odometer()
        for k in range(1, 9):
            power = minimize_element(element_compose(power, power))
            assert first_difference(power, identity_element(2)) == k + 1

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            first_difference(odometer(), identity_element(3))


class TestMinimize:
    def test_behavior_preserved_and_states_shrink(self):
        rng = Random(17)
        for _ in range(25):
            e1 = MealyElement(random_mealy(rng, 3, 2, invertible=True), 0)
            e2 = MealyElement(random_mealy(rng, 3, 2, invertible=True), 0)
            big = element_compose(e1, e2)
            small = minimize_element(big)
            assert small.machine.states <= big.machine.states
            assert element_equal(big, small)

    def test_composed_echo_machines_collapse_to_one_state(self):
        echo = MealyElement(MealyMachine(2, 2, ((1, 1), (0, 0)), ((0, 1), (0, 1))), 0)
        big = element_compose(echo, echo)
        assert big.machine.states == 4
        assert minimize_element(big).machine.states == 1

    def test_unreachable_states_dropped(self):
        m = MealyMachine(3, 2, ((0, 0), (2, 2), (1, 1)), ((0, 1), (1, 0), (0, 1)))
        small = minimize_element(MealyElement(m, 0))
        assert small.machine.states == 1


class TestCanonicalForm:
    """The reachable-part refinement and canonical-form comparison
    against the whole-machine refinements in helpers."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_minimize_matches_whole_machine_oracle(self, data):
        e = data.draw(elements(data.draw(st.integers(1, 3))))
        assert minimize_element(e) == minimize_oracle(e)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_relabelled_copy_has_the_same_canonical_form(self, data):
        e = data.draw(elements(data.draw(st.integers(1, 3))))
        perm = data.draw(st.permutations(range(e.machine.states)))
        assert minimize_element(relabel(e, perm)) == minimize_element(e)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_matches_union_oracle(self, data):
        alphabet = data.draw(st.integers(1, 3))
        e1 = data.draw(elements(alphabet, max_states=4))
        e2 = data.draw(st.one_of(
            elements(alphabet, max_states=4),
            st.permutations(range(e1.machine.states)).map(lambda p: relabel(e1, p)),
            st.just(element_compose(e1, identity_element(alphabet)))))
        assert element_equal(e1, e2) == equal_oracle(e1, e2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_order_matches_the_threshold_loop(self, data):
        e = data.draw(elements(data.draw(st.integers(2, 3)), max_states=3, invertible=True))
        result = element_order_bounded(e, max_power=8)
        assert (result.order, result.reached, result.reason) == order_oracle(e, max_power=8)

    def test_order_checks_invertibility_of_the_machine_as_given(self):
        # state 1 is unreachable from state 0 and would be dropped by minimizing
        m = MealyMachine(2, 2, ((0, 0), (0, 0)), ((1, 0), (1, 1)))
        with pytest.raises(NotInvertible) as caught:
            element_order_bounded(MealyElement(m, 0))
        assert caught.value.state == 1

    def test_canonical_form_of_the_identity(self):
        echo = MealyElement(MealyMachine(3, 2, ((1, 2), (2, 1), (0, 0)),
                                         ((0, 1), (0, 1), (0, 1))), 2)
        assert minimize_element(echo) == identity_element(2)


class TestFusedKernels:
    """The reachable-product power step, the integer-signature rounds and
    the trusted constructor against the code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blocks_match_the_tuple_rounds(self, data):
        # arbitrary tables: unreachable states, letter maps that are not
        # permutations
        alphabet = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 8))
        nxt = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=alphabet,
                                          max_size=alphabet), min_size=n, max_size=n))
        out = data.draw(st.lists(st.tuples(*[st.integers(0, alphabet - 1)] * alphabet),
                                 min_size=n, max_size=n))
        assert _bisimulation_blocks(nxt, out) == blocks_reference(nxt, out)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_power_matches_the_minimized_full_product(self, data):
        alphabet = data.draw(st.integers(1, 3))
        e = data.draw(elements(alphabet, max_states=5, invertible=True))
        base = minimize_element(e)
        assert base == minimize_reference(e)
        power = base
        for _ in range(24):
            fused = _minimal(*_reachable_product(power, base), alphabet)
            assert fused == power_step_reference(power, base)
            power = fused
            if power.machine.states > 40:
                break

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 6))
    def test_order_matches_the_full_product_loop_at_small_caps(self, data, max_power,
                                                              max_states):
        e = data.draw(elements(data.draw(st.integers(1, 3)), max_states=4, invertible=True))
        result = element_order_bounded(e, max_power=max_power, max_states=max_states)
        assert (result.order, result.reached, result.reason) == \
            order_reference(e, max_power, max_states)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_trusted_and_validated_machines_are_one_value(self, data):
        alphabet = data.draw(st.integers(1, 3))
        e = data.draw(elements(alphabet, max_states=5))
        m = e.machine
        trusted = MealyMachine._trusted(m.states, m.alphabet, m.next, m.out)
        assert trusted == m and hash(trusted) == hash(m)
        assert dumps(trusted) == dumps(m)
        assert dumps(MealyElement(trusted, e.initial)) == dumps(e)
        built = [element_compose(e, e), minimize_element(e)]
        if is_invertible(m):
            built.append(element_invert(e))
        for b in (x.machine for x in built):  # built tables pass validation unchanged
            again = MealyMachine(b.states, b.alphabet, b.next, b.out)
            assert again == b and hash(again) == hash(b) and dumps(again) == dumps(b)


class TestOrderBounded:
    def test_identity_has_order_one(self):
        assert element_order_bounded(identity_element(2)).order == 1

    def test_involution_has_order_two(self):
        assert element_order_bounded(grigorchuk_elements()["a"]).order == 2

    def test_odometer_exceeds_every_power_bound(self):
        result = element_order_bounded(odometer(), max_power=64)
        assert result.order is None
        assert result.reached == 64
        assert "power cap" in result.reason

    def test_state_cap_reported(self):
        result = element_order_bounded(odometer(), max_power=64, max_states=3)
        assert result.order is None
        assert result.reason == "state cap"
        assert result.reached == 3

    def test_product_bd_is_the_third_involution(self):
        g = grigorchuk_elements()
        bd = element_compose(g["b"], g["d"])
        assert element_equal(bd, g["c"])
        assert element_order_bounded(bd, max_power=16).order == 2

    def test_product_ad_has_order_four(self):
        # cross-checked by word agreement: (ad)^4 fixes all words to
        # length 8, no smaller power does
        g = grigorchuk_elements()
        ad = element_compose(g["a"], g["d"])
        assert element_order_bounded(ad, max_power=16).order == 4
        power = ad
        for _ in range(3):
            assert not words_agree_to_depth(power, identity_element(2), 8)
            power = element_compose(power, ad)
        assert words_agree_to_depth(power, identity_element(2), 8)


class TestInvertibility:
    def test_odometer_and_generators_invertible(self):
        assert is_invertible(odometer().machine)
        assert is_invertible(grigorchuk_elements()["a"].machine)

    def test_constant_machine_not_invertible(self):
        assert not is_invertible(MealyMachine(1, 2, ((0, 0),), ((1, 1),)))
