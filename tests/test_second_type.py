import dataclasses
import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    FiniteSet,
    GeneratorHom,
    PureAutomatonFirst,
    PureAutomatonSecond,
    QuotientWitness,
    SemigroupAutomatonSecond,
    SemigroupTable,
    Word,
    check_second_axioms,
    evaluate_word,
    free_extension_out,
    quotient_construct,
)
from autalg.mealy import odometer
from helpers import act_letters, all_words, quotient_oracle, random_closure, random_pure_second

Z2 = SemigroupTable(2, ((0, 1), (1, 0)))
LEFT_ZERO = SemigroupTable(2, ((0, 0), (1, 1)))
TRIVIAL = SemigroupTable(1, ((0,),))

# swap the state on the single input, output constantly letter 0
PARITY = PureAutomatonSecond(FiniteSet(2), FiniteSet(1), FiniteSet(1),
                             next=((1,), (0,)), out=((0,), (0,)))


def odometer_second() -> PureAutomatonSecond:
    m = odometer().machine
    return PureAutomatonSecond(FiniteSet(2), FiniteSet(2), FiniteSet(2), m.next, m.out)


class TestCheckSecondAxioms:
    def test_trivial_passes(self):
        m = SemigroupAutomatonSecond(FiniteSet(1), TRIVIAL, TRIVIAL, ((0,),), ((0,),))
        assert check_second_axioms(m).ok

    def test_quotient_output_passes(self):
        q = quotient_construct(PARITY, GeneratorHom(1, Z2, (1,)),
                               GeneratorHom(1, Z2, (1,)))
        assert isinstance(q, SemigroupAutomatonSecond)
        assert check_second_axioms(q).ok

    def test_corrupted_out_entry_fails_with_witness(self):
        q = quotient_construct(PARITY, GeneratorHom(1, Z2, (1,)),
                               GeneratorHom(1, Z2, (1,)))
        bad_out = q.out.tolist()
        bad_out[0][0] = 1 - bad_out[0][0]
        bad = SemigroupAutomatonSecond(q.states, q.gamma, q.sigma, q.next,
                                       tuple(map(tuple, bad_out)))
        report = check_second_axioms(bad)
        assert not report.ok
        assert len(report.witness) == 3


class TestFreeExtension:
    def test_single_letter(self):
        m = odometer_second()
        assert free_extension_out(m, 0, Word((0,), 2)).letters == (m.out[0][0],)

    def test_odometer_adds_one(self):
        # +1 on least-significant-bit-first words: 11 -> 00 (wraps), 011 -> 111
        m = odometer_second()
        assert free_extension_out(m, 0, Word((1, 1), 2)).letters == (0, 0)
        assert free_extension_out(m, 0, Word((0, 1, 1), 2)).letters == (1, 1, 1)

    def test_every_split_glues(self):
        rng = Random(23)
        for _ in range(40):
            m = random_pure_second(rng, 2, 2, 2)
            for w in all_words(2, 5):
                full = free_extension_out(m, 0, w)
                for k in range(1, len(w)):
                    u = Word(w.letters[:k], 2)
                    v = Word(w.letters[k:], 2)
                    mid = act_letters(m, 0, u.letters)
                    assert full == free_extension_out(m, 0, u) + free_extension_out(m, mid, v)

    @settings(max_examples=80)
    @given(st.data())
    def test_length_preserved(self, data):
        rng = Random(data.draw(st.integers(0, 10 ** 6)))
        m = random_pure_second(rng, 3, 2, 3)
        letters = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
        w = Word(tuple(letters), 2)
        assert len(free_extension_out(m, 0, w)) == len(w)


def test_pure_twins_with_equal_fields_are_distinct_types():
    fields = (FiniteSet(2), FiniteSet(1), FiniteSet(1), ((1,), (0,)), ((0,), (0,)))
    first, second = PureAutomatonFirst(*fields), PureAutomatonSecond(*fields)
    assert first != second and second != first
    assert not isinstance(first, PureAutomatonSecond)
    assert not isinstance(second, PureAutomatonFirst)


class TestGeneratorHom:
    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError, match=r"^not surjective: elements \[1\] unreached$"):
            GeneratorHom(1, Z2, (0,))  # the identity of Z2 does not generate it

    def test_tree_is_kept_out_of_equality_hash_and_repr(self):
        mu = GeneratorHom(2, Z2, (1, 1))
        again = GeneratorHom(2, Z2, [1, 1])
        assert mu == again and hash(mu) == hash(again)
        assert repr(mu) == f"GeneratorHom(alphabet_size=2, target={Z2!r}, assignment=(1, 1))"
        assert [level.tolist() for level in mu._tree.levels] == [[1], [0]]

    def test_apply_folds_products(self):
        mu = GeneratorHom(1, Z2, (1,))
        assert mu.apply(Word((0,), 1)) == 1
        assert mu.apply(Word((0, 0), 1)) == 0
        assert mu.apply(Word((0, 0, 0), 1)) == 1
        with pytest.raises(ValueError, match="^alphabet mismatch$"):
            mu.apply(Word((0,), 2))


class TestQuotientConstruct:
    def test_trivial_targets_one_state(self):
        m = PureAutomatonSecond(FiniteSet(1), FiniteSet(1), FiniteSet(1),
                                ((0,),), ((0,),))
        q = quotient_construct(m, GeneratorHom(1, TRIVIAL, (0,)),
                               GeneratorHom(1, TRIVIAL, (0,)))
        assert isinstance(q, SemigroupAutomatonSecond)
        assert q.next.tolist() == [[0]] and q.out.tolist() == [[0]]

    def test_parity_instance_well_defined(self):
        # constant output letter, transition action of order two, both
        # homs onto Z2: the image of a word is its length's parity either way
        q = quotient_construct(PARITY, GeneratorHom(1, Z2, (1,)),
                               GeneratorHom(1, Z2, (1,)))
        assert isinstance(q, SemigroupAutomatonSecond)
        # element 0 of Z2 is the image of even-length words, 1 of odd
        assert q.next.tolist() == [[0, 1], [1, 0]]
        assert q.out.tolist() == [[0, 1], [0, 1]]

    def test_identified_inputs_with_distinct_outputs_witnessed(self):
        m = PureAutomatonSecond(FiniteSet(1), FiniteSet(2), FiniteSet(2),
                                next=((0, 0),), out=((0, 1),))
        q = quotient_construct(m, GeneratorHom(2, Z2, (1, 1)),
                               GeneratorHom(2, LEFT_ZERO, (0, 1)))
        assert isinstance(q, QuotientWitness)
        assert {q.u.letters, q.v.letters} == {(0,), (1,)}
        assert q.behavior_u != q.behavior_v

    def test_witness_words_really_disagree(self):
        rng = Random(71)
        found = 0
        for _ in range(300):
            m = random_pure_second(rng, 2, 2, 2)
            mu = _hom_from_closure(rng, 2, 4)
            nu = _hom_from_closure(rng, 2, 4)
            q = quotient_construct(m, mu, nu)
            if isinstance(q, QuotientWitness):
                found += 1
                assert mu.apply(q.u) == mu.apply(q.v)
                a = q.state
                bu = (act_letters(m, a, q.u.letters),
                      nu.apply(free_extension_out(m, a, q.u)))
                bv = (act_letters(m, a, q.v.letters),
                      nu.apply(free_extension_out(m, a, q.v)))
                assert bu == q.behavior_u
                assert bv == q.behavior_v
                assert bu != bv
        assert found > 10

    def test_verdict_matches_word_oracle(self):
        rng = Random(97)
        for _ in range(150):
            m = random_pure_second(rng, 2, 2, 2)
            mu = _hom_from_closure(rng, 2, 4)
            nu = _hom_from_closure(rng, 2, 4)
            got = quotient_construct(m, mu, nu)
            expected = _brute_force_compatible(m, mu, nu, 6)
            assert isinstance(got, SemigroupAutomatonSecond) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_per_state_search(self, data):
        """One closure's action on 1-4 points gives a machine with a
        quotient; redirecting one letter that shares its input image with
        an earlier letter gives a clash; a random machine over the same
        homs may give either.  All three agree with the per-state search,
        witness words and behaviors included."""
        points = data.draw(st.integers(1, 4), label="states")
        rng = Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
        closure = random_closure(rng, rng.randint(1, 2), 30, points=points)
        mu = _hom_repeating_images(rng, closure.table, closure.table.generators)
        # outputs 0..points: nu maps them onto the right-zero semigroup
        # (s t == t), so a word's output image is its last output letter
        right_zero = SemigroupTable(points + 1, [list(range(points + 1))] * (points + 1))
        nu = _hom_repeating_images(rng, right_zero, range(points + 1))
        letter_of = {e: y for y, e in reversed(list(enumerate(nu.assignment)))}
        moves = [closure.elements[g].image for g in mu.assignment]
        nxt = tuple(tuple(move[a] for move in moves) for a in range(points))
        out = tuple(tuple(letter_of[a] for a in row) for row in nxt)
        aligned = PureAutomatonSecond(FiniteSet(points), FiniteSet(len(moves)),
                                      FiniteSet(len(nu.assignment)), nxt, out)
        # x shares its image with an earlier letter; from state a it now
        # outputs the one element no aligned run produces
        x = next(x for x, g in enumerate(mu.assignment) if g in mu.assignment[:x])
        a = rng.randrange(points)
        bent = [list(row) for row in out]
        bent[a][x] = letter_of[points]
        clashing = dataclasses.replace(aligned, out=tuple(map(tuple, bent)))
        drawn = random_pure_second(rng, points, len(moves), len(nu.assignment))
        for m, kind in ((aligned, SemigroupAutomatonSecond), (clashing, QuotientWitness),
                        (drawn, object)):
            got = quotient_construct(m, mu, nu)
            assert got == quotient_oracle(m, mu, nu)
            assert isinstance(got, kind)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quotient_construct(PARITY, GeneratorHom(2, Z2, (1, 1)),
                               GeneratorHom(1, Z2, (1,)))


def _hom_repeating_images(rng: Random, table: SemigroupTable, images) -> GeneratorHom:
    """A hom onto ``table`` sending the letters to ``images`` and one or
    two more letters to images already used, in a shuffled order."""
    assignment = list(images)
    assignment += rng.choices(assignment, k=rng.randint(1, 2))
    rng.shuffle(assignment)
    return GeneratorHom(len(assignment), table, assignment)


def _hom_from_closure(rng: Random, alphabet: int, max_order: int) -> GeneratorHom:
    closure = random_closure(rng, alphabet, max_order)
    return GeneratorHom(alphabet, closure.table, closure.table.generators)


def _brute_force_compatible(m: PureAutomatonSecond, mu: GeneratorHom,
                            nu: GeneratorHom, bound: int) -> bool:
    """Oracle: compare all word pairs with equal input image up to the
    length bound."""
    for a in range(m.states.size):
        behavior: dict[int, tuple[int, int]] = {}
        for w in all_words(m.inputs.size, bound):
            key = mu.apply(w)
            value = (act_letters(m, a, w.letters),
                     nu.apply(free_extension_out(m, a, w)))
            if behavior.setdefault(key, value) != value:
                return False
    return True
