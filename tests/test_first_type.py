import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autalg import (
    FiniteSet,
    PureAutomatonFirst,
    SemigroupTable,
    VerificationError,
    Word,
    act_word,
    check_first_axioms,
    close_generators,
    evaluate_word,
    semigroupify,
    to_universal,
)
from autalg.first_type import multiply_flat
from autalg.schema import dumps
from helpers import all_words, random_pure_first, semigroupify_oracle


def pure_first(a, x, b):
    table = lambda rows, cols, bound: st.tuples(
        *[st.tuples(*[st.integers(0, bound - 1)] * cols)] * rows)
    return st.builds(PureAutomatonFirst,
                     st.just(FiniteSet(a)), st.just(FiniteSet(x)), st.just(FiniteSet(b)),
                     table(a, x, a), table(a, x, b))


SWAP = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(2),
                          next=((1,), (0,)), out=((0,), (1,)))


class TestCheckFirstAxioms:
    def test_one_point_carrier_passes(self):
        trivial = SemigroupTable(1, ((0,),))
        m = _automaton(FiniteSet(1), trivial, FiniteSet(1), ((0,),), ((0,),))
        assert check_first_axioms(m).ok

    def test_constructed_automaton_passes(self):
        assert check_first_axioms(semigroupify(SWAP)).ok

    def test_corrupted_next_entry_fails_with_witness(self):
        good = semigroupify(SWAP)
        bad_next = good.next.tolist()
        bad_next[0][0] = 1 - bad_next[0][0]
        bad = _automaton(good.states, good.gamma, good.outputs,
                         tuple(map(tuple, bad_next)), good.out)
        report = check_first_axioms(bad)
        assert not report.ok
        assert len(report.witness) == 3
        assert report.lhs != report.rhs

    def test_corrupted_out_entry_fails(self):
        good = semigroupify(SWAP)
        bad_out = good.out.tolist()
        bad_out[0][0] = 1 - bad_out[0][0]
        bad = _automaton(good.states, good.gamma, good.outputs, good.next,
                         tuple(map(tuple, bad_out)))
        assert not check_first_axioms(bad).ok


def _automaton(states, gamma, outputs, nxt, out):
    from autalg import SemigroupAutomatonFirst
    return SemigroupAutomatonFirst(states, gamma, outputs, nxt, out)


class TestToUniversal:
    def test_constant_automaton(self):
        m = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                               next=((0, 0), (0, 0)), out=((1, 1), (1, 1)))
        for pair in to_universal(m):
            assert pair.sigma.image == (0, 0)
            assert pair.phi.image == (1, 1)

    def test_swap_with_identity_output(self):
        pair = to_universal(SWAP)[0]
        assert pair.sigma.image == (1, 0)
        assert pair.phi.image == (0, 1)

    def test_identical_input_rows_give_equal_pairs(self):
        m = PureAutomatonFirst(FiniteSet(2), FiniteSet(2), FiniteSet(2),
                               next=((1, 1), (0, 0)), out=((0, 0), (1, 1)))
        pairs = to_universal(m)
        assert pairs[0] == pairs[1]

    def test_pairs_replay_the_tables(self):
        rng = Random(7)
        for _ in range(25):
            m = random_pure_first(rng, 3, 2, 2)
            for x, pair in enumerate(to_universal(m)):
                for a in range(3):
                    assert pair.sigma(a) == m.next[a][x]
                    assert pair.phi(a) == m.out[a][x]


def _close_under(monkeypatch, encoding, product=None):
    """Check that ``semigroupify`` encodes its generators as ``encoding``
    (``bytes`` or ``tuple``); given ``product(a, e, g)``, written on flat
    int lists, close under it in place of ``semigroupify``'s own."""
    import autalg.first_type as first_type

    def closing(gens, multiply, cap):
        assert {type(g) for g in gens} == {encoding}
        if product is not None:
            a = len(gens[0]) // 2
            multiply = lambda e, g: encoding(product(a, list(e), list(g)))
        return close_generators(gens, multiply, cap)

    monkeypatch.setattr(first_type, "close_generators", closing)


class TestSemigroupify:
    def test_swap_input_gives_order_two(self):
        assert semigroupify(SWAP).gamma.order == 2

    def test_reset_input_gives_order_one(self):
        reset = PureAutomatonFirst(FiniteSet(2), FiniteSet(1), FiniteSet(2),
                                   next=((0,), (0,)), out=((1,), (1,)))
        assert semigroupify(reset).gamma.order == 1

    def test_symmetric_generators_bounded_by_pair_semigroup(self):
        # swap and 3-cycle generate all of S_3; arbitrary outputs on top
        m = PureAutomatonFirst(FiniteSet(3), FiniteSet(2), FiniteSet(2),
                               next=((1, 1), (0, 2), (2, 0)),
                               out=((0, 1), (1, 1), (0, 0)))
        sg = semigroupify(m)
        assert sg.gamma.order <= 27 * 2 ** 3
        assert check_first_axioms(sg).ok

    def test_faithful_distinct_elements_act_distinctly(self):
        rng = Random(11)
        for _ in range(20):
            sg = semigroupify(random_pure_first(rng, 2, 2, 2))
            columns = set()
            for g in range(sg.gamma.order):
                col = (tuple(sg.next[a][g] for a in range(sg.states.size)),
                       tuple(sg.out[a][g] for a in range(sg.states.size)))
                assert col not in columns
                columns.add(col)

    @settings(max_examples=60)
    @given(pure_first(2, 2, 2))
    def test_result_always_satisfies_axioms(self, m):
        assert check_first_axioms(semigroupify(m)).ok

    def test_table_is_checked_against_the_pair_product(self, monkeypatch):
        # (s1, p1)(s2, p2) = (s1 s2, p2) is associative, so the closure
        # accepts its table, but it is not the pair product
        def wrong_product(a, e, g):
            return [g[i] for i in e[:a]] + g[a:]

        _close_under(monkeypatch, bytes, wrong_product)
        with pytest.raises(VerificationError, match="pair product"):
            semigroupify(SWAP)

    def test_lowest_failing_state_is_named(self, monkeypatch):
        # the pair product, but with the outputs of states 2 and 3 read off
        # the right factor alone: associative while sigma keeps {0, 1}, and
        # wrong from state 2 on; 257 outputs take the tuple encoding
        def wrong_from_state_2(a, e, g):
            return [*multiply_flat(a, e, g)[:a + 2], *g[a + 2:]]

        for outputs, encoding in [(2, bytes), (257, tuple)]:
            m = PureAutomatonFirst(FiniteSet(4), FiniteSet(1), FiniteSet(outputs),
                                   next=((1,), (0,), (0,), (0,)),
                                   out=((0,), (1,), (1,), (1,)))
            _close_under(monkeypatch, encoding, wrong_from_state_2)
            with pytest.raises(VerificationError) as info:
                semigroupify(m)
            assert str(info.value) == "closure table differs from the pair product at state 2"

    @pytest.mark.parametrize("states, outputs, encoding", [
        (256, 256, bytes), (257, 256, tuple), (2, 257, tuple)])
    def test_encoding_switches_past_one_byte(self, monkeypatch, states, outputs, encoding):
        # a cyclic permutation of the states, outputs counting down from
        # the largest: closure order is the cycle's length
        cycle = PureAutomatonFirst(
            FiniteSet(states), FiniteSet(1), FiniteSet(outputs),
            next=tuple(((a + 1) % states,) for a in range(states)),
            out=tuple(((outputs - 1 - a) % outputs,) for a in range(states)))
        _close_under(monkeypatch, encoding)
        got, want = semigroupify(cycle), semigroupify_oracle(cycle)
        assert got.gamma.order == states
        assert got.gamma == want.gamma
        assert (got.next.tolist(), got.out.tolist()) == (want.next.tolist(), want.out.tolist())
        assert dumps(got) == dumps(want)

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_the_pair_element_closure(self, data):
        a, b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        # inputs are drawn from a pool of columns, so columns repeat
        pool = data.draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, a - 1)] * a),
                      st.tuples(*[st.integers(0, b - 1)] * a)), min_size=1, max_size=3))
        columns = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        m = PureAutomatonFirst(FiniteSet(a), FiniteSet(len(columns)), FiniteSet(b),
                               next=tuple(zip(*[s for s, _ in columns])),
                               out=tuple(zip(*[p for _, p in columns])))
        got, want = semigroupify(m), semigroupify_oracle(m)
        assert got.gamma == want.gamma  # table, generators and names
        assert (got.next.tolist(), got.out.tolist()) == (want.next.tolist(), want.out.tolist())
        assert dumps(got) == dumps(want)


class TestActWord:
    def test_single_letter_is_one_step(self):
        run = act_word(SWAP, 0, Word((0,), 1))
        assert run == (SWAP.next[0][0], SWAP.out[0][0])

    def test_even_swap_word_returns_to_start(self):
        for length in (2, 4, 6):
            assert act_word(SWAP, 0, Word((0,) * length, 1)).state == 0
            assert act_word(SWAP, 1, Word((0,) * length, 1)).state == 1

    def test_split_words_chain_states(self):
        rng = Random(3)
        for _ in range(30):
            m = random_pure_first(rng, 3, 2, 2)
            u = Word(tuple(rng.randrange(2) for _ in range(3)), 2)
            v = Word(tuple(rng.randrange(2) for _ in range(2)), 2)
            whole = act_word(m, 0, u + v)
            mid = act_word(m, 0, u).state
            assert whole == act_word(m, mid, v)

    def test_pure_word_matches_semigroup_element_action(self):
        rng = Random(5)
        for _ in range(20):
            m = random_pure_first(rng, 2, 2, 2)
            sg = semigroupify(m)
            gens = sg.gamma.generators
            for w in all_words(2, 5):
                run = act_word(m, 0, w)
                assert run == act_word(sg, 0, w)
                g = evaluate_word(sg.gamma, gens, w)
                assert run.state == sg.next[0][g]
                assert run.output == sg.out[0][g]

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            act_word(SWAP, 0, Word((0,), 2))
