"""Letter-to-letter machines acting on words, and the group operations on
the mappings they define.

An initialized machine transforms every word over its alphabet into one
of the same length.  Machines whose letter map is a permutation at every
state have invertible mappings; composing, inverting, and comparing these
mappings (exactly, via canonical minimal machines) gives the group the
machine generates.  Two standing fixtures ship here: the binary odometer,
whose mapping adds one to least-significant-bit-first words, and the
classical five-state machine with generators a, b, c, d whose mappings
are involutions with b c == d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NotInvertible, Word, _trusted, as_table, bfs_order


@dataclass(frozen=True, slots=True)
class MealyMachine:
    """A machine whose inputs and outputs share one alphabet."""

    states: int
    alphabet: int
    next: tuple[tuple[int, ...], ...]
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.states < 1:
            raise ValueError("need at least one state")
        if self.alphabet < 1:
            raise ValueError("alphabet must be non-empty")
        object.__setattr__(self, "next",
                           as_table("next", self.next, self.states, self.alphabet, self.states))
        object.__setattr__(self, "out",
                           as_table("out", self.out, self.states, self.alphabet, self.alphabet))

    # _trusted(states, alphabet, next, out): a machine from tables this
    # module built, tuples of tuples of plain ints in range
    _trusted = classmethod(_trusted)


def non_invertible_state(m: MealyMachine) -> int | None:
    """First state whose letter map is not a permutation, or None."""
    for q in range(m.states):
        if len(set(m.out[q])) != m.alphabet:
            return q
    return None


def is_invertible(m: MealyMachine) -> bool:
    return non_invertible_state(m) is None


@dataclass(frozen=True, slots=True)
class MealyElement:
    """A machine pinned at an initial state: one word mapping."""

    machine: MealyMachine
    initial: int

    def __post_init__(self) -> None:
        if not 0 <= self.initial < self.machine.states:
            raise ValueError(f"initial state {self.initial} out of range")


def identity_element(alphabet: int = 2) -> MealyElement:
    m = MealyMachine(1, alphabet, ((0,) * alphabet,), (tuple(range(alphabet)),))
    return MealyElement(m, 0)


def odometer() -> MealyElement:
    """The adding machine: adds one to a least-significant-bit-first binary
    word, truncated to the word's length.  State 0 carries, state 1 copies."""
    m = MealyMachine(2, 2, next=((1, 0), (1, 1)), out=((1, 0), (0, 1)))
    return MealyElement(m, 0)


def grigorchuk_machine() -> MealyMachine:
    """The Grigorchuk group's standard five-state binary machine with states
    a, b, c, d, e (e is the identity state)."""
    a, b, c, d, e = range(5)
    nxt = (
        (e, e),  # a
        (a, c),  # b
        (a, d),  # c
        (e, b),  # d
        (e, e),  # e
    )
    out = (
        (1, 0),  # a swaps the first letter
        (0, 1),  # b
        (0, 1),  # c
        (0, 1),  # d
        (0, 1),  # e
    )
    return MealyMachine(5, 2, nxt, out)


def grigorchuk_elements() -> dict[str, MealyElement]:
    """The Grigorchuk group's generators a, b, c, d and the identity e."""
    m = grigorchuk_machine()
    return {name: MealyElement(m, q) for q, name in enumerate("abcde")}


def element_apply(e: MealyElement, u: Word) -> Word:
    """The image of ``u`` under the initialized run."""
    m, q = e.machine, e.initial
    if u.alphabet_size != m.alphabet:
        raise ValueError(f"word over {u.alphabet_size} letters, {m.alphabet} inputs")
    produced = []
    for x in u.letters:
        produced.append(m.out[q][x])
        q = m.next[q][x]
    return Word(tuple(produced), m.alphabet)


def element_compose(e1: MealyElement, e2: MealyElement) -> MealyElement:
    """The mapping applying e1 first and e2 to its output.

    The product machine runs both machines in lockstep on state pairs,
    feeding e1's output letters to e2.
    """
    if e1.machine.alphabet != e2.machine.alphabet:
        raise ValueError("alphabet mismatch")
    m1, m2 = e1.machine, e2.machine
    q2 = m2.states
    nxt = []
    out = []
    for a in range(m1.states):
        for b in range(q2):
            nrow = []
            orow = []
            for x in range(m1.alphabet):
                y = m1.out[a][x]
                nrow.append(m1.next[a][x] * q2 + m2.next[b][y])
                orow.append(m2.out[b][y])
            nxt.append(tuple(nrow))
            out.append(tuple(orow))
    machine = MealyMachine._trusted(m1.states * q2, m1.alphabet, tuple(nxt), tuple(out))
    return MealyElement(machine, e1.initial * q2 + e2.initial)


def element_invert(e: MealyElement) -> MealyElement:
    """The inverse mapping: same states, letter maps inverted, transitions
    re-read through the inverted letters."""
    m = e.machine
    bad = non_invertible_state(m)
    if bad is not None:
        raise NotInvertible(bad, f"letter map at state {bad} is not a permutation")
    nxt = []
    out = []
    for q in range(m.states):
        inv = [0] * m.alphabet
        for x in range(m.alphabet):
            inv[m.out[q][x]] = x
        out.append(tuple(inv))
        nxt.append(tuple(m.next[q][inv[y]] for y in range(m.alphabet)))
    return MealyElement(MealyMachine._trusted(m.states, m.alphabet, tuple(nxt), tuple(out)),
                        e.initial)


def _reachable_product(e1: MealyElement, e2: MealyElement
                       ) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The part of ``element_compose(e1, e2)`` reachable from its initial
    state, as ``nxt`` and ``out`` tables over the reached state pairs
    numbered in discovery order.  One breadth-first search, letters taken
    in increasing order, so the numbering is the one ``bfs_order`` gives
    the full product."""
    m1, m2 = e1.machine, e2.machine
    q2 = m2.states
    pairs = [e1.initial * q2 + e2.initial]
    index = {pairs[0]: 0}
    nxt = []
    out = []
    for pair in pairs:
        a, b = divmod(pair, q2)
        next2, out2 = m2.next[b], m2.out[b]
        row = []
        for a_next, y in zip(m1.next[a], m1.out[a]):
            target = a_next * q2 + next2[y]
            i = index.get(target)
            if i is None:
                i = index[target] = len(pairs)
                pairs.append(target)
            row.append(i)
        nxt.append(row)
        out.append(tuple([out2[y] for y in m1.out[a]]))
    return nxt, out


def _bisimulation_blocks(nxt: list[list[int]], out: list[tuple[int, ...]]) -> list[int]:
    """Coarsest partition of one machine's states, given by its tables,
    where equivalent states have equal letter maps and equivalent
    successors (Moore's refinement).  Block ids are assigned by first
    occurrence in state order, so they are deterministic.

    A round gives each state one integer signature: its block, then the
    blocks of its successors letter by letter, as the digits of a base-n
    number, n the number of states.  Every block id is below n, so equal
    signatures mean equal digits.  A round only splits blocks (the old
    block is the leading digit), so when it leaves the number of blocks
    unchanged it leaves the partition unchanged, and the first-occurrence
    numbering then gives the same list: the refinement is stable.
    """
    n = len(out)
    keys: dict = {}
    block = [keys.setdefault(row, len(keys)) for row in out]
    count = len(keys)
    columns = list(zip(*nxt))
    while True:
        signature = block
        for column in columns:
            signature = [s * n + block[v] for s, v in zip(signature, column)]
        keys = {}
        block = [keys.setdefault(s, len(keys)) for s in signature]
        if len(keys) == count:
            return block
        count = len(keys)


def _minimal(nxt: list[list[int]], out: list[tuple[int, ...]], alphabet: int) -> MealyElement:
    """The canonical form of the element at state 0 of the given tables,
    all of whose states are reachable from state 0 and numbered in
    breadth-first order: bisimilar states merged, each block taking the
    place of its first representative."""
    block = _bisimulation_blocks(nxt, out)
    reps: dict[int, int] = {}
    for i, b in enumerate(block):
        reps.setdefault(b, i)
    new_next = tuple(tuple([block[v] for v in nxt[i]]) for i in reps.values())
    new_out = tuple(out[i] for i in reps.values())
    return MealyElement(MealyMachine._trusted(len(reps), alphabet, new_next, new_out), 0)


def minimize_element(e: MealyElement) -> MealyElement:
    """The canonical form of ``e``: an equivalent element on the fewest
    states.  Only the part reachable from the initial state is refined;
    bisimilar states are merged, and the states of the result are
    numbered in breadth-first order (letters in increasing order) of
    their first representatives, so the initial state is 0.

    That numbering is the breadth-first numbering of the result itself.
    Breadth-first order sorts states by their shortlex-least access word,
    and the least access word of a merged state is the least one of its
    members.  Hence two elements with the same mapping minimize to equal
    values (see ``element_equal``).
    """
    m = e.machine
    reach = bfs_order(m.next, e.initial)
    index = {q: i for i, q in enumerate(reach)}
    nxt = [[index[v] for v in m.next[q]] for q in reach]
    return _minimal(nxt, [m.out[q] for q in reach], m.alphabet)


def element_equal(e1: MealyElement, e2: MealyElement) -> bool:
    """Do the two mappings agree on every word?  Decided exactly, with no
    depth bound, by comparing canonical forms.

    The minimal machine of a mapping with every state reachable is unique
    up to an isomorphism that fixes the initial state (Moore 1956): its
    states are the mapping's distinct restrictions to suffixes, reached
    by prefixes.  Such an isomorphism preserves access words, so it
    preserves the breadth-first numbering ``minimize_element`` gives,
    and is therefore the identity on the numbered tables.  Two mappings
    are equal exactly when their minimized elements are.
    """
    if e1.machine.alphabet != e2.machine.alphabet:
        raise ValueError("alphabet mismatch")
    return minimize_element(e1) == minimize_element(e2)


def first_difference(e1: MealyElement, e2: MealyElement) -> int | None:
    """The length of the shortest word the two mappings send to different
    words, or None when they agree on every word.

    The words up to that length agree, and a shortest differing word
    first differs at its last letter.  So one breadth-first search over
    the state pairs reachable from the initial pair decides it: the
    length is one more than the depth of the first pair whose letter maps
    differ.  That is O(|S1| |S2| |X|) work, whatever the length.
    """
    if e1.machine.alphabet != e2.machine.alphabet:
        raise ValueError("alphabet mismatch")
    m1, m2 = e1.machine, e2.machine
    level = [(e1.initial, e2.initial)]
    seen = set(level)
    length = 1
    while level:
        if any(m1.out[q1] != m2.out[q2] for q1, q2 in level):
            return length
        following = []
        for q1, q2 in level:
            for pair in zip(m1.next[q1], m2.next[q2]):
                if pair not in seen:
                    seen.add(pair)
                    following.append(pair)
        level = following
        length += 1
    return None


@dataclass(frozen=True, slots=True)
class OrderResult:
    """Outcome of a bounded order search: the order if one was found
    within the power bound, else the power reached and why the search
    stopped."""

    order: int | None
    reached: int
    reason: str = ""

    def describe(self) -> str:
        if self.order is not None:
            return str(self.order)
        return f"exceeds bound ({self.reason}, reached power {self.reached})"


def element_order_bounded(e: MealyElement, max_power: int = 64,
                          max_states: int = 100_000) -> OrderResult:
    """Smallest k <= max_power with e^k the identity mapping.

    Every power is minimized as soon as it is built, so e^k is the
    identity exactly when it equals the one-state identity element.  If
    a minimized power has more than ``max_states`` states the search
    reports the bound instead of failing.

    Each power is built from the previous one by ``_reachable_product``,
    never as the full product.  Its breadth-first search over state pairs
    visits exactly the states ``bfs_order`` reaches in
    ``element_compose(power, e)``, in the same order, with the same
    letter maps, so ``_minimal`` receives the tables ``minimize_element``
    would build from that product, and each power equals
    ``minimize_element(element_compose(power, e))``.
    """
    bad = non_invertible_state(e.machine)
    if bad is not None:
        raise NotInvertible(bad, f"letter map at state {bad} is not a permutation")
    ident = identity_element(e.machine.alphabet)
    e = power = minimize_element(e)
    for k in range(1, max_power + 1):
        if power == ident:
            return OrderResult(k, k)
        if power.machine.states > max_states:
            return OrderResult(None, k, "state cap")
        if k < max_power:
            power = _minimal(*_reachable_product(power, e), e.machine.alphabet)
    return OrderResult(None, max_power, "power cap")
