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

The bounded order search keeps one table of distinct sections: each id
has a letter map and successor ids, id 0 is the identity, and the
invariant is that no two ids are bisimilar.  A power is a product of two
ids, built only from the state pairs the table has not met before.  A new
pair whose children are all ids is found by a key lookup on its letter
map and successors, which is exact because bisimilar ids are equal.  When
new pairs form a cycle, other than one of identity pairs, one
bisimulation over a set closed under successors re-collects the table,
which keeps it minimal.  The proofs are in ``element_order_bounded``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

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
    """First state whose letter map is not a permutation, or None.  Each
    distinct letter map is tested once: products of machines repeat
    them."""
    bad = {row for row in set(m.out) if len(set(row)) != m.alphabet}
    return next((q for q, row in enumerate(m.out) if row in bad), None) if bad else None


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
    block = _bisimulation_blocks(nxt, [m.out[q] for q in reach])
    reps: dict[int, int] = {}
    for i, b in enumerate(block):
        reps.setdefault(b, i)
    new_next = tuple(tuple([block[v] for v in nxt[i]]) for i in reps.values())
    new_out = tuple(m.out[reach[i]] for i in reps.values())
    return MealyElement(MealyMachine._trusted(len(reps), m.alphabet, new_next, new_out), 0)


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


class _Sections:
    """One order search's table of distinct sections (see
    ``element_order_bounded`` for the invariant and its proofs).

    Id i has the letter map ``out[i]`` and the successor ids ``succ[i]``;
    id 0 is the identity.  ``key`` maps ``out[i] + succ[i]`` to i, or is
    None until a lookup needs it.  ``memo`` maps a pair (i, j) to the id
    of i * j, the mapping applying i first and j to its output, for the
    pairs whose product was built.  ``base`` is the id of the element
    whose powers are searched.
    """

    def __init__(self, e: MealyElement) -> None:
        """The identity and the part of ``e`` reachable from its initial
        state, merged into their quotient by one bisimulation: the identity
        is state 0 of those tables, so it keeps id 0."""
        m = e.machine
        reach = bfs_order(m.next, e.initial)
        index = {q: i for i, q in enumerate(reach, 1)}
        nxt = [[0] * m.alphabet] + [[index[v] for v in m.next[q]] for q in reach]
        self.memo: dict[tuple[int, int], int] = {}
        self.base = self._quotient(nxt, [tuple(range(m.alphabet))] + [m.out[q] for q in reach])[1]

    def _quotient(self, nxt: list[list[int]], out: list[tuple[int, ...]]) -> list[int]:
        """Make the table the quotient of the given tables, which are
        closed, by bisimulation: block b becomes id b.  Returns the
        blocks."""
        block = _bisimulation_blocks(nxt, out)
        reps: dict[int, int] = {}
        for i, b in enumerate(block):
            reps.setdefault(b, i)
        self.out = [out[i] for i in reps.values()]
        rows = [nxt[i] for i in reps.values()]
        self.succ = list(zip(*[map(block.__getitem__, column) for column in zip(*rows)]))
        self.key = None  # built by the first lookup (``product``)
        return block

    def exceeds(self, root: int, cap: int) -> bool:
        """Do more than ``cap`` ids lie within reach of ``root``?  In a
        table with no two ids bisimilar, that count is the number of
        states of the minimized mapping."""
        return len(self.out) > cap and len(bfs_order(self.succ, root)) > cap

    def product(self, a: int, b: int) -> int:
        """The id of a * b.

        A breadth-first search walks the pairs not yet in ``memo``.  A
        child pair with an identity side is its other side, and a child
        pair in ``memo`` is its id.  The search numbers what it meets, ids
        and new pairs alike, as local states after the identity (0) and the
        base (1); the pair (a, b) is local state 2.  The new pairs are then
        resolved latest first by ``key``.  A pair with a child still
        unresolved (a cycle of new pairs, or an edge back to an earlier
        one) stops that pass.  Then the pairs left are the identity if they
        all have its letter map and reach no other id, and are otherwise
        re-collected (``_recollect``).
        """
        memo, out, succ = self.memo, self.out, self.succ
        found = memo.get((a, b))
        if found is not None:
            return found
        index: dict = {0: 0, self.base: 1, (a, b): 2}  # an id or a new pair -> local state
        ids = [0, self.base, -1]  # local state -> its id, -1 for a pair not yet resolved
        pairs = [(2, a, b)]  # the new pairs and their local states, in discovery order
        rows = []  # the local states of their children
        outs = []  # their letter maps
        for state, p, q in pairs:
            next_q, out_q, out_p = succ[q], out[q], out[p]
            row = []
            for c, y in zip(succ[p], out_p):
                d = next_q[y]
                k = (c, d) if c and d else c or d
                r = index.get(k)
                if r is None:
                    i = memo.get(k, -1) if k.__class__ is tuple else k
                    if i < 0:  # a new pair
                        r = index[k] = len(ids)
                        ids.append(-1)
                        pairs.append((r, c, d))
                    else:
                        r = index.get(i)
                        if r is None:
                            r = index[i] = len(ids)
                            ids.append(i)
                        index[k] = r
                row.append(r)
            rows.append(row)
            outs.append(tuple(map(out_q.__getitem__, out_p)))
        key = self.key
        for t in range(len(pairs) - 1, -1, -1):
            state, p, q = pairs[t]
            children = tuple([ids[r] for r in rows[t]])
            if -1 in children:
                break
            if key is None:
                key = self.key = dict(zip(map(add, out, succ), range(len(out))))
            k = outs[t] + children
            i = key.get(k)
            if i is None:
                i = key[k] = len(out)
                out.append(outs[t])
                succ.append(children)
            ids[state] = memo[p, q] = i
        else:
            return ids[2]
        # pairs[:t + 1] are unresolved
        if all(outs[j] == out[0] and max(map(ids.__getitem__, rows[j])) <= 0 for j in range(t + 1)):
            for state, p, q in pairs[:t + 1]:
                ids[state] = memo[p, q] = 0
            return 0
        return self._recollect(index, ids, pairs, rows, outs)

    def _recollect(self, index: dict, ids: list[int], pairs: list[tuple[int, int, int]],
                   rows: list[list[int]], outs: list[tuple[int, ...]]) -> int:
        """``product``'s fallback: the id of local state 2.

        The local states are closed under successors here, by walking the
        ids among them, so the set holds the new pairs, every id they
        reach, the base's ids and the identity.  The table becomes its
        quotient by one bisimulation, numbered as ``_quotient`` numbers it:
        the identity is local state 0, so it keeps id 0.  Ids outside the
        set are dropped.  ``memo`` keeps the entries whose ids all survive,
        renamed, and gains the new pairs whose sides survive.
        """
        out, succ = self.out, self.succ
        nxt: list = [None] * len(ids)  # local state -> local successors
        letters: list = [None] * len(ids)
        for (state, _, _), row, o in zip(pairs, rows, outs):
            nxt[state] = row
            letters[state] = o
        for state, row in enumerate(nxt):  # nxt grows as ids are walked
            if row is None:
                i = ids[state]
                row = nxt[state] = []
                for v in succ[i]:
                    r = index.get(v)
                    if r is None:
                        r = index[v] = len(ids)
                        ids.append(v)
                        nxt.append(None)
                        letters.append(None)
                    row.append(r)
                letters[state] = out[i]
        block = self._quotient(nxt, letters)
        memo = {}
        for (i, j), k in self.memo.items():
            ri, rj, rk = index.get(i), index.get(j), index.get(k)
            if ri is not None and rj is not None and rk is not None:
                memo[block[ri], block[rj]] = block[rk]
        for state, p, q in pairs:
            rp, rq = index.get(p), index.get(q)
            if rp is not None and rq is not None:
                memo[block[rp], block[rq]] = block[state]
        self.memo = memo
        self.base = block[1]
        return block[2]


def element_order_bounded(e: MealyElement, max_power: int = 64,
                          max_states: int = 100_000) -> OrderResult:
    """Smallest k <= max_power with e^k the identity mapping.

    The search keeps one table of distinct sections (``_Sections``).  Each
    id has a letter map and successor ids, the table is closed (every
    successor is an id), id 0 is the identity, and the invariant is that
    no two ids are bisimilar.  So distinct ids are distinct mappings, and
    the ids within reach of an id are the states of its minimal machine.
    The table is seeded with the quotient of the identity and the part
    of e reachable from its initial state, and power k + 1 is the id of
    the product of power k and e.  Hence e^k is the identity exactly when
    its id is 0, and it is over the state cap exactly when more than
    ``max_states`` ids lie within its reach; the search then reports the
    bound instead of failing.

    A product walks only the state pairs not met before.  The sections of
    e^k are mostly sections of earlier powers (those of the odometer's
    e^k are e^(k // 2) and e^((k + 1) // 2)), whose products with the
    sections of e the table already holds.  A new pair is resolved in one
    of three ways, and each keeps the invariant.

    * **Key lookup, once every child of the pair is an id.**  The pair
      is bisimilar to id i exactly when it has i's letter map and its
      children are bisimilar to i's successors, letter by letter.  Both
      are ids, and bisimilar ids are equal, so that holds exactly when
      the pair's letter map and child ids equal i's: the lookup of
      ``out + succ`` finds i if there is one.  If there is none, the pair
      is a mapping no id has, and it joins the table as a new id, whose
      successors are ids.
    * **The identity, for a cycle of pairs that all have the identity's
      letter map and whose children are among them or id 0.**  Those
      pairs and the identity form a bisimulation, so each is the
      identity.  The last product of a search that finds an order above
      1 has no other new pairs.
    * **Re-collection, for any other cycle.**  One bisimulation runs over
      a set closed under successors: the new pairs, every id they reach,
      the base's ids and the identity.  In a closed set, bisimilar states
      are equal mappings, so its blocks are its distinct mappings.  The
      ids in it are pairwise distinct, so each is its own block, and each
      other block is a mapping no id in the set has.  The table becomes
      the quotient: closed, since the set is, and with no two ids
      bisimilar.  Ids outside the set are dropped, since a new block may
      equal one of them; nothing in the set reaches them, and the search
      needs only the new power, the base and the identity.
    """
    bad = non_invertible_state(e.machine)
    if bad is not None:
        raise NotInvertible(bad, f"letter map at state {bad} is not a permutation")
    table = _Sections(e)
    power = table.base
    for k in range(1, max_power + 1):
        if power == 0:
            return OrderResult(k, k)
        if table.exceeds(power, max_states):
            return OrderResult(None, k, "state cap")
        if k < max_power:
            power = table.product(power, table.base)
    return OrderResult(None, max_power, "power cap")
