"""Naive reference computations the benchmark checks the program against.

Nothing here imports ``autalg``: every expected value is recomputed from
the definitions (breadth-first closure over raw image tuples, full
products of every pair, exhaustive law checks, word-by-word runs of
letter machines), so a fault in the program cannot hide in its oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Elem = tuple[int, ...]


# --- closures -----------------------------------------------------------

def bfs_closure(gens: Sequence[Elem], multiply: Callable[[Elem, Elem], Elem],
                cap: int = 1_000_000):
    """Close ``gens`` under ``multiply`` breadth first, letters in order.

    Element i is named by the least shortest generator word reaching it,
    which is the numbering ``autalg`` documents for its closures.
    Returns (elements, names, letter_to_index), or None past ``cap``.
    """
    index: dict[Elem, int] = {}
    elements: list[Elem] = []
    names: list[tuple[int, ...]] = []
    letters: list[int] = []
    for i, g in enumerate(gens):
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            names.append((i,))
        letters.append(index[g])
    frontier = list(range(len(elements)))
    while frontier:
        level = []
        for ei in frontier:
            e = elements[ei]
            for li, gi in enumerate(letters):
                p = multiply(e, elements[gi])
                if p not in index:
                    if len(elements) >= cap:
                        return None
                    index[p] = len(elements)
                    elements.append(p)
                    names.append(names[ei] + (li,))
                    level.append(index[p])
        frontier = level
    return elements, names, letters


def product_table(elements: Sequence[Elem],
                  mul_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """The full n x n table, computing every product directly.

    ``mul_rows(e, E)`` multiplies element row ``e`` on the left of every
    row of ``E``.  Rows are looked up by an exact mixed-radix code, and a
    product that is not an element raises.
    """
    E = np.array(elements, dtype=np.int64)
    radix = E.max(axis=0) + 1
    weights = np.concatenate(([1], np.cumprod(radix[:-1]))).astype(np.int64)
    codes = E @ weights
    order = np.argsort(codes)
    sorted_codes = codes[order]
    n = len(E)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        rows = mul_rows(E[i], E)
        if (rows >= radix).any():
            raise ValueError(f"products of element {i} leave the closure")
        pos = np.searchsorted(sorted_codes, rows @ weights)
        idx = order[np.minimum(pos, n - 1)]
        if not (E[idx] == rows).all():
            raise ValueError(f"products of element {i} leave the closure")
        table[i] = idx
    return table


def pair_mul(a: int):
    """(s1, p1)(s2, p2) = (s1 s2, s1 p2) on pairs flattened as s + p."""
    def mul(p: Elem, q: Elem) -> Elem:
        s = p[:a]
        return tuple(q[v] for v in s) + tuple(q[a + v] for v in s)

    def rows(e: np.ndarray, E: np.ndarray) -> np.ndarray:
        s = e[:a]
        return E[:, np.concatenate((s, a + s))]
    return mul, rows


def acc_mul(a: int, sigma: np.ndarray):
    """(s1, f1)(s2, f2) = (s1 s2, x -> f1(x) f2(x.s1)), f valued in a
    semigroup with table ``sigma``: the accumulating pair semigroup."""
    sig = sigma.tolist()

    def mul(p: Elem, q: Elem) -> Elem:
        s = p[:a]
        return (tuple(q[v] for v in s)
                + tuple(sig[p[a + x]][q[a + s[x]]] for x in range(a)))

    def rows(e: np.ndarray, E: np.ndarray) -> np.ndarray:
        s = e[:a]
        return np.concatenate((E[:, s], sigma[e[a:][None, :], E[:, a + s]]), axis=1)
    return mul, rows


def transform_mul():
    """Composition of self-maps, left factor applied first."""
    def mul(p: Elem, q: Elem) -> Elem:
        return tuple(q[v] for v in p)

    def rows(e: np.ndarray, E: np.ndarray) -> np.ndarray:
        return E[:, e]
    return mul, rows


def wreath_mul(k: int, p1: np.ndarray, p2: np.ndarray, action: np.ndarray):
    """(f, s)(f', s') = (x -> f(x) f'(x.s), s s') on rows f + (s,)."""
    l1, l2, act = p1.tolist(), p2.tolist(), action.tolist()

    def mul(p: Elem, q: Elem) -> Elem:
        s = p[k]
        return tuple(l1[p[x]][q[act[x][s]]] for x in range(k)) + (l2[s][q[k]],)

    def rows(e: np.ndarray, E: np.ndarray) -> np.ndarray:
        s = e[k]
        bar = p1[e[:k][None, :], E[:, action[:, s]]]
        return np.concatenate((bar, p2[s, E[:, k]][:, None]), axis=1)
    return mul, rows


def is_associative(table: np.ndarray) -> bool:
    """Exhaustive (ab)c == a(bc) over all triples."""
    for a in range(len(table)):
        row = table[a]
        if not np.array_equal(table[row], row[table]):
            return False
    return True


# --- laws ------------------------------------------------------------------
# Each scan visits instances in the order autalg's checkers do, one state
# row at a time (memory stays at one n x n slice), and returns where the
# first violation sits as the fraction of (row, g1) lines scanned before
# it, or None when the laws hold.

def _first_hit(rows, count: int) -> float | None:
    for i, bad in enumerate(rows):
        lines = bad.any(axis=1)
        if lines.any():
            return (i + int(lines.argmax()) / len(lines)) / count
    return None


def first_laws_break(nxt: np.ndarray, out: np.ndarray, prod: np.ndarray) -> float | None:
    """a.(g1 g2) == (a.g1).g2 and a*(g1 g2) == (a.g1)*g2 over (a, g1, g2)."""
    return _first_hit(((nxt[a][prod] != nxt[nxt[a]]) | (out[a][prod] != out[nxt[a]])
                       for a in range(len(nxt))), len(nxt))


def second_laws_break(nxt: np.ndarray, out: np.ndarray, prod: np.ndarray,
                      sprod: np.ndarray) -> float | None:
    """The state law and a*(g1 g2) == (a*g1)((a.g1)*g2); the serial
    connecting law is the same identity with alpha as ``out``."""
    return _first_hit(((nxt[a][prod] != nxt[nxt[a]])
                       | (out[a][prod] != sprod[out[a][:, None], out[nxt[a]]])
                       for a in range(len(nxt))), len(nxt))


def beta_hom_break(beta: np.ndarray, prod: np.ndarray, p2: np.ndarray) -> float | None:
    """beta[g1 g2] == beta[g1] beta[g2] over (g1, g2): a triple's first check."""
    return _first_hit([beta[prod] != p2[beta[:, None], beta[None, :]]], 1)


def crossed_law_break(alpha: np.ndarray, beta: np.ndarray, prod: np.ndarray,
                      p1: np.ndarray, next2: np.ndarray) -> float | None:
    """alpha(a2, g1 g2) == alpha(a2, g1) alpha(a2.beta(g1), g2) over
    (a2, g1, g2): a triple's second check."""
    return _first_hit((alpha[a2][prod] != p1[alpha[a2][:, None], alpha[next2[a2][beta]]]
                       for a2 in range(len(alpha))), len(alpha))


# --- letter machines ----------------------------------------------------------

Machine = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]  # next, out


def run_word(m: Machine, q: int, word: Sequence[int]) -> tuple[int, ...]:
    nxt, out = m
    result = []
    for x in word:
        result.append(out[q][x])
        q = nxt[q][x]
    return tuple(result)


def run_chain(chain: Sequence[tuple[Machine, int]], word: Sequence[int]) -> tuple[int, ...]:
    """Apply each (machine, state) of ``chain`` in turn, first one first."""
    for m, q in chain:
        word = run_word(m, q, word)
    return tuple(word)


def words(alphabet: int, length: int):
    """All words of exactly ``length`` letters, in lexicographic order."""
    if length == 0:
        yield ()
        return
    for w in words(alphabet, length - 1):
        for x in range(alphabet):
            yield w + (x,)


def level_order(chain, alphabet: int, depth: int) -> int:
    """Order of the permutation a mapping induces on words of ``depth``
    letters: the lcm of its cycle lengths."""
    domain = list(words(alphabet, depth))
    pos = {w: i for i, w in enumerate(domain)}
    perm = [pos[run_chain(chain, w)] for w in domain]
    seen = [False] * len(perm)
    order = 1
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def agree_to_depth(chain1, chain2, alphabet: int, depth: int) -> bool:
    return all(run_chain(chain1, w) == run_chain(chain2, w)
               for d in range(1, depth + 1) for w in words(alphabet, d))


def distinct_states(m: Machine, alphabet: int, depth: int) -> bool:
    """Do all states of ``m`` act differently on some word of <= depth
    letters?  A minimal machine must pass this for a large enough depth."""
    domain = [w for d in range(1, depth + 1) for w in words(alphabet, d)]
    sigs = {tuple(run_word(m, q, w) for w in domain) for q in range(len(m[0]))}
    return len(sigs) == len(m[0])


def compose_machines(m1: Machine, q1: int, m2: Machine, q2: int) -> tuple[Machine, int]:
    """The lockstep product machine on state pairs, running m1 first."""
    n2 = len(m2[0])
    alphabet = len(m1[0][0])
    nxt, out = [], []
    for a in range(len(m1[0])):
        for b in range(n2):
            ys = [m1[1][a][x] for x in range(alphabet)]
            nxt.append(tuple(m1[0][a][x] * n2 + m2[0][b][ys[x]] for x in range(alphabet)))
            out.append(tuple(m2[1][b][ys[x]] for x in range(alphabet)))
    return (tuple(nxt), tuple(out)), q1 * n2 + q2
