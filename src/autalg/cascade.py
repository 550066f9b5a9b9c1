"""Cascade connections of two automata, triple morphisms, the wreath
product, and the embedding of every cascade into it.

A cascade of (A1, -, B1) and (A2, -, B2) runs on A1 x A2: the second
coordinate sees the raw input through beta while steering the first
coordinate's input through alpha, which also reads the second state:

    (a1, a2) . x == (a1 . alpha(a2, x), a2 . beta(x))

For semigroup automata beta must be a homomorphism and alpha must satisfy
the crossed law alpha(a2, g1 g2) == alpha(a2, g1) alpha(a2 . beta(g1), g2).
The wreath product is the largest such connection: every other one maps
into it, uniquely, through g |-> (alpha(., g), beta(g)), a rank formula
that needs no wreath table (``embed_into_wreath``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_CAP,
    CapExceeded,
    CheckReport,
    FiniteSet,
    SemigroupTable,
    _check_cells,
    _ByValue,
    _frozen,
    _index_dtype,
    _int_rows,
    _readonly,
    _table_array,
    _trusted,
    as_table,
    check_laws,
)
from .first_type import PureAutomatonFirst, SemigroupAutomatonFirst


def product_set(s1: FiniteSet, s2: FiniteSet) -> FiniteSet:
    """A1 x A2 flattened row-major: (i, j) becomes i * |A2| + j."""
    labels = tuple(f"({s1.label(i)},{s2.label(j)})"
                   for i in range(s1.size) for j in range(s2.size))
    return FiniteSet(s1.size * s2.size, labels)


def _check_widths(t, columns: int, unit: str) -> None:
    """Raise unless a triple's beta and each row of its alpha are
    ``columns`` wide."""
    if len(t.beta) != columns:
        raise ValueError(f"beta has {len(t.beta)} entries for {unit}")
    for i, row in enumerate(t.alpha):
        if len(row) != columns:
            raise ValueError(f"alpha[{i}] has {len(row)} entries for {unit}")


def _row(beta):
    """A triple's beta as a table of one row."""
    return beta[None] if isinstance(beta, np.ndarray) else (beta,)


def _triple_table(table):
    """A semigroup triple's table of non-negative ints as a read-only
    narrow array (``core._frozen``), or any other table as tuples, to be
    refused, naming the entry, once the components are known
    (``_check_semigroup_fit``)."""
    array = _int_rows(table)
    if array is None or not array.size or array.min() < 0:
        return tuple(map(tuple, table if array is None else array.tolist()))
    return _frozen(array)


@dataclass(frozen=True, slots=True)
class CascadeTriplePure:
    """The datum (X, alpha, beta) steering a cascade of pure automata."""

    inputs: FiniteSet
    alpha: tuple[tuple[int, ...], ...]  # [a2][x] -> input of the first automaton
    beta: tuple[int, ...]               # [x]     -> input of the second automaton

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(tuple(r) for r in self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        _check_widths(self, self.inputs.size, f"{self.inputs.size} inputs")


def check_pure_triple(t: CascadeTriplePure, m1: PureAutomatonFirst,
                      m2: PureAutomatonFirst) -> None:
    """Raise if the triple's tables do not fit the component automata."""
    as_table("alpha", t.alpha, m2.states.size, t.inputs.size, m1.inputs.size)
    as_table("beta", (t.beta,), 1, t.inputs.size, m2.inputs.size)


def _cascade_tables(m1, m2, t) -> tuple:
    """States, outputs, transition and output tables of the cascade of
    m1 and m2 along ``t``: column x of the cascade runs m1 on
    alpha(a2, x) and m2 on beta(x).  Row a1 * |A2| + a2 is gathered for
    all states at once:

        next[(a1, a2)][x] == N1[a1, alpha[a2, x]] * |A2| + N2[a2, beta[x]],

    and out likewise with |B2|, as writable ``np.intp`` arrays."""
    alpha, beta = np.array(t.alpha, dtype=np.intp), np.array(t.beta, dtype=np.intp)
    rows2 = np.arange(m2.states.size)[:, None]

    def table(first, second, base: int) -> np.ndarray:
        first, second = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
        cells = first[:, alpha] * base + second[rows2, beta]  # [a1, a2, x]
        return cells.reshape(-1, len(beta))

    return (product_set(m1.states, m2.states), product_set(m1.outputs, m2.outputs),
            table(m1.next, m2.next, m2.states.size), table(m1.out, m2.out, m2.outputs.size))


def cascade_pure(m1: PureAutomatonFirst, m2: PureAutomatonFirst,
                 t: CascadeTriplePure) -> PureAutomatonFirst:
    """The cascade connection of two pure automata along a triple.
    Once ``check_pure_triple`` passes, the triple's tables index the
    components' columns, so the cascade's tables are in range and are
    not re-checked."""
    check_pure_triple(t, m1, m2)
    states, outputs, nxt, out = _cascade_tables(m1, m2, t)
    nxt, out = (tuple(map(tuple, table.tolist())) for table in (nxt, out))
    return _trusted(PureAutomatonFirst, states, t.inputs, outputs, nxt, out)


def check_triple_morphism(t: CascadeTriplePure, t2: CascadeTriplePure,
                          mu: tuple[int, ...]) -> CheckReport:
    """Is relabelling inputs by ``mu`` a morphism of pure cascade triples,
    carrying t's tables into t2's?

    Passes iff alpha(a2, x) == alpha2(a2, mu(x)) and beta(x) == beta2(mu(x)).
    """
    if len(mu) != t.inputs.size:
        raise ValueError(f"mu has {len(mu)} entries for {t.inputs.size} inputs")
    if len(t.alpha) != len(t2.alpha):
        raise ValueError("triples live over different second-component state sets")
    _check_mu_range(mu, len(t2.beta))
    return _commutes_with_mu(t, t2, mu)


def _check_mu_range(mu: Sequence[int], size: int) -> None:
    for x, mx in enumerate(mu):
        if not 0 <= mx < size:
            raise ValueError(f"mu[{x}] = {mx} out of range")


def _commutes_with_mu(t, t2, mu: Sequence[int]) -> CheckReport:
    """Does ``mu`` carry t's alpha and beta into t2's?  Reports the first
    column x, in order, where beta == beta' . mu or else alpha == alpha' . mu
    fails.  Both triples have the same number of alpha rows, and every
    entry of ``mu`` is one of t2's columns."""
    for x, mx in enumerate(mu):
        if t.beta[x] != t2.beta[mx]:
            return CheckReport.failed("beta == beta' . mu", (x,), int(t.beta[x]), int(t2.beta[mx]))
        for a2 in range(len(t.alpha)):
            if t.alpha[a2][x] != t2.alpha[a2][mx]:
                return CheckReport.failed("alpha == alpha' . mu", (a2, x),
                                          int(t.alpha[a2][x]), int(t2.alpha[a2][mx]))
    return CheckReport.passed()


@dataclass(frozen=True, slots=True, eq=False)
class CascadeTripleSemigroup(_ByValue):
    """The datum (Gamma, alpha, beta) steering a semigroup cascade.

    Construction checks the widths; validity against the component
    automata (alpha and beta in range, beta a homomorphism, alpha
    crossed) is checked by ``check_semigroup_triple``.  Tables of
    non-negative ints are stored as read-only narrow arrays, as the
    automata's are; any other table stays tuples, for that check to name
    its first bad entry.  Triples compare and hash by value.
    """

    gamma: SemigroupTable
    alpha: np.ndarray  # [a2][g] -> element of Gamma1
    beta: np.ndarray   # [g]     -> element of Gamma2

    def __post_init__(self) -> None:
        _check_widths(self, self.gamma.order, f"order {self.gamma.order}")
        object.__setattr__(self, "alpha", _triple_table(self.alpha))
        object.__setattr__(self, "beta", _triple_table(_row(self.beta))[0])


def _check_homomorphism(gamma: SemigroupTable, image: Sequence[int],
                        target: SemigroupTable, name: str) -> CheckReport:
    """image[g1 g2] == image[g1] image[g2] for all g1, g2, as a law over
    one state that every element fixes; the witness is (g1, g2)."""
    report = check_laws(gamma, np.zeros((1, gamma.order), dtype=np.uint8),
                        [(name, np.asarray(image)[None], target)])
    if report.ok:
        return report
    return CheckReport.failed(report.law, report.witness[1:], report.lhs, report.rhs)


def _check_semigroup_fit(t: CascadeTripleSemigroup, m1: SemigroupAutomatonFirst,
                         m2: SemigroupAutomatonFirst) -> None:
    """Raise if the triple's tables do not index the components' columns."""
    _table_array("alpha", t.alpha, m2.states.size, t.gamma.order, m1.gamma.order)
    _table_array("beta", _row(t.beta), 1, t.gamma.order, m2.gamma.order)


def check_semigroup_triple(t: CascadeTripleSemigroup, m1: SemigroupAutomatonFirst,
                           m2: SemigroupAutomatonFirst) -> CheckReport:
    """beta must be a homomorphism into m2's semigroup and alpha must
    satisfy the crossed law against m2's action.

    The first violation is reported: of beta over (g1, g2), else of the
    crossed law over (a2, g1, g2).  The crossed law is a ``check_laws``
    law whose carrier is a2 . g == m2.next[a2][beta(g)].  That carrier is
    an action when beta is a homomorphism and m2's table an action, but
    m2's laws are not checked here, so ``check_laws`` tests the carrier
    on the generators of t.gamma before it trusts the generator pass.
    """
    _check_semigroup_fit(t, m1, m2)
    report = _check_homomorphism(t.gamma, t.beta, m2.gamma, "beta homomorphism")
    if not report.ok:
        return report
    carrier = m2.next[:, t.beta]
    return check_laws(t.gamma, carrier, [
        ("crossed law alpha(a2, g1 g2) == alpha(a2, g1) alpha(a2.beta(g1), g2)",
         t.alpha, m1.gamma)])


def check_semigroup_triple_morphism(t: CascadeTripleSemigroup, t2: CascadeTripleSemigroup,
                                    mu: tuple[int, ...]) -> CheckReport:
    """Is ``mu`` a morphism of semigroup cascade triples (a homomorphism commuting
    with both alpha and beta)?"""
    if len(mu) != t.gamma.order:
        raise ValueError(f"mu has {len(mu)} entries for order {t.gamma.order}")
    if len(t.alpha) != len(t2.alpha):
        raise ValueError("triples live over different second-component state sets")
    _check_mu_range(mu, t2.gamma.order)
    report = _check_homomorphism(t.gamma, mu, t2.gamma, "mu homomorphism")
    if not report.ok:
        return report
    return _commutes_with_mu(t, t2, mu)


def cascade_semigroup(m1: SemigroupAutomatonFirst, m2: SemigroupAutomatonFirst,
                      t: CascadeTripleSemigroup) -> SemigroupAutomatonFirst:
    """The cascade of two semigroup automata along a (Gamma, alpha, beta)
    triple; with a valid triple the result satisfies the action laws.
    ``_check_semigroup_fit`` checks that alpha and beta index the
    components' columns, so the cascade's tables are in range and are
    not re-checked."""
    _check_semigroup_fit(t, m1, m2)
    states, outputs, nxt, out = _cascade_tables(m1, m2, t)
    return _trusted(SemigroupAutomatonFirst, states, t.gamma, outputs, _frozen(nxt), _frozen(out))


@dataclass(frozen=True, slots=True)
class WreathElement:
    """A pair (bar, g2): a map A2 -> Gamma1 together with an element of
    Gamma2."""

    bar: tuple[int, ...]
    g2: int


@dataclass(frozen=True, slots=True, eq=False)
class WreathProduct(_ByValue):
    """The full function-space wreath product of two semigroups relative
    to an action of the second on a finite set.

    Elements are enumerated with the function part varying lexicographically
    and the Gamma2 part fastest, so ranks are arithmetic: see ``index``.
    """

    g1: SemigroupTable
    a2: FiniteSet
    action: np.ndarray  # [a2][g2] -> a2
    g2: SemigroupTable
    table: SemigroupTable
    elements: tuple[WreathElement, ...]

    def index(self, e: WreathElement) -> int:
        return _rank(e.bar, e.g2, self.g1.order, self.g2.order)


def _rank(bar: Sequence[int], g2: int, n1: int, n2: int) -> int:
    """The rank of (bar, g2) among the wreath elements over semigroups of
    orders n1 and n2, in Python ints, so no order overflows it."""
    rank = 0
    for v in bar:
        rank = rank * n1 + v
    return rank * n2 + g2


def _wreath_order(g1: SemigroupTable, a2: FiniteSet, action, g2: SemigroupTable,
                  cap: int) -> tuple[np.ndarray, int]:
    """The action as a read-only narrow array and the wreath product's
    order, once the action is checked to be one and the order to be
    within ``cap``."""
    action = _table_array("action", action, a2.size, g2.order, a2.size)
    report = check_laws(g2, action, [("action", action, None)])
    if not report.ok:
        a, s, s2 = report.witness
        raise ValueError(f"not an action: a.(s s') != (a.s).s' at ({a}, {s}, {s2})")
    order = g1.order ** a2.size * g2.order
    if order > cap:
        raise CapExceeded(f"wreath product order {order} exceeds cap {cap}")
    return action, order


def wreath_product(g1: SemigroupTable, a2: FiniteSet,
                   action: tuple[tuple[int, ...], ...], g2: SemigroupTable,
                   cap: int = DEFAULT_CAP) -> WreathProduct:
    """Build the wreath product of g1 by g2 acting on a2.

    The carrier is every map a2 -> g1 paired with an element of g2, so the
    order is exactly |g1| ** |a2| * |g2|; multiplication shifts the right
    factor's map by the left factor's g2 part:

        (f, s)(f', s') == (a |-> f(a) f'(a . s), s s')

    That product is associative when g1 and g2 are and the action is one
    (Eilenberg 1976, *Automata, Languages and Machines* vol. B): both
    ((f, s)(f', s'))(f'', s'') and (f, s)((f', s')(f'', s'')) are
    (a |-> f(a) f'(a . s) f''((a . s) . s'), s s' s''), by associativity
    of g1 and g2 and a . (s s') == (a . s) . s'.  So the table is built
    without ``SemigroupTable``'s checks.  Its ``generating_set``, the
    greedy one the constructor would choose, is left to be computed on
    first read: ``construct wreath`` never reads it.  Raises CapExceeded,
    before anything is built, past ``cap`` elements or ``CELL_BUDGET``
    cells.
    """
    action, order = _wreath_order(g1, a2, action, g2, cap)
    _check_cells("wreath product", order)
    bars = np.indices((g1.order,) * a2.size).reshape(a2.size, -1).T  # lexicographic
    elements = tuple(WreathElement(bar, s) for bar in map(tuple, bars.tolist())
                     for s in range(g2.order))
    # rank(bar, s) == bar @ weights + s, as in WreathProduct.index, summed
    # in np.intp: the factors' narrow tables would wrap
    weights = g2.order * g1.order ** np.arange(a2.size - 1, -1, -1, dtype=np.intp)
    p1, p2 = g1.array, g2.array
    product = np.empty((len(bars), g2.order, len(bars), g2.order), dtype=_index_dtype(order))
    for s in range(g2.order):
        # rows of (bar, s) for every bar: (f, s') |-> (a |-> bar(a) f(a . s), s s'),
        # the rank of the function part summed one coordinate a at a time
        ranks = sum(p1[np.ix_(bars[:, a], bars[:, action[a][s]])] * weights[a]
                    for a in range(a2.size))
        product[:, s] = ranks[:, :, None] + p2[s]
    product = _readonly(product.reshape(order, order))
    table = _trusted(SemigroupTable, order, None, None, product, None)
    return WreathProduct(g1, a2, action, g2, table, elements)


def wreath_triple(w: WreathProduct) -> CascadeTripleSemigroup:
    """The wreath product's own steering triple: alpha evaluates the
    function part at a2 and beta projects to the second factor.  Element
    i is the i-th index tuple (bar(0), .., bar(|A2| - 1), g2) in
    lexicographic order (``WreathProduct.index``), so alpha is the first
    |A2| rows of ``np.indices`` over those coordinates, flattened, and
    beta its last row.  Its entries index g1 and g2 by construction."""
    shape = (w.g1.order,) * w.a2.size + (w.g2.order,)
    coordinates = np.indices(shape, dtype=_index_dtype(max(shape))).reshape(len(shape), -1)
    return _trusted(CascadeTripleSemigroup, w.table, _frozen(coordinates[:-1]),
                    _frozen(coordinates[-1]))


def wreath_automaton(m1: SemigroupAutomatonFirst, m2: SemigroupAutomatonFirst,
                     cap: int = DEFAULT_CAP
                     ) -> tuple[SemigroupAutomatonFirst, CascadeTripleSemigroup]:
    """The wreath product of two semigroup automata: the cascade of m1 and
    m2 along the wreath product's own triple, using m2's transition table
    as the action of its semigroup on its states."""
    w = wreath_product(m1.gamma, m2.states, m2.next, m2.gamma, cap)
    t = wreath_triple(w)
    return cascade_semigroup(m1, m2, t), t


def embed_into_wreath(t: CascadeTripleSemigroup, m1: SemigroupAutomatonFirst,
                      m2: SemigroupAutomatonFirst, cap: int = DEFAULT_CAP
                      ) -> tuple[int, ...] | CheckReport:
    """The canonical map phi: g |-> (a2 |-> alpha(a2, g), beta(g)) from a
    cascade triple's semigroup into the wreath product of m1's semigroup by
    m2's acting through m2.next (``wreath_automaton``'s), as ranks
    (``WreathProduct.index``).  An invalid triple gives
    ``check_semigroup_triple``'s failing report instead; then a table that
    is no action raises ValueError, and an order past ``cap`` CapExceeded.

    No wreath table is needed.  By the wreath formula, with a . s ==
    m2.next[a][s], phi(g1) phi(g2) == (a |-> alpha(a, g1) alpha(a . beta(g1),
    g2), beta(g1) beta(g2)), while phi(g1 g2) == (alpha(., g1 g2), beta(g1 g2)):
    they agree for all g1, g2 iff beta is a homomorphism and alpha obeys the
    crossed law, which is what the triple check decides.  The wreath
    triple's alpha and beta read off a wreath element's two coordinates
    (``wreath_triple``), so phi commutes with both triples; and since those
    coordinates fix the element, phi is the only map that does.
    """
    report = check_semigroup_triple(t, m1, m2)
    if not report.ok:
        return report
    _wreath_order(m1.gamma, m2.states, m2.next, m2.gamma, cap)
    n1, n2 = m1.gamma.order, m2.gamma.order
    return tuple(_rank(bar, g2, n1, n2) for bar, g2 in zip(t.alpha.T.tolist(), t.beta.tolist()))
