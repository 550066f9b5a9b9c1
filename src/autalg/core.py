"""Shared algebra layer: finite carriers, transformations, the pair
semigroup S_A x Fun(A,B), free-semigroup words, and multiplication-table
machinery.

Conventions used throughout the package:

* right actions: states are acted on from the right, and products act
  left factor first, so ``a . (s t) == (a . s) . t``;
* semigroups, not monoids: no identity is adjoined and words are
  non-empty; identities appear only when a closure produces them;
* every carrier is ``{0, .., n-1}``; labels are display-only.

All values are immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field, fields
from math import isqrt
from typing import Callable, Hashable, NamedTuple, Sequence

import numpy as np

from .limits import DEFAULT_CAP, CapExceeded, VerificationError  # noqa: F401  re-exported

# the most cells a package construction may fill in one table: an order
# far under DEFAULT_CAP can still need order^2 cells.  2**26 admits order
# 8192 (128 MiB of uint16) and refuses order 20,736 (860 MB)
CELL_BUDGET = 2 ** 26


class NotInvertible(ValueError):
    """A state's letter map is not a bijection, so the mapping has no inverse."""

    def __init__(self, state: int, message: str):
        super().__init__(message)
        self.state = state


def _trusted(cls, *values):
    """An instance of the frozen dataclass ``cls`` holding ``values`` in
    ``fields(cls)`` order, built without ``__post_init__``: for values the
    package built and proved valid.  Input from outside goes through the
    validating constructor."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


def _index_dtype(order: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the indices 0..order-1:
    uint8 up to order 256, uint16 up to 65,536.  Every table's ``array``
    is stored in it, so equal tables have equal bytes."""
    return np.min_scalar_type(order - 1)


def _byte_rows(rows) -> np.ndarray | None:
    """Equal-length, non-empty list or tuple rows of ints in 0..255 as a
    read-only uint8 array, else None.  ``bytearray`` type-checks and
    converts the cells in C, taking a bool as 0 or 1, with no object per
    row.  Ragged rows are refused, since they could still reshape."""
    if not (isinstance(rows, (list, tuple)) and rows and set(map(type, rows)) <= {list, tuple}
            and set(map(len, rows)) == {len(rows[0])} and rows[0]):
        return None
    try:
        data = bytearray(itertools.chain.from_iterable(rows))
    except (TypeError, ValueError):
        return None
    array = np.frombuffer(data, np.uint8)
    array.flags.writeable = False  # before the reshape, so no array over data is writable
    return array.reshape(len(rows), -1)


def _int_rows(rows) -> np.ndarray | None:
    """``rows`` as one 2-D integer array, or None: an integer array as
    it is, and list or tuple rows of plain ints (bools refused) by one
    type test over the cells, then ``_byte_rows``, else ``np.array``.
    Ragged rows, and ints that fit no machine integer, give None."""
    if (isinstance(rows, (list, tuple)) and set(map(type, rows)) <= {list, tuple}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        array = _byte_rows(rows)
        try:
            rows = np.array(rows) if array is None else array
        except ValueError:  # ragged rows
            return None
    integer = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "iu"
    return rows if integer else None


def _frozen(array: np.ndarray, dtype: np.dtype | None = None) -> np.ndarray:
    """A table of non-negative indices as a read-only, C-contiguous array
    of ``dtype``, by default the narrowest unsigned dtype that holds its
    largest entry, so equal tables hold equal bytes.  ``array`` itself
    where it is one already and no array it views is writable, else a
    copy: a read-only view of a caller's writable array would change
    with it."""
    if dtype is None:
        dtype = _index_dtype(int(array.max()) + 1)
    base = array
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray) or array.dtype != dtype or not array.flags.c_contiguous:
        array = array.astype(dtype, order="C")
        array.flags.writeable = False
    return array


def _cells(order: int) -> str:
    """The cells and bytes of a table of ``order`` elements."""
    cells = order * order
    return f"{cells} table cells ({cells * _index_dtype(order).itemsize} bytes)"


def _check_cells(what: str, order: int) -> None:
    """Raise CapExceeded if a table of ``order`` elements would fill more
    than ``CELL_BUDGET`` cells."""
    if order * order > CELL_BUDGET:
        raise CapExceeded(f"{what} of order {order} needs {_cells(order)}, over the "
                          f"budget of {CELL_BUDGET} cells")


def as_table(name: str, table: Sequence[Sequence[int]], rows: int, cols: int,
             bound: int) -> tuple[tuple[int, ...], ...]:
    """Normalize a rows x cols integer table, naming any offending entry.

    A table whose entries are all plain ``int`` in range passes on C-level
    tests of the row lengths, the entry types and the minimum and maximum.
    Only a table that fails them is walked entry by entry, to name the
    first offender (a bool is rejected there, though ``bool`` subclasses
    ``int``).
    """
    if len(table) != rows:
        raise ValueError(f"{name}: expected {rows} rows, got {len(table)}")
    norm = tuple(map(tuple, table))
    if set(map(len, norm)) <= {cols}:
        flat = [*itertools.chain.from_iterable(norm)]
        if set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) <= max(flat) < bound):
            return norm
    for i, row in enumerate(norm):
        if len(row) != cols:
            raise ValueError(f"{name}[{i}]: expected {cols} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
                raise ValueError(f"{name}[{i}][{j}] = {v!r} out of range 0..{bound - 1}")
    return norm


def _table_array(name: str, table, rows: int, cols: int, bound: int,
                 dtype: np.dtype | None = None) -> np.ndarray:
    """A rows x cols table of indices below ``bound`` as a read-only array
    (``_frozen``; ``dtype``, if given).  An integer array, or rows that
    ``_int_rows`` reads as one, is checked by its shape and extremes.  Any
    other table, and one that fails, is checked by ``as_table``, which
    names the first bad row or entry: an integer array is handed to it as
    lists, so the message shows Python ints."""
    array = _int_rows(table)
    if (array is not None and array.shape == (rows, cols)
            and (array.dtype.kind == "u" or array.min() >= 0) and array.max() < bound):
        return _frozen(array, dtype)
    norm = as_table(name, table if array is None else array.tolist(), rows, cols, bound)
    return _frozen(np.array(norm), dtype)  # rows of another sequence type


class _ByValue:
    """Base of the frozen dataclasses that hold table arrays: they compare
    and hash by the values of their fields, each array by its dtype,
    shape and bytes, leaving out fields declared ``compare=False``.  A
    table is stored in one dtype for its values (a product in its
    order's, any other in that of its largest entry), so equal tables
    give equal keys."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple((v.dtype.str, v.shape, v.tobytes()) if type(v) is np.ndarray else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, slots=True)
class FiniteSet:
    """A carrier {0, .., size-1} with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"size must be a positive integer, got {self.size!r}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
            if len(self.labels) != self.size:
                raise ValueError(f"{len(self.labels)} labels for {self.size} elements")
            if len(set(self.labels)) != self.size:
                raise ValueError("labels must be distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


@dataclass(frozen=True, slots=True)
class Transformation:
    """A total self-map of {0, .., n-1}, written as its image sequence: an
    element of the full transformation semigroup S_A."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        n = len(self.image)
        if n == 0:
            raise ValueError("empty transformation")
        for i, v in enumerate(self.image):
            if not 0 <= v < n:
                raise ValueError(f"image[{i}] = {v} out of range 0..{n - 1}")

    @property
    def domain_size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]


@dataclass(frozen=True, slots=True)
class FunMap:
    """A total map {0, .., n-1} -> {0, .., m-1} as its image sequence: the
    output part of an element of Fun(A,B)."""

    image: tuple[int, ...]
    codomain_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) == 0:
            raise ValueError("empty map")
        if self.codomain_size < 1:
            raise ValueError("codomain must be non-empty")
        for i, v in enumerate(self.image):
            if not 0 <= v < self.codomain_size:
                raise ValueError(f"image[{i}] = {v} out of range 0..{self.codomain_size - 1}")

    @property
    def domain_size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]


@dataclass(frozen=True, slots=True)
class PairElement:
    """An element (sigma, phi) of the universal pair semigroup S_A x Fun(A,B).

    Multiplication is (s1, p1)(s2, p2) = (s1 s2, s1 p2): the state part
    composes left-first and the output part reads the second map after
    moving by the first transformation.
    """

    sigma: Transformation
    phi: FunMap

    def __post_init__(self) -> None:
        if self.sigma.domain_size != self.phi.domain_size:
            raise ValueError(
                f"domain mismatch: sigma on {self.sigma.domain_size} points, "
                f"phi on {self.phi.domain_size}")


def compose_transformations(s: Transformation, t: Transformation) -> Transformation:
    """Product st in S_A under the right-action convention: apply s, then t."""
    if s.domain_size != t.domain_size:
        raise ValueError(f"domain mismatch: {s.domain_size} vs {t.domain_size}")
    ti = t.image
    return Transformation(tuple(ti[v] for v in s.image))


def multiply_pair(p: PairElement, q: PairElement) -> PairElement:
    """Multiply in the universal pair semigroup S_A x Fun(A,B):
    (s1, p1)(s2, p2) = (s1 s2, s1 p2)."""
    if p.sigma.domain_size != q.sigma.domain_size:
        raise ValueError(
            f"carrier mismatch: {p.sigma.domain_size} vs {q.sigma.domain_size} states")
    if p.phi.codomain_size != q.phi.codomain_size:
        raise ValueError(
            f"carrier mismatch: {p.phi.codomain_size} vs {q.phi.codomain_size} outputs")
    qi = q.phi.image
    phi = FunMap(tuple(qi[v] for v in p.sigma.image), q.phi.codomain_size)
    return PairElement(compose_transformations(p.sigma, q.sigma), phi)


@dataclass(frozen=True, slots=True)
class Word:
    """A non-empty word over {0, .., alphabet_size-1}."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("words are non-empty")
        if self.alphabet_size < 1:
            raise ValueError("alphabet must be non-empty")
        if min(self.letters) < 0 or max(self.letters) >= self.alphabet_size:
            raise ValueError(
                f"letters {self.letters} out of range 0..{self.alphabet_size - 1}")

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("alphabet mismatch")
        return Word(self.letters + other.letters, self.alphabet_size)


def bfs_order(next_table: Sequence[Sequence[int]], start: int) -> list[int]:
    """The states reachable from ``start`` along the rows of ``next_table``,
    in breadth-first order, each row's successors taken in column order."""
    order = [start]
    seen = {start}
    for q in order:
        for v in next_table[q]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


class _Tree(NamedTuple):
    """A breadth-first spanning tree of a right Cayley graph, level by
    level.  A root e has ``parent[e] == -1``; any other tree element e is
    ``parent[e]`` times letter ``letter[e]``.  ``letter[e]`` is -1 for an
    element off the tree.  The letters on the path from a root down to e
    are e's tree word (``_tree_word``).  A level is an index array, or a
    slice where its elements are consecutive indices, as in
    ``close_generators``, which numbers elements as it discovers them.
    Only ``_fold_tree`` takes slice levels: a slice tree must not reach a
    caller that concatenates its levels, as ``second_type`` does with a
    ``_generated_tree`` tree."""

    levels: list[np.ndarray | slice]
    parent: np.ndarray
    letter: np.ndarray


def _generated_tree(product: np.ndarray, gens: Sequence[int]) -> _Tree:
    """The tree of the products of ``gens``, rooted at the generators:
    the generators, then breadth first every product e g of a tree
    element e and a generator g.

    A level lists its new elements in order of first occurrence, with
    the previous level's elements taken in order and the letters of each
    in order, as ``close_generators`` discovers them.  A root's letter is
    its first position in ``gens``; any other element's letter is the
    position in ``gens`` of the column it was first found in."""
    letters = np.array(gens, dtype=np.intp)
    reached = np.zeros(len(product), dtype=bool)
    parent, letter = np.full((2, len(product)), -1, dtype=np.intp)
    levels, frontier, candidates, width = [], np.array([-1]), letters, len(letters)
    while True:
        fresh = np.flatnonzero(~reached[candidates])
        if not fresh.size:
            return _Tree(levels, parent, letter)
        # the first position of each element not reached before
        first = np.sort(fresh[np.unique(candidates[fresh], return_index=True)[1]])
        level = candidates[first]
        reached[level] = True
        parent[level], letter[level] = frontier[first // width], first % width
        levels.append(level)
        # indices in np.intp: NumPy gathers by narrow index arrays several times slower
        candidates = product[level[:, None], letters].ravel().astype(np.intp)
        frontier = level


def _tree_word(tree: _Tree, e: int) -> tuple[int, ...]:
    """The letters on the tree path from a root down to ``e``."""
    word = ()
    while e >= 0:
        word, e = (int(tree.letter[e]),) + word, tree.parent[e]
    return word


def _fold_tree(right: np.ndarray, start: np.ndarray, tree: _Tree) -> np.ndarray:
    """``folded[i, e]``: ``start[i]`` moved along the tree word of e, a
    letter l taking c to ``right[c, l]``.  The tree is folded a level at
    a time, each element from its parent's column:

        folded[:, e] == right[folded[:, parent[e]], letter[e]],

    and a root from ``start`` itself.  A level given as a slice is
    written through a view, with no index array.  Columns off the tree
    are left unset.  The result has ``right``'s dtype."""
    folded = np.empty((len(start), len(tree.parent)), dtype=right.dtype)
    for k, nodes in enumerate(tree.levels):
        at = start[:, None] if k == 0 else folded[:, tree.parent[nodes]]
        folded[:, nodes] = right[at, tree.letter[nodes]]
    return folded


def unreached(product: np.ndarray, gens: Sequence[int]) -> list[int]:
    """The elements, in order, that are not products of ``gens``."""
    return np.flatnonzero(_generated_tree(product, gens).letter < 0).tolist()


def _greedy_generators(product: np.ndarray) -> tuple[int, ...]:
    """A generating set chosen greedily: each element not yet reached by
    right multiplication joins it, in index order.

    The elements reached before a new generator g have met every earlier
    generator, so g itself and their products with g are the new start;
    each element reached from there is expanded by every generator so
    far.  The reached set is then the right closure of the generators, so
    the set chosen does not depend on the order of the walk.

    The walk runs over Python lists and builds no tree: ``reached`` marks
    the elements reached so far, in ``order`` as they were reached, and
    each generator reads its column ``product[:, g]`` once."""
    reached = bytearray(len(product))
    order: list[int] = []
    columns: list[list[int]] = []  # columns[k][e] == e g_k
    gens: list[int] = []
    for i in range(len(product)):
        if reached[i]:
            continue
        gens.append(i)
        column = product[:, i].tolist()
        columns.append(column)
        k = len(order)
        for e in [i, *map(column.__getitem__, order)]:
            if not reached[e]:
                reached[e] = 1
                order.append(e)
        while k < len(order):
            e = order[k]
            k += 1
            for column in columns:
                f = column[e]
                if not reached[f]:
                    reached[f] = 1
                    order.append(f)
    return tuple(gens)


# rows per block of Light's test: a table of order <= 256 is one block
_LIGHT_ROWS = 256


def _light_witness(product: np.ndarray,
                   gens: Sequence[int]) -> tuple[int, int, int] | None:
    """Light's associativity test: the first (x, g, y) with g in ``gens``
    (distinct, in order) and (x g) y != x (g y), or None.

    If ``gens`` generates the table, None means the table is associative.
    Let A be the set of a with (x a) y == x (a y) for all x, y.  For a, b
    in A and all x, y:

        (x (a b)) y == ((x a) b) y == (x a) (b y)
                    == x (a (b y)) == x ((a b) y),

    using a in A, b in A, a in A and b in A in turn.  So A is closed under
    the product; it contains the generators, hence every element.  The
    test costs O(n^2 |gens|) instead of O(n^3).

    Each g is compared a block of ``_LIGHT_ROWS`` rows x at a time, in
    order, so the temporaries stay small and the first block that differs
    holds the same first (x, y) as a whole-table comparison.  The rows
    are gathered by ``take``, which reads the narrow indices faster than
    ``[]`` does.
    """
    for g in gens:
        col, row = product[:, g], product[g]
        for lo in range(0, len(product), _LIGHT_ROWS):
            left = product.take(col[lo:lo + _LIGHT_ROWS], axis=0)    # left[x, y]  = (x g) y
            right = product[lo:lo + _LIGHT_ROWS].take(row, axis=1)   # right[x, y] = x (g y)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                return lo + int(x), g, int(y)
    return None


@dataclass(frozen=True, slots=True)
class PureAutomaton:
    """States x inputs -> states/outputs, with no structure on outputs:
    just a pair of tables.  The two automaton models subclass it, so that
    their pure objects share this code but stay distinct types."""

    states: FiniteSet
    inputs: FiniteSet
    outputs: FiniteSet
    next: tuple[tuple[int, ...], ...]
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a, x = self.states.size, self.inputs.size
        object.__setattr__(self, "next", as_table("next", self.next, a, x, a))
        object.__setattr__(self, "out", as_table("out", self.out, a, x, self.outputs.size))


def _names_error(array: np.ndarray, gens: tuple[int, ...],
                 names: tuple[tuple[int, ...], ...]) -> str | None:
    """The message for the first name that is malformed or does not
    evaluate to its own index, or None when every name does."""
    if len(names) != len(array):
        return f"{len(names)} names for {len(array)} elements"
    letters = [*itertools.chain.from_iterable(names)]
    checked = (min(map(len, names)) > 0
               and 0 <= min(letters) <= max(letters) < len(gens))
    right = array[:, gens].tolist()  # right[e][k] == e g_k
    for i, w in enumerate(names):
        if not checked:  # name the first empty word or bad letter
            if not w:
                return f"names[{i}] is empty"
            for letter in w:
                if not 0 <= letter < len(gens):
                    return (f"names[{i}] = {w}: letter {letter} out of "
                            f"range 0..{len(gens) - 1}")
        e = gens[w[0]]
        for letter in w[1:]:
            e = right[e][letter]
        if e != i:
            return f"names[{i}] = {w} evaluates to {e}, not {i}"
    return None


@dataclass(frozen=True, slots=True, eq=False)
class SemigroupTable(_ByValue):
    """A finite semigroup as a total multiplication table.

    ``generators``, when present, lists the element index of each
    generator in generator order (entries may repeat if two generators
    coincide), and every element must be a product of them.  ``names``
    are words over generator positions; the name of element i must
    evaluate back to i.  Construction checks generation, then
    associativity by Light's test against the generators (or, with no
    generator list, against a greedily chosen generating set), then the
    names, and raises the first of those errors.

    The names are evaluated first, left to right along the generator
    columns.  If every name evaluates back to its own index, each element
    is a product of generators, so the names prove generation (with or
    without associativity) and no search runs.  Otherwise, and for a
    table with generators but no names, generation is checked by a
    breadth-first search over the generator columns (``unreached``).

    ``product`` is given as nested sequences of ints or as an n x n
    integer ndarray, and is stored once, as ``array``: a read-only n x n
    array of the narrowest unsigned dtype for the order (``_index_dtype``:
    uint8 up to order 256, uint16 up to 65,536), so equal tables hold
    equal bytes.  An integer array is range-checked by its shape and
    extremes before the cast, which would wrap (``_table_array``).  Index
    arithmetic on it belongs in ``np.intp``: a narrow array times a Python
    int stays narrow and wraps.  Reading ``product`` builds nested tuples
    of Python ints from ``array`` on each access.  Tables compare and hash
    by value over order, table, generators and names (``_ByValue``).
    Construction also keeps ``generating_set``, the distinct generators
    Light's test used, which ``==`` and ``hash`` leave out.

    The constructor validates input from outside, and everything that
    ``schema`` loads goes through it.  Tables, automata and triples the
    package builds are valid by a proof in the building function's
    docstring and skip validation (``_trusted``), holding the same slots
    the constructor would store, their tables as the read-only arrays it
    would store (``_frozen``):

    * ``close_generators``: the closure of an associative product;
    * ``cascade.wreath_product``: the wreath formula; its
      ``generating_set`` slot holds None until the first read of the
      attribute chooses the greedy one (``_generating_set``);
    * ``cascade.wreath_triple``: the coordinates of the wreath elements;
    * ``first_type.semigroupify``: its generator-column check;
    * ``second_type.quotient_construct``: the behaviors along mu's tree;
    * ``cascade.cascade_pure`` and ``cascade.cascade_semigroup``: the
      triple's tables, checked against the components, index theirs;
    * ``serial.derive_second_type``: the connection's own tables;
    * the ``mealy`` products, inverses and minimal machines.
    """

    order: int
    product: InitVar[Sequence[Sequence[int]] | np.ndarray]
    generators: tuple[int, ...] | None = None
    names: tuple[tuple[int, ...], ...] | None = None
    array: np.ndarray = field(init=False, repr=False)
    generating_set: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, product) -> None:
        n = self.order
        if n < 1:
            raise ValueError("order must be >= 1")
        # range-checked before the cast to the order's dtype, which would wrap
        array = _table_array("product", product, n, n, n, _index_dtype(n))
        object.__setattr__(self, "array", array)
        if self.generators is not None:
            gens = tuple(self.generators)
            object.__setattr__(self, "generators", gens)
            for g in gens:
                if not 0 <= g < n:
                    raise ValueError(f"generator index {g} out of range")
        names_error = None
        if self.names is not None:
            names = tuple(map(tuple, self.names))
            object.__setattr__(self, "names", names)
            names_error = ("names require generators" if self.generators is None
                           else _names_error(array, gens, names))
        if self.generators is None:
            gens = _greedy_generators(array)
        elif self.names is None or names_error:  # names that all evaluate prove generation
            missing = unreached(array, gens)
            if missing:
                raise ValueError(f"elements {missing} not generated by {gens}")
        object.__setattr__(self, "generating_set", tuple(dict.fromkeys(gens)))
        witness = _light_witness(array, self.generating_set)
        if witness is not None:
            a, b, c = witness
            raise ValueError(f"product not associative at ({a}, {b}, {c})")
        if names_error:
            raise ValueError(names_error)


# set after the class: a class attribute named like the InitVar would be its default
SemigroupTable.product = property(lambda self: tuple(map(tuple, self.array.tolist())),
                                  doc="The table as nested tuples of Python ints.")
# the slot, under the property that reads it
_GENERATING_SET = SemigroupTable.generating_set


def _generating_set(table: SemigroupTable) -> tuple[int, ...]:
    """The generating set in the slot, or, where the building function
    left it None (``cascade.wreath_product``), the greedy one the
    constructor would choose, computed on first read and kept.  Two
    readers that race compute the same tuple."""
    gens = _GENERATING_SET.__get__(table)
    if gens is None:
        gens = _greedy_generators(table.array)
        _GENERATING_SET.__set__(table, gens)
    return gens


SemigroupTable.generating_set = property(_generating_set, _GENERATING_SET.__set__)


@dataclass(frozen=True, slots=True)
class Closure:
    """Result of closing a generator list under a binary operation;
    ``table.generators`` holds each generator's element index."""

    table: SemigroupTable
    elements: tuple


def _closure_cap(cap: int, found: int, length: int) -> CapExceeded:
    """The error for a search stopped at its ``found``-th element, by a
    word of ``length``: past ``cap``, or else past the cell budget."""
    where = f"{found} elements found by words of length {length}"
    if found > cap:
        return CapExceeded(f"closure exceeded cap {cap}: {where}")
    return CapExceeded(f"closure exceeded the cell budget of {CELL_BUDGET} cells: "
                       f"{where} need {_cells(found)}")


def close_generators(generators: Sequence[Hashable],
                     multiply: Callable,
                     cap: int = DEFAULT_CAP) -> Closure:
    """Breadth-first closure of ``generators`` under an associative
    ``multiply``.

    Elements are discovered by word length with letters tried in order,
    so element i's name is the lexicographically least shortest generator
    word producing it.  Raises CapExceeded past ``cap`` elements, saying
    how many were found and the word length the search had reached.

    ``multiply`` is called once per element and letter (Froidure and Pin,
    1997): the search keeps those products as the right Cayley graph
    R[e, l] = e g_l and records each new element j as p(j) g_l(j), its
    parent times its last letter.  The table is then that tree folded
    through R from every element x at once (``_fold_tree``), a BFS level
    at a time; elements are numbered as they are found, so each level is
    a contiguous index range and is passed as a slice.  A generator's
    column is a column of R, and for a later element

        x j == x (p(j) g_l(j)) == (x p(j)) g_l(j) == R[x p(j), l(j)],

    where the middle step is associativity of ``multiply`` and x p(j) is
    a column of the previous level.

    Precondition: ``multiply`` is associative.  The table is then that of
    ``multiply`` on the elements, so it is associative, and the names
    evaluate along the tree, so it is generated; it is built without
    ``SemigroupTable``'s checks (``_trusted``) and not re-checked.  For a
    non-associative ``multiply`` the table may differ from the products
    and need not be associative.  In the package,
    ``first_type.semigroupify`` closes under the associative pair product
    and checks the generator columns against its elements.
    Raises CapExceeded as soon as the search finds more elements than a
    table of ``CELL_BUDGET`` cells holds, so a closure too large to
    tabulate stops at that order, not at ``cap``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    index: dict = {}
    elements: list = []
    names: list[tuple[int, ...]] = []
    parent: list[int] = []
    letter_to_index: list[int] = []
    limit = min(cap, isqrt(CELL_BUDGET))
    for i, g in enumerate(generators):
        found = index.get(g)
        if found is None:
            if len(elements) >= limit:
                raise _closure_cap(cap, len(elements) + 1, 1)
            found = len(elements)
            index[g] = found
            elements.append(g)
            names.append((i,))
            parent.append(-1)
        letter_to_index.append(found)
    right: list[list[int]] = []
    bounds = [0, len(elements)]  # level k is range(bounds[k], bounds[k + 1])
    while bounds[-2] < bounds[-1]:
        for ei in range(bounds[-2], bounds[-1]):
            e = elements[ei]
            row = []
            for li, gi in enumerate(letter_to_index):
                p = multiply(e, elements[gi])
                k = index.get(p)
                if k is None:
                    if len(elements) >= limit:
                        raise _closure_cap(cap, len(elements) + 1, len(names[ei]) + 1)
                    k = index[p] = len(elements)
                    elements.append(p)
                    names.append(names[ei] + (li,))
                    parent.append(ei)
                row.append(k)
            right.append(row)
        bounds.append(len(elements))
    n = len(elements)
    tree = _Tree([slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
                 np.array(parent, dtype=np.intp), np.array([w[-1] for w in names], dtype=np.intp))
    product = _fold_tree(np.array(right, dtype=_index_dtype(n)), np.arange(n), tree)
    product.flags.writeable = False
    gens = tuple(letter_to_index)
    table = _trusted(SemigroupTable, n, gens, tuple(names), product, tuple(dict.fromkeys(gens)))
    return Closure(table, tuple(elements))


def evaluate_word(table: SemigroupTable, assignment: Sequence[int], word: Word) -> int:
    """Image of ``word`` under the homomorphism sending letter i to
    table element assignment[i]."""
    if word.alphabet_size != len(assignment):
        raise ValueError(
            f"word over {word.alphabet_size} letters, assignment has {len(assignment)}")
    e = assignment[word.letters[0]]
    prod = table.array
    for letter in word.letters[1:]:
        e = prod[e, assignment[letter]]
    return int(e)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of an exhaustive law check: pass, or the first violation
    with both sides of the offending instance."""

    ok: bool
    law: str = ""
    witness: tuple = ()
    lhs: object = None
    rhs: object = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> "CheckReport":
        return cls(True)

    @classmethod
    def failed(cls, law: str, witness: tuple, lhs: object, rhs: object) -> "CheckReport":
        return cls(False, law, tuple(witness), lhs, rhs)

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return (f"fail: {self.law} at {self.witness}: "
                f"lhs = {self.lhs!r}, rhs = {self.rhs!r}")


Law = tuple[str, np.ndarray, "SemigroupTable | None"]


def check_laws(gamma: SemigroupTable, carrier: np.ndarray,
               laws: Sequence[Law]) -> CheckReport:
    """Verify laws of the form

        out[a][g1 g2] == combine(out[a][g1], out[a . g1][g2])

    for every state a and all g1, g2 in ``gamma``, where a . g is
    ``carrier[a][g]`` and each law is ``(name, out, combine)``: ``combine``
    is a semigroup whose product takes the two sides, or None for the
    right projection (x, y) |-> y.  The report is the first violation
    in the order a, then g1, then g2, then the laws in the given order,
    with ``witness == (a, g1, g2)`` and both sides as Python ints.

    Only g2 in ``gamma.generating_set`` need checking, provided the
    carrier obeys its own state law a . (g1 g2) == (a . g1) . g2 (the
    law with ``out == carrier`` and the right projection).  Let H be the
    set of h for which a law holds at every (a, g1, h).  For h, k in H,
    writing a' = a . g1 and x * y for ``combine``,

        out[a][g1 (h k)] == out[a][(g1 h) k]
                         == out[a][g1 h] * out[a . (g1 h)][k]
                         == (out[a][g1] * out[a'][h]) * out[a' . h][k]
                         == out[a][g1] * (out[a'][h] * out[a' . h][k])
                         == out[a][g1] * out[a'][h k],

    using associativity of gamma, k in H, h in H together with
    a . (g1 h) == a' . h, associativity of ``combine``, and k in H at
    state a'.  So H is closed under the product and, holding the
    generators, is all of gamma.  The step a . (g1 h) == a' . h is the
    carrier's state law at h.  For the carrier's own state law (the case
    out == carrier) that step is h in H itself, so the carrier law
    follows from its generator instances with no premise, and it is
    checked on the generators along with the laws: a law can hold on the
    generators and fail elsewhere when the carrier is not an action.
    This is Light's associativity argument again (see
    ``_light_witness``), and the check costs O(|A||gamma||G|) instead of
    O(|A||gamma|^2).

    When the generator pass finds a failure, or the carrier is not an
    action, each state row is scanned over all (g1, g2), in order, until
    the first violation.

    The carrier and every ``out`` are integer arrays, read as given: the
    automata and triples hold their tables as narrow arrays, gathered by
    ``take``, which reads narrow indices several times faster than
    ``[]`` does.
    """
    prod, nxt = gamma.array, carrier
    tables = [(name, out, None if combine is None else combine.array)
              for name, out, combine in laws]
    gens = np.array(gamma.generating_set, dtype=np.intp)
    cols = prod[:, gens]  # cols[g1, k] == g1 g_k

    def holds_on_generators(out: np.ndarray, combine: np.ndarray | None) -> bool:
        right = out[:, gens].take(nxt, axis=0)  # right[a, g1, k] == out[a . g1][g_k]
        rhs = right if combine is None else combine[out[:, :, None], right]
        return np.array_equal(out.take(cols, axis=1), rhs)

    checks = [(out, combine) for _, out, combine in tables]
    if not any(out is nxt and combine is None for out, combine in checks):
        checks.insert(0, (nxt, None))
    if all(holds_on_generators(out, combine) for out, combine in checks):
        return CheckReport.passed()
    n = gamma.order
    for a, moved in enumerate(nxt):
        first = None
        for name, out, combine in tables:
            lhs = out[a].take(prod)            # lhs[g1, g2] == out[a][g1 g2]
            right = out.take(moved, axis=0)   # right[g1, g2] == out[a . g1][g2]
            rhs = right if combine is None else combine[out[a][:, None], right]
            bad = np.flatnonzero(lhs != rhs)
            if bad.size and (first is None or bad[0] < first[0]):
                first = (int(bad[0]), name, lhs, rhs)
        if first is not None:
            k, name, lhs, rhs = first
            return CheckReport.failed(name, (a, *divmod(k, n)),
                                      int(lhs.flat[k]), int(rhs.flat[k]))
    return CheckReport.passed()
