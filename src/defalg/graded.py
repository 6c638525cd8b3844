"""Exact graded linear algebra over the rationals.

Graded vector spaces with a finite homogeneous basis, degree-shifting linear
maps, Koszul signs, unshuffles, shifts, the word basis of a truncated
graded-symmetric algebra ⊕_{k≤n} ⊙^k V (one position per word, for every
length), complexes and their cohomology with an explicit contraction
(homotopy) datum, and quasi-isomorphism tests.

Grading convention: a single cohomological integer degree; the differential
always has degree +1; the shift V[n] puts a degree-k element in degree k-n
and multiplies the differential by (-1)^n.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from math import comb
from types import MappingProxyType
from typing import (Callable, Dict, ItemsView, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from . import linalg
from .linalg import ONE, ZERO, SparseVec, add_into

__all__ = [
    "GradedSpace", "GradedMap", "Complex", "Splitting", "Contraction", "koszul_sign",
    "unshuffles", "shift", "WordBasis", "MAX_WORDS", "word_count", "cohomology",
    "solve_homotopy", "is_quasiiso",
]


class GradedSpace:
    """Finite-dimensional graded vector space with a named homogeneous basis.

    A space is given its (name, degree) pairs, or (``joined``) its degrees
    and a function that names each index by joining the names of factor
    spaces with a separator: ``x@a`` for L⊗A, ``*`` for words.  ``names``,
    ``basis`` and the name index are then built only when read, ``name(i)``
    names one index, and ``index`` may read a name through the factors.
    ``dim`` is the number of degrees, and equality compares the degrees
    before the names.
    """

    def __init__(self, basis: Sequence[Tuple[str, int]]):
        basis = tuple((str(n), int(d)) for n, d in basis)
        names = [n for n, _ in basis]
        self.basis = basis
        self.names = tuple(names)
        self.degrees = tuple(d for _, d in basis)
        self._index = {n: i for i, n in enumerate(names)}
        self.index = self._index.__getitem__      # a name is read straight off the dict
        self._lookup: Optional[Callable[[str], int]] = None
        self._parts: Tuple[Tuple["GradedSpace", ...], str] = ((), "")
        self._check_unique()

    @classmethod
    def joined(cls, degrees: Sequence[int], name: Callable[[int], str],
               factors: Sequence["GradedSpace"], sep: str,
               lookup: Optional[Callable[[str], int]] = None) -> "GradedSpace":
        """The space whose i-th basis vector has degree degrees[i] and the
        name name(i), made of names of ``factors`` joined by ``sep``.
        Distinct tuples of factor names join to distinct names unless a
        factor name contains ``sep``: only then are the names built here,
        to check that they are unique.  ``lookup(name)`` (optional) is the
        index of a name, or KeyError; it is used while no factor name
        contains ``sep``."""
        out = cls.__new__(cls)
        out.degrees = tuple(degrees)
        out._name = name
        out._lookup = lookup
        out._parts = (tuple(factors), sep)
        if any(f._contains(sep) for f in factors):
            out._lookup = None
            out._check_unique()
        return out

    def _check_unique(self) -> None:
        if len(self._index) != len(self.degrees):
            raise ValueError("basis names must be unique")

    def _contains(self, sep: str) -> bool:
        """Whether some basis name may contain ``sep``: read off the
        factors' names and separator for a joined space."""
        factors, own = self._parts
        if not factors:
            return any(sep in n for n in self.names)
        return sep == own or any(f._contains(sep) for f in factors)

    @cached_property
    def names(self) -> Tuple[str, ...]:
        return tuple(map(self._name, range(len(self.degrees))))

    @cached_property
    def basis(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(zip(self.names, self.degrees))

    @cached_property
    def _index(self) -> Dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    def name(self, i: int) -> str:
        """The name of basis vector i, without building the others."""
        names = self.__dict__.get("names")
        return names[i] if names is not None else self._name(i)

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def index(self, name: str) -> int:
        if self._lookup is not None:
            return self._lookup(name)
        return self._index[name]

    def degree_indices(self, k: int) -> List[int]:
        return [i for i, d in enumerate(self.degrees) if d == k]

    def basis_vector(self, i: int) -> SparseVec:
        return {i: ONE}

    def vector_degree(self, v: SparseVec) -> Optional[int]:
        """Degree of a homogeneous vector; None for 0 or inhomogeneous."""
        degs = {self.degrees[i] for i in v}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_components(self, v: SparseVec) -> Dict[int, SparseVec]:
        out: Dict[int, SparseVec] = {}
        for i, c in v.items():
            out.setdefault(self.degrees[i], {})[i] = c
        return out

    def dual(self) -> "GradedSpace":
        return GradedSpace([(n + "^", -d) for n, d in self.basis])

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace) and self.degrees == other.degrees
                                 and self.names == other.names)

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        return "GradedSpace(%s)" % (", ".join("%s:%d" % b for b in self.basis),)


_ZERO_COLUMN: SparseVec = MappingProxyType({})    # a zero column, shared and read-only


class GradedMap:
    """Degree-homogeneous linear map between graded spaces.

    The map is stored as its nonzero columns {source index: SparseVec}, the
    images of the source basis vectors: no column is empty and no entry is
    zero.  An entry is admissible only when deg(target) = deg(source) +
    degree.  The constructor takes entries {(target index, source index):
    c} and checks their degrees, as documents arrive through it.
    ``from_columns`` takes columns that the program has built
    degree-homogeneous and keeps them as they are; ``column`` and
    ``columns`` return the stored ones, so none of them may be changed.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 entries: Optional[Dict[Tuple[int, int], Fraction]] = None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self._cols: Dict[int, SparseVec] = {}
        sdeg, tdeg = source.degrees, target.degrees
        for (j, i), c in (entries or {}).items():
            c = linalg.frac(c)
            if c:
                if tdeg[j] != sdeg[i] + self.degree:
                    raise self._degree_error(j, i)
                self._cols.setdefault(i, {})[j] = c

    def _degree_error(self, j: int, i: int) -> ValueError:
        return ValueError("entry (%s <- %s) violates degree %d homogeneity"
                          % (self.target.name(j), self.source.name(i), self.degree))

    def set_entry(self, j: int, i: int, c) -> None:
        """Set one entry.  Column i is replaced, not changed in place."""
        c = linalg.frac(c)
        col = dict(self._cols.get(i, ()))
        if c:
            if self.target.degrees[j] != self.source.degrees[i] + self.degree:
                raise self._degree_error(j, i)
            col[j] = c
        else:
            col.pop(j, None)
        if col:
            self._cols[i] = col
        else:
            self._cols.pop(i, None)

    @classmethod
    def zero(cls, source: GradedSpace, target: GradedSpace, degree: int) -> "GradedMap":
        return cls(source, target, degree)

    @classmethod
    def identity(cls, space: GradedSpace) -> "GradedMap":
        return cls.from_columns(space, space, 0, [{i: ONE} for i in range(space.dim)])

    @classmethod
    def from_columns(cls, source: GradedSpace, target: GradedSpace, degree: int,
                     columns: Union[Sequence[SparseVec], Dict[int, SparseVec]]) -> "GradedMap":
        """The map whose column i, the image of the i-th source basis
        vector, is columns[i]: ``columns`` is a list over the source basis
        or a dict of columns.  Empty columns are dropped and the others
        kept as they are."""
        out = cls(source, target, degree)
        out._cols = {i: col for i, col in (columns.items() if isinstance(columns, dict)
                                           else enumerate(columns)) if col}
        return out

    def column(self, i: int) -> SparseVec:
        return self._cols.get(i, _ZERO_COLUMN)

    def nonzero_columns(self) -> ItemsView[int, SparseVec]:
        """The pairs (i, column i) of the nonzero columns."""
        return self._cols.items()

    def columns(self) -> List[SparseVec]:
        """The images of the source basis vectors, in order."""
        cols = self._cols
        return [cols.get(i, _ZERO_COLUMN) for i in range(self.source.dim)]

    def apply(self, v: SparseVec) -> SparseVec:
        """The sum of the columns on v's support, weighted by v."""
        out: SparseVec = {}
        cols = self._cols
        for i, x in v.items():
            col = cols.get(i)
            if col:
                add_into(out, col, x)
        return out

    def __call__(self, v: SparseVec) -> SparseVec:
        return self.apply(v)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other: self applied to each column of other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        for i, col in other._cols.items():
            img = self.apply(col)
            if img:
                out._cols[i] = img
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ValueError("sum shape mismatch")
        out = GradedMap(self.source, self.target, self.degree)
        cols = out._cols
        cols.update((i, dict(col)) for i, col in self._cols.items())
        for i, col in other._cols.items():
            if not add_into(cols.setdefault(i, {}), col):
                del cols[i]
        return out

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def scale(self, c) -> "GradedMap":
        c = linalg.frac(c)
        out = GradedMap(self.source, self.target, self.degree)
        if c:
            out._cols = {i: {j: c * x for j, x in col.items()} for i, col in self._cols.items()}
        return out

    def is_zero(self) -> bool:
        return not self._cols

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self._cols == other._cols)

    def transpose(self) -> "GradedMap":
        """Plain transpose between dual spaces (no signs)."""
        out = GradedMap(self.target.dual(), self.source.dual(), self.degree)
        for i, col in self._cols.items():
            for j, c in col.items():
                out._cols.setdefault(j, {})[i] = c
        return out

    def rank(self) -> int:
        return len(linalg.independent_subset(self.columns()))

    def kernel_basis(self) -> List[SparseVec]:
        return linalg.relations(self.columns())[1]

    def __repr__(self):
        return "GradedMap(deg=%d, %d entries)" % (
            self.degree, sum(len(col) for col in self._cols.values()))


class Complex:
    """Graded space with a square-zero degree-+1 differential."""

    def __init__(self, space: GradedSpace, differential: GradedMap, check: bool = True):
        if differential.source != space or differential.target != space:
            raise ValueError("differential must be an endomap of the space")
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        if check and not differential.compose(differential).is_zero():
            raise ValueError("d ∘ d != 0: not a complex")
        self.space = space
        self.d = differential

    @classmethod
    def zero_differential(cls, space: GradedSpace) -> "Complex":
        return cls(space, GradedMap.zero(space, space, 1))

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.space == other.space
                and self.d == other.d)

    def __repr__(self):
        return "Complex(dim=%d)" % self.space.dim


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign with sigma(v_1 x ... x v_n) = sign * (v_{s(1)} x ... x v_{s(n)}).

    ``sigma`` is 0-based: the permuted tuple is (v_{sigma[0]}, ...).  Each
    transposition of adjacent factors of degrees a, b contributes (-1)^{ab}.
    """
    n = len(degrees)
    if sorted(sigma) != list(range(n)):
        raise ValueError("malformed permutation")
    sign = 1
    for k in range(n):
        for l in range(k + 1, n):
            if sigma[k] > sigma[l]:
                if degrees[sigma[k]] % 2 and degrees[sigma[l]] % 2:
                    sign = -sign
    return sign


def unshuffles(p: int, q: int) -> List[Tuple[int, ...]]:
    """All (p,q)-unshuffles as 0-based permutations (image tuples).

    A permutation sigma is an unshuffle of type (p, q) when it increases on
    the first p and the last q slots; there are binomial(p+q, p) of them.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 and p + q >= 1")
    n = p + q
    out = []
    for first in itertools.combinations(range(n), p):
        rest = tuple(i for i in range(n) if i not in first)
        out.append(first + rest)
    if len(out) != comb(n, p):
        raise linalg.CertificateError("unshuffle count is not binomial(p+q, p)")
    return out


def shift(c: Complex, n: int) -> Complex:
    """Shift C[n]: degree k becomes k - n, differential scaled by (-1)^n."""
    space = shift_space(c.space, n)
    d = GradedMap.from_columns(space, space, 1, c.d.scale(-1 if n % 2 else 1).columns())
    return Complex(space, d, check=False)


def shift_space(v: GradedSpace, n: int) -> GradedSpace:
    return GradedSpace([(name, d - n) for name, d in v.basis])


def canonical_monomial(indices: Sequence[int], degrees: Sequence[int]
                       ) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sort a symmetric word into canonical order, tracking the Koszul sign.

    Returns (sorted index tuple, sign), or None when the monomial is zero
    (a repeated odd-degree factor).
    """
    idx = list(indices)
    sign = 1
    # insertion sort; each adjacent swap of factors a, b contributes (-1)^{ab}
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            if degrees[idx[j - 1]] % 2 and degrees[idx[j]] % 2:
                sign = -sign
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b and degrees[a] % 2:
            return None
    return tuple(idx), sign


MAX_WORDS = 50_000    # the largest word basis a truncation may have


def word_count(letters: GradedSpace, order: int) -> int:
    """The number of nonzero words of length 1..order on ``letters``,
    counted without forming any: a word takes each of the o odd letters
    at most once and any multiset of the e even ones, so there are
    Σ_j C(o, j)·C(e + order - j, e) words of length at most order, the
    empty word included."""
    odd = sum(d % 2 for d in letters.degrees)
    even = letters.dim - odd
    return sum(comb(odd, j) * comb(even + order - j, even)
               for j in range(min(odd, order) + 1)) - 1


def _words_of_length(odd: Sequence[int], k: int) -> List[Tuple[int, ...]]:
    """The canonical monomials of length k on letters of the parities
    ``odd``: the sorted letter tuples that repeat no odd letter (a sorted
    tuple is zero iff it does), in ``combinations_with_replacement``
    order.  They are formed one letter at a time, each letter at least the
    one before it and greater when that one is odd, so no word that would
    be dropped is formed."""
    n = len(odd)
    words: List[Tuple[int, ...]] = [()]
    for _ in range(k):
        words = [w + (a,) for w in words for a in range(w[-1] + odd[w[-1]] if w else 0, n)]
    return words


class WordBasis:
    """The monomial basis of ⊕_{1≤k≤order} ⊙^k V, V = ``letters``.

    ``words`` are the canonical monomials, shortest first and in
    ``combinations_with_replacement`` order within each length, so the
    first dim V words are the letters; a word's position among them is its
    only address.  ``offsets[k]`` is the position of the first word of
    length k, ``of_length(k)`` the positions of the words of length k and
    ``space`` the graded space the words span, each word named by its
    letters' names joined by ``*``.  A basis of more than ``MAX_WORDS``
    words, or an order above that number, is refused before any word is
    formed.
    """

    def __init__(self, letters: GradedSpace, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        count = word_count(letters, order)
        if count > MAX_WORDS or order > MAX_WORDS:
            raise ValueError("a truncation at order %d on %d letters has %d words; the cap is "
                             "%d words and order %d" % (order, letters.dim, count, MAX_WORDS,
                                                        MAX_WORDS))
        self.letters = letters
        self.order = order
        self._odd = [d % 2 for d in letters.degrees]
        self.offsets: Dict[int, int] = {}
        words: List[Tuple[int, ...]] = []
        for k in range(1, order + 1):
            self.offsets[k] = len(words)
            words.extend(_words_of_length(self._odd, k))
        self.words: Tuple[Tuple[int, ...], ...] = tuple(words)
        self._positions = {w: i for i, w in enumerate(words)}
        degree = letters.degrees.__getitem__
        self.space = GradedSpace.joined([sum(map(degree, w)) for w in words],
                                        lambda p: "*".join(map(letters.name, words[p])),
                                        (letters,), "*")

    def of_length(self, k: int) -> range:
        """The positions of the words of length k."""
        return range(self.offsets[k], self.offsets.get(k + 1, len(self.words)))

    def position(self, word: Sequence[int]) -> Optional[Tuple[int, int]]:
        """(position, sign) of an arbitrary word of length 1..order: the
        position of its canonical monomial and the Koszul sign of sorting
        it there; None when it is zero."""
        if not 1 <= len(word) <= self.order:
            raise ValueError("word length outside truncation")
        cm = canonical_monomial(word, self.letters.degrees)
        return None if cm is None else (self._positions[cm[0]], cm[1])

    def product(self, p: Sequence[int], q: Sequence[int]) -> Optional[Tuple[int, int]]:
        """(position, sign) of the product of two canonical words whose
        lengths sum to at most order; None when it is zero.

        The words are merged (``sorted`` finds the two sorted runs of p + q
        and merges them), and each odd letter of q carries the Koszul sign
        of the odd letters of p greater than it, which it crosses; it finds
        them by bisecting p's odd letters.  An odd letter in both words
        makes the product zero."""
        odd, sign = self._odd, 1
        p_odd = [a for a in p if odd[a]]
        if p_odd:
            for b in q:
                if odd[b]:
                    k = bisect_right(p_odd, b)
                    if k and p_odd[k - 1] == b:
                        return None
                    if (len(p_odd) - k) % 2:
                        sign = -sign
        return self._positions[tuple(sorted(p + q))], sign

    def component(self, vec: SparseVec, k: int) -> SparseVec:
        """The ⊙^k-part of a vector on the words: its entries on the words
        of length k."""
        span = self.of_length(k)
        return {j: c for j, c in vec.items() if j in span}


class Splitting(NamedTuple):
    """C^k = B ⊕ H ⊕ W in one degree k, with Z^k = B ⊕ H: the boundaries,
    their chosen preimages in C^(k-1), the harmonic representatives and
    the complement W of the cocycles, which d maps onto B^(k+1)."""
    boundaries: List[SparseVec]
    preimages: List[SparseVec]
    harmonics: List[SparseVec]
    complements: List[SparseVec]


class Contraction:
    """Cohomology of a complex with an explicit splitting, one degree at a time.

    The constructor runs one ``linalg.relations`` per degree k over the
    columns of d on C^k.  Its independent columns are the basis vectors
    whose images are the boundaries B^(k+1), its relations are the
    cocycles Z^k, and the ranks give dim H^k = dim Z^k - dim B^k.  The
    first time degree k is read, one echelon is built over B^k, then Z^k,
    then the unit vectors of the complement W of the cocycles, which d maps
    onto B^(k+1): the cocycles it keeps are the harmonic representatives,
    and it splits C^k = B ⊕ H ⊕ W (``split``).  ``class_of``,
    ``is_boundary``, the projection p onto H and the degree -1 homotopy
    sigma with d sigma + sigma d = Id - incl p all read a vector's
    coordinates in that echelon.  sigma's image is spanned by W, which it
    sends to 0, so the side conditions sigma sigma = 0, sigma incl = 0 and
    p sigma = 0 hold: the transfer recursion of
    ``models.kuranishi_prorepresent`` relies on them.
    """

    def __init__(self, cx: Complex):
        self.complex = cx
        space = cx.space
        self._dcols = cx.d.columns()
        self._by_degree = {k: space.degree_indices(k) for k in sorted(set(space.degrees))}
        self._pivots: Dict[int, List[int]] = {}    # k -> i in C^k with d e_i spanning B^(k+1)
        self._cocycles: Dict[int, List[SparseVec]] = {}  # k -> Z^k until degree k is split
        for k, idx in self._by_degree.items():
            ech, self._cocycles[k] = linalg.relations([self._dcols[i] for i in idx])
            self._pivots[k] = [idx[c] for c in ech.independent]
        self._dims = {k: len(idx) - len(self._pivots[k]) - len(self._pivots.get(k - 1, ()))
                      for k, idx in self._by_degree.items()}
        self._offsets: Dict[int, int] = {}
        basis = []
        for k, n in self._dims.items():
            self._offsets[k] = len(basis)
            basis.extend(("H%d_%d" % (k, t), k) for t in range(n))
        self.harmonic_space = GradedSpace(basis)
        self._splits: Dict[int, Tuple[Splitting, linalg.Echelon, Dict[int, int]]] = {}

    def _split(self, k: int) -> Tuple[Splitting, linalg.Echelon, Dict[int, int]]:
        """The splitting of C^k, its echelon over B^k, Z^k and W^k, and the
        index in ``harmonic_space`` of each position of the echelon that
        holds a harmonic representative."""
        if k not in self._splits:
            idx = self._by_degree.get(k, [])
            bounding = self._pivots.get(k - 1, ())
            boundaries = [self._dcols[i] for i in bounding]
            ech = linalg.echelon(boundaries)
            classes, harmonics = {}, []
            for rel in self._cocycles.pop(k, ()):
                z = {idx[pos]: x for pos, x in rel.items()}
                if ech.add(z):
                    classes[ech.count - 1] = self._offsets[k] + len(harmonics)
                    harmonics.append(z)
            complements = [{i: ONE} for i in self._pivots.get(k, ())]
            for w in complements:
                ech.add(w)
            self._splits[k] = (Splitting(boundaries, [{i: ONE} for i in bounding], harmonics,
                                         complements), ech, classes)
        return self._splits[k]

    def split(self, k: int) -> Splitting:
        """The splitting of C^k (all lists empty off the degrees of C)."""
        return self._split(k)[0]

    def dims(self) -> Dict[int, int]:
        return {k: v for k, v in self._dims.items() if v}

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def representative(self, class_index: int) -> SparseVec:
        k = self.harmonic_space.degrees[class_index]
        return dict(self.split(k).harmonics[class_index - self._offsets[k]])

    def class_of(self, v: SparseVec) -> Optional[SparseVec]:
        """[v] in the harmonic basis, a vector of ``harmonic_space``; None
        if v is not a cocycle: each homogeneous component of a cocycle lies
        in Z^k = B^k ⊕ H^k, and its H-coordinates are the class."""
        if self.complex.d.apply(v):
            return None
        out: SparseVec = {}
        for k, part in self.complex.space.homogeneous_components(v).items():
            _, ech, classes = self._split(k)
            for pos, x in ech.coords(part).items():
                if pos in classes:
                    out[classes[pos]] = x
        return out

    def is_boundary(self, v: SparseVec) -> Optional[SparseVec]:
        """A preimage under d when v is a coboundary, else None."""
        cls = self.class_of(v)
        if cls is None or cls:
            return None
        return self.sigma.apply(v)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    @cached_property
    def include(self) -> GradedMap:
        return GradedMap.from_columns(self.harmonic_space, self.complex.space, 0,
                                      [h for k in self._dims for h in self.split(k).harmonics])

    @cached_property
    def _project_sigma(self) -> Tuple[GradedMap, GradedMap]:
        """p and sigma, read per degree off each basis vector's coordinates
        in the splitting echelon: p takes the H-coordinates, sigma sends
        the B-coordinates back to the basis vectors they are the images of."""
        space = self.complex.space
        proj: Dict[int, SparseVec] = {}
        sigma: Dict[int, SparseVec] = {}
        for k, idx in self._by_degree.items():
            _, ech, classes = self._split(k)
            bounding = self._pivots.get(k - 1, ())
            for i in idx:
                for pos, c in ech.coords({i: ONE}).items():
                    if pos < len(bounding):
                        sigma.setdefault(i, {})[bounding[pos]] = c
                    elif pos in classes:
                        proj.setdefault(i, {})[classes[pos]] = c
        return (GradedMap.from_columns(space, self.harmonic_space, 0, proj),
                GradedMap.from_columns(space, space, -1, sigma))

    @property
    def project(self) -> GradedMap:
        return self._project_sigma[0]

    @property
    def sigma(self) -> GradedMap:
        return self._project_sigma[1]


def cohomology(cx: Complex) -> Contraction:
    """Cohomology with a contraction datum (see Contraction)."""
    return Contraction(cx)


def solve_homotopy(d_source: GradedMap, d_target: GradedMap, t: GradedMap
                   ) -> Optional[GradedMap]:
    """A map X: source → target of degree deg T - 1 with
    d_target∘X + X∘d_source = T, or None when there is none.

    The unknowns are the entries X[j, i] that the degrees allow, in order
    of (j, i), and their columns are sparse in the entries (r, c) of T; the
    solution is zero off the greedy independent unknowns.
    """
    src, tgt = t.source, t.target
    slots = [(j, i) for j in range(tgt.dim) for i in range(src.dim)
             if tgt.degrees[j] == src.degrees[i] + t.degree - 1]
    rows_of_source: Dict[int, List[Tuple[int, Fraction]]] = {}
    for c, dcol in d_source.nonzero_columns():
        for i, x in dcol.items():
            rows_of_source.setdefault(i, []).append((c, x))
    cols = []
    for j, i in slots:
        col: Dict[int, Fraction] = {}
        for r, x in d_target.column(j).items():    # (d X)[r, i] += d[r, j]
            col[r * src.dim + i] = col.get(r * src.dim + i, ZERO) + x
        for c, x in rows_of_source.get(i, ()):     # (X d)[j, c] += d[i, c]
            col[j * src.dim + c] = col.get(j * src.dim + c, ZERO) + x
        cols.append({key: x for key, x in col.items() if x})
    sol = linalg.echelon(cols).coords({r * src.dim + c: x for c, tcol in t.nonzero_columns()
                                       for r, x in tcol.items()})
    if sol is None:
        return None
    return GradedMap(src, tgt, t.degree - 1, {slots[pos]: x for pos, x in sol.items()})


def is_chain_map(f: GradedMap, source: Complex, target: Complex) -> bool:
    """f d = (-1)^n d f for a degree-n map of complexes."""
    sgn = -1 if f.degree % 2 else 1
    return f.compose(source.d) == target.d.compose(f).scale(sgn)


def is_quasiiso(f: GradedMap, source: Complex, target: Complex) -> bool:
    """True iff the degree-0 chain map f induces isomorphisms on cohomology."""
    if f.degree != 0:
        raise ValueError("quasi-isomorphism test needs a degree-0 map")
    if not is_chain_map(f, source, target):
        raise ValueError("input is not a chain map")
    hs = cohomology(source)
    ht = cohomology(target)
    if hs.dims() != ht.dims():
        return False
    # induced map in harmonic coordinates; square by dimension match
    induced = ht.project.compose(f).compose(hs.include)
    return induced.rank() == hs.total_dim()

