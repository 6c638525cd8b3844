"""Exact graded linear algebra over the rationals.

Graded vector spaces with a finite homogeneous basis, degree-shifting linear
maps, Koszul signs, unshuffles, shifts, graded-symmetric powers and the
word basis of their truncated sum, complexes and their cohomology with an
explicit contraction (homotopy) datum, quasi-isomorphism tests and
connecting homomorphisms.

Grading convention: a single cohomological integer degree; the differential
always has degree +1; the shift V[n] puts a degree-k element in degree k-n
and multiplies the differential by (-1)^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .linalg import ONE, ZERO, Vector

__all__ = [
    "GradedSpace", "GradedMap", "Complex", "Splitting", "Contraction", "ShortExactSequence",
    "koszul_sign", "unshuffles", "shift", "symmetric_power",
    "SymmetricPower", "WordBasis", "cohomology", "solve_homotopy", "is_quasiiso",
    "connecting_hom",
]


class GradedSpace:
    """Finite-dimensional graded vector space with a named homogeneous basis."""

    def __init__(self, basis: Sequence[Tuple[str, int]]):
        basis = tuple((str(n), int(d)) for n, d in basis)
        names = [n for n, _ in basis]
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        self.basis = basis
        self.names = tuple(names)
        self.degrees = tuple(d for _, d in basis)
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, name: str) -> int:
        return self._index[name]

    def degree_indices(self, k: int) -> List[int]:
        return [i for i, d in enumerate(self.degrees) if d == k]

    def zero_vector(self) -> Vector:
        return [ZERO] * self.dim

    def basis_vector(self, i: int) -> Vector:
        v = self.zero_vector()
        v[i] = ONE
        return v

    def vector_degree(self, v: Sequence[Fraction]) -> Optional[int]:
        """Degree of a homogeneous vector; None for 0 or inhomogeneous."""
        degs = {self.degrees[i] for i, c in enumerate(v) if c}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_components(self, v: Sequence[Fraction]) -> Dict[int, Vector]:
        out: Dict[int, Vector] = {}
        for i, c in enumerate(v):
            if c:
                comp = out.setdefault(self.degrees[i], self.zero_vector())
                comp[i] = c
        return out

    def dual(self) -> "GradedSpace":
        return GradedSpace([(n + "^", -d) for n, d in self.basis])

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return "GradedSpace(%s)" % (", ".join("%s:%d" % b for b in self.basis),)


class GradedMap:
    """Degree-homogeneous linear map between graded spaces.

    Entries are kept sparsely as {(target_index, source_index): Fraction};
    an entry is admissible only when deg(target) = deg(source) + degree.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 entries: Optional[Dict[Tuple[int, int], Fraction]] = None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.entries: Dict[Tuple[int, int], Fraction] = {}
        if entries:
            for (j, i), c in entries.items():
                self.set_entry(j, i, c)

    def set_entry(self, j: int, i: int, c) -> None:
        c = linalg.frac(c)
        if c == 0:
            self.entries.pop((j, i), None)
            return
        if self.target.degrees[j] != self.source.degrees[i] + self.degree:
            raise ValueError(
                "entry (%s <- %s) violates degree %d homogeneity"
                % (self.target.names[j], self.source.names[i], self.degree))
        self.entries[(j, i)] = c

    @classmethod
    def zero(cls, source: GradedSpace, target: GradedSpace, degree: int) -> "GradedMap":
        return cls(source, target, degree)

    @classmethod
    def identity(cls, space: GradedSpace) -> "GradedMap":
        return cls(space, space, 0, {(i, i): ONE for i in range(space.dim)})

    @classmethod
    def from_columns(cls, source: GradedSpace, target: GradedSpace, degree: int,
                     columns: Sequence[Sequence[Fraction]]) -> "GradedMap":
        """columns[i] = image of the i-th source basis vector."""
        entries = {}
        for i, col in enumerate(columns):
            for j, c in enumerate(col):
                if c:
                    entries[(j, i)] = c
        return cls(source, target, degree, entries)

    def column(self, i: int) -> Vector:
        v = self.target.zero_vector()
        for (j, ii), c in self.entries.items():
            if ii == i:
                v[j] = c
        return v

    def apply(self, v: Sequence[Fraction]) -> Vector:
        out = self.target.zero_vector()
        for (j, i), c in self.entries.items():
            if v[i]:
                out[j] += c * v[i]
        return out

    def __call__(self, v: Sequence[Fraction]) -> Vector:
        return self.apply(v)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        by_col: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (j, i), c in self.entries.items():
            by_col.setdefault(i, []).append((j, c))
        acc: Dict[Tuple[int, int], Fraction] = {}
        for (k, i), c in other.entries.items():
            for (j, c2) in by_col.get(k, ()):
                key = (j, i)
                acc[key] = acc.get(key, ZERO) + c2 * c
        for key, c in acc.items():
            if c:
                out.entries[key] = c
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ValueError("sum shape mismatch")
        out = GradedMap(self.source, self.target, self.degree, dict(self.entries))
        for key, c in other.entries.items():
            s = out.entries.get(key, ZERO) + c
            if s:
                out.entries[key] = s
            else:
                out.entries.pop(key, None)
        return out

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def scale(self, c) -> "GradedMap":
        c = linalg.frac(c)
        out = GradedMap(self.source, self.target, self.degree)
        if c:
            out.entries = {k: c * v for k, v in self.entries.items()}
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self.entries == other.entries)

    def matrix(self) -> linalg.Matrix:
        m = linalg.zeros(self.target.dim, self.source.dim)
        for (j, i), c in self.entries.items():
            m[j][i] = c
        return m

    def transpose(self) -> "GradedMap":
        """Plain transpose between dual spaces (no signs)."""
        return GradedMap(self.target.dual(), self.source.dual(), self.degree,
                         {(i, j): c for (j, i), c in self.entries.items()})

    def columns(self) -> List[linalg.SparseVec]:
        """The images of the source basis vectors, as sparse vectors."""
        cols: List[linalg.SparseVec] = [{} for _ in range(self.source.dim)]
        for (j, i), c in self.entries.items():
            cols[i][j] = c
        return cols

    def rank(self) -> int:
        return len(linalg.independent_subset(self.columns()))

    def kernel_basis(self) -> List[Vector]:
        return linalg.relations(self.columns())[1]

    def __repr__(self):
        return "GradedMap(deg=%d, %d entries)" % (self.degree, len(self.entries))


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
    space = GradedSpace([(name, d - n) for name, d in c.space.basis])
    sgn = -1 if n % 2 else 1
    d = GradedMap(space, space, 1,
                  {key: sgn * v for key, v in c.d.entries.items()})
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


class SymmetricPower:
    """Graded-symmetric power of a graded space with canonical monomials."""

    def __init__(self, v: GradedSpace, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.base = v
        self.n = n
        monos = []
        for t in itertools.combinations_with_replacement(range(v.dim), n):
            # t is sorted, so it is zero iff it repeats an odd letter
            if not any(a == b and v.degrees[a] % 2 for a, b in zip(t, t[1:])):
                monos.append(t)
        self.monomials: Tuple[Tuple[int, ...], ...] = tuple(monos)
        self._mono_index = {m: i for i, m in enumerate(monos)}
        basis = []
        for m in monos:
            name = "*".join(v.names[i] for i in m)
            basis.append((name, sum(v.degrees[i] for i in m)))
        self.space = GradedSpace(basis)

    def index(self, indices: Sequence[int]) -> Optional[Tuple[int, int]]:
        """(monomial position, sign) of an arbitrary word; None when zero."""
        cm = canonical_monomial(indices, self.base.degrees)
        if cm is None:
            return None
        mono, sign = cm
        return self._mono_index[mono], sign


def symmetric_power(v: GradedSpace, n: int) -> SymmetricPower:
    return SymmetricPower(v, n)


class WordBasis:
    """The monomial basis of ⊕_{1≤k≤order} ⊙^k V, V = ``letters``.

    ``words`` are the canonical monomials, shortest first and in the order
    of ``powers[k].monomials`` within each length; ``offsets[k]`` is the
    position of the first word of length k and ``space`` the graded space
    the words span.
    """

    def __init__(self, letters: GradedSpace, order: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.letters = letters
        self.order = order
        self.powers: Dict[int, SymmetricPower] = {
            k: SymmetricPower(letters, k) for k in range(1, order + 1)}
        self.offsets: Dict[int, int] = {}
        basis = []
        words: List[Tuple[int, ...]] = []
        for k in range(1, order + 1):
            self.offsets[k] = len(words)
            basis.extend(self.powers[k].space.basis)
            words.extend(self.powers[k].monomials)
        self.space = GradedSpace(basis)
        self.words: Tuple[Tuple[int, ...], ...] = tuple(words)

    def position(self, word: Sequence[int]) -> Optional[Tuple[int, int]]:
        """(position, sign) of an arbitrary word of length 1..order; None
        when it is zero."""
        if not 1 <= len(word) <= self.order:
            raise ValueError("word length outside truncation")
        res = self.powers[len(word)].index(word)
        return None if res is None else (self.offsets[len(word)] + res[0], res[1])

    def component(self, vec: Sequence[Fraction], k: int) -> Vector:
        """The ⊙^k-part of a vector on the words."""
        off = self.offsets[k]
        return list(vec[off:off + len(self.powers[k].monomials)])


class Splitting(NamedTuple):
    """C^k = B ⊕ H ⊕ W in one degree k, with Z^k = B ⊕ H: the boundaries,
    their chosen preimages in C^(k-1), the harmonic representatives and
    the complement W of the cocycles, which d maps onto B^(k+1)."""
    boundaries: List[Vector]
    preimages: List[Vector]
    harmonics: List[Vector]
    complements: List[Vector]


class Contraction:
    """Cohomology of a complex with an explicit splitting, one degree at a time.

    The constructor runs one echelon per degree k over the columns of d on
    C^k.  Its independent columns are the basis vectors whose images are
    the boundaries B^(k+1), and the ranks give dim H^k = dim Z^k - dim B^k.
    Everything else is built the first time it is read: the cocycles Z^k
    (the relations among those columns), the splitting C^k = B ⊕ H ⊕ W of
    a degree (``split``), the harmonic representatives, and the projection
    p onto H, the inclusion of H and the degree -1 homotopy sigma with
    d sigma + sigma d = Id - incl p.

    ``eliminated`` maps degrees whose columns the caller has already
    eliminated to what ``linalg.relations`` returned for them; only the
    echelon's independent columns and the relations are read, at once.
    """

    def __init__(self, cx: Complex,
                 eliminated: Optional[Dict[int, Tuple[linalg.Echelon, List[Vector]]]] = None):
        self.complex = cx
        space = cx.space
        self._dcols = cx.d.columns()
        self._by_degree = {k: space.degree_indices(k) for k in sorted(set(space.degrees))}
        self._pivots: Dict[int, List[int]] = {}    # k -> i in C^k with d e_i spanning B^(k+1)
        self._echelons: Dict[int, linalg.Echelon] = {}  # k -> echelon until Z^k is read
        self._relations: Dict[int, List[Vector]] = {}   # k -> Z^k in C^k coordinates
        for k, idx in self._by_degree.items():
            if eliminated and k in eliminated:
                ech, self._relations[k] = eliminated[k]
            else:
                ech = self._echelons[k] = linalg.echelon([self._dcols[i] for i in idx])
            self._pivots[k] = [idx[c] for c in ech.independent]
        self._dims = {k: len(idx) - len(self._pivots[k]) - len(self._pivots.get(k - 1, ()))
                      for k, idx in self._by_degree.items()}
        self._offsets: Dict[int, int] = {}
        basis = []
        for k, n in self._dims.items():
            self._offsets[k] = len(basis)
            basis.extend(("H%d_%d" % (k, t), k) for t in range(n))
        self.harmonic_space = GradedSpace(basis)
        self._harmonics: Dict[int, Tuple[linalg.Echelon, List[int],
                                         List[Dict[int, Fraction]]]] = {}
        self._splits: Dict[int, Splitting] = {}

    def _cocycles(self, k: int) -> List[Vector]:
        """Z^k in C^k coordinates, read off the degree's echelon when first
        needed (empty off the degrees of C)."""
        if k not in self._relations:
            ech = self._echelons.pop(k, None)
            self._relations[k] = [] if ech is None else ech.relations_of(
                [self._dcols[i] for i in self._by_degree[k]])
        return self._relations[k]

    def _harmonic(self, k: int) -> Tuple[linalg.Echelon, List[int], List[Dict[int, Fraction]]]:
        """The echelon over B^k then the cocycles Z^k, all sparse; the
        positions in it of the cocycles it keeps, and those cocycles: the
        harmonic representatives of H^k."""
        if k not in self._harmonics:
            idx = self._by_degree.get(k, [])
            ech = linalg.echelon(self._dcols[i] for i in self._pivots.get(k - 1, ()))
            positions, harmonics = [], []
            for rel in self._cocycles(k):
                z = {idx[pos]: x for pos, x in enumerate(rel) if x}
                if ech.add(z):
                    positions.append(ech.count - 1)
                    harmonics.append(z)
            self._harmonics[k] = (ech, positions, harmonics)
        return self._harmonics[k]

    def split(self, k: int) -> Splitting:
        """The splitting of C^k (all lists empty off the degrees of C)."""
        if k not in self._splits:
            space = self.complex.space

            def dense(sv: Dict[int, Fraction]) -> Vector:
                return [sv.get(j, ZERO) for j in range(space.dim)]
            bounding = self._pivots.get(k - 1, ())
            self._splits[k] = Splitting(
                [dense(self._dcols[i]) for i in bounding],
                [space.basis_vector(i) for i in bounding],
                [dense(h) for h in self._harmonic(k)[2]],
                [space.basis_vector(i) for i in self._pivots.get(k, ())])
        return self._splits[k]

    def dims(self) -> Dict[int, int]:
        return {k: v for k, v in self._dims.items() if v}

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def representative(self, class_index: int) -> Vector:
        k = self.harmonic_space.degrees[class_index]
        return list(self.split(k).harmonics[class_index - self._offsets[k]])

    def class_of(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """Coordinates of [v] in the harmonic basis; None if v is not a cocycle.

        Each homogeneous component of a cocycle lies in Z^k = B^k ⊕ H^k,
        where its coordinates are unique: they are read from the echelon
        over B^k and the cocycles (``_harmonic``)."""
        if not linalg.is_zero_vector(self.complex.d.apply(v)):
            return None
        out = self.harmonic_space.zero_vector()
        for k, part in self.complex.space.homogeneous_components(v).items():
            ech, hpos, _ = self._harmonic(k)
            coords = ech.coords(part)
            for t, pos in enumerate(hpos):
                out[self._offsets[k] + t] = coords[pos]
        return out

    def is_boundary(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """A preimage under d when v is a coboundary, else None."""
        cls = self.class_of(v)
        if cls is None or not linalg.is_zero_vector(cls):
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
        """p and sigma, read per degree off the inverse of the change of
        basis [B | H | W]: p takes the H-coordinates, sigma sends the
        B-coordinates back to the basis vectors they are the images of."""
        space = self.complex.space
        proj = GradedMap(space, self.harmonic_space, 0)
        sigma = GradedMap(space, space, -1)
        for k, idx in self._by_degree.items():
            bnd, _, harm, comp = self.split(k)
            inv = linalg.invert([[c[i] for c in bnd + harm + comp] for i in idx])
            nb = len(bnd)
            for pos, i in enumerate(idx):
                for t in range(len(harm)):
                    proj.set_entry(self._offsets[k] + t, i, inv[nb + t][pos])
                for t, j in enumerate(self._pivots.get(k - 1, ())):
                    sigma.set_entry(j, i, inv[t][pos])
        return proj, sigma

    @property
    def project(self) -> GradedMap:
        return self._project_sigma[0]

    @property
    def sigma(self) -> GradedMap:
        return self._project_sigma[1]


def cohomology(cx: Complex,
               eliminated: Optional[Dict[int, Tuple[linalg.Echelon, List[Vector]]]] = None
               ) -> Contraction:
    """Cohomology with a contraction datum (see Contraction)."""
    return Contraction(cx, eliminated)


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
    for (i, c), x in d_source.entries.items():
        rows_of_source.setdefault(i, []).append((c, x))
    cols_of_target: Dict[int, List[Tuple[int, Fraction]]] = {}
    for (r, j), x in d_target.entries.items():
        cols_of_target.setdefault(j, []).append((r, x))
    cols = []
    for j, i in slots:
        col: Dict[int, Fraction] = {}
        for r, x in cols_of_target.get(j, ()):     # (d X)[r, i] += d[r, j]
            col[r * src.dim + i] = col.get(r * src.dim + i, ZERO) + x
        for c, x in rows_of_source.get(i, ()):     # (X d)[j, c] += d[i, c]
            col[j * src.dim + c] = col.get(j * src.dim + c, ZERO) + x
        cols.append({key: x for key, x in col.items() if x})
    sol = linalg.echelon(cols).coords({r * src.dim + c: x for (r, c), x in t.entries.items()})
    if sol is None:
        return None
    return GradedMap(src, tgt, t.degree - 1,
                     {slot: x for slot, x in zip(slots, sol) if x})


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


@dataclass
class ShortExactSequence:
    """0 -> sub -> total -> quotient -> 0 of complexes, degreewise exact."""
    sub: Complex
    total: Complex
    quotient: Complex
    include: GradedMap   # sub -> total, degree 0 chain map
    project: GradedMap   # total -> quotient, degree 0 chain map

    def validate(self) -> List[str]:
        errs = []
        if not is_chain_map(self.include, self.sub, self.total):
            errs.append("inclusion is not a chain map")
        if not is_chain_map(self.project, self.total, self.quotient):
            errs.append("projection is not a chain map")
        if self.include.rank() != self.sub.space.dim:
            errs.append("inclusion is not injective")
        if self.project.rank() != self.quotient.space.dim:
            errs.append("projection is not surjective")
        if not self.project.compose(self.include).is_zero():
            errs.append("projection ∘ inclusion != 0")
        # exactness in the middle: rank-nullity
        if self.total.space.dim != self.sub.space.dim + self.quotient.space.dim:
            errs.append("dimensions do not add up (not exact in the middle)")
        return errs


def connecting_hom(ses: ShortExactSequence) -> GradedMap:
    """Snake-lemma connecting map H(quotient) -> H(sub) of degree +1."""
    errs = ses.validate()
    if errs:
        raise ValueError("not a short exact sequence: " + "; ".join(errs))
    hq = cohomology(ses.quotient)
    hs = cohomology(ses.sub)
    out = GradedMap(hq.harmonic_space, hs.harmonic_space, 1)
    pech = linalg.echelon(ses.project.columns())
    iech = linalg.echelon(ses.include.columns())
    for c in range(hq.harmonic_space.dim):
        x = hq.representative(c)
        y = pech.coords(x)
        if y is None:
            raise linalg.CertificateError("projection not surjective on the representative")
        dy = ses.total.d.apply(y)
        z = iech.coords(dy)
        if z is None:
            raise linalg.CertificateError("d(lift) is not in the image of the inclusion")
        cls = hs.class_of(z)
        if cls is None:
            raise linalg.CertificateError("snake output is not a cocycle")
        for j, coef in enumerate(cls):
            if coef:
                out.set_entry(j, c, coef)
    return out
