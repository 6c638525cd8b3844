"""Finite-dimensional nilpotent graded-commutative dg-algebras.

These are the maximal ideals of local Artinian dg-algebras: associative,
graded-commutative, nilpotent, with a square-zero degree-+1 derivation.
The module provides the axiom checker, direct and fiber products, mapping
cones, the polynomial-differential-forms extension A[t,dt]_eps with its
evaluation morphisms, homotopies of morphisms, and the factorization of
surjections into small extensions.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import linalg
from .graded import Complex, GradedMap, GradedSpace, cohomology
from .linalg import ONE, ZERO, CertificateError, SparseVec


Row = List[Tuple[int, Dict[int, int]]]
LeftIndex = List[Row]
Pair = Tuple[int, int]
Triple = Tuple[int, int, int]
# a power ideal's basis, the echelon whose independent vectors are scale
# times that basis (none for A's own basis), and scale
PowerIdeal = Tuple[List[SparseVec], Optional[linalg.Echelon], int]


class _LazyRows(dict):
    """A left index i -> [(j, {k: den·c_k})] over n basis vectors whose row
    i is built by ``row(i)`` when first read (``__missing__``); ``rows()``
    builds the missing ones in one pass and keeps the list."""

    def __init__(self, n: int, row: Callable[[int], Row]):
        super().__init__()
        self.n, self.row = n, row
        self.complete: Optional[List[Row]] = None

    def __missing__(self, i: int) -> Row:
        row = self[i] = self.row(i)
        return row

    def rows(self) -> List[Row]:
        if self.complete is None:
            self.complete = [self[i] for i in range(self.n)]
        return self.complete


def _int_columns(m: GradedMap) -> Tuple[List[Dict[int, int]], int]:
    """The columns of m on Python-int numerators over the lcm of the
    denominators of its entries, and that lcm."""
    den = lcm(*(c.denominator for _, col in m.nonzero_columns() for c in col.values()))
    cols: List[Dict[int, int]] = [{} for _ in range(m.source.dim)]
    for i, col in m.nonzero_columns():
        cols[i] = {j: c.numerator * (den // c.denominator) for j, c in col.items()}
    return cols, den


_INT_ONLY = frozenset({int})


def _structure_constants(space: GradedSpace, table: Union[Dict[Pair, SparseVec], Iterable],
                         wrong_degree: str) -> Tuple[int, LeftIndex]:
    """den, the lcm of the denominators of the constants, and the integer
    left index i -> [(j, {k: den·c_k})], built in one pass over the
    ((i, j), row) items of ``table`` (a dict, or an iterable of its items)
    with zero entries and rows dropped.  A row whose entries are all
    Python ints, as a document's integral constants are, is stored as it
    is over denominator 1, with no Fraction built; any other row is put on
    Python ints over its own denominator.  Rows are rescaled at the end
    only when the row denominators differ.  ``wrong_degree`` %
    (name_i, name_j) is the error for an entry whose degree is not
    deg e_i + deg e_j."""
    degrees = space.degrees
    left: LeftIndex = [[] for _ in range(space.dim)]
    by_den: Dict[int, List[Dict[int, int]]] = {}
    for (i, j), row in (table.items() if isinstance(table, dict) else table):
        if _INT_ONLY.issuperset(map(type, row.values())):
            nums, den = {k: c for k, c in row.items() if c}, 1
        else:
            nums, den = linalg.numerators({k: c if isinstance(c, (int, Fraction))
                                           else linalg.frac(c) for k, c in row.items()})
        if not nums:
            continue
        deg = degrees[i] + degrees[j]
        for k in nums:
            if degrees[k] != deg:
                raise ValueError(wrong_degree % (space.name(i), space.name(j)))
        left[i].append((j, nums))
        by_den.setdefault(den, []).append(nums)
    den = lcm(*by_den)
    for row_den, rows in by_den.items():
        if row_den != den:
            scale = den // row_den
            for nums in rows:
                for k in nums:
                    nums[k] *= scale
    return den, left


def _bilinear(s: "BilinearStructure", u: SparseVec, v: SparseVec,
              den: int = 1) -> SparseVec:
    """(Σ u_i v_j e_i e_j)/den: u and v on Python-int numerators, walked
    by ``_int_product`` through the integer left index, over one
    denominator (den, s.den and the lcms of u's and v's denominators)."""
    nu, du = linalg.numerators(u)
    nv, dv = linalg.numerators(v)
    total = du * dv * s.den * den
    return {k: Fraction(n, total) for k, n in s._int_product(nu, nv).items() if n}


def _right_index(left: LeftIndex) -> LeftIndex:
    """The right index m -> [(i, e_i e_m)] of a left index."""
    right: LeftIndex = [[] for _ in left]
    for i, row_list in enumerate(left):
        for m, row in row_list:
            right[m].append((i, row))
    return right


def _add_scaled(defects: Dict, key, c: int, row: Dict[int, int]) -> None:
    """defects[key] += c·row, sparsely, on Python ints."""
    out = defects.setdefault(key, {})
    for t, x in row.items():
        out[t] = out.get(t, 0) + c * x


def _failing(defects: Dict) -> set:
    """The keys whose accumulated defect is nonzero."""
    return {key for key, out in defects.items() if any(out.values())}


class BilinearStructure:
    """A finite graded space with a bilinear operation given by structure
    constants and a degree +1 differential d: the data that nilpotent
    dg-algebras, DGLAs and L⊗A share.

    The constants are given as ``table``, a dict (or an iterable of its
    items) from a pair of basis indices (i, j) to the sparse coefficient
    vector of e_i·e_j (the product, or the bracket [e_i, e_j]); missing
    pairs give zero.  They are stored once, as the index that every walk
    reads: ``den``, the lcm of their denominators, and the left index
    i -> [(j, {k: den·c_k})] on Python-int numerators, through which the
    operation walks only the support of its left argument.  ``table``
    itself is a read-only view of that index with Fraction entries, built
    on first read.  ``_left[i]`` is read row by row; a walk over every row
    reads ``rows()``, the whole index as a list, which an index whose rows
    are built on first read (``_LazyRows``: a truncation's algebra, and
    A[t,dt]_eps) completes in one pass.  A subclass names its operation in
    ``_wrong_degree`` and says in ``_lie`` whether its axioms are those of
    a graded Lie algebra.
    """
    _wrong_degree = "product %s*%s has an entry of wrong degree"
    _lie = False

    def __init__(self, space: GradedSpace, table: Union[Dict[Pair, SparseVec], Iterable],
                 differential: GradedMap):
        if differential.source != space or differential.degree != 1:
            raise ValueError("differential must be a degree +1 endomap")
        self.space = space
        self.den, self._left = _structure_constants(space, table, self._wrong_degree)
        self.d = differential

    def rows(self) -> LeftIndex:
        """The whole left index as a list over the basis.  A left index
        that builds its rows on first read is a ``_LazyRows``, which
        completes them in one pass."""
        left = self._left
        return left if isinstance(left, list) else left.rows()

    def constants(self) -> Iterator[Tuple[int, int, SparseVec]]:
        """(i, j, e_i·e_j) for the nonzero pairs in lexicographic order, each
        product sparse with Fraction entries in the order of its indices,
        read from the integer index."""
        for i, row_list in enumerate(self.rows()):
            for j, row in sorted(row_list, key=lambda item: item[0]):
                yield i, j, {k: Fraction(row[k], self.den) for k in sorted(row)}

    @cached_property
    def table(self) -> Dict[Pair, SparseVec]:
        """(i, j) -> e_i·e_j for the nonzero pairs: ``constants()`` as a
        dict, built on first read."""
        return {(i, j): row for i, j, row in self.constants()}

    def with_differential(self, differential: GradedMap) -> "BilinearStructure":
        """This structure with another d; the integer index is shared, not
        rebuilt."""
        if differential.source != self.space or differential.degree != 1:
            raise ValueError("differential must be a degree +1 endomap")
        out = copy.copy(self)
        out.d = differential
        return out

    @property
    def dim(self) -> int:
        return self.space.dim

    def complex(self) -> Complex:
        return Complex(self.space, self.d)

    def table_entry(self, i: int, j: int) -> SparseVec:
        """e_i·e_j as a fresh vector, read from the integer index."""
        row = next((row for m, row in self._left[i] if m == j), {})
        return {k: Fraction(row[k], self.den) for k in sorted(row)}

    def _int_product(self, u: Dict[int, int], w: Dict[int, int]) -> Dict[int, int]:
        """den·(u·w) for u and w on Python-int numerators; entries that
        cancel are kept as 0."""
        out: Dict[int, int] = {}
        for i, cu in u.items():
            for j, row in self._left[i]:
                cw = w.get(j)
                if cw:
                    c = cu * cw
                    for k, ck in row.items():
                        out[k] = out.get(k, 0) + c * ck
        return out

    def _axiom_errors(self) -> Tuple[List[str], List[str], List[str], List[str]]:
        """The symmetry, associativity (Jacobi), Leibniz and d∘d errors of a
        graded algebra (``_lie`` False) or a graded Lie algebra (``_lie``
        True), read from the integer index and d's entries alone.

        With s = (-1)^{|i||j|}, the defects are
          symmetry   e_i e_j - s e_j e_i        (Lie: e_i e_j + s e_j e_i), i <= j;
          triples    (e_i e_j) e_k - e_i (e_j e_k)   (Lie: + s e_j (e_i e_k));
          Leibniz    d(e_i e_j) - (d e_i) e_j - (-1)^{|i|} e_i (d e_j).
        Each defect is accumulated sparsely on Python ints (triples over
        den², Leibniz over den times d's denominator) by walking every
        nonzero constant through the left and right indices, so no symmetry
        of the table is assumed.  Each list names its failing pairs or
        triples in lexicographic order.
        """
        space, left, lie = self.space, self.rows(), self._lie
        odd = [deg % 2 for deg in space.degrees]
        right = _right_index(left)
        ints = {(i, m): row for i, row_list in enumerate(left) for m, row in row_list}

        symmetry = []
        for i, j in sorted({(min(p), max(p)) for p in ints}):
            s = -1 if odd[i] and odd[j] else 1
            if lie:
                s = -s
            if ints.get((i, j), {}) != {k: s * c for k, c in ints.get((j, i), {}).items()}:
                symmetry.append((i, j))

        triples: Dict[Triple, Dict[int, int]] = {}
        for (p, q), row in ints.items():
            for m, c in row.items():
                for k, r in left[m]:            # (e_p e_q) e_k
                    _add_scaled(triples, (p, q, k), c, r)
                for i, r in right[m]:           # -e_i (e_p e_q)
                    _add_scaled(triples, (i, p, q), -c, r)
                if lie:
                    for j, r in right[m]:       # s e_j (e_p e_q) on (p, j, q)
                        _add_scaled(triples, (p, j, q), -c if odd[p] and odd[j] else c, r)

        leibniz: Dict[Pair, Dict[int, int]] = {}
        dd: Dict[int, Dict[int, int]] = {}
        dcols, _ = _int_columns(self.d)
        for (i, j), row in ints.items():        # d(e_i e_j)
            for m, c in row.items():
                _add_scaled(leibniz, (i, j), c, dcols[m])
        for q, col in enumerate(dcols):
            for p, c in col.items():            # d e_q has c at p
                for j, r in left[p]:            # -(d e_q) e_j
                    _add_scaled(leibniz, (q, j), -c, r)
                for i, r in right[p]:           # -(-1)^{|i|} e_i (d e_q)
                    _add_scaled(leibniz, (i, q), c if odd[i] else -c, r)
                _add_scaled(dd, q, c, dcols[p])

        def messages(axiom: str, keys: List) -> List[str]:
            return ["%s fails on (%s)" % (axiom, ", ".join(space.name(t) for t in key))
                    for key in keys]

        sym_axiom, triple_axiom = (("graded antisymmetry", "graded Jacobi") if lie
                                   else ("graded commutativity", "associativity"))
        return (messages(sym_axiom, symmetry), messages(triple_axiom, sorted(_failing(triples))),
                messages("Leibniz", sorted(_failing(leibniz))),
                ["d∘d != 0"] if _failing(dd) else [])


class NilpotentDgAlgebra(BilinearStructure):
    """Object of the category of nilpotent dg-algebras: the constants are
    the products e_i * e_j."""

    @classmethod
    def trivial(cls, space: GradedSpace, differential: Optional[GradedMap] = None
                ) -> "NilpotentDgAlgebra":
        if differential is None:
            differential = GradedMap.zero(space, space, 1)
        return cls(space, {}, differential)

    def product(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return _bilinear(self, u, v)

    def has_trivial_mult(self) -> bool:
        return not any(self.rows())

    def power_ideal_bases(self) -> List[List[SparseVec]]:
        """Bases of A = A^1 ⊇ A^2 ⊇ ...  down to the first zero power."""
        return [basis for basis, _, _ in self._power_ideals()]

    def _power_ideals(self) -> List[PowerIdeal]:
        """(basis, echelon, scale) for A = A^1 ⊇ A^2 ⊇ ...  down to the first
        zero power.

        The basis of A^(n+1) is the greedy independent subset, in order, of
        the products e_i * w over i and over the basis vectors w of A^n.
        The e_i·w of one w are formed in one pass over w's support through
        the right index, on Python ints over den^n, which the echelon takes
        as they are: its independent vectors are ``scale`` = den^n times
        the basis, whose vectors alone are Fractions.  A's own basis, the
        unit vectors, has no echelon.
        """
        n, scale, right = self.dim, 1, _right_index(self.rows())
        powers: List[PowerIdeal] = [([{i: ONE} for i in range(n)], None, 1)]
        prev: List[Dict[int, int]] = [{i: 1} for i in range(n)]
        while prev:
            # the products e_i·w, gathered by i in the order of the w
            by_i: Dict[int, List[Dict[int, int]]] = {}
            for w in prev:
                acc: Dict[int, Dict[int, int]] = {}
                for j, cw in w.items():
                    for i, row in right[j]:
                        _add_scaled(acc, i, cw, row)
                for i, p in acc.items():
                    by_i.setdefault(i, []).append(p)
            ech, nxt = linalg.Echelon(), []
            for i in sorted(by_i):
                for p in by_i[i]:
                    if ech.add(p):
                        nxt.append(p)
            scale *= self.den
            powers.append(([{k: Fraction(x, scale) for k, x in sorted(p.items()) if x}
                            for p in nxt], ech, scale))
            if len(nxt) == len(prev):
                # not descending: not nilpotent; bail out (validate reports)
                break
            prev = nxt
        return powers

    def nilpotency_index(self) -> Optional[int]:
        """Least n with A^n = 0 (n = 1 for the zero algebra), or None."""
        powers = self.power_ideal_bases()
        if powers[-1]:
            return None
        return len(powers)

    def annihilator_basis(self) -> List[SparseVec]:
        """Basis of Ann(A) = {x : x * A = 0} (two-sided by commutativity):
        the relations among the maps e_i * -, flattened from the integer
        index (their common scale den leaves the relations as they are)."""
        n = self.dim
        return linalg.relations([{j * n + k: c for j, row in row_list for k, c in row.items()}
                                 for row_list in self.rows()])[1]

    def validate(self) -> "ValidationReport":
        """Check graded commutativity, associativity, d∘d = 0, Leibniz and
        nilpotency on the structure constants (``_axiom_errors``).  Failing
        pairs and triples are reported in lexicographic order of their basis
        indices."""
        comm, assoc, leibniz, dd = self._axiom_errors()
        idx = self.nilpotency_index()
        return ValidationReport(comm + assoc + dd + leibniz
                                + (["not nilpotent"] if idx is None else []), idx)

    def __repr__(self):
        return "NilpotentDgAlgebra(dim=%d)" % self.dim


@dataclass
class ValidationReport:
    """The errors found by ``validate()``; ``nilpotency_index`` is None for a
    DGLA and for an algebra that is not nilpotent."""
    errors: List[str]
    nilpotency_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.errors


class DgAlgebraMorphism:
    def __init__(self, source: NilpotentDgAlgebra, target: NilpotentDgAlgebra,
                 map_: GradedMap, check: bool = True):
        if map_.source != source.space or map_.target != target.space or map_.degree != 0:
            raise ValueError("morphism must be a degree-0 map of the right spaces")
        self.source = source
        self.target = target
        self.map = map_
        if check:
            errs = self.violations()
            if errs:
                raise ValueError("not a dg-algebra morphism: " + "; ".join(errs))

    def violations(self) -> List[str]:
        """Where f fails to commute with d or to be multiplicative.

        f∘d - d∘f and f(e_i e_j) - f(e_i) f(e_j) are accumulated sparsely
        on Python ints in one pass, as in ``_axiom_errors``: each structure
        constant of the source is walked through f's columns, and each
        f(e_i) through the target's left index and an index b -> [(j, f_bj)]
        of f's rows, both terms over src.den·tgt.den·(f's denominator)².
        The target's rows are read one at a time, only those of f's image.
        Failing pairs are named in lexicographic order of their basis
        indices.
        """
        errs = []
        src, tgt = self.source, self.target
        cols, df = _int_columns(self.map)
        (sd, dsd), (td, dtd) = _int_columns(src.d), _int_columns(tgt.d)
        chain: Dict[int, Dict[int, int]] = {}
        rows: List[List[Tuple[int, int]]] = [[] for _ in range(tgt.dim)]
        for i, col in enumerate(sd):                    # f(d e_i) - d(f e_i)
            for m, c in col.items():
                _add_scaled(chain, i, c * dtd, cols[m])
        for i, col in enumerate(cols):
            for b, c in col.items():
                _add_scaled(chain, i, -c * dsd, td[b])
                rows[b].append((i, c))
        if _failing(chain):
            errs.append("does not commute with differentials")
        defects: Dict[Pair, Dict[int, int]] = {}
        tgt_left = tgt._left
        for i, row_list in enumerate(src.rows()):       # f(e_i e_j)
            for j, row in row_list:
                for m, c in row.items():
                    _add_scaled(defects, (i, j), c * df * tgt.den, cols[m])
        for i, col in enumerate(cols):                  # -f(e_i) f(e_j)
            for a, fa in col.items():
                for b, prod in tgt_left[a]:
                    for j, fb in rows[b]:
                        _add_scaled(defects, (i, j), -fa * fb * src.den, prod)
        errs.extend("not multiplicative on (%s, %s)" % (src.space.name(i), src.space.name(j))
                    for i, j in sorted(_failing(defects)))
        return errs

    def apply(self, v: SparseVec) -> SparseVec:
        return self.map.apply(v)

    def compose(self, other: "DgAlgebraMorphism") -> "DgAlgebraMorphism":
        return DgAlgebraMorphism(other.source, self.target,
                                 self.map.compose(other.map), check=False)

    def is_surjective(self) -> bool:
        return self.map.rank() == self.target.dim

    @classmethod
    def identity(cls, a: NilpotentDgAlgebra) -> "DgAlgebraMorphism":
        return cls(a, a, GradedMap.identity(a.space), check=False)


def push_blocks(v: SparseVec, n: int, m: int,
                f: Callable[[SparseVec], Optional[SparseVec]]) -> Optional[SparseVec]:
    """(1⊗f)(v) for a vector v of L⊗A, for any L, and f from the vectors
    of A (dim n) to those of A' (dim m), such as a GradedMap: v is read as
    its L-major blocks of dim n, and f sends each block to the block of
    the same basis vector of L in L⊗A'.  None when f gives None on some
    block."""
    blocks: Dict[int, SparseVec] = {}
    for k, c in v.items():
        i, p = divmod(k, n)
        blocks.setdefault(i, {})[p] = c
    out: SparseVec = {}
    for i, block in blocks.items():
        img = f(block)
        if img is None:
            return None
        out.update((i * m + q, c) for q, c in img.items())
    return out


def subalgebra(ambient: NilpotentDgAlgebra, vectors: Sequence[SparseVec],
               names: Optional[Sequence[str]] = None
               ) -> Tuple[NilpotentDgAlgebra, GradedMap]:
    """Sub-dg-algebra spanned by the given (independent, homogeneous,
    multiplicatively and differentially closed) vectors."""
    degs = []
    for v in vectors:
        d = ambient.space.vector_degree(v)
        if d is None:
            raise ValueError("subalgebra basis vectors must be homogeneous")
        degs.append(d)
    if names is None:
        names = ["s%d" % i for i in range(len(vectors))]
    space = GradedSpace(list(zip(names, degs)))
    span = linalg.echelon(vectors)
    mult: Dict[Tuple[int, int], SparseVec] = {}
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            p = ambient.product(u, v)
            row = span.coords(p)
            if row is None:
                raise ValueError("span is not closed under multiplication")
            if row:
                mult[(i, j)] = row
    dcols = [span.coords(ambient.d.apply(u)) for u in vectors]
    if None in dcols:
        raise ValueError("span is not closed under the differential")
    d = GradedMap.from_columns(space, space, 1, dcols)
    incl = GradedMap.from_columns(space, ambient.space, 0, vectors)
    return NilpotentDgAlgebra(space, mult, d), incl


def quotient_algebra(a: NilpotentDgAlgebra, ideal: Sequence[SparseVec]
                     ) -> Tuple[NilpotentDgAlgebra, DgAlgebraMorphism]:
    """Quotient by a d-stable ideal given by spanning vectors.

    One echelon over the ideal's vectors, then the standard basis: the
    basis vectors it keeps span a complement, and a vector's coordinates
    on them are its image in A/J.  The projection is linear, so each basis
    vector is projected once and the quotient's constants and d are read
    off A's integer index (over den) and d's columns.
    """
    span = linalg.echelon(ideal)
    nj = span.count
    compl_idx = [i for i in range(a.dim) if span.add({i: ONE})]
    pos = {i: n for n, i in enumerate(compl_idx)}
    proj = [{pos[t - nj]: c for t, c in span.coords({k: ONE}).items() if t >= nj}
            for k in range(a.dim)]

    def project(v: Dict, den: int = 1) -> SparseVec:
        out: SparseVec = {}
        for k, c in v.items():
            for n, x in proj[k].items():
                out[n] = out.get(n, ZERO) + c * x
        return {n: out[n] / den for n in sorted(out) if out[n]}

    names = [a.space.names[i] for i in compl_idx]
    degs = [a.space.degrees[i] for i in compl_idx]
    space = GradedSpace(list(zip(names, degs)))
    mult = (((pos[i], pos[j]), project(row, a.den)) for i, row_list in enumerate(a.rows())
            if i in pos for j, row in row_list if j in pos)
    d = GradedMap.from_columns(space, space, 1, [project(a.d.column(i)) for i in compl_idx])
    q = NilpotentDgAlgebra(space, mult, d)
    pmap = GradedMap.from_columns(a.space, space, 0, proj)
    return q, DgAlgebraMorphism(a, q, pmap, check=False)


def direct_product(a: NilpotentDgAlgebra, b: NilpotentDgAlgebra,
                   tags: Tuple[str, str] = ("l.", "r.")
                   ) -> Tuple[NilpotentDgAlgebra, GradedMap, GradedMap]:
    """A x B with the two projections (as graded maps)."""
    basis = [(tags[0] + n, d) for n, d in a.space.basis]
    basis += [(tags[1] + n, d) for n, d in b.space.basis]
    space = GradedSpace(basis)
    na = a.dim
    mult: Dict[Tuple[int, int], SparseVec] = {(i, j): row for i, j, row in a.constants()}
    for i, j, row in b.constants():
        mult[(i + na, j + na)] = {k + na: c for k, c in row.items()}
    d = GradedMap.from_columns(space, space, 1, a.d.columns() + [
        {j + na: c for j, c in col.items()} for col in b.d.columns()])
    pa = GradedMap(space, a.space, 0, {(i, i): ONE for i in range(na)})
    pb = GradedMap(space, b.space, 0, {(i, i + na): ONE for i in range(b.dim)})
    return NilpotentDgAlgebra(space, mult, d), pa, pb


@dataclass
class FiberProduct:
    algebra: NilpotentDgAlgebra
    proj_a: DgAlgebraMorphism
    proj_b: DgAlgebraMorphism
    _basis_in_product: List[SparseVec] = field(default_factory=list)
    _alpha: Optional[DgAlgebraMorphism] = None
    _beta: Optional[DgAlgebraMorphism] = None

    def mediate(self, f: DgAlgebraMorphism, g: DgAlgebraMorphism) -> DgAlgebraMorphism:
        """Unique morphism D -> A x_C B with proj_a ∘ m = f, proj_b ∘ m = g."""
        if self._alpha is not None:
            lhs = self._alpha.map.compose(f.map)
            rhs = self._beta.map.compose(g.map)
            if lhs != rhs:
                raise ValueError("cone condition alpha∘f = beta∘g fails")
        src = f.source
        span = linalg.echelon(self._basis_in_product)
        na = f.target.dim
        cols = [span.coords({**f.map.column(i), **{na + j: c for j, c in g.map.column(i).items()}})
                for i in range(src.dim)]
        if None in cols:
            raise ValueError("image does not land in the fiber product")
        m = GradedMap.from_columns(src.space, self.algebra.space, 0, cols)
        return DgAlgebraMorphism(src, self.algebra, m, check=False)


def fiber_product(alpha: DgAlgebraMorphism, beta: DgAlgebraMorphism) -> FiberProduct:
    """A x_C B = {(a,b) : alpha(a) = beta(b)} inside A x B."""
    if alpha.target is not beta.target and alpha.target.space != beta.target.space:
        raise ValueError("fiber product needs a shared target")
    a, b = alpha.source, beta.source
    prod, pa, pb = direct_product(a, b)
    # kernel of (alpha - beta) on A + B
    kern = linalg.relations(alpha.map.columns() + (-beta.map).columns())[1]
    # pick a homogeneous kernel basis: split each vector by degree
    homog: List[SparseVec] = []
    for rel in kern:
        homog.extend(prod.space.homogeneous_components(rel).values())
    chosen = linalg.independent_subset(homog)
    basis = [homog[c] for c in chosen]
    sub, incl = subalgebra(prod, basis, names=["fp%d" % i for i in range(len(basis))])
    proj_a = DgAlgebraMorphism(sub, a, pa.compose(incl), check=False)
    proj_b = DgAlgebraMorphism(sub, b, pb.compose(incl), check=False)
    return FiberProduct(sub, proj_a, proj_b, basis, alpha, beta)


@dataclass
class SmallExtension:
    """0 -> I -> A -> B -> 0 with I² = 0, which ``validate()`` checks.
    A·I = 0 (strictly small) is a property that ``is_strictly_small()``
    tests."""
    i_complex: Complex
    a: NilpotentDgAlgebra
    b: NilpotentDgAlgebra
    iota: GradedMap               # I -> A, degree-0 chain map
    alpha: DgAlgebraMorphism      # A -> B, surjective

    def validate(self) -> List[str]:
        errs = []
        if self.iota.compose(self.i_complex.d) != self.a.d.compose(self.iota):
            errs.append("iota is not a chain map")
        if len(self._iota_echelon.independent) != self.i_complex.space.dim:
            errs.append("iota is not injective")
        if len(self._alpha_echelon.independent) != self.b.dim:
            errs.append("alpha is not surjective")
        if not self.alpha.map.compose(self.iota).is_zero():
            errs.append("alpha ∘ iota != 0")
        if self.a.dim != self.b.dim + self.i_complex.space.dim:
            errs.append("dimensions inconsistent with exactness")
        errs.extend(self.alpha.violations())
        img, _ = _int_columns(self.iota)
        for x in img:
            if any(any(self.a._int_product(x, y).values()) for y in img):
                errs.append("kernel is not square-zero")
        return errs

    def is_strictly_small(self) -> bool:
        """A·I = 0: every basis element of A with a nonzero product kills
        the image of I."""
        img, _ = _int_columns(self.iota)
        return not any(any(self.a._int_product({i: 1}, x).values())
                       for i, rows in enumerate(self.a.rows()) if rows for x in img)

    def is_acyclic(self) -> bool:
        return cohomology(self.i_complex).total_dim() == 0

    # the echelons over ι's and α's columns answer injectivity, surjectivity,
    # kernel coordinates and the section; ``kernel_extension`` hands over
    # the ones it built
    @cached_property
    def _iota_echelon(self) -> linalg.Echelon:
        return linalg.echelon(self.iota.columns())

    def kernel_coords(self, v: SparseVec) -> Optional[SparseVec]:
        """The coordinates in I of a vector of A, or None off ι(I).

        A vector of L⊗A for any L is read as its L-major blocks of dim A,
        and the result is the matching vector of L⊗I, or None when some
        block is off ι(I).  ι is injective, so the coordinates are unique.
        """
        return push_blocks(v, self.a.dim, self.i_complex.space.dim, self._iota_echelon.coords)

    @cached_property
    def _alpha_echelon(self) -> linalg.Echelon:
        return linalg.echelon(self.alpha.map.columns())

    def section(self) -> GradedMap:
        """A set-linear degree-0 section of alpha (not a morphism).

        Column j is the preimage of e_j with zeros off the greedy
        independent columns of alpha, read from one echelon over alpha's
        columns that is built once per extension.
        """
        cols = []
        for j in range(self.b.dim):
            pre = self._alpha_echelon.coords({j: ONE})
            if pre is None:
                raise ValueError("alpha is not surjective")
            cols.append(pre)
        return GradedMap.from_columns(self.b.space, self.a.space, 0, cols)


def kernel_extension(alpha: DgAlgebraMorphism) -> SmallExtension:
    """Package a surjection with small kernel as a SmallExtension.

    One echelon over α's columns gives the kernel basis: α has degree 0,
    so each relation among its columns is homogeneous.  The echelon over
    that basis checks that the kernel is d-stable and reads d_I; both
    echelons are kept for ``validate()``, ``section()`` and
    ``kernel_coords``.
    """
    alpha_ech, basis = linalg.relations(alpha.map.columns())
    degs = [alpha.source.space.vector_degree(v) for v in basis]
    ispace = GradedSpace([("i%d" % k, d) for k, d in enumerate(degs)])
    span = linalg.echelon(basis)
    dcols = [span.coords(alpha.source.d.apply(v)) for v in basis]
    if None in dcols:
        raise ValueError("kernel is not stable under the differential")
    di = GradedMap.from_columns(ispace, ispace, 1, dcols)
    iota = GradedMap.from_columns(ispace, alpha.source.space, 0, basis)
    e = SmallExtension(Complex(ispace, di), alpha.source, alpha.target, iota, alpha)
    e._alpha_echelon, e._iota_echelon = alpha_ech, span
    return e


def factor_into_small_extensions(alpha: DgAlgebraMorphism) -> List[SmallExtension]:
    """Factor a surjection A -> B into small extensions.

    At each step the kernel is cut down by J = ker ∩ Ann(A), which is
    automatically square-zero, annihilated by A and differential-stable;
    quotient by J and repeat until the induced map is injective.

    When the map is zero, as on every stage of a chain A -> 0, the kernel
    is all of A and J = Ann(A): the kernel basis would be the standard
    basis, and intersecting its span with Ann's would hand back Ann's own
    basis vectors, in their order and with their entries, so neither is
    computed.
    """
    if not alpha.is_surjective():
        raise ValueError("morphism is not surjective")
    chain: List[SmallExtension] = []
    current = alpha
    while True:
        if current.map.is_zero():
            if not current.source.dim:
                break
            inter = current.source.annihilator_basis()
        else:
            kern = current.map.kernel_basis()
            if not kern:
                break
            inter = _intersect_spans(kern, current.source.annihilator_basis())
        if not inter:
            raise CertificateError("ker ∩ Ann is zero, which nilpotency excludes")
        homog: List[SparseVec] = []
        for v in inter:
            homog.extend(current.source.space.homogeneous_components(v).values())
        keep = linalg.independent_subset(homog)
        q, proj = quotient_algebra(current.source, [homog[k] for k in keep])
        # the kernel of proj is J, so this checks that J is d-stable
        try:
            chain.append(kernel_extension(proj))
        except ValueError as exc:
            raise CertificateError("ker ∩ Ann: %s" % exc) from exc
        # induced morphism q -> B on the quotient, through the stage's section
        newmap = current.map.compose(chain[-1].section())
        current = DgAlgebraMorphism(q, current.target, newmap, check=False)
    return chain


def _intersect_spans(u: Sequence[SparseVec], w: Sequence[SparseVec]) -> List[SparseVec]:
    if not u or not w:
        return []
    out = []
    for sol in linalg.relations(list(u) + [{k: -x for k, x in v.items()} for v in w])[1]:
        vec: SparseVec = {}
        for c, x in sol.items():
            if c < len(u):
                linalg.add_into(vec, u[c], x)
        if vec:
            out.append(vec)
    keep = linalg.independent_subset(out)
    return [out[k] for k in keep]


# ---------------------------------------------------------------------------
# mapping cone
# ---------------------------------------------------------------------------

@dataclass
class MappingCone:
    algebra: NilpotentDgAlgebra
    include: DgAlgebraMorphism        # A -> C
    project: GradedMap                # C -> M[1] (a derivation over A)
    module_space: GradedSpace         # M[1]
    module_vectors: List[SparseVec]   # basis of M inside A


def mapping_cone(a: NilpotentDgAlgebra, module_vectors: Sequence[SparseVec]) -> MappingCone:
    """Cone C = A ⊕ M[1] of the inclusion of a square-zero ideal M ⊆ A.

    Product (x, m)(y, n) = (xy, xn + my) with the shifted module structure;
    differential (x, m) ↦ (dx + m, -d²x - dm) in shifted coordinates.  The
    -d² block is zero when d_A² = 0; otherwise it makes C's differential
    square to zero, and it raises ValueError when d²(A) leaves M.
    """
    mv = [dict(v) for v in module_vectors]
    for u in mv:
        for w in mv:
            if a.product(u, w):
                raise ValueError("module must satisfy M·M = 0")
    degs = []
    for v in mv:
        dg = a.space.vector_degree(v)
        if dg is None:
            raise ValueError("module basis must be homogeneous")
        degs.append(dg)
    na = a.dim
    basis = [("a." + n, d) for n, d in a.space.basis]
    basis += [("m%d" % k, dg - 1) for k, dg in enumerate(degs)]
    space = GradedSpace(basis)
    mod_space = GradedSpace([("m%d" % k, dg - 1) for k, dg in enumerate(degs)])

    span = linalg.echelon(mv)

    def mcoords(v: SparseVec) -> SparseVec:
        coords = span.coords(v)
        if coords is None:
            raise ValueError("module is not an ideal (product escapes the span)")
        return coords

    mult: Dict[Tuple[int, int], SparseVec] = {(i, j): row for i, j, row in a.constants()}
    for i in range(na):
        ei = {i: ONE}
        sgn = Fraction(-1 if a.space.degrees[i] % 2 else 1)
        for k, w in enumerate(mv):
            # e_i · m_k = (-1)^{deg e_i} (e_i w)[1]
            p = a.product(ei, w)
            if p:
                mult[(i, na + k)] = {na + t: sgn * c for t, c in mcoords(p).items()}
            # m_k · e_i = (w e_i)[1]
            q = a.product(w, ei)
            if q:
                mult[(na + k, i)] = {na + t: c for t, c in mcoords(q).items()}
    cols = []
    dd = a.d.compose(a.d)
    for i, col in enumerate(a.d.columns()):
        coords = span.coords(dd.column(i))
        if coords is None:
            raise ValueError("d² does not map A into the module")
        cols.append({**col, **{na + t: -c for t, c in coords.items()}})
    for w in mv:        # w is the inclusion component f: M[1] -> A[1]
        cols.append({**w, **{na + t: -c for t, c in mcoords(a.d.apply(w)).items()}})
    cone = NilpotentDgAlgebra(space, mult, GradedMap.from_columns(space, space, 1, cols))
    incl = DgAlgebraMorphism(a, cone, GradedMap(a.space, space, 0,
                             {(i, i): ONE for i in range(na)}), check=False)
    proj = GradedMap(space, mod_space, 0,
                     {(k, na + k): ONE for k in range(len(mv))})
    return MappingCone(cone, incl, proj, mod_space, mv)


# ---------------------------------------------------------------------------
# A[t, dt]_eps and homotopies
# ---------------------------------------------------------------------------

class _PowerBasis:
    """A basis b_k of a power ideal of A on ints (``vecs[k]`` = den·b_k, and
    the column index j -> [(k, vecs[k][j])]) with its coordinate map: the
    entries at the pivot columns times ``inv`` over ``q``, read off the
    echelon that found the basis among the products (``_power_ideals``),
    checked by forming the vector back.  A's own basis, the unit vectors,
    has the identity for its map."""

    def __init__(self, vectors: List[SparseVec], ech: Optional[linalg.Echelon], scale: int,
                 dim: int):
        self.den = lcm(*(c.denominator for v in vectors for c in v.values()))
        self.vecs = [{j: c.numerator * (self.den // c.denominator) for j, c in v.items()}
                     for v in vectors]
        self.index: List[List[Tuple[int, int]]] = [[] for _ in range(dim)]
        for k, v in enumerate(self.vecs):
            for j, x in v.items():
                self.index[j].append((k, x))
        if ech is None:
            self.inv, self.q = {i: {i: 1} for i in range(dim)}, 1
            return
        # the echelon's independent vectors are scale·b_k, at the positions
        # ech.independent among all the vectors added to it
        inv, q = ech.pivot_inverse()
        at = {t: k for k, t in enumerate(ech.independent)}
        g = gcd(q, scale)
        self.inv = {p: {at[t]: x * (scale // g) for t, x in row.items()}
                    for p, row in inv.items()}
        self.q = q // g

    def coords(self, w: Dict[int, int]) -> Dict[int, int]:
        """q times the coordinates of w (on ints) in the b_k, the nonzero
        ones in the order of k; CertificateError off their span."""
        x: Dict[int, int] = {}
        for t, c in w.items():
            for k, z in self.inv.get(t, {}).items():
                x[k] = x.get(k, 0) + c * z
        back = {t: self.den * self.q * c for t, c in w.items()}
        for k, c in x.items():
            for t, n in self.vecs[k].items():
                back[t] = back.get(t, 0) - c * n
        if any(back.values()):
            raise CertificateError("coefficient escapes its power ideal")
        return {k: x[k] for k in sorted(x) if x[k]}


def _products_with(a: NilpotentDgAlgebra, u: Dict[int, int],
                   index: List[List[Tuple[int, int]]]) -> List[Tuple[int, Dict[int, int]]]:
    """(k, u·v_k) on ints over D_u·D_v·A.den, in the order of k, for the
    vectors v_k (over D_v) of a column index that meet some e_j with e_i e_j
    ≠ 0 for an e_i in u's support (over D_u): only those products are
    formed, through A's integer index.  Entries that cancel are dropped,
    and so is a product that cancels to zero."""
    acc: Dict[int, Dict[int, int]] = {}
    for i, cu in u.items():
        for j, row in a._left[i]:
            for k, cv in index[j]:
                _add_scaled(acc, k, cu * cv, row)
    return [(k, w) for k in sorted(acc) for w in [{t: x for t, x in acc[k].items() if x}] if w]


def _ceil_frac(n: int, eps: Fraction) -> int:
    num, den = (n * eps.numerator), eps.denominator
    return -((-num) // den)


class DeRhamAlgebra:
    """A[t,dt]_eps = A ⊕ ⊕_{n>0} A^{⌈n·eps⌉} ⊗ (K tⁿ ⊕ K tⁿ⁻¹dt).

    Exactly finite-dimensional: summands with ⌈n·eps⌉ at or above the
    nilpotency index of A vanish, so the t-degree cap is computed, never
    guessed.  The basis, d and the products past the cap, which must
    vanish, are formed at construction.  The integer index is a view of
    A's, on ints, through each power ideal's coordinate map
    (``_PowerBasis``): a product row is built when it is first read, and a
    walk over every row (``rows()``) builds the rest in one pass.
    """

    def __init__(self, a: NilpotentDgAlgebra, eps: Fraction):
        eps = linalg.frac(eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        self.base = a
        self.eps = eps
        ideals = a._power_ideals()
        nil = len(ideals)  # A^nil = 0
        if ideals[-1][0]:
            raise ValueError("base algebra is not nilpotent")
        n_max = 0
        while _ceil_frac(n_max + 1, eps) < nil:
            n_max += 1
        self.t_cap = n_max

        # blocks: (t-power n, is_dt, p), holding the basis of A^(p+1); block
        # 0 holds the basis of A itself
        blocks = [(0, False, 0)]
        for n in range(1, n_max + 1):
            p = _ceil_frac(n, eps) - 1
            blocks += [(n, False, p), (n, True, p)]
        bases = {p: _PowerBasis(*ideals[p], a.dim)
                 for p in dict.fromkeys(p for _, _, p in blocks)}
        degs = {p: [a.space.vector_degree(v) for v in ideals[p][0]] for p in bases}
        powers = {p: ideals[p][0] for p in bases}
        del ideals          # the echelons are not kept

        # a product past the cap lies in A^i·A^j with i + j >= nil, which
        # is 0 in a nilpotent algebra; for the power i of a t-block, the
        # least power j whose t-blocks reach past the cap with it covers the
        # larger ones, as the powers descend
        last = {p: n for n, _, p in blocks[1:]}     # the largest t-power holding A^(p+1)
        for p1, n1 in last.items():
            p2 = min((p for p, n in last.items() if n1 + n > n_max), default=None)
            if p2 is not None and any(_products_with(a, u, bases[p2].index)
                                      for u in bases[p1].vecs):
                raise CertificateError("nonzero coefficient beyond the exact t-cap")

        basis = []
        self._elems: List[Tuple[int, bool, SparseVec]] = []
        # (t-power, is_dt) -> (offset, the power basis of the block's A-vectors)
        self._block_pos: Dict[Tuple[int, bool], Tuple[int, _PowerBasis]] = {}
        for n, is_dt, p in blocks:
            self._block_pos[(n, is_dt)] = (len(basis), bases[p])
            for k, v in enumerate(powers[p]):
                suffix = "" if n == 0 else ("*t%d" % n if not is_dt
                                            else ("*dt" if n == 1 else "*t%ddt" % (n - 1)))
                nm = ("p%d_%d%s" % (n, k, suffix)) if n else a.space.names[k]
                basis.append((nm, degs[p][k] + (1 if is_dt else 0)))
                self._elems.append((n, is_dt, v))
        space = GradedSpace(basis)

        # d(v ⊗ tⁿ) = dv ⊗ tⁿ ± n v ⊗ tⁿ⁻¹dt: dv is read once per power
        # ideal, and v is the k-th basis vector of its own block
        dvs: Dict[Pair, List[Tuple[int, Fraction]]] = {}
        dcols: List[SparseVec] = []
        for n, is_dt, p in blocks:
            off, pb = self._block_pos[(n, is_dt)]
            for k, v in enumerate(powers[p]):
                if (p, k) not in dvs:
                    dv, dd = linalg.numerators(a.d.apply(v))
                    dvs[(p, k)] = [(t, Fraction(x, pb.q * dd)) for t, x in pb.coords(dv).items()]
                col = {off + t: x for t, x in dvs[(p, k)]}
                if not is_dt and n > 0:
                    # the dt block follows the t block, so the column stays in order
                    col[self._block_pos[(n, True)][0] + k] = Fraction(-n if degs[p][k] % 2 else n)
                dcols.append(col)
        self.algebra = NilpotentDgAlgebra(space, (), GradedMap.from_columns(space, space, 1, dcols))

        # (v ⊗ t^n1 (dt)) · (w ⊗ t^n2 (dt)) = ±(v·w) ⊗ t^(n1+n2) (dt), with
        # the sign (-1)^|w| when dt passes w.  Each product of two
        # power-basis vectors that can be nonzero is formed once, when a row
        # of its left factor is first read, and solved once per power ideal
        # it lands in, over q·D_1·D_2·A.den; the rows are over the common
        # multiple m of those.  The rows do not refer back to this object,
        # so it is freed as soon as it is not read, with no cycle to collect.
        block_pos = self._block_pos
        block_power = {(n, is_dt): p for n, is_dt, p in blocks}
        starts = [block_pos[(n, is_dt)][0] for n, is_dt, _ in blocks]
        m = lcm(*(b.q for b in bases.values())) * a.den \
            * lcm(*(b.den for b in bases.values())) ** 2
        formed: Dict[Triple, Row] = {}
        solved: Dict[Tuple, Dict[int, int]] = {}

        def row(i: int) -> Row:
            b = bisect_right(starts, i) - 1
            n1, dt1, p1 = blocks[b]
            k1 = i - starts[b]
            out = []
            for (n2, dt2, p2), off2 in zip(blocks, starts):
                tgt = (n1 + n2, dt1 or dt2)
                if (dt1 and dt2) or tgt not in block_power:     # dt² = 0; past the cap
                    continue
                if (p1, k1, p2) not in formed:
                    formed[(p1, k1, p2)] = _products_with(a, bases[p1].vecs[k1], bases[p2].index)
                off, pb = block_pos[tgt]
                scale = m // (pb.q * bases[p1].den * bases[p2].den * a.den)
                for k2, w in formed[(p1, k1, p2)]:
                    key = (p1, k1, p2, k2, block_power[tgt])
                    if key not in solved:
                        solved[key] = pb.coords(w)
                    c = -scale if dt1 and degs[p2][k2] % 2 else scale
                    out.append((off2 + k2, {off + k: c * x for k, x in solved[key].items()}))
            return out
        self.algebra.den, self.algebra._left = m, _LazyRows(space.dim, row)
        self.include = DgAlgebraMorphism(
            a, self.algebra,
            GradedMap(a.space, space, 0, {(i, i): ONE for i in range(a.dim)}),
            check=False)

    def element(self, n: int, is_dt: bool, vec: SparseVec) -> SparseVec:
        """vec ⊗ tⁿ, or vec ⊗ tⁿ⁻¹dt, in this algebra's basis, for a
        vector of A in the block's power ideal."""
        if (n, is_dt) not in self._block_pos:
            raise CertificateError("nonzero coefficient beyond the exact t-cap")
        off, pb = self._block_pos[(n, is_dt)]
        nums, den = linalg.numerators(vec)
        return {off + k: Fraction(x, pb.q * den) for k, x in pb.coords(nums).items()}

    def evaluate(self, s) -> DgAlgebraMorphism:
        """Evaluation morphism e_s: t ↦ s, dt ↦ 0, read off each block
        vector's support."""
        s = linalg.frac(s)
        cols: Dict[int, SparseVec] = {}
        for (n, is_dt), (off, pb) in self._block_pos.items():
            c = s ** n
            for k, v in enumerate(pb.vecs if c and not is_dt else ()):
                cols[off + k] = {j: c * Fraction(x, pb.den) for j, x in v.items()}
        m = GradedMap.from_columns(self.algebra.space, self.base.space, 0, cols)
        return DgAlgebraMorphism(self.algebra, self.base, m, check=False)


def de_rham_truncation(a: NilpotentDgAlgebra, epsilon) -> DeRhamAlgebra:
    return DeRhamAlgebra(a, linalg.frac(epsilon))


@dataclass
class Homotopy:
    """A morphism H: source -> target[t,dt]_eps witnessing f ~ g."""
    source: NilpotentDgAlgebra
    target: NilpotentDgAlgebra
    derham: DeRhamAlgebra
    h: GradedMap       # source.space -> derham.algebra.space

    def as_morphism(self) -> DgAlgebraMorphism:
        return DgAlgebraMorphism(self.source, self.derham.algebra, self.h)

    def endpoint(self, s) -> GradedMap:
        return self.derham.evaluate(s).map.compose(self.h)


def check_homotopy(h: Homotopy, f: DgAlgebraMorphism, g: DgAlgebraMorphism) -> bool:
    """True iff H is a dg-algebra morphism with e₀∘H = f and e₁∘H = g."""
    try:
        h.as_morphism()
    except ValueError:
        return False
    return h.endpoint(0) == f.map and h.endpoint(1) == g.map


def constant_homotopy(f: DgAlgebraMorphism) -> Homotopy:
    dr = de_rham_truncation(f.target, 1)
    return Homotopy(f.source, f.target, dr, dr.include.map.compose(f.map))

