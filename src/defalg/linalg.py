"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are lists; every entry a routine
takes or returns is a ``fractions.Fraction``.  All routines are exact:
there is no floating-point mode anywhere in the package.  ``Echelon`` is
the one elimination engine: an incremental sparse echelon form, its rows
stored as Python ints over a row denominator.  Vectors are added one at a
time, each is reduced against the rows stored so far, and the form answers
independence and span coordinates without refactoring.  ``rank``,
``solve``, ``solve_in_span``, ``nullspace``, ``invert``, ``relations`` and
``independent_subset`` are views of it; each answers
what reduced row echelon form would (the greedy independent vectors as
pivots, zeros off them).  Pivots are chosen by a smallest-denominator
heuristic to limit coefficient growth; no result depends on the choice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = List[Fraction]
Matrix = List[List[Fraction]]
SparseVec = Dict[int, Fraction]


class CertificateError(Exception):
    """An exact certificate that the program computes and checks itself
    failed: a defect in the program, not in its input.  Raised explicitly,
    so the check also runs under ``python -O``."""


def frac(x) -> Fraction:
    """Coerce ints / strings like ``-3/7`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def zeros(m: int, n: int) -> Matrix:
    return [[ZERO] * n for _ in range(m)]


def zero_vector(n: int) -> Vector:
    return [ZERO] * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return [c * a for a in v]


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class Echelon:
    """Incremental sparse row echelon form of the vectors added so far.

    Vectors are dense sequences or sparse ``{index: Fraction}`` dicts.  The
    stored rows are the added vectors that were independent of the ones
    before them, reduced: each row has a 1 at its pivot column and a 0 at
    the pivot columns of the rows stored before it, so one pass over the
    rows in order reduces a vector.  Each row also keeps its expression in
    the added vectors, which gives span coordinates.

    A row is stored on Python ints as ``(pivot, {col: int}, den, {vector:
    int}, e)``: the reduced row is the first dict over ``den``, which is
    its pivot entry, and its expression is the second dict over ``e``.
    Each is divided by the gcd of its ints, so the form is unique.
    """

    def __init__(self):
        self.count = 0        # vectors added, dependent ones included
        self.independent: List[int] = []    # the added vectors that were independent
        self._rows: List[Tuple[int, Dict[int, int], int, Dict[int, int], int]] = []

    def _reduce(self, v: Union[SparseVec, Sequence[Fraction]]
                ) -> Tuple[Dict[int, int], List[Tuple[int, int, int]], int]:
        """The residual of v after elimination as ints over a denominator,
        the (row, c, D) triples subtracted and that denominator:
        v = residual / den + sum of c / D * row."""
        src = [(j, x) for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x]
        den = lcm(*(x.denominator for _, x in src))
        r = {j: x.numerator * (den // x.denominator) for j, x in src}
        used = []
        for k, (p, row, d, _, _) in enumerate(self._rows):
            c = r.get(p)
            if not c:
                continue
            used.append((k, c, den))
            if d != 1:              # r * (d / g) - (c / g) * row stays on ints
                g = gcd(c, d)
                if g != d:
                    s = d // g
                    den *= s
                    for j in r:
                        r[j] *= s
                c //= g
            for j, x in row.items():
                y = r.get(j, 0) - c * x
                if y:
                    r[j] = y
                else:
                    del r[j]
        return r, used, den

    def _sum(self, used: List[Tuple[int, int, int]]) -> Tuple[Dict[int, int], int]:
        """The sum of c / D times the rows' expressions, as ints over one
        denominator (the last D is a multiple of the ones before it)."""
        big = used[-1][2] if used else 1
        den = lcm(*(self._rows[k][4] for k, _, _ in used))
        acc: Dict[int, int] = {}
        for k, c, d in used:
            _, _, _, expr, e = self._rows[k]
            m = c * (big // d) * (den // e)
            for t, x in expr.items():
                acc[t] = acc.get(t, 0) + m * x
        return acc, big * den

    def _combine(self, used: List[Tuple[int, int, int]], n: int, sign: int = 1) -> Vector:
        """The n coordinates, in the added vectors, of sign times the sum of
        c / D * row; a Fraction is built only for a nonzero one."""
        acc, den = self._sum(used)
        out = [ZERO] * n
        for t, x in acc.items():
            if x:
                out[t] = Fraction(sign * x, den)
        return out

    def _add(self, v: Union[SparseVec, Sequence[Fraction]]
             ) -> Optional[List[Tuple[int, int, int]]]:
        """Add v.  None when v is independent of the vectors added before
        it; otherwise the (row, c, D) triples that express it in them."""
        r, used, den = self._reduce(v)
        idx = self.count
        self.count += 1
        if not r:
            return used
        self.independent.append(idx)

        def key(j):     # (denominator, |numerator|, column) of r[j] / den
            g = gcd(r[j], den)
            return den // g, abs(r[j]) // g, j
        p = min(r, key=key)
        c = r[p]
        g = gcd(*r.values()) * (1 if c > 0 else -1)
        row = {j: x // g for j, x in r.items()}
        # the expression is (e_idx - acc / m) * den / c
        acc, m = self._sum(used)
        expr = {t: -x * den for t, x in acc.items() if x}
        expr[idx] = m * den
        e = m * c
        h = gcd(e, *expr.values()) * (1 if e > 0 else -1)
        self._rows.append((p, row, row[p], {t: x // h for t, x in expr.items()}, e // h))
        return None

    def add(self, v: Union[SparseVec, Sequence[Fraction]]) -> bool:
        """Add v; True iff it is independent of the vectors added before."""
        return self._add(v) is None

    def coords(self, v: Union[SparseVec, Sequence[Fraction]]) -> Optional[Vector]:
        """Coordinates of v in the added vectors, or None outside their span.

        Vectors that were dependent when added get coordinate 0: this is
        the solution that reduced row echelon form gives, with zeros off
        the greedy independent vectors.
        """
        r, used, _ = self._reduce(v)
        return None if r else self._combine(used, self.count)

    def pivot_inverse(self) -> Tuple[Dict[int, Dict[int, int]], int]:
        """(inv, q): for w in the span of the added vectors, q times its
        coordinates in them is the sum of w_p·inv[p] over the pivots p.
        Reducing the unit vector at p reads only the pivot columns, so it
        gives the vector of the span that is 1 at p and 0 at the others."""
        sums = {p: self._sum(self._reduce({p: ONE})[1]) for p, *_ in self._rows}
        q = lcm(*(d for _, d in sums.values()))
        return {p: {t: x * (q // d) for t, x in acc.items() if x}
                for p, (acc, d) in sums.items()}, q

    def relations_of(self, vectors: Sequence[Union[SparseVec, Sequence[Fraction]]]
                     ) -> List[Vector]:
        """The relations among ``vectors``, which must be the vectors added,
        in order: what ``relations`` gives, built after the fact.

        A dependent vector reduces to zero on the rows stored before it, so
        reducing it again on all rows takes the same steps as when it was
        added and gives the same coordinates.
        """
        independent = set(self.independent)
        out: List[Vector] = []
        for f, v in enumerate(vectors):
            if f not in independent:
                rel = self._combine(self._reduce(v)[1], self.count, -1)
                rel[f] = ONE
                out.append(rel)
        return out


def echelon(vectors: Iterable[Union[SparseVec, Sequence[Fraction]]]) -> Echelon:
    """One ``Echelon`` over the vectors, added in order."""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech


def relations(vectors: Sequence[Union[SparseVec, Sequence[Fraction]]]
              ) -> Tuple[Echelon, List[Vector]]:
    """The echelon over the vectors, and the relations among them.

    For each vector f that depends on the ones before it, in order, the
    relation is e_f minus f's coordinates in them.  This is the null basis
    of the matrix with these columns that its reduced row echelon form
    gives: the pivots are the greedy independent columns, and column f of
    the reduced form holds f's coordinates on them.
    """
    ech = Echelon()
    out: List[Vector] = []
    for f, v in enumerate(vectors):
        used = ech._add(v)
        if used is not None:
            rel = ech._combine(used, len(vectors), -1)
            rel[f] = ONE
            out.append(rel)
    return ech, out


def _columns(a: Matrix) -> List[SparseVec]:
    return [{i: row[j] for i, row in enumerate(a) if row[j]}
            for j in range(len(a[0]) if a else 0)]


def rank(a: Matrix) -> int:
    """The number of independent rows."""
    return len(independent_subset(a))


def nullspace(a: Matrix) -> List[Vector]:
    """Basis of the right null space of ``a`` (n-vectors with A v = 0)."""
    return relations(_columns(a))[1]


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One solution of A x = b, zero off the greedy independent columns,
    or None if inconsistent."""
    return solve_in_span(_columns(a), b)


def solve_in_span(vectors: Sequence[Union[SparseVec, Sequence[Fraction]]],
                  v: Sequence[Fraction]) -> Optional[Vector]:
    """Coordinates c of v in the span of the vectors (sum c_i vectors_i = v),
    zero off the greedy independent vectors, or None."""
    return echelon(vectors).coords(v)


def independent_subset(vectors: Sequence[Union[SparseVec, Sequence[Fraction]]]) -> List[int]:
    """Indices of a maximal linearly independent subset (greedy, in order)."""
    return echelon(vectors).independent


def invert(a: Matrix) -> Matrix:
    """The inverse of a square matrix; ValueError if it has none."""
    ech, rels = relations(_columns(a))
    cols = [ech.coords({k: ONE}) for k in range(len(a))]
    if rels or None in cols:
        raise ValueError("matrix is not invertible")
    return [[c[i] for c in cols] for i in range(ech.count)]
