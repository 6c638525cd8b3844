"""Exact linear algebra over the rationals.

A vector is a ``SparseVec``, a dict ``{index: Fraction}`` that never holds
a zero value; the coordinates of a vector in the vectors added to an
``Echelon`` are a ``SparseVec`` too, keyed by the position of each added
vector, in increasing order.  All routines are exact: there is no
floating-point mode anywhere in the package.  ``Echelon`` is the one
elimination engine: an incremental sparse echelon form, its rows stored as
Python ints over a row denominator.  Vectors are added one at a time, each
is reduced against the rows stored so far, and the form answers
independence and span coordinates without refactoring.
``echelon``, ``relations``, ``solve_in_span``, ``nullspace``, ``invert``
and ``independent_subset`` are views of it; each answers what reduced row
echelon form would (the greedy independent vectors as pivots, zeros off
them).  Pivots are chosen by a smallest-denominator heuristic to limit
coefficient growth; no result depends on the choice.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)

SparseVec = Dict[int, Fraction]    # a vector or its coordinates: no zero value


class CertificateError(Exception):
    """An exact certificate that the program computes and checks itself
    failed: a defect in the program, not in its input.  Raised explicitly,
    so the check also runs under ``python -O``."""


def frac(x) -> Fraction:
    """Coerce ints / strings like ``-3/7`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def numerators(v: SparseVec) -> Tuple[Dict[int, int], int]:
    """The nonzero entries of v as Python-int numerators over the lcm of
    their denominators, and that lcm."""
    den = lcm(*(c.denominator for c in v.values() if c))
    return {k: c.numerator * (den // c.denominator) for k, c in v.items() if c}, den


def add_into(acc: SparseVec, v: SparseVec, c: Fraction = ONE) -> SparseVec:
    """acc += c·v in place, dropping the entries that cancel; returns acc."""
    for k, x in v.items():
        y = acc.get(k, ZERO) + c * x
        if y:
            acc[k] = y
        else:
            acc.pop(k, None)
    return acc


class Echelon:
    """Incremental sparse row echelon form of the vectors added so far.

    Vectors are ``SparseVec`` dicts.  The stored rows are the added vectors
    that were independent of the ones before them, reduced: each row has a
    1 at its pivot column and a 0 at the pivot columns of the rows stored
    before it, so one pass over the rows in order reduces a vector.  Each
    row also keeps its expression in the added vectors, which gives span
    coordinates.

    A row is stored on Python ints as ``(pivot, {col: int}, den, {vector:
    int}, e)``: the reduced row is the first dict over ``den``, which is
    its pivot entry, and its expression is the second dict over ``e``.
    Each is divided by the gcd of its ints, so the form is unique.

    A row has zeros at the pivots of the rows before it, so subtracting
    row k changes the residual only at the pivots of later rows.  The
    rows to subtract are therefore found through the pivot -> row index
    ``_pivot_row``, smallest row first: the rows whose pivots the vector
    meets, and those whose pivots a subtraction creates.  They are the
    rows, in the order, that a pass over every row would subtract.
    """

    def __init__(self):
        self.count = 0        # vectors added, dependent ones included
        self.independent: List[int] = []    # the added vectors that were independent
        self._rows: List[Tuple[int, Dict[int, int], int, Dict[int, int], int]] = []
        self._pivot_row: Dict[int, int] = {}

    def _reduce(self, v: SparseVec) -> Tuple[Dict[int, int], List[Tuple[int, int, int]], int]:
        """The residual of v after elimination as ints over a denominator,
        the (row, c, D) triples subtracted and that denominator:
        v = residual / den + sum of c / D * row."""
        r, den = numerators(v)
        used = []
        pivot_row, rows = self._pivot_row, self._rows
        todo = [pivot_row[j] for j in r if j in pivot_row] if pivot_row else []
        heapify(todo)
        while todo:
            k = heappop(todo)
            p, row, d, _, _ = rows[k]
            c = r.get(p)
            if not c:               # cancelled, or a duplicate of a row done
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
                y = r.get(j)
                if y is None:       # a new entry, maybe at a later row's pivot
                    r[j] = -c * x
                    t = pivot_row.get(j)
                    if t is not None:
                        heappush(todo, t)
                else:
                    y -= c * x
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

    def _combine(self, used: List[Tuple[int, int, int]], sign: int = 1) -> SparseVec:
        """The coordinates, in the added vectors, of sign times the sum of
        c / D * row, keyed by position in increasing order; a Fraction is
        built only for a nonzero one."""
        acc, den = self._sum(used)
        return {t: Fraction(sign * x, den) for t, x in sorted(acc.items()) if x}

    def _add(self, v: SparseVec) -> Optional[List[Tuple[int, int, int]]]:
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
        self._pivot_row[p] = len(self._rows)
        self._rows.append((p, row, row[p], {t: x // h for t, x in expr.items()}, e // h))
        return None

    def add(self, v: SparseVec) -> bool:
        """Add v; True iff it is independent of the vectors added before."""
        return self._add(v) is None

    def coords(self, v: SparseVec) -> Optional[SparseVec]:
        """Coordinates of v in the added vectors, or None outside their span.

        Vectors that were dependent when added get coordinate 0: this is
        the solution that reduced row echelon form gives, with zeros off
        the greedy independent vectors.
        """
        r, used, _ = self._reduce(v)
        return None if r else self._combine(used)

    def pivot_inverse(self) -> Tuple[Dict[int, Dict[int, int]], int]:
        """(inv, q): for w in the span of the added vectors, q times its
        coordinates in them is the sum of w_p·inv[p] over the pivots p.
        Reducing the unit vector at p reads only the pivot columns, so it
        gives the vector of the span that is 1 at p and 0 at the others."""
        sums = {p: self._sum(self._reduce({p: ONE})[1]) for p, *_ in self._rows}
        q = lcm(*(d for _, d in sums.values()))
        return {p: {t: x * (q // d) for t, x in acc.items() if x}
                for p, (acc, d) in sums.items()}, q


def echelon(vectors: Iterable[SparseVec]) -> Echelon:
    """One ``Echelon`` over the vectors, added in order."""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech


def relations(vectors: Sequence[SparseVec]) -> Tuple[Echelon, List[SparseVec]]:
    """The echelon over the vectors, and the relations among them.

    For each vector f that depends on the ones before it, in order, the
    relation is e_f minus f's coordinates in them (f is its last key).
    This is the null basis of the matrix with these columns that its
    reduced row echelon form gives: the pivots are the greedy independent
    columns, and column f of the reduced form holds f's coordinates on them.
    """
    ech = Echelon()
    out: List[SparseVec] = []
    for f, v in enumerate(vectors):
        used = ech._add(v)
        if used is not None:
            rel = ech._combine(used, -1)
            rel[f] = ONE
            out.append(rel)
    return ech, out


def nullspace(rows: Sequence[SparseVec], n: int) -> List[SparseVec]:
    """Basis of the v in n unknowns with row·v = 0 for every row: the
    relations among the columns of the matrix with these rows."""
    cols: List[SparseVec] = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for j, x in row.items():
            cols[j][r] = x
    return relations(cols)[1]


def solve_in_span(vectors: Sequence[SparseVec], v: SparseVec) -> Optional[SparseVec]:
    """Coordinates c of v in the span of the vectors (sum c_i vectors_i = v),
    zero off the greedy independent vectors, or None."""
    return echelon(vectors).coords(v)


def independent_subset(vectors: Sequence[SparseVec]) -> List[int]:
    """Indices of a maximal linearly independent subset (greedy, in order)."""
    return echelon(vectors).independent


def invert(columns: Sequence[SparseVec]) -> List[SparseVec]:
    """The columns of the inverse of the square matrix with these n
    columns (column k is the coordinates of e_k in them); ValueError if
    it has none."""
    ech, rels = relations(columns)
    cols = [ech.coords({k: ONE}) for k in range(len(columns))]
    if rels or None in cols:
        raise ValueError("matrix is not invertible")
    return cols
