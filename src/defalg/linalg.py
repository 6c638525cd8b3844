"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are lists; every entry is a
``fractions.Fraction``.  All routines are exact: there is no floating-point
mode anywhere in the package.  ``Echelon`` is the one elimination engine:
an incremental sparse echelon form.  Vectors are added one at a time, each
is reduced against the rows stored so far, and the form answers
independence and span coordinates without refactoring.  ``rank``,
``solve``, ``solve_in_span``, ``nullspace``, ``invert``, ``relations``,
``independent_subset`` and ``extend_basis`` are views of it; each answers
what reduced row echelon form would (the greedy independent vectors as
pivots, zeros off them).  Pivots are chosen by a smallest-denominator
heuristic to limit coefficient growth; no result depends on the choice.
"""

from __future__ import annotations

from fractions import Fraction
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
    """

    def __init__(self):
        self.count = 0        # vectors added, dependent ones included
        self.independent: List[int] = []    # the added vectors that were independent
        # (pivot column, reduced row, row as a combination of added vectors)
        self._rows: List[Tuple[int, SparseVec, SparseVec]] = []

    def _reduce(self, v: Union[SparseVec, Sequence[Fraction]]
                ) -> Tuple[SparseVec, List[Tuple[int, Fraction]]]:
        """The residual of v after elimination, and the (row, multiplier)
        pairs subtracted: v = residual + sum of multiplier * row."""
        r = dict(v) if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}
        used = []
        for k, (p, row, _) in enumerate(self._rows):
            c = r.get(p)
            if not c:
                continue
            used.append((k, c))
            for j, x in row.items():
                y = r.get(j, ZERO) - c * x
                if y:
                    r[j] = y
                else:
                    del r[j]
        return r, used

    def _combine(self, used: List[Tuple[int, Fraction]], n: int) -> Vector:
        """The n coordinates, in the added vectors, of sum multiplier * row."""
        out = [ZERO] * n
        for k, c in used:
            for t, x in self._rows[k][2].items():
                out[t] += c * x
        return out

    def _add(self, v: Union[SparseVec, Sequence[Fraction]]
             ) -> Optional[List[Tuple[int, Fraction]]]:
        """Add v.  None when v is independent of the vectors added before
        it; otherwise the (row, multiplier) pairs that express it in them."""
        r, used = self._reduce(v)
        idx = self.count
        self.count += 1
        if not r:
            return used
        self.independent.append(idx)
        p = min(r, key=lambda j: (r[j].denominator, abs(r[j].numerator), j))
        inv = ONE / r[p]
        row = {j: x * inv for j, x in r.items()}
        combo = {idx: inv}
        for k, c in used:
            for t, x in self._rows[k][2].items():
                combo[t] = combo.get(t, ZERO) - inv * c * x
        self._rows.append((p, row, {t: x for t, x in combo.items() if x}))
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
        r, used = self._reduce(v)
        return None if r else self._combine(used, self.count)


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
            rel = [-x for x in ech._combine(used, len(vectors))]
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


def extend_basis(base: Sequence[Sequence[Fraction]], candidates: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices into ``candidates`` extending ``base`` to a basis of
    span(base + candidates)."""
    ech = echelon(base)
    return [idx for idx, v in enumerate(candidates) if ech.add(v)]


def invert(a: Matrix) -> Matrix:
    """The inverse of a square matrix; ValueError if it has none."""
    ech, rels = relations(_columns(a))
    cols = [ech.coords({k: ONE}) for k in range(len(a))]
    if rels or None in cols:
        raise ValueError("matrix is not invertible")
    return [[c[i] for c in cols] for i in range(ech.count)]
