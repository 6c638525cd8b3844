"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are lists; every entry is a
``fractions.Fraction``.  All routines are exact: there is no floating-point
mode anywhere in the package.  ``rref``, ``solve`` and ``nullspace``
eliminate on dense matrices.  ``Echelon`` is an incremental sparse echelon
form: vectors are added one at a time, each is reduced against the rows
stored so far, and the form answers independence and span coordinates
without refactoring; ``independent_subset`` and ``extend_basis`` are single
passes over it.  Pivots are chosen by a smallest-denominator heuristic to
limit coefficient growth; correctness never depends on the pivot choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = List[Fraction]
Matrix = List[List[Fraction]]
SparseVec = Dict[int, Fraction]


def frac(x) -> Fraction:
    """Coerce ints / strings like ``-3/7`` to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def zeros(m: int, n: int) -> Matrix:
    return [[ZERO] * n for _ in range(m)]


def zero_vector(n: int) -> Vector:
    return [ZERO] * n


def identity(n: int) -> Matrix:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = ONE
    return mat


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    n = len(b)
    out = zeros(len(a), len(b[0]) if b else 0)
    for i, row in enumerate(a):
        for k in range(n):
            x = row[k]
            if x:
                brow = b[k]
                orow = out[i]
                for j, y in enumerate(brow):
                    if y:
                        orow[j] += x * y
    return out


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return [c * a for a in v]


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def _pivot_row(col: Sequence[Fraction], rows: Iterable[int]) -> Optional[int]:
    """Among candidate rows, pick a nonzero entry with smallest denominator,
    breaking ties by smallest absolute numerator."""
    best = None
    best_key = None
    for r in rows:
        x = col[r]
        if x == 0:
            continue
        key = (x.denominator, abs(x.numerator))
        if best is None or key < best_key:
            best, best_key = r, key
    return best


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = copy_matrix(a)
    m = len(r)
    n = len(r[0]) if m else 0
    pivots: List[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = _pivot_row([r[i][col] for i in range(m)], range(row, m))
        if p is None:
            continue
        r[row], r[p] = r[p], r[row]
        pv = r[row][col]
        if pv != 1:
            r[row] = [x / pv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col]:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix) -> List[Vector]:
    """Basis of the right null space of ``a`` (n-vectors with A v = 0)."""
    if not a:
        return []
    n = len(a[0])
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        v = zero_vector(n)
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return [] if is_zero_vector(b) else ([] if not b else None)
    n = len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(len(a))]
    r, pivots = rref(aug)
    # inconsistent iff some pivot lands in the rhs column
    if pivots and pivots[-1] == n:
        return None
    x = zero_vector(n)
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def solve_in_span(vectors: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Optional[Vector]:
    """Coordinates of v in the span of the given vectors, or None.

    ``vectors`` are given as a list of equal-length vectors (the spanning
    set); the result c satisfies sum c_i vectors_i = v.
    """
    if not vectors:
        return [] if is_zero_vector(v) else None
    a = [[vectors[j][i] for j in range(len(vectors))] for i in range(len(v))]
    return solve(a, v)


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

    def add(self, v: Union[SparseVec, Sequence[Fraction]]) -> bool:
        """Add v; True iff it is independent of the vectors added before."""
        r, used = self._reduce(v)
        idx = self.count
        self.count += 1
        if not r:
            return False
        p = min(r, key=lambda j: (r[j].denominator, abs(r[j].numerator), j))
        inv = ONE / r[p]
        row = {j: x * inv for j, x in r.items()}
        combo = {idx: inv}
        for k, c in used:
            for t, x in self._rows[k][2].items():
                combo[t] = combo.get(t, ZERO) - inv * c * x
        self._rows.append((p, row, {t: x for t, x in combo.items() if x}))
        return True

    def coords(self, v: Union[SparseVec, Sequence[Fraction]]) -> Optional[Vector]:
        """Coordinates of v in the added vectors, or None outside their span.

        Vectors that were dependent when added get coordinate 0, so the
        result is the one ``solve_in_span`` returns for the same list.
        """
        r, used = self._reduce(v)
        if r:
            return None
        out = [ZERO] * self.count
        for k, c in used:
            for t, x in self._rows[k][2].items():
                out[t] += c * x
        return out


def independent_subset(vectors: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices of a maximal linearly independent subset (greedy, in order)."""
    ech = Echelon()
    return [idx for idx, v in enumerate(vectors) if ech.add(v)]


def extend_basis(base: Sequence[Sequence[Fraction]], candidates: Sequence[Sequence[Fraction]]) -> List[int]:
    """Indices into ``candidates`` extending ``base`` to a basis of
    span(base + candidates)."""
    ech = Echelon()
    for v in base:
        ech.add(v)
    return [idx for idx, v in enumerate(candidates) if ech.add(v)]


def invert(a: Matrix) -> Matrix:
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in r]
