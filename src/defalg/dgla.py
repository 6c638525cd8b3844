"""Differential graded Lie algebras and Maurer-Cartan theory.

DGLAs by bracket structure constants, the tensor DGLA L⊗A over a nilpotent
dg-algebra A with its twisted differential d_x = d + [x, −], the
Maurer-Cartan equation, the extended algebra L_d, the gauge action through
the Baker-Campbell-Hausdorff product, tangent spaces, lifting through small
extensions (whose operator is d_y on L⊗I), and a (sound, partially
complete) gauge equivalence decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import linalg
from .algebras import (BilinearStructure, DgAlgebraMorphism, LeftIndex,
                       NilpotentDgAlgebra, SmallExtension, SparseVec, ValidationReport,
                       _bilinear, factor_into_small_extensions, push_blocks)
from .graded import Complex, Contraction, GradedMap, GradedSpace, cohomology
from .linalg import ONE, ZERO, CertificateError, add_into


class Dgla(BilinearStructure):
    """Differential graded Lie algebra on a finite basis: the constants are
    the brackets [e_i, e_j].  ``nilpotency_class`` (optional) bounds the length
    of nonzero iterated brackets, enabling exponentials.
    """
    _wrong_degree = "bracket [%s, %s] has an entry of wrong degree"
    _lie = True

    def __init__(self, space: GradedSpace, bracket: Dict[Tuple[int, int], SparseVec],
                 differential: GradedMap, nilpotency_class: Optional[int] = None):
        super().__init__(space, bracket, differential)
        self.nilpotency_class = nilpotency_class

    def bracket_vec(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return self._bracket_over(u, v, 1)

    def _bracket_over(self, u: SparseVec, v: SparseVec, den: int) -> SparseVec:
        """[u, v]/den."""
        return _bilinear(self, u, v, den)

    def differentiate(self, v: SparseVec) -> SparseVec:
        return self.d.apply(v)

    def validate(self) -> ValidationReport:
        """Check graded antisymmetry, Jacobi, Leibniz and d∘d = 0 on the
        structure constants (``_axiom_errors``).  Failing pairs and triples
        are reported in lexicographic order of their basis indices."""
        anti, jacobi, leibniz, dd = self._axiom_errors()
        return ValidationReport(anti + jacobi + leibniz + dd)

    def __repr__(self):
        return "Dgla(dim=%d)" % self.dim


class TensorDgla(Dgla):
    """L ⊗ A for a DGLA L and a nilpotent dg-algebra A, as a view of both.

    Basis pairs x_i ⊗ a_p indexed L-major, named x_i@a_p when a name is
    read.  The bracket follows the Koszul-consistent convention
        [x⊗a, y⊗b] = (-1)^{deg(a)·deg(y)} [x,y] ⊗ ab,
    certified by validate(); the differential is
        d(x⊗a) = dx ⊗ a + (-1)^{deg x} x ⊗ da.
    It and the twisted differential d_x = d + [x, −] at an element x are
    one column formula, ``_d_columns(support, x)``: ``differentiate(v, x)``
    sums it over v's support, and the map ``d``, its x = 0 case over every
    column, is built when it is first read.  Brackets read L's and A's
    integer left indices directly, over ``den`` = L.den·A.den.  This
    structure's own integer index, each product of an L-constant with an
    A-constant its own entry, is built from theirs only when read
    (validate(), and the ``table`` view); ``nilpotency_class`` is read off
    A when first needed.
    """

    def __init__(self, l: Dgla, a: NilpotentDgAlgebra):
        self.l = l
        self.a = a
        self.space = tensor_space(l.space, a.space)
        self._odd_l = [deg % 2 for deg in l.space.degrees]
        self._odd_a = [deg % 2 for deg in a.space.degrees]
        self.den = l.den * a.den

    def _d_columns(self, support: Iterable[int], x: Optional[SparseVec] = None
                   ) -> Iterator[Tuple[int, SparseVec]]:
        """(s, d_x e_s) for each s = i·dim A + p in ``support`` whose column
        is nonzero, e_s = x_i⊗a_p: dx_i⊗a_p, in the blocks j ≠ i, then
        (-1)^{|x_i|} x_i⊗da_p, in block i, then [x, e_s] when x is given.
        With x empty this is d."""
        na, odd_l = self.a.dim, self._odd_l
        l_column, a_column = self.l.d.column, self.a.d.column
        for s in support:
            i, p = divmod(s, na)
            lcol, acol = l_column(i), a_column(p)
            col = {j * na + p: c for j, c in lcol.items()} if lcol else {}
            if acol:
                ib, odd = i * na, odd_l[i]
                col.update((ib + q, -c if odd else c) for q, c in acol.items())
            if x:
                add_into(col, self._bracket_over(x, {s: ONE}, 1))
            if col:
                yield s, col

    @cached_property
    def d(self) -> GradedMap:
        return GradedMap.from_columns(self.space, self.space, 1,
                                      dict(self._d_columns(range(self.dim))))

    def differentiate(self, v: SparseVec, x: Optional[SparseVec] = None) -> SparseVec:
        """d_x v = dv + [x, v], summed over v's support column by column,
        as ``d.apply`` sums, without building d."""
        out: SparseVec = {}
        for s, col in self._d_columns(v, x):
            add_into(out, col, v[s])
        return out

    @cached_property
    def nilpotency_class(self) -> int:
        nil = self.a.nilpotency_index()
        return nil - 1 if nil and nil > 1 else 1

    @cached_property
    def _left(self) -> LeftIndex:
        """The integer left index of L⊗A over den = L.den·A.den: the entry
        of x_i⊗a_p with x_j⊗a_q is (-1)^{|a_p||x_j|} times the product of
        their L- and A-numerators."""
        na, odd_l, odd_a = self.a.dim, self._odd_l, self._odd_a
        left: LeftIndex = []
        for lrows in self.l.rows():
            for p, arows in enumerate(self.a.rows()):
                left.append([(j * na + q, {k * na + r: (-ck if odd_a[p] and odd_l[j] else ck) * cr
                                           for k, ck in lrow.items() for r, cr in arow.items()})
                             for j, lrow in lrows for q, arow in arows])
        return left

    def _bracket_over(self, u: SparseVec, v: SparseVec, den: int) -> SparseVec:
        """[u, v]/den, summed on Python-int numerators over one common
        denominator: den·L.den·A.den times the lcm of the denominators of
        u's entries and of v's entries.  One Fraction is built per nonzero
        entry."""
        if not u or not v:
            return {}
        na, odd_l, odd_a = self.a.dim, self._odd_l, self._odd_a
        du = lcm(*(c.denominator for c in u.values()))
        dv = du if u is v else lcm(*(c.denominator for c in v.values()))
        nv = {t: c.numerator * (dv // c.denominator) for t, c in v.items()}
        l_left, a_left = self.l._left, self.a._left
        out: Dict[int, int] = {}
        for s, c in u.items():
            i, p = divmod(s, na)
            m, flip, arows = c.numerator * (du // c.denominator), odd_a[p], a_left[p]
            for j, lrow in l_left[i]:
                mj = -m if flip and odd_l[j] else m
                jb = j * na
                for q, arow in arows:
                    cv = nv.get(jb + q)
                    if cv:
                        cq = mj * cv
                        for k, ck in lrow.items():
                            ckq = cq * ck
                            kb = k * na
                            for r, cr in arow.items():
                                out[kb + r] = out.get(kb + r, 0) + ckq * cr
        total = du * dv * self.den * den
        return {k: Fraction(n, total) for k, n in out.items() if n}

    def pair_index(self, i: int, p: int) -> int:
        return i * self.a.dim + p

    def elem(self, xvec: SparseVec, avec: SparseVec) -> SparseVec:
        """x ⊗ a for a vector x of L and a vector a of A."""
        return {self.pair_index(i, p): cx * ca for i, cx in xvec.items() for p, ca in avec.items()}


def tensor_space(l: GradedSpace, a: GradedSpace) -> GradedSpace:
    """The graded space of L⊗A: basis x_i@a_p, L-major.  A name is read
    through the factors' names, and the index of a name through their
    name indices."""
    na = a.dim

    def name(s: int) -> str:
        return l.name(s // na) + "@" + a.name(s % na)

    def lookup(name: str) -> int:
        x, sep, y = name.partition("@")
        if sep:
            try:
                return l.index(x) * na + a.index(y)
            except KeyError:
                pass
        raise KeyError(name)
    return GradedSpace.joined([dl + da for dl in l.degrees for da in a.degrees],
                              name, (l, a), "@", lookup)


def tensor_dgla(l: Dgla, a: NilpotentDgAlgebra) -> TensorDgla:
    return TensorDgla(l, a)


def trivial_algebra_of_complex(c: Complex) -> NilpotentDgAlgebra:
    return NilpotentDgAlgebra(c.space, {}, c.d)


def mc_defect(t: Dgla, x: SparseVec) -> SparseVec:
    """dx + ½[x, x]."""
    return add_into(t.differentiate(x), t._bracket_over(x, x, 2))


def mc_check(t: Dgla, x: SparseVec) -> Tuple[bool, SparseVec]:
    deg = t.space.vector_degree(x)
    if deg not in (None, 1):
        raise ValueError("Maurer-Cartan candidates must have degree 1")
    if deg is None and x:
        raise ValueError("Maurer-Cartan candidates must be homogeneous of degree 1")
    h = mc_defect(t, x)
    return not h, h


def bch(bracket: Callable[[SparseVec, SparseVec], SparseVec], u: SparseVec, w: SparseVec,
        bound: int) -> SparseVec:
    """Baker-Campbell-Hausdorff product by the Dynkin series.

    Exact: iterated brackets of length above ``bound`` are assumed (and in
    the nilpotent callers, guaranteed) to vanish, so the series is finite.
    """
    if bound < 1:
        raise ValueError("nilpotency bound must be >= 1")
    total: SparseVec = {}

    def nested(word: List[SparseVec]) -> SparseVec:
        acc = word[-1]
        for letter in reversed(word[:-1]):
            acc = bracket(letter, acc)
        return acc

    def blocks(n_blocks: int, remaining: int, prefix: List[Tuple[int, int]]):
        if n_blocks == 0:
            yield list(prefix)
            return
        for r in range(remaining + 1):
            for s in range(remaining - r + 1):
                if r + s == 0:
                    continue
                prefix.append((r, s))
                yield from blocks(n_blocks - 1, remaining - r - s, prefix)
                prefix.pop()

    for n in range(1, bound + 1):
        for comp in blocks(n, bound, []):
            length = sum(r + s for r, s in comp)
            word: List[SparseVec] = []
            denom = n * length
            for r, s in comp:
                word.extend([u] * r)
                word.extend([w] * s)
                denom *= factorial(r) * factorial(s)
            add_into(total, nested(word), Fraction((-1) ** (n - 1), denom))
    return total


def gauge_act(t: Dgla, a: SparseVec, x: SparseVec) -> SparseVec:
    """e^a · x = exp(ad_a)(x + d) - d in the extended algebra L_d.

    With a of degree 0, ad_a(v + βd) = [a, v] - β·da; the sum is finite by
    nilpotency of the ambient tensor DGLA.
    """
    if t.space.vector_degree(a) not in (None, 0):
        raise ValueError("gauge parameters must have degree 0")
    bound = t.nilpotency_class
    if bound is None:
        raise ValueError("gauge action needs a certified nilpotency class")
    da = t.differentiate(a)
    out = dict(x)
    term = x
    beta = ONE
    k = 0
    while True:
        k += 1
        if k > bound + 1:
            if term or beta:
                raise ValueError("nilpotency bound exceeded in gauge action")
            break
        term = t.bracket_vec(a, term)
        if beta:
            add_into(term, da, -beta)
        beta = ZERO
        if not term:
            break
        add_into(out, term, Fraction(1, factorial(k)))
    return out


def def_tangent(l: Dgla) -> Contraction:
    """Tangent/obstruction spaces of the deformation functor: H*(L)."""
    return cohomology(l.complex())


@dataclass
class McLiftResult:
    lifted: bool
    lift: Optional[SparseVec]              # MC element of L⊗A when lifted
    lift_translations: List[SparseVec]     # basis of all lift differences, inside L⊗A
    defect: SparseVec                      # defect of the section lift, in L⊗I
    correction: Optional[SparseVec]        # ξ ∈ (L⊗I)¹ with T(ξ) = -defect, when lifted
    obstruction_class: Optional[List[Fraction]]  # coordinates in coker(T) on (L⊗I)²
    cohomology_class: Optional[SparseVec]  # the class in H²(L⊗I); strictly small only
    tensor_a: TensorDgla
    tensor_i: TensorDgla
    i_cohomology: Contraction


def mc_lift(e: SmallExtension, l: Dgla, x: SparseVec,
            section: Optional[GradedMap] = None) -> McLiftResult:
    """Lift an MC element through a square-zero extension, or obstruct.

    x ∈ (L⊗B)¹ is lifted along a set-linear section s of α (default
    ``e.section()``) to y = (1⊗s)x.  x is MC over B iff the defect
    h = dy + ½[y, y] lies in L⊗I: α_* is a DGLA map and α∘s = id, so α_*h
    is the defect of x.  Otherwise ValueError is raised, as for an x not
    of degree 1.

    With I² = 0 the Maurer-Cartan equation for y + ξ, ξ ∈ (L⊗I)¹, is the
    affine-linear system T(ξ) = -h with T(ξ) = dξ + [y, ξ]; both T and the
    class of h modulo im(T) are independent of the choice of y, so the
    decision is exact and complete.  When the extension is strictly small
    (A·I = 0), T is the differential of L⊗I: the translations are
    Z¹(L⊗I), and ``cohomology_class`` is the class of h in H²(L⊗I), the
    obstruction class, which is zero exactly when x lifts.
    """
    ti = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
    ta = tensor_dgla(l, e.a)
    if section is None:
        section = e.section()
    ni, nb, na = e.i_complex.space.dim, e.b.dim, e.a.dim
    y = push_blocks(x, nb, na, section)
    # s is injective of degree 0, so y has the degrees of x
    _, h = mc_check(ta, y)
    hi = e.kernel_coords(h)
    if hi is None:
        raise ValueError("input element does not satisfy Maurer-Cartan over B")
    deg1 = ti.space.degree_indices(1)
    strict = e.is_strictly_small()
    if strict:      # A·I = 0 makes [y, ξ] zero, and ι is a chain map: T = d on L⊗I
        t_cols = [ti.d.column(i) for i in deg1]
    else:           # T(ξ) = d_y(ιξ) = d(ιξ) + [y, ιξ], read back in L⊗I
        t_cols = [e.kernel_coords(ta.differentiate(push_blocks({i: ONE}, ni, na, e.iota), y))
                  for i in deg1]
        if None in t_cols:
            raise CertificateError("the lift operator escaped L⊗I: the kernel is not an ideal")
    # one echelon over T's columns; its relations span ker T, all lift
    # translations
    t_ech, kernel = linalg.relations(t_cols)
    hcoh = cohomology(ti.complex())
    ccls = None
    if strict:
        ccls = hcoh.class_of(hi)
        if ccls is None:
            raise CertificateError("the defect is not a cocycle of L⊗I")
    translations = [push_blocks({deg1[pos]: c for pos, c in ker.items()}, ni, na, e.iota)
                    for ker in kernel]

    sol = t_ech.coords({k: -c for k, c in hi.items()})
    if sol is not None:
        xi = {deg1[pos]: c for pos, c in sol.items()}
        lift = add_into(dict(y), push_blocks(xi, ni, na, e.iota))
        if not mc_check(ta, lift)[0]:
            raise CertificateError("the corrected lift fails Maurer-Cartan")
        return McLiftResult(True, lift, translations, hi, xi, None, ccls, ta, ti, hcoh)
    # obstruction: coordinates of h in a complement of im(T) inside (L⊗I)²
    chosen = [k for k, i in enumerate(ti.space.degree_indices(2))
              if t_ech.add(ti.space.basis_vector(i))]
    coords = t_ech.coords(hi)
    if coords is None:
        raise CertificateError("the defect is outside im(T) + the chosen complement")
    cls = [coords.get(len(t_cols) + k, ZERO) for k in chosen]
    if not any(cls):
        raise CertificateError("an unsolvable system has a zero cokernel class")
    return McLiftResult(False, None, translations, hi, None, cls, ccls, ta, ti, hcoh)


@dataclass
class GaugeDecision:
    verdict: str                 # "YES" | "NO" | "UNKNOWN"
    witness: Optional[SparseVec] = None


def gauge_equivalent(l: Dgla, a: NilpotentDgAlgebra, x: SparseVec,
                     y: SparseVec) -> GaugeDecision:
    """Gauge equivalence of MC elements of L⊗A, by one staged linear
    search down a small-extension chain A = A_0 → A_1 → … → A_n = 0.

    Each stage A_j → A_{j+1} is strictly small, so its correction lies in
    the centre of L⊗A_j and joins the lifted witness by plain addition
    (the BCH product with a central element).  The top stage A_{n-1} → 0
    has A_{n-1}² = 0: there gauge acts by x ↦ x - da, and equivalence
    pushes forward along A → A_{n-1}, so a residue outside d(L⊗A_{n-1})⁰
    answers NO, for any A.  When A² = 0 the chain has one stage and the
    decision is complete.  A lower stage without a linear correction
    answers UNKNOWN: the staging is sound, not complete.  A YES witness w
    is checked by ``gauge_act``; callers holding their own witness check
    ``gauge_act(tensor_dgla(l, a), w, x) == y``.  A chain of n strictly
    small stages gives A_j^(n-j+1) = 0, so n - j bounds the nilpotency
    class of L⊗A_j and no power ideal of A_j is computed.
    """
    t = tensor_dgla(l, a)
    for v in (x, y):
        ok, _ = mc_check(t, v)
        if not ok:
            raise ValueError("inputs must satisfy Maurer-Cartan")
    if x == y:
        return GaugeDecision("YES", {})
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    to_zero = DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0), check=False)
    chain = factor_into_small_extensions(to_zero)
    # x and y carried down the chain (A_0 = A; chain[j]: A_j -> A_{j+1})
    xs, ys = [x], [y]
    for e in chain:
        xs.append(push_blocks(xs[-1], e.a.dim, e.b.dim, e.alpha.map))
        ys.append(push_blocks(ys[-1], e.a.dim, e.b.dim, e.alpha.map))
    witness_vec: SparseVec = {}
    for j in range(len(chain) - 1, -1, -1):
        e = chain[j]
        tj = tensor_dgla(l, e.a) if j else t      # A_0 = A
        tj.nilpotency_class = len(chain) - j
        if not e.is_strictly_small():
            raise CertificateError("a stage of the small-extension chain is not "
                                   "strictly small")
        tii = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
        lift_w = push_blocks(witness_vec, e.b.dim, e.a.dim, e.section())
        ri = e.kernel_coords(add_into(gauge_act(tj, lift_w, xs[j]), ys[j], -ONE))
        if ri is None:
            raise CertificateError("the gauge residue escaped the stage kernel")
        if tii.differentiate(ri):
            raise CertificateError("the gauge residue is not closed")
        # the nonzero columns of d on (L⊗I)⁰; a zero column adds nothing
        cols = list(tii._d_columns(tii.space.degree_indices(0)))
        sol = linalg.solve_in_span([col for _, col in cols], ri)
        if sol is None:
            # at the top stage the lifted witness is empty and the residue
            # is x_j - y_j, so x and y are inequivalent already over A_j
            return GaugeDecision("NO" if j == len(chain) - 1 else "UNKNOWN")
        c = {cols[pos][0]: x for pos, x in sol.items()}
        # c lies in L⊗I with A_j·I = 0, so it is central in L⊗A_j and
        # BCH(c, w) = c + w exactly
        witness_vec = add_into(push_blocks(c, e.i_complex.space.dim, e.a.dim, e.iota), lift_w)
    if gauge_act(t, witness_vec, x) != y:
        raise CertificateError("the gauge witness does not map x to y")
    return GaugeDecision("YES", witness_vec)


# ---------------------------------------------------------------------------
# derivation DGLAs
# ---------------------------------------------------------------------------

def derivations_dgla(a: NilpotentDgAlgebra) -> Tuple[Dgla, List[GradedMap]]:
    """Der*(A, A) with the commutator bracket and differential [d, -].

    Returns the DGLA together with the derivation basis (as graded maps);
    basis element k of the DGLA is the k-th returned derivation.
    """
    n = a.dim
    degs = a.space.degrees
    deg_range = sorted({dj - di for di in degs for dj in degs}) if n else []
    deriv_maps: List[GradedMap] = []
    prods = {(i, j): row for i, j, row in a.constants()}
    for nn in deg_range:
        slots = [(j, i) for j in range(n) for i in range(n)
                 if degs[j] == degs[i] + nn]
        if not slots:
            continue
        pos = {s: k for k, s in enumerate(slots)}
        rows: List[SparseVec] = []
        # Leibniz: h(e_i e_j) = h(e_i) e_j + (-1)^{n·deg_i} e_i h(e_j)
        for i in range(n):
            for j in range(n):
                pij = prods.get((i, j), {})
                sgn = Fraction(-1 if (nn % 2 and degs[i] % 2) else 1)
                for r in range(n):
                    row: Dict[int, Fraction] = {}
                    # h(e_i e_j) term
                    for k, ck in pij.items():
                        if (r, k) in pos:
                            row[pos[(r, k)]] = row.get(pos[(r, k)], ZERO) + ck
                    # -h(e_i) e_j
                    for (jj, ii), kk in pos.items():
                        if ii == i:
                            row[kk] = row.get(kk, ZERO) - prods.get((jj, j), {}).get(r, ZERO)
                        if ii == j:
                            row[kk] = row.get(kk, ZERO) - sgn * prods.get((i, jj), {}).get(r, ZERO)
                    row = {k: c for k, c in row.items() if c}
                    if row:
                        rows.append(row)
        basis = linalg.nullspace(rows, len(slots)) if rows else [
            {k: ONE} for k in range(len(slots))]
        for b in basis:
            deriv_maps.append(GradedMap(a.space, a.space, nn, {slots[k]: c for k, c in b.items()}))

    def flat(m: GradedMap) -> SparseVec:
        return {j * n + i: c for i, col in m.nonzero_columns() for j, c in col.items()}

    span = linalg.echelon(flat(m) for m in deriv_maps)
    space = GradedSpace([("D%d" % k, m.degree) for k, m in enumerate(deriv_maps)])
    bracket: Dict[Tuple[int, int], SparseVec] = {}
    for i, hi in enumerate(deriv_maps):
        for j, hj in enumerate(deriv_maps):
            sgn = Fraction(-1 if (hi.degree % 2 and hj.degree % 2) else 1)
            comm_map = hi.compose(hj) - hj.compose(hi).scale(sgn)
            row = span.coords(flat(comm_map))
            if row is None:
                raise CertificateError("a commutator escaped the derivation space")
            if row:
                bracket[(i, j)] = row
    dcols = []
    for hi in deriv_maps:
        sgn = Fraction(-1 if hi.degree % 2 else 1)
        dm = a.d.compose(hi) - hi.compose(a.d).scale(sgn)
        coords = span.coords(flat(dm))
        if coords is None:
            raise CertificateError("[d, h] escaped the derivation space")
        dcols.append(coords)
    return Dgla(space, bracket, GradedMap.from_columns(space, space, 1, dcols)), deriv_maps
