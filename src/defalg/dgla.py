"""Differential graded Lie algebras and Maurer-Cartan theory.

DGLAs by bracket structure constants, the tensor DGLA L⊗A over a nilpotent
dg-algebra A, the Maurer-Cartan equation, the extended algebra L_d, the
gauge action through the Baker-Campbell-Hausdorff product, tangent spaces,
lifting through small extensions, and a (sound, partially complete) gauge
equivalence decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebras import (BilinearStructure, DgAlgebraMorphism, LeftIndex,
                       NilpotentDgAlgebra, SmallExtension, SparseVec, ValidationReport,
                       _bilinear, _over, factor_into_small_extensions)
from .graded import Complex, Contraction, GradedMap, GradedSpace, cohomology
from .linalg import ONE, ZERO, CertificateError, Vector


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

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        return _bilinear(self, u, v)

    def _bracket_over(self, u: Sequence[Fraction], v: Sequence[Fraction],
                      den: int) -> Vector:
        """[u, v]/den."""
        return _bilinear(self, u, v, den)

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

    Basis pairs x_i ⊗ a_p indexed L-major.  The bracket follows the
    Koszul-consistent convention
        [x⊗a, y⊗b] = (-1)^{deg(a)·deg(y)} [x,y] ⊗ ab,
    certified by validate(); the differential is
        d(x⊗a) = dx ⊗ a + (-1)^{deg x} x ⊗ da.
    ``bracket_vec`` reads L's and A's integer left indices directly, over
    ``den`` = L.den·A.den.  This structure's own integer index, each
    product of an L-constant with an A-constant its own entry, is built
    from theirs only when read (validate(), and the ``table`` view);
    ``nilpotency_class`` is read off A when first needed.
    """

    def __init__(self, l: Dgla, a: NilpotentDgAlgebra):
        self.l = l
        self.a = a
        nl, na = l.dim, a.dim
        self.space = space = tensor_space(l.space, a.space)
        self.d = d = GradedMap(space, space, 1)
        for (j, i), c in l.d.entries.items():
            for p in range(na):
                d.set_entry(j * na + p, i * na + p, c)
        for (q, p), c in a.d.entries.items():
            for i in range(nl):
                d.set_entry(i * na + q, i * na + p, -c if l.space.degrees[i] % 2 else c)
        self._odd_l = [deg % 2 for deg in l.space.degrees]
        self._odd_a = [deg % 2 for deg in a.space.degrees]
        self.den = l.den * a.den

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
        for lrows in self.l._left:
            for p, arows in enumerate(self.a._left):
                left.append([(j * na + q, {k * na + r: (-ck if odd_a[p] and odd_l[j] else ck) * cr
                                           for k, ck in lrow.items() for r, cr in arow.items()})
                             for j, lrow in lrows for q, arow in arows])
        return left

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """[u, v], walking the support of u through L's and A's left indices."""
        return self._bracket_over(u, v, 1)

    def _bracket_over(self, u: Sequence[Fraction], v: Sequence[Fraction],
                      den: int) -> Vector:
        """[u, v]/den, summed on Python-int numerators over one common
        denominator: den·L.den·A.den times the lcm of the denominators of
        u's support and of v's support.  One Fraction is built per nonzero
        entry."""
        na, odd_l, odd_a = self.a.dim, self._odd_l, self._odd_a
        su = [(s, c) for s, c in enumerate(u) if c]
        sv = su if u is v else [(t, c) for t, c in enumerate(v) if c]
        if not su or not sv:
            return [ZERO] * self.dim
        du = lcm(*(c.denominator for _, c in su))
        dv = du if sv is su else lcm(*(c.denominator for _, c in sv))
        nv = [0] * self.dim
        for t, c in sv:
            nv[t] = c.numerator * (dv // c.denominator)
        l_left, a_left = self.l._left, self.a._left
        out = [0] * self.dim
        for s, c in su:
            i, p = divmod(s, na)
            m, flip, arows = c.numerator * (du // c.denominator), odd_a[p], a_left[p]
            for j, lrow in l_left[i]:
                mj = -m if flip and odd_l[j] else m
                jb = j * na
                for q, arow in arows:
                    cv = nv[jb + q]
                    if cv:
                        cq = mj * cv
                        for k, ck in lrow.items():
                            ckq = cq * ck
                            kb = k * na
                            for r, cr in arow.items():
                                out[kb + r] += ckq * cr
        return _over(out, du * dv * self.den * den)

    def pair_index(self, i: int, p: int) -> int:
        return i * self.a.dim + p

    def elem(self, xvec: Sequence[Fraction], avec: Sequence[Fraction]) -> Vector:
        out = self.space.zero_vector()
        for i, cx in enumerate(xvec):
            if cx:
                for p, ca in enumerate(avec):
                    if ca:
                        out[self.pair_index(i, p)] += cx * ca
        return out


def tensor_space(l: GradedSpace, a: GradedSpace) -> GradedSpace:
    """The graded space of L⊗A: basis x_i@a_p, L-major."""
    return GradedSpace([(l.names[i] + "@" + a.names[p], l.degrees[i] + a.degrees[p])
                        for i in range(l.dim) for p in range(a.dim)])


def tensor_dgla(l: Dgla, a: NilpotentDgAlgebra) -> TensorDgla:
    return TensorDgla(l, a)


def tensor_push(src: TensorDgla, dst_space: GradedSpace, f: GradedMap,
                dst_adim: int) -> GradedMap:
    """The map 1⊗f : L⊗A -> L⊗A' induced by a coefficient map f: A -> A'."""
    out = GradedMap(src.space, dst_space, f.degree)
    for (q, p), c in f.entries.items():
        for i in range(src.l.dim):
            out.set_entry(i * dst_adim + q, i * src.a.dim + p,
                          out.entries.get((i * dst_adim + q, i * src.a.dim + p), ZERO) + c)
    return out


def trivial_algebra_of_complex(c: Complex) -> NilpotentDgAlgebra:
    return NilpotentDgAlgebra(c.space, {}, c.d)


def mc_defect(t: Dgla, x: Sequence[Fraction]) -> Vector:
    """dx + ½[x, x]."""
    out = t.d.apply(x)
    for k, c in enumerate(t._bracket_over(x, x, 2)):
        if c:
            out[k] += c
    return out


def mc_check(t: Dgla, x: Sequence[Fraction]) -> Tuple[bool, Vector]:
    deg = t.space.vector_degree(x)
    if deg not in (None, 1):
        raise ValueError("Maurer-Cartan candidates must have degree 1")
    if deg is None and any(x):
        raise ValueError("Maurer-Cartan candidates must be homogeneous of degree 1")
    h = mc_defect(t, x)
    return linalg.is_zero_vector(h), h


def bch(bracket: Callable[[Vector, Vector], Vector], u: Vector, w: Vector,
        bound: int) -> Vector:
    """Baker-Campbell-Hausdorff product by the Dynkin series.

    Exact: iterated brackets of length above ``bound`` are assumed (and in
    the nilpotent callers, guaranteed) to vanish, so the series is finite.
    """
    if bound < 1:
        raise ValueError("nilpotency bound must be >= 1")
    n_dim = len(u)
    total = [ZERO] * n_dim

    def add(vec: Vector, c: Fraction):
        for t in range(n_dim):
            if vec[t]:
                total[t] += c * vec[t]

    def nested(word: List[Vector]) -> Vector:
        acc = word[-1]
        for letter in reversed(word[:-1]):
            acc = bracket(letter, acc)
        return acc

    def blocks(n_blocks: int, remaining: int, prefix: List[Tuple[int, int]]):
        if n_blocks == 0:
            if prefix:
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
            if len(comp) != n:
                continue
            length = sum(r + s for r, s in comp)
            word: List[Vector] = []
            denom = n * length
            for r, s in comp:
                word.extend([u] * r)
                word.extend([w] * s)
                denom *= factorial(r) * factorial(s)
            coeff = Fraction((-1) ** (n - 1), denom)
            add(nested(word), coeff)
    return total


def gauge_act(t: Dgla, a: Sequence[Fraction], x: Sequence[Fraction]) -> Vector:
    """e^a · x = exp(ad_a)(x + d) - d in the extended algebra L_d.

    With a of degree 0, ad_a(v + βd) = [a, v] - β·da; the sum is finite by
    nilpotency of the ambient tensor DGLA.
    """
    if t.space.vector_degree(a) not in (None, 0):
        raise ValueError("gauge parameters must have degree 0")
    bound = t.nilpotency_class
    if bound is None:
        raise ValueError("gauge action needs a certified nilpotency class")
    da = t.d.apply(a)
    out = list(x)
    term = list(x)
    beta = ONE
    k = 0
    while True:
        k += 1
        if k > bound + 1:
            if any(term) or beta:
                raise ValueError("nilpotency bound exceeded in gauge action")
            break
        nxt = t.bracket_vec(a, term)
        if beta:
            nxt = linalg.vec_sub(nxt, linalg.vec_scale(beta, da))
        beta = ZERO
        term = nxt
        if linalg.is_zero_vector(term):
            break
        c = Fraction(1, factorial(k))
        out = linalg.vec_add(out, linalg.vec_scale(c, term))
    return out


def def_tangent(l: Dgla) -> Contraction:
    """Tangent/obstruction spaces of the deformation functor: H*(L)."""
    return cohomology(l.complex())


@dataclass
class McLiftResult:
    lifted: bool
    lift: Optional[Vector]                 # MC element of L⊗A when lifted
    lift_translations: List[Vector]        # basis of all lift differences, inside L⊗A
    defect: Vector                         # defect of the section lift, in L⊗I
    correction: Optional[Vector]           # ξ ∈ (L⊗I)¹ with T(ξ) = -defect, when lifted
    obstruction_class: Optional[Vector]    # coordinates in coker(T) on (L⊗I)²
    cohomology_class: Optional[Vector]     # coordinates in H²(L⊗I); strictly small only
    tensor_a: TensorDgla
    tensor_i: TensorDgla
    i_cohomology: Contraction
    embed_i: GradedMap                     # L⊗I -> L⊗A


def mc_lift(e: SmallExtension, l: Dgla, x: Sequence[Fraction],
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
    emb = tensor_push(ti, ta.space, e.iota, e.a.dim)
    if section is None:
        section = e.section()
    nb = e.b.dim
    y = [c for i in range(l.dim) for c in section.apply(x[i * nb:(i + 1) * nb])]
    # s is injective of degree 0, so y has the degrees of x
    _, h = mc_check(ta, y)
    hi = e.kernel_coords(h)
    if hi is None:
        raise ValueError("input element does not satisfy Maurer-Cartan over B")
    deg1 = ti.space.degree_indices(1)
    strict = e.is_strictly_small()
    if strict:      # A·I = 0 makes [y, ξ] zero, and ι is a chain map: T = d on L⊗I
        dcols = ti.d.columns()
        t_cols = [dcols[i] for i in deg1]
    else:
        t_cols = []
        for i in deg1:
            xi = emb.apply(ti.space.basis_vector(i))
            col_i = e.kernel_coords(linalg.vec_add(ta.d.apply(xi), ta.bracket_vec(y, xi)))
            if col_i is None:
                raise CertificateError("the lift operator escaped L⊗I: the kernel is not an ideal")
            t_cols.append(col_i)
    # one echelon over T's columns; its relations span ker T, all lift
    # translations.  On a strictly small extension it is the contraction's
    # echelon in degree 1, and only H² is read
    t_ech, kernel = linalg.relations(t_cols)
    hcoh = cohomology(ti.complex(), {1: (t_ech, kernel)} if strict else None)
    ccls = None
    if strict:
        ccls = hcoh.class_of(hi)
        if ccls is None:
            raise CertificateError("the defect is not a cocycle of L⊗I")
    translations: List[Vector] = []
    for ker in kernel:
        v = ti.space.zero_vector()
        for pos, i in enumerate(deg1):
            v[i] = ker[pos]
        translations.append(emb.apply(v))

    sol = t_ech.coords(linalg.vec_scale(Fraction(-1), hi))
    if sol is not None:
        xi = ti.space.zero_vector()
        for pos, i in enumerate(deg1):
            xi[i] = sol[pos]
        lift = linalg.vec_add(y, emb.apply(xi))
        if not mc_check(ta, lift)[0]:
            raise CertificateError("the corrected lift fails Maurer-Cartan")
        return McLiftResult(True, lift, translations, hi, xi, None, ccls,
                            ta, ti, hcoh, emb)
    # obstruction: coordinates of h in a complement of im(T) inside (L⊗I)²
    chosen = [k for k, i in enumerate(ti.space.degree_indices(2))
              if t_ech.add(ti.space.basis_vector(i))]
    coords = t_ech.coords(hi)
    if coords is None:
        raise CertificateError("the defect is outside im(T) + the chosen complement")
    cls = [coords[len(t_cols) + k] for k in chosen]
    if not any(cls):
        raise CertificateError("an unsolvable system has a zero cokernel class")
    return McLiftResult(False, None, translations, hi, None, cls, ccls,
                        ta, ti, hcoh, emb)


@dataclass
class GaugeDecision:
    verdict: str                 # "YES" | "NO" | "UNKNOWN"
    witness: Optional[Vector] = None


def gauge_equivalent(l: Dgla, a: NilpotentDgAlgebra, x: Sequence[Fraction],
                     y: Sequence[Fraction], mode: str = "decide",
                     witness: Optional[Sequence[Fraction]] = None) -> GaugeDecision:
    """Gauge equivalence of MC elements of L⊗A.

    verify-mode checks a supplied witness exactly.  decide-mode is complete
    when A² = 0 (the orbit is x + d(L⊗A)⁰); otherwise it runs a staged
    linear search down a small-extension chain of A and answers UNKNOWN
    when a stage is inconclusive — the staging is sound, not complete.
    Each stage of the chain is strictly small, so its correction lies in
    the centre of L⊗A_j and joins the lifted witness by plain addition
    (the BCH product with a central element); the final witness is
    checked by ``gauge_act``.
    """
    t = tensor_dgla(l, a)
    for v in (x, y):
        ok, _ = mc_check(t, v)
        if not ok:
            raise ValueError("inputs must satisfy Maurer-Cartan")
    if mode == "verify":
        if witness is None:
            raise ValueError("verify mode needs a witness")
        same = gauge_act(t, witness, x) == list(y)
        return GaugeDecision("YES" if same else "NO",
                             list(witness) if same else None)
    if mode != "decide":
        raise ValueError("mode must be 'verify' or 'decide'")
    if list(x) == list(y):
        return GaugeDecision("YES", t.space.zero_vector())
    diff = linalg.vec_sub(list(x), list(y))
    if a.has_trivial_mult():
        # orbit of x is x - d(L⊗A)⁰: a linear problem, complete
        deg0 = t.space.degree_indices(0)
        dcols = t.d.columns()
        sol = linalg.solve_in_span([dcols[i] for i in deg0], diff)
        if sol is None:
            return GaugeDecision("NO")
        wit = t.space.zero_vector()
        for pos, i in enumerate(deg0):
            wit[i] = sol[pos]
        if gauge_act(t, wit, x) != list(y):
            raise CertificateError("the gauge witness does not map x to y")
        return GaugeDecision("YES", wit)

    # staged search down a small-extension chain of A -> 0
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    to_zero = DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0), check=False)
    chain = factor_into_small_extensions(to_zero)
    # projections A -> A_j (A_0 = A; chain[j]: A_j -> A_{j+1})
    stages = [chain[j].a for j in range(len(chain))] + [zero]
    projs = [DgAlgebraMorphism.identity(a)]
    for j in range(len(chain)):
        projs.append(chain[j].alpha.compose(projs[-1]))
    witness_vec: Vector = []
    tensors = {len(stages) - 1: tensor_dgla(l, zero)}
    for j in range(len(chain) - 1, -1, -1):
        tj = tensor_dgla(l, stages[j]) if j else t      # A_0 = A
        tensors[j] = tj
        e = chain[j]
        if not e.is_strictly_small():
            raise CertificateError("a stage of the small-extension chain is not "
                                   "strictly small")
        tii = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
        emb = tensor_push(tii, tj.space, e.iota, e.a.dim)
        push = tensor_push(t, tj.space, projs[j].map, stages[j].dim)
        xj, yj = push.apply(x), push.apply(y)
        sec = e.section()
        tj1 = tensors[j + 1]
        lift_w = tensor_push(tj1, tj.space, sec, stages[j].dim).apply(witness_vec) \
            if stages[j + 1].dim else tj.space.zero_vector()
        r = linalg.vec_sub(gauge_act(tj, lift_w, xj), yj)
        ri = e.kernel_coords(r)
        if ri is None:
            raise CertificateError("the gauge residue escaped the stage kernel")
        if not linalg.is_zero_vector(tii.d.apply(ri)):
            raise CertificateError("the gauge residue is not closed")
        deg0 = tii.space.degree_indices(0)
        dcols = tii.d.columns()
        sol = linalg.solve_in_span([dcols[i] for i in deg0], ri)
        if sol is None:
            return GaugeDecision("UNKNOWN")
        c = tii.space.zero_vector()
        for pos, i in enumerate(deg0):
            c[i] = sol[pos]
        # c lies in L⊗I with A_j·I = 0, so it is central in L⊗A_j and
        # BCH(c, w) = c + w exactly
        witness_vec = linalg.vec_add(emb.apply(c), lift_w)
    if gauge_act(t, witness_vec, x) == list(y):
        return GaugeDecision("YES", witness_vec)
    return GaugeDecision("UNKNOWN")


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
        rows: List[Vector] = []
        # Leibniz: h(e_i e_j) = h(e_i) e_j + (-1)^{n·deg_i} e_i h(e_j)
        for i in range(n):
            for j in range(n):
                pij = prods.get((i, j), {})
                sgn = Fraction(-1 if (nn % 2 and degs[i] % 2) else 1)
                for r in range(n):
                    row = [ZERO] * len(slots)
                    # h(e_i e_j) term
                    for k, ck in pij.items():
                        if (r, k) in pos:
                            row[pos[(r, k)]] += ck
                    # -h(e_i) e_j
                    for (jj, ii), kk in pos.items():
                        if ii == i:
                            row[kk] -= prods.get((jj, j), {}).get(r, ZERO)
                        if ii == j:
                            row[kk] -= sgn * prods.get((i, jj), {}).get(r, ZERO)
                    if any(row):
                        rows.append(row)
        basis = linalg.nullspace(rows) if rows else [
            [ONE if t == k else ZERO for t in range(len(slots))]
            for k in range(len(slots))]
        for b in basis:
            m = GradedMap(a.space, a.space, nn)
            for (j, i), k in pos.items():
                if b[k]:
                    m.set_entry(j, i, b[k])
            deriv_maps.append(m)

    def flat(m: GradedMap) -> Vector:
        return [m.entries.get((j, i), ZERO) for j in range(n) for i in range(n)]

    span = linalg.echelon(flat(m) for m in deriv_maps)
    space = GradedSpace([("D%d" % k, m.degree) for k, m in enumerate(deriv_maps)])
    bracket: Dict[Tuple[int, int], SparseVec] = {}
    for i, hi in enumerate(deriv_maps):
        for j, hj in enumerate(deriv_maps):
            sgn = Fraction(-1 if (hi.degree % 2 and hj.degree % 2) else 1)
            comm_map = hi.compose(hj) - hj.compose(hi).scale(sgn)
            coords = span.coords(flat(comm_map))
            if coords is None:
                raise CertificateError("a commutator escaped the derivation space")
            row = {k: c for k, c in enumerate(coords) if c}
            if row:
                bracket[(i, j)] = row
    d = GradedMap(space, space, 1)
    for i, hi in enumerate(deriv_maps):
        sgn = Fraction(-1 if hi.degree % 2 else 1)
        dm = a.d.compose(hi) - hi.compose(a.d).scale(sgn)
        coords = span.coords(flat(dm))
        if coords is None:
            raise CertificateError("[d, h] escaped the derivation space")
        for j, c in enumerate(coords):
            if c:
                d.set_entry(j, i, c)
    return Dgla(space, bracket, d), deriv_maps
