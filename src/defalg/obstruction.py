"""Obstruction calculus for Maurer-Cartan deformation problems.

Obstruction classes of small extensions, twisted extensions, the defect
of lifting a differential through a graded small extension, primary
obstruction maps, and the induced graded Lie bracket on tangent
cohomology with its arity-2 minimal L-infinity packaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import graded, linalg
from .algebras import (DgAlgebraMorphism, NilpotentDgAlgebra, SmallExtension,
                       SparseVec, kernel_extension, mapping_cone, quotient_algebra)
from .dgla import Dgla, TensorDgla, def_tangent, mc_lift
from .graded import Contraction, GradedMap, GradedSpace, solve_homotopy
from .linfty import LInftyStructure, linfty_to_dgla
from .linalg import ONE, CertificateError, Vector

# Comparison sign between the tangent bracket assembled from primary
# obstructions and the bracket induced on cohomology by the DGLA bracket.
# Determined once by the sl(2) fixture in the test suite.
COMPARISON_SIGN = 1


@dataclass
class ObstructionClass:
    tensor_i: TensorDgla
    i_cohomology: Contraction
    representative: Vector            # defect, coordinates in L⊗I
    class_coords: Vector              # coordinates in H²(L⊗I)
    lift: Optional[Vector]            # MC lift in L⊗A when the class is zero
    certificate: Optional[Vector]     # s ∈ (L⊗I)¹ with ds = defect, when zero
    embed_i: GradedMap

    @property
    def is_zero(self) -> bool:
        return linalg.is_zero_vector(self.class_coords)


def obstruction_class(e: SmallExtension, l: Dgla, x: Sequence[Fraction],
                      section: Optional[GradedMap] = None) -> ObstructionClass:
    """The class in H²(L⊗I) obstructing an MC lift through a small extension.

    The strictly-small view of ``mc_lift``, which raises ValueError unless
    x is MC over B of degree 1.  The defect of any set-linear lift is a
    cocycle of L⊗I (A·I = 0 kills the [lift, defect] term), and its class
    does not depend on the lift: two lifts differ by η ∈ (L⊗I)¹ and the
    defects by dη.  Here T = d, so the lift's correction ξ has dξ = -defect
    and the certificate is -ξ.
    """
    if not e.is_strictly_small():
        raise ValueError("obstruction classes need a strictly small extension")
    res = mc_lift(e, l, x, section)
    cert = None if res.correction is None \
        else linalg.vec_scale(Fraction(-1), res.correction)
    return ObstructionClass(res.tensor_i, res.i_cohomology, res.defect,
                            res.cohomology_class, res.lift, cert, res.embed_i)


def is_dg_morphism_to_shifted_kernel(e: SmallExtension, phi: GradedMap,
                                     shift: int) -> List[str]:
    """Violations of phi: B -> I[shift] being a dg-algebra morphism.

    As a map of ungraded data phi has degree ``shift``; read as a degree-0
    map into the trivial algebra on I[shift], whose differential is
    (-1)^{shift} d_I, its violations are those of a morphism: the chain
    condition phi d_B = (-1)^{shift} d_I phi, and phi(B²) = 0 since
    I[shift]² = 0.
    """
    if phi.source != e.b.space or phi.target != e.i_complex.space \
            or phi.degree != shift:
        return ["phi has wrong source/target/degree"]
    shifted = graded.shift(e.i_complex, shift)
    return DgAlgebraMorphism(e.b, NilpotentDgAlgebra.trivial(shifted.space, shifted.d),
                             GradedMap(e.b.space, shifted.space, 0, phi.entries),
                             check=False).violations()


def twist_extension(e: SmallExtension, phi: GradedMap) -> SmallExtension:
    """The twisted extension e_φ: same algebra, differential d_φ = d + ιφα.

    phi must be a dg-algebra morphism B → I[1]; smallness makes ιφα a
    derivation and d_φ square-zero.
    """
    errs = is_dg_morphism_to_shifted_kernel(e, phi, 1)
    if errs:
        raise ValueError("; ".join(errs))
    d_phi = e.a.d + e.iota.compose(phi).compose(e.alpha.map)
    if not d_phi.compose(d_phi).is_zero():
        raise CertificateError("twisted differential must square to zero")
    a_phi = e.a.with_differential(d_phi)
    alpha = DgAlgebraMorphism(a_phi, e.b, e.alpha.map)
    return SmallExtension(e.i_complex, a_phi, e.b, e.iota, alpha)


@dataclass
class LiftingDefect:
    extension: SmallExtension
    delta: GradedMap                  # B -> I of degree 2 (i.e. B -> I[2])
    quotient: NilpotentDgAlgebra      # B/B²
    quotient_map: DgAlgebraMorphism
    delta_bar: GradedMap              # B/B² -> I of degree 2
    null_homotopic: bool
    homotopy: Optional[GradedMap]     # φ̄: B/B² -> I of degree 1
    corrected: Optional[SmallExtension]   # extension with square-zero lift


def lifting_defect(e: SmallExtension) -> LiftingDefect:
    """The square of a derivation lift of d_B, as a morphism δ: B → I[2].

    The extension's algebra A may carry a non-square-zero differential d
    that restricts to d_I and projects to d_B.  δ factors d² through α;
    its homotopy class on B/B² is lift-independent, and when it is
    null-homotopic the corrected lift d - ιφα squares to zero.
    """
    a, b = e.a, e.b
    # sanity: d restricts to the kernel differential and projects to d_B
    for k in range(e.i_complex.space.dim):
        lhs = a.d.apply(e.iota.apply(e.i_complex.space.basis_vector(k)))
        rhs = e.iota.apply(e.i_complex.d.apply(e.i_complex.space.basis_vector(k)))
        if lhs != rhs:
            raise ValueError("differential does not restrict to d_I on the kernel")
    if e.alpha.map.compose(a.d) != b.d.compose(e.alpha.map):
        raise ValueError("differential does not lift d_B")
    d2 = a.d.compose(a.d)
    sec = e.section()
    delta = GradedMap(b.space, e.i_complex.space, 2)
    for i in range(b.dim):
        v = d2.apply(sec.apply(b.space.basis_vector(i)))
        coords = e.kernel_coords(v)
        if coords is None:
            raise CertificateError("d² escaped the kernel")
        for k, c in enumerate(coords):
            if c:
                delta.set_entry(k, i, c)
    # δ is independent of the section: d²(ι I) = ι d_I² I = 0
    for k in range(e.i_complex.space.dim):
        if not linalg.is_zero_vector(
                d2.apply(e.iota.apply(e.i_complex.space.basis_vector(k)))):
            raise CertificateError("d² must kill the kernel")
    if is_dg_morphism_to_shifted_kernel(e, delta, 2):
        raise CertificateError("lifting defect must be a dg-algebra morphism into I[2]")

    # descend to B/B² and decide null-homotopy by a linear solve
    bbar, pr = quotient_algebra(b, [p for _, _, p in b.constants()])
    # delta_bar with delta = delta_bar ∘ pr: solve columnwise
    pr_ech = linalg.echelon(pr.map.columns())
    delta_bar = GradedMap(bbar.space, e.i_complex.space, 2)
    for col in range(bbar.dim):
        # a preimage of the quotient basis vector
        pre = pr_ech.coords({col: ONE})
        if pre is None:
            raise CertificateError("the quotient map is not surjective")
        v = delta.apply(pre)
        for k, c in enumerate(v):
            if c:
                delta_bar.set_entry(k, col, c)
    if delta_bar.compose(pr.map) != delta:
        raise CertificateError("the lifting defect does not factor through B/B²")

    # solve delta_bar = d_I φ̄ + φ̄ d_{B/B²} for φ̄ of degree 1
    phibar = solve_homotopy(bbar.d, e.i_complex.d, delta_bar)
    if phibar is None:
        return LiftingDefect(e, delta, bbar, pr, delta_bar, False, None, None)
    phi = phibar.compose(pr.map)
    d_new = a.d - e.iota.compose(phi).compose(e.alpha.map)
    if not d_new.compose(d_new).is_zero():
        raise CertificateError("corrected lift must square to zero")
    a_new = a.with_differential(d_new)
    corrected = SmallExtension(e.i_complex, a_new, b,
                               e.iota, DgAlgebraMorphism(a_new, b, e.alpha.map))
    return LiftingDefect(e, delta, bbar, pr, delta_bar, True, phibar, corrected)


def prop_cone(e: SmallExtension) -> Tuple[NilpotentDgAlgebra, DgAlgebraMorphism]:
    """The mapping cone C = A ⊕ I[1] of ι, with differential
    ((d, ι), (-d², d_I[1])), and the projection γ: C → B, an acyclic small
    extension even when the differential on A does not square to zero."""
    ni = e.i_complex.space.dim
    cone = mapping_cone(e.a, [e.iota.column(k) for k in range(ni)]).algebra
    gamma = DgAlgebraMorphism(cone, e.b,
                              GradedMap(cone.space, e.b.space, 0, e.alpha.map.entries))
    return cone, gamma


def primary_obstruction_extension(i: int, j: int) -> SmallExtension:
    """0 → 𝕂uv → (u,v)/(u²,v²) → 𝕂u ⊕ 𝕂v → 0 with deg u = -i, deg v = -j."""
    du, dv = -i, -j
    asp = GradedSpace([("u", du), ("v", dv), ("uv", du + dv)])
    sgn = Fraction(-1 if (du % 2 and dv % 2) else 1)
    mult = {(0, 1): {2: ONE}, (1, 0): {2: sgn}}
    a = NilpotentDgAlgebra(asp, mult, GradedMap(asp, asp, 1))
    bsp = GradedSpace([("u", du), ("v", dv)])
    b = NilpotentDgAlgebra.trivial(bsp, GradedMap(bsp, bsp, 1))
    pm = GradedMap(asp, bsp, 0)
    pm.set_entry(0, 0, ONE)
    pm.set_entry(1, 1, ONE)
    return kernel_extension(DgAlgebraMorphism(a, b, pm))


def primary_obstruction(l: Dgla, i: int, j: int, x: Sequence[Fraction],
                        y: Sequence[Fraction],
                        coh: Optional[Contraction] = None) -> Vector:
    """Q¹_ij: H^{1+i}(L) × H^{1+j}(L) → H^{2+i+j}(L) via the (u,v) extension.

    x, y are cocycle representatives of degrees 1+i, 1+j; the result is
    given in the harmonic basis of the supplied (or freshly computed)
    contraction of L, and depends only on the classes of x and y.
    """
    if coh is None:
        coh = def_tangent(l)
    for v, deg in ((x, 1 + i), (y, 1 + j)):
        if l.space.vector_degree(v) not in (None, deg):
            raise ValueError("representative has wrong degree")
        if not linalg.is_zero_vector(l.d.apply(v)):
            raise ValueError("representatives must be cocycles")
    e = primary_obstruction_extension(i, j)
    # x⊗u + y⊗v: L⊗B is L-major over B = <u, v>
    ob = obstruction_class(e, l, [c for pair in zip(x, y) for c in pair])
    # I = 𝕂uv with zero differential: read the defect off as an element
    # of L of degree 2+i+j and take its class in H(L)
    rep = [ob.representative[k] for k in range(l.dim)]
    cls = coh.class_of(rep)
    if cls is None:
        raise CertificateError("the primary obstruction is not a cocycle")
    return cls


@dataclass
class TangentBracket:
    l: Dgla
    cohomology: Contraction
    t_space: GradedSpace                   # harmonic space of L
    structure: LInftyStructure             # arity-2 minimal structure on T
    q2: GradedMap                          # Q¹₂: ⊙²(T[1]) → T[1]
    bracket_algebra: Dgla                  # the graded Lie algebra (T, [,])

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        return self.bracket_algebra.bracket_vec(u, v)


def tangent_bracket(l: Dgla, order: int = 3) -> TangentBracket:
    """The graded Lie bracket on T = H(L) assembled from primary obstructions.

    Q¹₂(c₁[1]⊙c₂[1]) = (-1)^{ij} · (-Q¹_ij(c₁, c₂)) with i = deg c₁ - 1,
    j = deg c₂ - 1; the (-1)^{ij} converts the dual-pairing convention of
    the (u,v)-extension into the symmetric-coalgebra one.  The assembled
    arity-2 coderivation squares to zero (graded Jacobi), and the induced
    graded Lie algebra agrees with the cohomology bracket of L up to the
    global COMPARISON_SIGN.
    """
    coh = def_tangent(l)
    t = coh.harmonic_space
    s0 = LInftyStructure(t, max(order, 2), {})
    c = s0.coalgebra
    q2 = GradedMap(c.powers[2].space, c.letters, 1)
    for pos, (p, q) in enumerate(c.powers[2].monomials):
        dp = t.degrees[p]
        dq = t.degrees[q]
        i, j = dp - 1, dq - 1
        po = primary_obstruction(l, i, j, coh.representative(p),
                                 coh.representative(q), coh)
        sgn = Fraction(-1 if (i * j) % 2 else 1)
        for k, ck in enumerate(po):
            if ck:
                q2.set_entry(k, pos, -sgn * ck)
    s = LInftyStructure(t, max(order, 2), {2: q2})
    bracket_algebra = linfty_to_dgla(s)
    return TangentBracket(l, coh, t, s, q2, bracket_algebra)


def cohomology_bracket(l: Dgla, coh: Optional[Contraction] = None) -> Dgla:
    """The graded Lie algebra induced on H(L) by the bracket of L."""
    if coh is None:
        coh = def_tangent(l)
    t = coh.harmonic_space
    bracket: Dict[Tuple[int, int], SparseVec] = {}
    for p in range(t.dim):
        for q in range(t.dim):
            br = l.bracket_vec(coh.representative(p), coh.representative(q))
            cls = coh.class_of(br)
            if cls is None:
                raise CertificateError("bracket of cocycles must be a cocycle")
            row = {k: c for k, c in enumerate(cls) if c}
            if row:
                bracket[(p, q)] = row
    return Dgla(t, bracket, GradedMap(t, t, 1))
