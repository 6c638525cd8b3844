"""Obstruction classes, twisted extensions, lifting defects, tangent brackets."""

from fractions import Fraction

import pytest

from defalg import docio, linalg
from defalg.algebras import (DgAlgebraMorphism, NilpotentDgAlgebra,
                             SmallExtension, factor_into_small_extensions,
                             kernel_extension, quotient_algebra)
from defalg.dgla import (Dgla, def_tangent, mc_check, mc_lift, tensor_dgla,
                         trivial_algebra_of_complex)
from defalg.graded import Complex, GradedMap, GradedSpace, cohomology
from defalg.linfty import check_linfty
from defalg.obstruction import (cohomology_bracket,
                                is_dg_morphism_to_shifted_kernel,
                                lifting_defect, obstruction_class,
                                primary_obstruction,
                                primary_obstruction_extension, prop_cone,
                                tangent_bracket, twist_extension)
from conftest import (UV_M3_EXT, ShortExactSequence, connecting_hom,
                      counterexample_extension, direct_sum_dgla, heisenberg, make_rng,
                      mat_mul, perturb_one_entry,
                      random_abelian_dgla, random_dgla, random_invertible_degree0,
                      random_section, rescaled,
                      reference_shifted_kernel_violations, sl2, sl2_odd, transported,
                      dense, invert, matrix, solve, sparse, entries, tensor_push)

F = Fraction


def random_mc_over_trivial(rng, tb):
    """A random degree-1 element; MC over a trivial-mult, zero-d coefficient
    algebra."""
    return sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in tb.space.degrees])


# ---------------------------------------------------------------------------
# obstruction classes of small extensions


def test_obstruction_class_lift_independent():
    rng = make_rng(60)
    l = sl2_odd()
    e = primary_obstruction_extension(-1, 0)
    for _ in range(10):
        tb = tensor_dgla(l, e.b)
        x = random_mc_over_trivial(rng, tb)
        base = obstruction_class(e, l, x)
        for _ in range(3):
            again = obstruction_class(e, l, x, random_section(e, rng))
            assert again.class_coords == base.class_coords


def test_obstruction_detects_bracket():
    l = sl2_odd()
    e = primary_obstruction_extension(-1, 0)
    tb = tensor_dgla(l, e.b)
    # e ⊗ u + F' ⊗ v: the defect is [e, F'] ⊗ uv = H ⊗ uv, a nonzero class
    u, v = {0: F(1)}, {1: F(1)}
    x = linalg.add_into(tb.elem(l.space.basis_vector(0), u), tb.elem(l.space.basis_vector(5), v))
    ob = obstruction_class(e, l, x)
    assert not ob.is_zero
    assert ob.lift is None
    # e ⊗ u + E ⊗ v: [e, E] = [e,e]' = 0, so the element lifts
    y = linalg.add_into(tb.elem(l.space.basis_vector(0), u), tb.elem(l.space.basis_vector(3), v))
    ob2 = obstruction_class(e, l, y)
    assert ob2.is_zero
    assert ob2.lift is not None and ob2.certificate is not None


def test_kernel_coords_match_solve():
    rng = make_rng(67)
    l = sl2_odd()
    e0 = counterexample_extension()
    exts = [e0] + factor_into_small_extensions(e0.alpha) + [
        primary_obstruction_extension(i, j) for i, j in ((0, 0), (-1, 0), (1, -1))]
    for e in exts:
        iota_m = matrix(e.iota)
        # basis vectors of A, in ι(I) or not, and a random vector of ι(I)
        for k in range(e.a.dim):
            v = e.a.space.basis_vector(k)
            sol = solve(iota_m, dense(v, e.a.dim))
            assert e.kernel_coords(v) == (None if sol is None else sparse(sol))
        c = sparse([F(rng.randint(-3, 3)) for _ in range(e.i_complex.space.dim)])
        assert e.kernel_coords(e.iota.apply(c)) == c
        off = e.section().column(0)
        assert e.kernel_coords(off) is None
        # L⊗A, read block by block, against 1⊗ι
        ti = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
        ta = tensor_dgla(l, e.a)
        emb = tensor_push(ti, ta.space, e.iota, e.a.dim)
        cc = [F(rng.randint(-3, 3)) for _ in range(ti.dim)]
        w = emb.apply(sparse(cc))
        assert e.kernel_coords(w) == sparse(cc)
        assert solve(matrix(emb), dense(w, ta.dim)) == cc
        linalg.add_into(w, {ta.pair_index(l.dim - 1, p): x for p, x in off.items()})
        assert e.kernel_coords(w) is None
        assert solve(matrix(emb), dense(w, ta.dim)) is None


@pytest.mark.parametrize("combo", ["1 e@u + 1 f@v", "1 e@uv"],
                         ids=["not-mc-over-b", "degree-2"])
def test_lift_rejects_element_not_mc_over_base(combo):
    l = sl2()
    e = docio.build_small_extension(docio.parse(UV_M3_EXT))
    x = docio.build_mc_element(
        docio.parse("kind: mc_element\nelement: %s\n" % combo),
        tensor_dgla(l, e.b).space)
    with pytest.raises(ValueError):
        mc_lift(e, l, x)
    with pytest.raises(ValueError):
        obstruction_class(e, l, x)


def test_obstruction_vanishes_on_acyclic_stages():
    # evaluation at 0 of A[t,dt] factors into acyclic small extensions;
    # through those every MC element lifts
    from defalg.algebras import de_rham_truncation
    rng = make_rng(61)
    l = sl2()
    e0 = counterexample_extension()
    dr = de_rham_truncation(e0.b, 1)
    for stage in factor_into_small_extensions(dr.evaluate(0)):
        assert stage.is_acyclic()
        tb = tensor_dgla(l, stage.b)
        x = {}                           # B has trivial d here not guaranteed;
        ok, _ = mc_check(tb, x)          # use the zero element, always MC
        assert ok
        ob = obstruction_class(stage, l, x, random_section(stage, rng))
        assert ob.is_zero and ob.lift is not None


def _product_extension(e1, e2):
    """The direct product extension A1×A2 -> B1×B2 with kernel I1⊕I2."""
    from defalg.algebras import direct_product
    ap, pa1, pa2 = direct_product(e1.a, e2.a)
    bp, pb1, pb2 = direct_product(e1.b, e2.b)
    am = GradedMap(ap.space, bp.space, 0)
    for (j, i), c in entries(e1.alpha.map).items():
        am.set_entry(j, i, c)
    for (j, i), c in entries(e2.alpha.map).items():
        am.set_entry(j + e1.b.dim, i + e1.a.dim, c)
    e = kernel_extension(DgAlgebraMorphism(ap, bp, am))
    return e, pa1, pb1


def test_obstruction_base_change():
    # a morphism of small extensions intertwines the obstruction maps:
    # projecting a product extension onto its first factor
    rng = make_rng(62)
    l = sl2_odd()
    e1 = primary_obstruction_extension(-1, 0)
    e2 = primary_obstruction_extension(-1, -1)
    e, pa1, pb1 = _product_extension(e1, e2)
    assert not e.validate()
    # the kernel map I -> I1 closing the square with pa1
    pi1 = GradedMap(e.i_complex.space, e1.i_complex.space, 0)
    i1mat = matrix(e1.iota)
    for k in range(e.i_complex.space.dim):
        v = pa1.apply(e.iota.column(k))
        coords = solve(i1mat, dense(v, e1.a.dim))
        assert coords is not None
        for j, c in enumerate(coords):
            if c:
                pi1.set_entry(j, k, c)
    tb = tensor_dgla(l, e.b)
    tb1 = tensor_dgla(l, e1.b)
    push_b = tensor_push(tb, tb1.space, pb1, e1.b.dim)
    for _ in range(20):
        x = random_mc_over_trivial(rng, tb)
        ob = obstruction_class(e, l, x, random_section(e, rng))
        ob1 = obstruction_class(e1, l, push_b.apply(x),
                                random_section(e1, rng))
        push_i = tensor_push(ob.tensor_i, ob1.tensor_i.space, pi1, e1.i_complex.space.dim)
        pushed = ob1.i_cohomology.class_of(push_i.apply(ob.representative))
        assert pushed == ob1.class_coords


def test_obstruction_abelian_is_connecting_hom():
    # for an abelian DGLA the obstruction map is the snake-lemma connecting
    # homomorphism of 0 -> L⊗I -> L⊗A -> L⊗B -> 0
    rng = make_rng(63)
    e0 = counterexample_extension()
    stages = factor_into_small_extensions(e0.alpha)
    done = 0
    while done < 5:
        l = random_abelian_dgla(rng, max_dim=6)
        for e in stages:
            ta = tensor_dgla(l, e.a)
            tb = tensor_dgla(l, e.b)
            probe = obstruction_class(e, l, {})
            ses = ShortExactSequence(probe.tensor_i.complex(), ta.complex(),
                                     tb.complex(),
                                     tensor_push(probe.tensor_i, ta.space, e.iota, e.a.dim),
                                     tensor_push(ta, tb.space, e.alpha.map,
                                                 e.b.dim))
            assert not ses.validate()
            delta = connecting_hom(ses)
            hb = cohomology(tb.complex())
            # a random MC element over B: any degree-1 cocycle
            x = {}
            for c in range(hb.harmonic_space.dim):
                if hb.harmonic_space.degrees[c] != 1:
                    continue
                linalg.add_into(x, hb.representative(c), F(rng.randint(-2, 2)))
            ok, _ = mc_check(tb, x)
            assert ok
            ob = obstruction_class(e, l, x, random_section(e, rng))
            assert ob.class_coords == delta.apply(hb.class_of(x))
        done += 1


def test_obstruction_zero_kernel():
    e1 = primary_obstruction_extension(-1, 0)
    e = kernel_extension(DgAlgebraMorphism.identity(e1.b))
    assert e.i_complex.space.dim == 0
    l = sl2_odd()
    tb = tensor_dgla(l, e.b)
    x = random_mc_over_trivial(make_rng(64), tb)
    ob = obstruction_class(e, l, x)
    assert ob.is_zero and ob.lift is not None


# ---------------------------------------------------------------------------
# twisted extensions


def _random_phi(rng, e):
    """A random dg-algebra morphism B -> I[1] for a primary (u,v) extension."""
    phi = GradedMap(e.b.space, e.i_complex.space, 1)
    for i in range(e.b.dim):
        for k in range(e.i_complex.space.dim):
            if e.i_complex.space.degrees[k] != e.b.space.degrees[i] + 1:
                continue
            c = rng.randint(-2, 2)
            if c:
                phi.set_entry(k, i, F(c))
    return phi


def signed_kernel_push(l, tb, ti, phi, x):
    """(1⊗φ)(x) with the Koszul sign of moving the odd map φ past L."""
    out = {}
    adim = tb.a.dim
    idim = ti.a.dim
    for key, c in x.items():
        i, p = divmod(key, adim)
        sgn = F(-1 if l.space.degrees[i] % 2 else 1)
        linalg.add_into(out, {i * idim + q: cq for q, cq in phi.column(p).items()}, sgn * c)
    return out


def test_twist_extension_laws():
    rng = make_rng(65)
    l = sl2_odd()
    e = primary_obstruction_extension(-1, -1)
    # phi = 0 leaves the extension unchanged
    zero = GradedMap(e.b.space, e.i_complex.space, 1)
    assert twist_extension(e, zero).a.d == e.a.d
    ti = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
    tb = tensor_dgla(l, e.b)
    for _ in range(15):
        phi = _random_phi(rng, e)
        ephi = twist_extension(e, phi)
        assert not ephi.validate()
        # twisting back by -phi restores the differential
        assert twist_extension(ephi, phi.scale(F(-1))).a.d == e.a.d
        # shift law: with the same section, the defect representatives
        # differ by exactly the (signed) push of x along phi
        x = random_mc_over_trivial(rng, tb)
        sec = random_section(e, rng)
        ob = obstruction_class(e, l, x, sec)
        obp = obstruction_class(ephi, l, x, sec)
        shift = signed_kernel_push(l, tb, ti, phi, x)
        assert obp.representative == linalg.add_into(dict(ob.representative), shift)
        assert obp.class_coords == linalg.add_into(
            dict(ob.class_coords), ob.i_cohomology.class_of(shift))


def test_twist_rejects_non_morphism():
    e = primary_obstruction_extension(-1, -1)
    bad = GradedMap(e.b.space, e.i_complex.space, 0)
    with pytest.raises(ValueError):
        twist_extension(e, bad)


# ---------------------------------------------------------------------------
# lifting defects of differentials


def test_lifting_defect_zero_for_square_zero_lift():
    e = primary_obstruction_extension(-1, 0)
    ld = lifting_defect(e)
    assert ld.delta.is_zero()
    assert ld.null_homotopic
    assert ld.corrected is not None
    assert ld.corrected.a.d == e.a.d


def chain_lift_extension():
    """d: a -> m -> p with kernel {m, p}: delta != 0 but null-homotopic."""
    asp = GradedSpace([("a", 1), ("m", 2), ("p", 3)])
    d = GradedMap(asp, asp, 1, {(1, 0): F(1), (2, 1): F(1)})
    a = NilpotentDgAlgebra.trivial(asp, d)
    bsp = GradedSpace([("a", 1)])
    b = NilpotentDgAlgebra.trivial(bsp, GradedMap(bsp, bsp, 1))
    am = GradedMap(asp, bsp, 0, {(0, 0): F(1)})
    ispace = GradedSpace([("m", 2), ("p", 3)])
    iota = GradedMap(ispace, asp, 0, {(1, 0): F(1), (2, 1): F(1)})
    di = GradedMap(ispace, ispace, 1, {(1, 0): F(1)})
    return SmallExtension(Complex(ispace, di), a, b, iota,
                          DgAlgebraMorphism(a, b, am, check=False))


def test_lifting_defect_correctable():
    e = chain_lift_extension()
    ld = lifting_defect(e)
    assert not ld.delta.is_zero()
    assert ld.null_homotopic and ld.corrected is not None
    dn = ld.corrected.a.d
    assert dn.compose(dn).is_zero()
    # the corrected differential still restricts to d_I and lifts d_B
    assert dn.compose(e.iota) == e.iota.compose(e.i_complex.d)
    assert e.alpha.map.compose(dn) == e.b.d.compose(e.alpha.map)


def genuine_defect_extension():
    """A derivation lift whose square is a non-null-homotopic defect.

    Generators x(1), y(2), g(2), x'(2) with xy = z, x'y = w; the derivation
    sends x -> x', g -> z, z -> w.  Then d²(g) = w spans the kernel, and on
    B/B² no degree-1 homotopy slot exists, so the defect class is nonzero.
    """
    asp = GradedSpace([("x", 1), ("y", 2), ("g", 2), ("xp", 2),
                       ("z", 3), ("w", 4)])
    mult = {(0, 1): {4: F(1)}, (1, 0): {4: F(1)},
            (3, 1): {5: F(1)}, (1, 3): {5: F(1)}}
    d = GradedMap(asp, asp, 1, {(3, 0): F(1), (4, 2): F(1), (5, 4): F(1)})
    a = NilpotentDgAlgebra(asp, mult, d)
    bsp = GradedSpace([("x", 1), ("y", 2), ("g", 2), ("xp", 2), ("z", 3)])
    bmult = {(0, 1): {4: F(1)}, (1, 0): {4: F(1)}}
    bd = GradedMap(bsp, bsp, 1, {(3, 0): F(1), (4, 2): F(1)})
    b = NilpotentDgAlgebra(bsp, bmult, bd)
    am = GradedMap(asp, bsp, 0, {(i, i): F(1) for i in range(5)})
    ispace = GradedSpace([("w", 4)])
    iota = GradedMap(ispace, asp, 0, {(5, 0): F(1)})
    return SmallExtension(Complex(ispace, GradedMap(ispace, ispace, 1)),
                          a, b, iota, DgAlgebraMorphism(a, b, am))


def defect_extension_with_slack():
    """The genuine-defect extension with an extra closed kernel element n(3).

    The spare degree-3 kernel direction opens homotopy slots on the
    surviving degree-2 generators, so nonzero derivation twists phi with
    phi(B²) = 0 exist.
    """
    asp = GradedSpace([("x", 1), ("y", 2), ("g", 2), ("xp", 2),
                       ("z", 3), ("w", 4), ("n", 3)])
    mult = {(0, 1): {4: F(1)}, (1, 0): {4: F(1)},
            (3, 1): {5: F(1)}, (1, 3): {5: F(1)}}
    d = GradedMap(asp, asp, 1, {(3, 0): F(1), (4, 2): F(1), (5, 4): F(1)})
    a = NilpotentDgAlgebra(asp, mult, d)
    bsp = GradedSpace([("x", 1), ("y", 2), ("g", 2), ("xp", 2), ("z", 3)])
    bmult = {(0, 1): {4: F(1)}, (1, 0): {4: F(1)}}
    bd = GradedMap(bsp, bsp, 1, {(3, 0): F(1), (4, 2): F(1)})
    b = NilpotentDgAlgebra(bsp, bmult, bd)
    am = GradedMap(asp, bsp, 0, {(i, i): F(1) for i in range(5)})
    ispace = GradedSpace([("w", 4), ("n", 3)])
    iota = GradedMap(ispace, asp, 0, {(5, 0): F(1), (6, 1): F(1)})
    return SmallExtension(Complex(ispace, GradedMap(ispace, ispace, 1)),
                          a, b, iota, DgAlgebraMorphism(a, b, am))


def random_derivation_twist(rng, e):
    """A random degree-1 map phi: B -> I with phi(B²) = 0.

    Such maps are exactly the restrictions of derivation lifts differing
    from d, since derivations into an A-annihilated kernel kill B².
    """
    products = []
    for i in range(e.b.dim):
        for j in range(e.b.dim):
            p = e.b.table_entry(i, j)
            if p:
                products.append(p)
    while True:
        phi = GradedMap(e.b.space, e.i_complex.space, 1)
        for i in range(e.b.dim):
            for k in range(e.i_complex.space.dim):
                if e.i_complex.space.degrees[k] != e.b.space.degrees[i] + 1:
                    continue
                c = rng.randint(-2, 2)
                if c:
                    phi.set_entry(k, i, F(c))
        if not any(phi.apply(p) for p in products):
            return phi


def random_kernel_morphism(rng, e, shift):
    """phi = d_I h + (-1)^shift h d_B for a random h: B -> I of degree
    shift - 1 that kills B², through B/B²: a dg-algebra morphism into
    I[shift]."""
    bbar, pr = quotient_algebra(e.b, [p for _, _, p in e.b.constants()])
    ispace = e.i_complex.space
    hbar = GradedMap(bbar.space, ispace, shift - 1)
    for i in range(bbar.dim):
        for k in range(ispace.dim):
            if ispace.degrees[k] == bbar.space.degrees[i] + shift - 1:
                hbar.set_entry(k, i, F(rng.randint(-2, 2)))
    h = hbar.compose(pr.map)
    return e.i_complex.d.compose(h) + h.compose(e.b.d).scale(F(-1) ** shift)


def test_shifted_kernel_check_matches_dense_oracle():
    rng = make_rng(70)
    extensions = [genuine_defect_extension(), defect_extension_with_slack(),
                  chain_lift_extension(), counterexample_extension(),
                  primary_obstruction_extension(-1, -1), primary_obstruction_extension(-1, 0)]
    verdicts = []
    for case in range(120):
        e = extensions[case // 2 % len(extensions)]
        shift = 1 + case // 12 % 2
        phi = random_kernel_morphism(rng, e, shift)
        if case % 2:
            phi = perturb_one_entry(rng, phi)
            if phi is None:
                continue
        errs = is_dg_morphism_to_shifted_kernel(e, phi, shift)
        assert errs == reference_shifted_kernel_violations(e, phi, shift)
        verdicts.append(not errs)
    assert len(verdicts) >= 100
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 10


def test_lifting_defect_not_null_homotopic():
    e = genuine_defect_extension()
    # the lift is a genuine derivation: validation flags only d² != 0
    rep = e.a.validate()
    assert not rep.ok
    assert all("d" in err for err in rep.errors)
    assert e.b.validate().ok
    ld = lifting_defect(e)
    assert not ld.delta.is_zero()
    assert not ld.null_homotopic
    assert ld.homotopy is None and ld.corrected is None


def test_lifting_defect_difference_is_coboundary():
    # two lifts differing by ιφα have defects differing by d_I φ + φ d_B
    rng = make_rng(66)
    e = genuine_defect_extension()
    ld = lifting_defect(e)
    for _ in range(10):
        phi = GradedMap(e.b.space, e.i_complex.space, 1)
        for i in range(e.b.dim):
            for k in range(e.i_complex.space.dim):
                if e.i_complex.space.degrees[k] != e.b.space.degrees[i] + 1:
                    continue
                c = rng.randint(-2, 2)
                if c:
                    phi.set_entry(k, i, F(c))
        d2 = e.a.d + e.iota.compose(phi).compose(e.alpha.map)
        a2 = NilpotentDgAlgebra(e.a.space, e.a.table, d2)
        e2 = SmallExtension(e.i_complex, a2, e.b, e.iota,
                            DgAlgebraMorphism(a2, e.b, e.alpha.map))
        ld2 = lifting_defect(e2)
        expect = e.i_complex.d.compose(phi) + phi.compose(e.b.d)
        assert ld2.delta - ld.delta == expect


def test_lifting_defect_class_invariant_under_derivation_twists():
    # twisting the lift by a derivation-type phi (phi(B²) = 0) shifts delta
    # by a coboundary and never changes the null-homotopy verdict
    rng = make_rng(71)
    e = defect_extension_with_slack()
    ld = lifting_defect(e)
    assert not ld.null_homotopic
    for _ in range(10):
        phi = random_derivation_twist(rng, e)
        d2 = e.a.d + e.iota.compose(phi).compose(e.alpha.map)
        a2 = NilpotentDgAlgebra(e.a.space, e.a.table, d2)
        e2 = SmallExtension(e.i_complex, a2, e.b, e.iota,
                            DgAlgebraMorphism(a2, e.b, e.alpha.map))
        ld2 = lifting_defect(e2)
        assert ld2.delta - ld.delta == \
            e.i_complex.d.compose(phi) + phi.compose(e.b.d)
        assert ld2.null_homotopic == ld.null_homotopic


def test_prop_cone_is_acyclic_small():
    for e in (genuine_defect_extension(), chain_lift_extension()):
        cone, gamma = prop_cone(e)
        assert cone.validate().ok        # square-zero even though d_A² != 0
        assert not gamma.violations()
        ke = kernel_extension(gamma)
        assert not ke.validate()
        assert ke.is_acyclic()


# ---------------------------------------------------------------------------
# primary obstructions and the tangent bracket


def test_primary_obstruction_matches_bracket_on_sl2():
    l = sl2()
    coh = def_tangent(l)
    sign = None
    for p in range(3):
        for q in range(3):
            if p == q:
                continue
            x = l.space.basis_vector(p)
            y = l.space.basis_vector(q)
            po = primary_obstruction(l, -1, -1, x, y, coh)
            br = coh.class_of(l.bracket_vec(x, y))
            if sign is None:
                for k in range(3):
                    if br.get(k):
                        sign = po[k] / br[k]
            assert sign in (F(1), F(-1))
            assert po == {k: sign * c for k, c in br.items()}


def test_primary_obstruction_well_defined_on_classes():
    rng = make_rng(67)
    done = 0
    while done < 5:
        l = direct_sum_dgla(sl2(), random_abelian_dgla(rng, max_dim=8))
        pre = [i for i in l.space.degree_indices(-1)]
        if not pre:
            continue
        coh = def_tangent(l)
        x = l.space.basis_vector(0)           # the class of e
        y = l.space.basis_vector(2)           # the class of f
        base = primary_obstruction(l, -1, -1, x, y, coh)
        # shift both representatives by coboundaries
        bx = l.d.apply(l.space.basis_vector(pre[0]))
        x2 = linalg.add_into(dict(x), bx, F(rng.randint(1, 3)))
        y2 = linalg.add_into(dict(y), bx, F(rng.randint(-3, -1)))
        assert primary_obstruction(l, -1, -1, x2, y2, coh) == base
        done += 1


def test_primary_obstruction_trivial_cases():
    l = sl2()
    y = l.space.basis_vector(0)
    assert primary_obstruction(l, -1, -1, {}, y) == {}
    ab = random_abelian_dgla(make_rng(68))
    coh = def_tangent(ab)
    for p in range(coh.harmonic_space.dim):
        for q in range(coh.harmonic_space.dim):
            i = coh.harmonic_space.degrees[p] - 1
            j = coh.harmonic_space.degrees[q] - 1
            po = primary_obstruction(ab, i, j, coh.representative(p),
                                     coh.representative(q), coh)
            assert po == {}


def test_primary_obstruction_rejects_bad_input():
    rng = make_rng(69)
    done = 0
    while done < 3:
        l = random_abelian_dgla(rng)
        bad = None
        for i in range(l.dim):
            if l.d.apply(l.space.basis_vector(i)):
                bad = l.space.basis_vector(i)
                break
        if bad is None:
            continue
        deg = l.space.vector_degree(bad)
        with pytest.raises(ValueError):
            primary_obstruction(l, deg - 1, deg - 1, bad, bad)
        done += 1


def test_tangent_bracket_matches_cohomology_bracket():
    from defalg.dgla import derivations_dgla
    from conftest import counterexample_algebras
    cases = [sl2(), sl2_odd(), derivations_dgla(counterexample_algebras()[0])[0]]
    for l in cases:
        tb = tangent_bracket(l)
        cb = cohomology_bracket(l, tb.cohomology)
        assert tb.t_space == cb.space
        for p in range(tb.t_space.dim):
            for q in range(tb.t_space.dim):
                assert tb.bracket_algebra.table_entry(p, q) == cb.table_entry(p, q)


def test_tangent_bracket_jacobi():
    rng = make_rng(70)
    for _ in range(6):
        l = random_dgla(rng, max_dim=6)
        tb = tangent_bracket(l)
        assert check_linfty(tb.structure).ok      # arity-3 defects vanish
        assert tb.bracket_algebra.validate().ok   # antisymmetry + Jacobi


def test_tangent_data_invariant_under_quasi_isomorphism():
    # L embeds quasi-isomorphically into L ⊕ (acyclic abelian); tangent
    # dimensions and brackets agree through the induced isomorphism
    acsp = GradedSpace([("P", 0), ("Q", 1)])
    ac = Dgla(acsp, {}, GradedMap(acsp, acsp, 1, {(1, 0): F(1)}),
              nilpotency_class=1)
    for l in (sl2(), sl2_odd()):
        s = direct_sum_dgla(l, ac)
        coh_l = def_tangent(l)
        coh_s = def_tangent(s)
        assert coh_l.dims() == coh_s.dims()
        cb_l = cohomology_bracket(l, coh_l)
        cb_s = cohomology_bracket(s, coh_s)

        # L's basis comes first in L ⊕ (acyclic abelian)
        iso = [coh_s.class_of(coh_l.representative(p))
               for p in range(coh_l.harmonic_space.dim)]
        for p in range(coh_l.harmonic_space.dim):
            for q in range(coh_l.harmonic_space.dim):
                br = cb_l.table_entry(p, q)
                # push [p,q] of L through the isomorphism
                lhs = {}
                for k, c in br.items():
                    linalg.add_into(lhs, iso[k], c)
                rhs = {}
                for k1, c1 in iso[p].items():
                    for k2, c2 in iso[q].items():
                        linalg.add_into(rhs, cb_s.table_entry(k1, k2), c1 * c2)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# verdicts survive a change of basis

def _new_basis(rng, s):
    """s in a new basis, by fractional scales and then a unitriangular
    change within each degree, with the matrix whose columns are the new
    basis vectors in the old coordinates."""
    scales = [F(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 4])) for _ in range(s.dim)]
    g = random_invertible_degree0(rng, s.space)
    gm = matrix(g)
    m = [[scales[a] * gm[a][i] for i in range(s.dim)] for a in range(s.dim)]
    return transported(rescaled(s, scales), g), m


def _kron_apply(ml, ma, v):
    """(ml ⊗ ma) v on the coordinates of L⊗A, pair (i, p) at i·dim A + p."""
    na = len(ma)
    out = [F(0)] * len(v)
    for idx, c in enumerate(v):
        if c:
            j, q = divmod(idx, na)
            for i in range(len(ml)):
                for p in range(na):
                    if ml[i][j] and ma[p][q]:
                        out[i * na + p] += ml[i][j] * ma[p][q] * c
    return out


def test_verdicts_survive_a_change_of_basis(monkeypatch):
    # L, A and B rewritten in fractional bases: the cohomology dimensions,
    # the mc-lift and obstruction verdicts and the class's vanishing stay
    # the same, and a lift carried back is an MC element over x; the
    # echelon stores rows whose denominator is not 1 on the way
    dens = []
    real_add = linalg.Echelon._add

    def add(self, v):
        out = real_add(self, v)
        dens.append(max((row[2] for row in self._rows), default=1))
        return out
    monkeypatch.setattr(linalg.Echelon, "_add", add)
    extensions = [lambda: primary_obstruction_extension(-1, 0),
                  lambda: primary_obstruction_extension(-1, -1), counterexample_extension]
    verdicts = set()
    for seed in range(60):
        rng = make_rng(700 + seed)
        l, e = rng.choice([sl2, sl2_odd, heisenberg])(), rng.choice(extensions)()
        tb = tensor_dgla(l, e.b)
        x = random_mc_over_trivial(rng, tb)
        (l2, ml), (a2, ma), (b2, mb) = (_new_basis(rng, s) for s in (l, e.a, e.b))
        alpha = mat_mul(mat_mul(invert(mb), matrix(e.alpha.map)), ma)
        e2 = kernel_extension(DgAlgebraMorphism(a2, b2, GradedMap(
            a2.space, b2.space, 0, {(j, i): c for j, row in enumerate(alpha)
                                    for i, c in enumerate(row) if c})))
        x2 = sparse(_kron_apply(invert(ml), invert(mb), dense(x, tb.dim)))
        res, res2 = mc_lift(e, l, x), mc_lift(e2, l2, x2)
        assert res2.lifted == res.lifted
        assert def_tangent(l2).dims() == def_tangent(l).dims()
        assert res2.i_cohomology.dims() == res.i_cohomology.dims()
        if e.is_strictly_small():
            ob, ob2 = obstruction_class(e, l, x), obstruction_class(e2, l2, x2)
            assert ob2.is_zero == ob.is_zero == res.lifted
        if res2.lifted:
            back = sparse(_kron_apply(ml, ma, dense(res2.lift, res2.tensor_a.dim)))
            assert mc_check(res.tensor_a, back)[0]
            assert tensor_push(res.tensor_a, tb.space, e.alpha.map, e.b.dim).apply(back) == x
        verdicts.add(res.lifted)
    assert verdicts == {True, False}
    assert any(d != 1 for d in dens)
