"""Acceptance gate: ten exact criteria, one PASS/FAIL line each.

Every check is exact (tolerance 0); each criterion also carries a wall-clock
budget.  Results are printed in the terminal summary via the conftest hook.
"""

import functools
import itertools
import math
import time
from fractions import Fraction

import pytest

from defalg import linalg
from defalg.algebras import (DgAlgebraMorphism, NilpotentDgAlgebra,
                             SmallExtension, factor_into_small_extensions,
                             kernel_extension, mapping_cone, quotient_algebra)
from defalg.dgla import (Dgla, bch, def_tangent, gauge_act, mc_check,
                         mc_defect, mc_lift, tensor_dgla, trivial_algebra_of_complex)
from defalg.graded import (Complex, GradedMap, GradedSpace, cohomology,
                           is_quasiiso, koszul_sign, unshuffles)
from defalg.linfty import (SymCoalgebra, check_linfty, dgla_to_linfty,
                           linfty_mc_check)
from defalg.models import (QuasismoothTrunc, h_r_tangent, is_minimal,
                           is_smooth_minimal, kuranishi_prorepresent,
                           minimalize, morphism_lift)
from defalg.obstruction import (cohomology_bracket, lifting_defect,
                                obstruction_class, primary_obstruction_extension,
                                tangent_bracket, twist_extension)
from conftest import (counterexample_element, counterexample_extension,
                      direct_sum_dgla, make_rng, random_abelian_dgla,
                      random_algebra, random_complex, random_dgla,
                      random_section, sl2, sl2_odd, dense, matrix, nullspace, rank, solve,
                      sparse, entries, tensor_push)
from test_obstruction import (_product_extension, _random_phi,
                              defect_extension_with_slack,
                              random_derivation_twist, signed_kernel_push)
from test_models import non_minimal_trunc

F = Fraction

RESULTS = {}


def criterion(number, budget_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                assert elapsed < budget_seconds, \
                    "budget exceeded: %.2fs >= %ss" % (elapsed, budget_seconds)
            except BaseException:
                RESULTS[number] = "FAIL"
                print("CRITERION %d: FAIL" % number)
                raise
            RESULTS[number] = "PASS"
            print("CRITERION %d: PASS" % number)
        return wrapper
    return deco


def compose_perm(sigma, tau):
    return tuple(sigma[tau[i]] for i in range(len(tau)))


@criterion(1, 1.0)
def test_criterion_01_sign_coherence():
    rng = make_rng(100)
    perms = list(itertools.permutations(range(4)))
    for _ in range(50):
        degs = [rng.randint(-2, 3) for _ in range(4)]
        for sigma in perms:
            for tau in perms:
                lhs = koszul_sign(compose_perm(sigma, tau), degs)
                rhs = koszul_sign(sigma, degs) * \
                    koszul_sign(tau, [degs[sigma[i]] for i in range(4)])
                assert lhs == rhs
    for total in range(1, 8):
        for p in range(0, total + 1):
            q = total - p
            us = unshuffles(p, q)
            assert len(us) == math.comb(total, p)
            for s in us:
                assert list(s[:p]) == sorted(s[:p])
                assert list(s[p:]) == sorted(s[p:])


def polynomial_forms_complex(n):
    """Span of t^i (i <= n) and t^i dt (i < n) with d(t^i) = i t^{i-1} dt."""
    basis = [("t%d" % i, 0) for i in range(n + 1)]
    basis += [("t%ddt" % i, 1) for i in range(n)]
    space = GradedSpace(basis)
    d = GradedMap(space, space, 1)
    for i in range(1, n + 1):
        d.set_entry(n + i, i, F(i))
    return Complex(space, d)


@criterion(2, 5.0)
def test_criterion_02_cohomology_correctness():
    # polynomial differential forms in one variable have H = K in degree 0
    for n in range(1, 7):
        cx = polynomial_forms_complex(n)
        assert cohomology(cx).dims() == {0: 1}
    rng = make_rng(101)
    # mapping cones of identity maps are acyclic
    for _ in range(10):
        cx, _ = random_complex(rng, max_dim=8)
        a = NilpotentDgAlgebra.trivial(cx.space, cx.d)
        cone = mapping_cone(a, [cx.space.basis_vector(i)
                                for i in range(cx.space.dim)])
        assert cohomology(cone.algebra.complex()).total_dim() == 0
    # rank identity dim Z - dim B = dim H in every degree, 100 random complexes
    for _ in range(100):
        cx, _ = random_complex(rng, max_dim=12)
        coh = cohomology(cx)
        for k in set(cx.space.degrees):
            idx = cx.space.degree_indices(k)
            dk = [dense(cx.d.column(i), cx.space.dim) for i in idx]
            z = len(idx) - (rank(dk) if dk else 0)
            prev = cx.space.degree_indices(k - 1)
            dp = [dense(cx.d.column(i), cx.space.dim) for i in prev]
            b = rank(dp) if dp else 0
            assert z - b == coh.dim(k)


@criterion(3, 10.0)
def test_criterion_03_tensor_dgla_axioms():
    rng = make_rng(102)
    done = 0
    while done < 100:
        l = random_dgla(rng, max_dim=8)
        a = random_algebra(rng, max_dim=8)
        if l.dim > 8 or a.dim > 8 or l.dim * a.dim > 12:
            continue
        t = tensor_dgla(l, a)
        assert t.validate().ok
        done += 1


@criterion(4, 10.0)
def test_criterion_04_gauge_mc_suite():
    rng = make_rng(103)
    done = 0
    while done < 40:                      # gauge_act preserves MC
        l = random_dgla(rng)
        alg = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, alg)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        g0, g1 = [F(0)] * t.dim, [F(0)] * t.dim
        for i in t.space.degree_indices(0):
            g0[i] = F(rng.randint(-2, 2))
            g1[i] = F(rng.randint(-2, 2))
        g0, g1 = sparse(g0), sparse(g1)
        x = gauge_act(t, g0, {})
        ok, _ = mc_check(t, x)
        assert ok
        y = gauge_act(t, g1, x)
        ok, _ = mc_check(t, y)
        assert ok
        # action property: e^a e^b = e^{bch(a, b)}
        rhs = gauge_act(t, bch(t.bracket_vec, g1, g0, t.nilpotency_class), {})
        assert y == rhs
        done += 1
    done = 0
    while done < 30:                      # abelian case: Def_L(C) = H¹(L⊗C)
        l = random_abelian_dgla(rng, max_dim=8)
        alg = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, alg)
        deg0 = t.space.degree_indices(0)
        deg1 = t.space.degree_indices(1)
        dk = [dense(t.d.column(i), t.dim) for i in deg1]
        z1 = len(deg1) - (rank(dk) if dk else 0)
        dp = [dense(t.d.column(i), t.dim) for i in deg0]
        b1 = rank(dp) if dp else 0
        assert z1 - b1 == cohomology(t.complex()).dim(1)
        # gauge orbits are translations by exact elements
        if deg0 and deg1:
            x = {}
            c = sparse([F(rng.randint(-2, 2)) if d == 0 else F(0) for d in t.space.degrees])
            assert gauge_act(t, c, x) == linalg.add_into(dict(x), t.d.apply(c), F(-1))
        done += 1
    done = 0
    while done < 30:                      # stabilizer: e^a b = b
        l = random_dgla(rng)
        alg = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, alg)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        g = sparse([F(rng.randint(-2, 2)) if d == 0 else F(0) for d in t.space.degrees])
        b = gauge_act(t, g, {})
        deg0 = t.space.degree_indices(0)
        cols = [linalg.add_into(t.bracket_vec(t.space.basis_vector(i), b),
                                t.d.column(i), F(-1))
                for i in deg0]
        ns = nullspace([[cols[c].get(r, F(0)) for c in range(len(cols))]
                        for r in range(t.dim)])
        for coeffs in ns:
            a = {i: cf for cf, i in zip(coeffs, deg0) if cf}
            assert gauge_act(t, a, b) == b
        done += 1


@criterion(5, 1.0)
def test_criterion_05_counterexample_end_to_end():
    l = sl2()
    e = counterexample_extension()
    tb = tensor_dgla(l, e.b)
    x = counterexample_element(l, tb)
    ok, _ = mc_check(tb, x)
    assert ok
    res = mc_lift(e, l, x)
    assert not res.lifted
    assert any(res.obstruction_class)
    assert is_quasiiso(e.alpha.map, e.a.complex(), e.b.complex())


@criterion(6, 10.0)
def test_criterion_06_obstruction_laws():
    rng = make_rng(104)
    l = sl2_odd()
    # lift-independence: same class for arbitrary set-linear lifts
    e = primary_obstruction_extension(-1, 0)
    tb = tensor_dgla(l, e.b)
    for _ in range(10):
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in tb.space.degrees])
        base = obstruction_class(e, l, x)
        for _ in range(3):
            again = obstruction_class(e, l, x, random_section(e, rng))
            assert again.class_coords == base.class_coords
    # base change on 20 diagrams: project a product extension to a factor
    diagrams = 0
    pairs = [((-1, 0), (-1, -1)), ((-1, -1), (-1, 0)),
             ((0, 0), (-1, -1)), ((-1, 0), (0, 0))]
    for (ij1, ij2) in pairs:
        e1 = primary_obstruction_extension(*ij1)
        e2 = primary_obstruction_extension(*ij2)
        ep, pa1, pb1 = _product_extension(e1, e2)
        pi1 = GradedMap(ep.i_complex.space, e1.i_complex.space, 0)
        i1mat = matrix(e1.iota)
        for k in range(ep.i_complex.space.dim):
            v = pa1.apply(ep.iota.column(k))
            coords = solve(i1mat, dense(v, e1.a.dim))
            assert coords is not None
            for j, c in enumerate(coords):
                if c:
                    pi1.set_entry(j, k, c)
        tbp = tensor_dgla(l, ep.b)
        tb1 = tensor_dgla(l, e1.b)
        push_b = tensor_push(tbp, tb1.space, pb1, e1.b.dim)
        for _ in range(5):
            x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in tbp.space.degrees])
            ob = obstruction_class(ep, l, x, random_section(ep, rng))
            ob1 = obstruction_class(e1, l, push_b.apply(x),
                                    random_section(e1, rng))
            push_i = tensor_push(ob.tensor_i, ob1.tensor_i.space, pi1,
                                 e1.i_complex.space.dim)
            assert ob1.i_cohomology.class_of(push_i.apply(ob.representative)) \
                == ob1.class_coords
            diagrams += 1
    assert diagrams == 20
    # twist law ob_{e_phi} = ob_e + phi on 50 random (e, phi, x)
    count = 0
    exts = [primary_obstruction_extension(-1, -1),
            primary_obstruction_extension(-1, 0),
            primary_obstruction_extension(0, 0)]
    while count < 50:
        et = exts[count % len(exts)]
        phi = _random_phi(rng, et)
        ephi = twist_extension(et, phi)
        ti = tensor_dgla(l, trivial_algebra_of_complex(et.i_complex))
        tbt = tensor_dgla(l, et.b)
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in tbt.space.degrees])
        sec = random_section(et, rng)
        ob = obstruction_class(et, l, x, sec)
        obp = obstruction_class(ephi, l, x, sec)
        shift = signed_kernel_push(l, tbt, ti, phi, x)
        assert obp.representative == linalg.add_into(dict(ob.representative), shift)
        count += 1
    # homotopy-class independence of the lifting defect under derivation
    # twists (which are exactly the degree-1 maps killing B²)
    eg = defect_extension_with_slack()
    ld = lifting_defect(eg)
    for _ in range(10):
        phi = random_derivation_twist(rng, eg)
        d2 = eg.a.d + eg.iota.compose(phi).compose(eg.alpha.map)
        a2 = NilpotentDgAlgebra(eg.a.space, eg.a.table, d2)
        e2 = SmallExtension(eg.i_complex, a2, eg.b, eg.iota,
                            DgAlgebraMorphism(a2, eg.b, eg.alpha.map))
        ld2 = lifting_defect(e2)
        assert ld2.delta - ld.delta == \
            eg.i_complex.d.compose(phi) + phi.compose(eg.b.d)
        assert ld2.null_homotopic == ld.null_homotopic


def non_jacobi_mutation():
    space = GradedSpace([("e", 0), ("h", 0), ("f", 0)])
    br = {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)},
          (1, 2): {0: F(1)}, (2, 1): {0: F(-1)},
          (2, 0): {0: F(1)}, (0, 2): {0: F(-1)}}
    return Dgla(space, br, GradedMap(space, space, 1))


@criterion(7, 10.0)
def test_criterion_07_linfty_suite():
    rng = make_rng(105)
    # coalgebra axioms up to word length 4
    for _ in range(5):
        v = GradedSpace([("v%d" % i, rng.randint(-1, 2))
                         for i in range(rng.randint(1, 4))])
        c = SymCoalgebra(v, 4)
        assert c.check_cocommutative()
        assert c.check_coassociative()
    # dictionary: DGLA axioms <=> L-infinity axioms on 50 random instances
    for _ in range(50):
        l = random_dgla(rng, max_dim=6)
        assert l.validate().ok
        assert check_linfty(dgla_to_linfty(l, order=3)).ok
    # a single perturbed bracket constant is caught at arity 3
    bad = non_jacobi_mutation()
    rep = check_linfty(dgla_to_linfty(bad, order=3))
    assert not rep.ok and rep.defect_arities == [3]
    # MC agreement under the dictionary, coefficientwise
    done = 0
    while done < 15:
        l = direct_sum_dgla(random_dgla(rng, max_dim=4),
                            random_abelian_dgla(rng, max_dim=4))
        a = random_algebra(rng, max_dim=4)
        if l.dim * a.dim > 40:
            continue
        t = tensor_dgla(l, a)
        s = dgla_to_linfty(l, order=3)
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in t.space.degrees])
        ok, defect = linfty_mc_check(s, a, x)
        assert defect == mc_defect(t, x)
        assert ok == (mc_check(t, x)[0])
        done += 1
    # square-zero coefficients: MC elements are exactly the 1-cocycles
    done = 0
    while done < 10:
        l = random_dgla(rng, max_dim=6)
        cx, _ = random_complex(rng, max_dim=4)
        a = NilpotentDgAlgebra.trivial(cx.space, cx.d)   # A² = 0
        t = tensor_dgla(l, a)
        s = dgla_to_linfty(l, order=3)
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in t.space.degrees])
        ok, _ = linfty_mc_check(s, a, x)
        assert ok == (t.d.apply(x) == {})
        done += 1


@criterion(8, 10.0)
def test_criterion_08_tangent_bracket():
    rng = make_rng(106)
    for _ in range(10):
        l = random_dgla(rng, max_dim=6)
        tb = tangent_bracket(l)
        assert check_linfty(tb.structure).ok       # graded Jacobi
        assert tb.bracket_algebra.validate().ok    # antisymmetry included
    # sl2 structure constants up to one global sign
    l = sl2()
    tb = tangent_bracket(l)
    sign = None
    for p in range(3):
        for q in range(3):
            got = tb.bracket_algebra.table_entry(p, q)
            want = l.table_entry(p, q)
            for k in range(3):
                if k in want:
                    if sign is None:
                        sign = got[k] / want[k]
                    assert got[k] == sign * want[k]
                else:
                    assert k not in got
    assert sign in (F(1), F(-1))


def random_truncation(rng, max_gens=3, max_order=4):
    """A random quasismooth truncation whose d₁ comes from acyclic pairs."""
    n_p = rng.randint(0, max_gens // 2)
    n_free = rng.randint(1 if n_p == 0 else 0, max_gens - 2 * n_p)
    basis = [("g%d" % t, rng.randint(1, 2)) for t in range(n_free)]
    for t in range(n_p):
        k = rng.randint(1, 2)
        basis += [("s%d" % t, k), ("t%d" % t, k + 1)]
    shell = QuasismoothTrunc(GradedSpace(basis), rng.randint(1, max_order), {}, check=False)
    # the first dim V words are the letters
    d1 = GradedMap(shell.v, shell.basis.space, 1)
    for t in range(n_p):
        d1.set_entry(n_free + 2 * t + 1, n_free + 2 * t, F(1))
    comps = {1: d1} if entries(d1) else {}
    return shell.with_components(comps)


@criterion(9, 10.0)
def test_criterion_09_minimal_models():
    from defalg.algebras import check_homotopy
    rng = make_rng(107)
    cases = [non_minimal_trunc(order) for order in (2, 3, 4)]
    cases += [random_truncation(rng) for _ in range(8)]
    for r in cases:
        a = r.algebra()
        mm = minimalize(r)
        assert is_minimal(mm.s)
        assert mm.pi.map.compose(mm.gamma.map) == \
            GradedMap.identity(mm.s.algebra().space)
        gp = DgAlgebraMorphism(a, a, mm.gamma.map.compose(mm.pi.map))
        assert check_homotopy(mm.homotopy, gp, DgAlgebraMorphism.identity(a))
        # tangent dims = cohomology of (V, d₁)
        d1v = GradedMap(r.v, r.v, 1)
        for (pos, i), c in entries(r.components.get(
                1, GradedMap(r.v, r.v, 1))).items():
            d1v.set_entry(pos, i, c)
        coh = cohomology(Complex(r.v, d1v))
        for g in set(r.v.degrees) | set(mm.s.v.degrees):
            assert h_r_tangent(mm.s, 1 - g) == coh.dim(g)
        # idempotence: a second minimalization is the identity stage, and
        # the minimal model maps back into r lifting the inclusion
        mm2 = minimalize(mm.s)
        assert mm2.s is mm.s
        lift = morphism_lift(mm.s, r,
                             [mm.gamma.map.column(i)
                              for i in range(mm.s.v.dim)])
        assert lift is not None and not lift.violations()


@criterion(10, 30.0)
def test_criterion_10_prorepresentability():
    # sl2: Chevalley-Eilenberg quadratic differential, hand-expanded
    l = sl2()
    rk, ve = kuranishi_prorepresent(l, order=3)
    assert is_minimal(rk)                     # d₁ = 0
    assert rk.algebra().validate().ok         # d² = 0
    assert ve.defect() == {}  # MC defect 0 mod order 4
    d2 = rk.components[2]
    assert 3 not in rk.components
    # with generators x_e, x_h, x_f: d x_e = 2s x_e x_h, d x_h = -s x_e x_f,
    # d x_f = 2s x_h x_f for one global sign s
    cols = {}
    for (pos, i), c in entries(d2).items():
        cols[(rk.basis.words[pos], i)] = c
    s = cols[((0, 1), 0)] / 2
    assert s in (F(1), F(-1))
    assert cols == {((0, 1), 0): 2 * s, ((0, 2), 1): -s, ((1, 2), 2): 2 * s}
    ok, wit = is_smooth_minimal(rk)
    assert not ok and wit["order"] == 2       # smooth <=> d = 0
    # mixed-degree and abelian inputs
    for ll in (sl2_odd(), direct_sum_dgla(sl2(), random_abelian_dgla(
            make_rng(108), max_dim=6))):
        rr, vv = kuranishi_prorepresent(ll, order=3)
        assert is_minimal(rr)
        assert rr.algebra().validate().ok
        assert vv.defect() == {}
        assert is_smooth_minimal(rr)[0] == (not rr.components)
        # d₂ is dual to the tangent bracket up to one global sign
        cb = cohomology_bracket(ll)
        dd2 = rr.components.get(2)
        if dd2 is None:
            continue
        sign = None
        for c in range(rr.v.dim):
            for pos in rr.basis.of_length(2):
                a, b = rr.basis.words[pos]
                got = entries(dd2).get((pos, c), F(0))
                want = cb.table_entry(a, b).get(c, F(0))
                if a == b:
                    want = want / 2
                if want:
                    if sign is None:
                        sign = got / want
                    assert got == sign * want
                else:
                    assert not got
    # a fully acyclic abelian DGLA prorepresents a smooth (zero) model
    sp = GradedSpace([("a0", 0), ("a1", 1)])
    ab = Dgla(sp, {}, GradedMap(sp, sp, 1, {(1, 0): F(1)}),
              nilpotency_class=1)
    rk0, _ = kuranishi_prorepresent(ab, order=3)
    assert not rk0.components and is_smooth_minimal(rk0)[0]
