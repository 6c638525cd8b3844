"""Nilpotent dg-algebras: validation, quotients, extensions, homotopies."""

import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defalg import linalg
from defalg.algebras import (DgAlgebraMorphism, NilpotentDgAlgebra, _ceil_frac,
                             chain_homotopic, check_homotopy,
                             constant_homotopy, de_rham_truncation,
                             factor_into_small_extensions, fiber_product,
                             kernel_extension, mapping_cone, quotient_algebra)
from defalg.graded import (Complex, GradedMap, GradedSpace, cohomology,
                           is_quasiiso)
from defalg.dgla import Dgla, tensor_dgla
from defalg.models import QuasismoothTrunc
from conftest import (counterexample_algebras, counterexample_extension,
                      dense_de_rham, heisenberg, koszul_truncation, make_rng,
                      pairs_truncation, random_algebra, random_invertible_degree0,
                      random_pair_truncation, reference_kernel_extension, rescaled,
                      transported,
                      sl2, sl2_odd, dense_quotient_algebra, fraction_left, fraction_left_mul)

F = Fraction


def test_counterexample_algebra_validates():
    a, b = counterexample_algebras()
    assert a.validate().ok
    assert b.validate().ok
    # uv = uw = dw, vw = 0
    u, v, w = (a.space.basis_vector(i) for i in range(3))
    dw = a.space.basis_vector(3)
    assert a.product(u, v) == dw
    assert a.product(u, w) == dw
    assert linalg.is_zero_vector(a.product(v, w))
    assert a.d.apply(w) == dw


def test_validation_catches_broken_axioms():
    # two odd elements with xy = yx violates graded commutativity
    space = GradedSpace([("x", 1), ("y", 1), ("z", 2)])
    mult = {(0, 1): {2: F(1)}, (1, 0): {2: F(1)}}
    a = NilpotentDgAlgebra(space, mult, GradedMap(space, space, 1))
    rep = a.validate()
    assert not rep.ok
    assert any("commutativity" in e for e in rep.errors)
    # d x = y with x z = w, y z = v: d(xz) = 0 but (dx)z = v
    space2 = GradedSpace([("x", 1), ("y", 2), ("z", 2), ("w", 3), ("v", 4)])
    d2 = GradedMap(space2, space2, 1, {(1, 0): F(1)})
    mult2 = {(0, 2): {3: F(1)}, (2, 0): {3: F(1)},
             (1, 2): {4: F(1)}, (2, 1): {4: F(1)}}
    b = NilpotentDgAlgebra(space2, mult2, d2)
    rep2 = b.validate()
    assert not rep2.ok
    assert any("Leibniz" in e for e in rep2.errors)


def test_random_algebras_validate():
    rng = make_rng(20)
    for _ in range(30):
        a = random_algebra(rng)
        assert a.validate().ok
        n = a.nilpotency_index()
        assert n is not None and n >= 1
        powers = a.power_ideal_bases()
        assert not powers[-1]
        for k in range(len(powers) - 1):
            # A^{k+2} ⊆ A^{k+1}
            for v in powers[k + 1]:
                assert linalg.solve_in_span(powers[k], v) is not None


def test_quotient_algebra_is_morphism():
    a, _ = counterexample_algebras()
    ideal = [a.space.basis_vector(2), a.space.basis_vector(3)]  # (w, dw)
    q, proj = quotient_algebra(a, ideal)
    assert q.validate().ok
    assert not proj.violations()
    assert q.dim == 2
    assert q.has_trivial_mult() or True  # uv lands in the killed ideal
    assert linalg.is_zero_vector(q.product(q.space.basis_vector(0),
                                           q.space.basis_vector(1)))


def test_quotient_algebra_matches_dense_oracle():
    """Quotients by Ann(A), by A² and by A³, some spanned redundantly and
    some in fractional bases: the table, d and the projection equal the dense
    construction's, in the same insertion order."""
    rng = make_rng(23)
    cases = 0
    for _ in range(40):
        a = random_algebra(rng)
        if rng.randrange(2):
            a = rescaled(a, [F(rng.choice([1, -1, 2])) / rng.choice([1, 2, 3])
                             for _ in range(a.dim)])
        powers = a.power_ideal_bases()
        for ideal in (a.annihilator_basis(), powers[1] if len(powers) > 1 else [],
                      powers[2] if len(powers) > 2 else []):
            if ideal and rng.randrange(2):      # a redundant spanning set
                ideal = ideal + [linalg.vec_add(ideal[0], ideal[-1])]
            q, proj = quotient_algebra(a, ideal)
            want, pmap = dense_quotient_algebra(a, ideal)
            assert q.space == want.space
            assert list(q.table.items()) == list(want.table.items())
            assert list(q.d.entries.items()) == list(want.d.entries.items())
            assert list(proj.map.entries.items()) == list(pmap.entries.items())
            cases += bool(q.table)
    assert cases >= 5


def test_kernel_extension_structure():
    e = counterexample_extension()
    assert e.validate() == []
    assert not e.is_strictly_small()     # square-zero but not strictly small
    assert e.i_complex.space.dim == 2
    assert e.is_acyclic()
    sec = e.section()
    assert e.alpha.map.compose(sec) == GradedMap.identity(e.b.space)
    assert is_quasiiso(e.alpha.map, e.a.complex(), e.b.complex())


def test_validate_checks_alpha_when_not_strictly_small():
    # A = <x, y, z, t> with x² = y, xz = zx = t; B = <x, y> with x² = y;
    # alpha(y) = 2y is not multiplicative, and A·I = <t> is not zero
    a_sp = GradedSpace([("x", 0), ("y", 0), ("z", 0), ("t", 0)])
    a = NilpotentDgAlgebra(a_sp, {(0, 0): {1: F(1)}, (0, 2): {3: F(1)},
                                  (2, 0): {3: F(1)}}, GradedMap(a_sp, a_sp, 1))
    b_sp = GradedSpace([("x", 0), ("y", 0)])
    b = NilpotentDgAlgebra(b_sp, {(0, 0): {1: F(1)}}, GradedMap(b_sp, b_sp, 1))
    alpha = DgAlgebraMorphism(a, b, GradedMap(a_sp, b_sp, 0,
                                              {(0, 0): F(1), (1, 1): F(2)}),
                              check=False)
    assert alpha.violations() == ["not multiplicative on (x, x)"]
    e = kernel_extension(alpha)
    assert e.validate() == ["not multiplicative on (x, x)"]
    assert not e.is_strictly_small()


def test_validate_rejects_kernel_that_is_not_square_zero():
    # A = <x, y> with x² = y, B = 0: the kernel is all of A and x·x != 0
    a_sp = GradedSpace([("x", 0), ("y", 0)])
    a = NilpotentDgAlgebra(a_sp, {(0, 0): {1: F(1)}}, GradedMap(a_sp, a_sp, 1))
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    e = kernel_extension(DgAlgebraMorphism(a, zero, GradedMap(a_sp, zero.space, 0)))
    assert e.validate() == ["kernel is not square-zero"]


def test_section_matches_solve():
    e = counterexample_extension()
    rng = make_rng(13)
    exts = [e] + factor_into_small_extensions(e.alpha)
    for _ in range(6):
        a = random_algebra(rng)
        zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
        exts += factor_into_small_extensions(
            DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0), check=False))
    for ext in exts:
        amat = ext.alpha.map.matrix()
        want = [linalg.solve(amat, ext.b.space.basis_vector(j)) for j in range(ext.b.dim)]
        sec = ext.section()
        assert [sec.column(j) for j in range(ext.b.dim)] == want
        assert ext.alpha.map.compose(sec) == GradedMap.identity(ext.b.space)


def test_section_rejects_non_surjective_alpha():
    a, b = counterexample_algebras()
    # v is not hit
    alpha = GradedMap(a.space, b.space, 0, {(0, 0): F(1)})
    e = kernel_extension(DgAlgebraMorphism(a, b, alpha, check=False))
    with pytest.raises(ValueError, match="alpha is not surjective"):
        e.section()


def degree0_maps(rng):
    """Seeded degree-0 maps A -> B: quotient projections by Ann(A) and by
    A², truncation projections, maps to 0, each also followed by a change
    of basis of B, and with one column dropped (not surjective)."""
    while True:
        a = random_algebra(rng)
        kind = rng.randrange(4)
        if kind == 0 and a.annihilator_basis():
            _, alpha = quotient_algebra(a, a.annihilator_basis())
        elif kind == 1 and len(a.power_ideal_bases()) > 2:
            _, alpha = quotient_algebra(a, a.power_ideal_bases()[1])
        elif kind == 2:
            gens = GradedSpace([("g%d" % t, rng.randint(0, 2))
                                for t in range(rng.randint(1, 3))])
            order = rng.randint(2, 3)
            big, small = (QuasismoothTrunc(gens, n, {}).algebra() for n in (order, order - 1))
            alpha = DgAlgebraMorphism(big, small, GradedMap(
                big.space, small.space, 0, {(k, k): F(1) for k in range(small.dim)}),
                check=False)
        else:
            zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
            alpha = DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0),
                                      check=False)
        yield alpha
        g = random_invertible_degree0(rng, alpha.target.space)
        yield DgAlgebraMorphism(alpha.source, alpha.target, g.compose(alpha.map),
                                check=False)
        if alpha.map.entries:
            drop = rng.choice(sorted({i for _, i in alpha.map.entries}))
            yield DgAlgebraMorphism(alpha.source, alpha.target, GradedMap(
                alpha.source.space, alpha.target.space, 0,
                {key: c for key, c in alpha.map.entries.items() if key[1] != drop}),
                check=False)


def test_kernel_extension_matches_reference_construction():
    # one echelon over alpha's columns gives the same iota, d_I, checks and
    # section as the null basis, homogeneous split and fresh eliminations
    rng = make_rng(31)
    maps = degree0_maps(rng)
    checked = surjective = 0
    while surjective < 50:
        alpha = next(maps)
        try:
            ref = reference_kernel_extension(alpha)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                kernel_extension(alpha)
            continue
        e = kernel_extension(alpha)
        ni = e.i_complex.space.dim
        assert [e.iota.column(k) for k in range(ni)] == ref.iota
        assert e.i_complex.d.entries == ref.d_i
        assert e.validate() == ref.errors
        if ref.section is None:
            with pytest.raises(ValueError, match="alpha is not surjective"):
                e.section()
        else:
            surjective += 1
            sec = e.section()
            assert [sec.column(j) for j in range(e.b.dim)] == ref.section
        coef = [F(rng.randint(-3, 3)) for _ in range(ni)]
        assert e.kernel_coords(e.iota.apply(coef)) == coef
        checked += 1
    assert checked > surjective


def test_small_extension_document_builds_one_echelon_over_alpha(monkeypatch):
    # parsing, validate() and section() share one echelon over alpha's
    # columns and one over iota's
    from defalg import docio
    added = {}
    real = linalg.Echelon._add

    def spy(self, v):
        sv = dict(v) if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}
        added.setdefault(id(self), (self, []))[1].append(sv)
        return real(self, v)
    monkeypatch.setattr(linalg.Echelon, "_add", spy)
    path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"
    with open(path / "counterexample.ext") as fh:
        e = docio.build_small_extension(docio.parse(fh.read()))
    e.section()
    e.kernel_coords(e.a.space.zero_vector())
    lists = [vs for _, vs in added.values()]
    assert lists.count(e.alpha.map.columns()) == 1
    assert lists.count(e.iota.columns()) == 1


def test_factor_into_small_extensions_stages():
    e = counterexample_extension()
    chain = factor_into_small_extensions(e.alpha)
    assert len(chain) >= 1
    total = 0
    for stage in chain:
        errs = stage.validate()
        assert not errs, errs            # every stage is strictly small
        assert stage.is_strictly_small()
        assert stage.i_complex.space.dim >= 1
        total += stage.i_complex.space.dim
    assert total == e.i_complex.space.dim


def test_factor_random_surjections():
    rng = make_rng(21)
    for _ in range(10):
        a = random_algebra(rng)
        if a.dim == 0:
            continue
        # project away the annihilator's first homogeneous piece
        ann = a.annihilator_basis()
        if not ann:
            continue
        q, proj = quotient_algebra(a, ann)
        chain = factor_into_small_extensions(proj)
        for stage in chain:
            assert not stage.validate()


def test_mapping_cone_of_identity_is_acyclic():
    rng = make_rng(22)
    for _ in range(10):
        cx, _ = random_complex_trivial(rng)
        a = NilpotentDgAlgebra.trivial(cx.space, cx.d)
        cone = mapping_cone(a, [cx.space.basis_vector(i)
                                for i in range(cx.space.dim)])
        assert cone.algebra.validate().ok
        assert cohomology(cone.algebra.complex()).total_dim() == 0


def test_mapping_cone_carries_minus_d_squared():
    # d x = y, d y = z: d² ≠ 0 on A, and d²(A) = <z>
    sp = GradedSpace([("x", 0), ("y", 1), ("z", 2)])
    a = NilpotentDgAlgebra(sp, {}, GradedMap(sp, sp, 1, {(1, 0): F(1), (2, 1): F(1)}))
    cone = mapping_cone(a, [sp.basis_vector(2)]).algebra
    assert cone.d.entries[(3, 0)] == -1          # the M[1]-coordinate of -d²x
    assert cone.d.compose(cone.d).is_zero()
    with pytest.raises(ValueError):
        mapping_cone(a, [])                      # d²(A) leaves M = 0


def random_complex_trivial(rng):
    from conftest import random_complex
    return random_complex(rng, max_dim=6)


def test_fiber_product_universal_property():
    a, b = counterexample_algebras()
    alpha = DgAlgebraMorphism(
        a, b, GradedMap(a.space, b.space, 0, {(0, 0): F(1), (1, 1): F(1)}))
    fp = fiber_product(alpha, DgAlgebraMorphism.identity(b))
    assert fp.algebra.validate().ok
    med = fp.mediate(DgAlgebraMorphism.identity(a), alpha)
    assert not med.violations()
    assert fp.proj_a.compose(med).map == GradedMap.identity(a.space)


def test_de_rham_truncation_structure():
    a, _ = counterexample_algebras()
    dr = de_rham_truncation(a, 1)
    assert dr.algebra.validate().ok
    e0, e1 = dr.evaluate(0), dr.evaluate(1)
    assert not e0.violations() and not e1.violations()
    # evaluation at 0 kills every positive t-power and restricts to Id on A
    assert e0.map.compose(dr.include.map) == GradedMap.identity(a.space)
    assert e1.map.compose(dr.include.map) == GradedMap.identity(a.space)
    rev = dr.reverse()
    assert not rev.violations()
    assert rev.map.compose(rev.map) == GradedMap.identity(dr.algebra.space)
    # e0 ∘ reverse = e1
    assert e0.map.compose(rev.map) == e1.map
    # the inclusion A -> A[t,dt] is a quasi-isomorphism
    assert is_quasiiso(dr.include.map, a.complex(), dr.algebra.complex())


def test_evaluation_factors_into_acyclic_small_extensions():
    a, _ = counterexample_algebras()
    dr = de_rham_truncation(a, 1)
    chain = factor_into_small_extensions(dr.evaluate(0))
    assert chain
    for stage in chain:
        assert not stage.validate()
        assert stage.is_acyclic()


def test_constant_homotopy_checks():
    a, _ = counterexample_algebras()
    f = DgAlgebraMorphism.identity(a)
    h = constant_homotopy(f)
    assert check_homotopy(h, f, f)


def test_chain_homotopic_on_acyclic_trivial():
    # two chain maps into an acyclic trivial-multiplication algebra agree
    space = GradedSpace([("p", 0), ("q", 1)])
    d = GradedMap(space, space, 1, {(1, 0): F(1)})
    acyc = NilpotentDgAlgebra.trivial(space, d)
    f = DgAlgebraMorphism.identity(acyc)
    zero = DgAlgebraMorphism(acyc, acyc, GradedMap(space, space, 0),
                             check=False)
    res = chain_homotopic(f, zero)
    assert res is not None


def test_de_rham_epsilon_half_widens_cap():
    a, _ = counterexample_algebras()
    dr1 = de_rham_truncation(a, 1)
    dr2 = de_rham_truncation(a, F(1, 2))
    assert dr2.t_cap > dr1.t_cap
    assert dr2.algebra.validate().ok


def _de_rham_inputs():
    # the shapes of the benchmark's minimalize truncations
    for n_pairs, n_h, order in [(1, 1, 3), (2, 1, 2), (1, 2, 3)]:
        yield "p%dh%d" % (n_pairs, n_h), pairs_truncation(n_pairs, n_h, order).algebra()
    a, b = counterexample_algebras()
    yield "counterexample A", a
    yield "counterexample B", b
    yield "koszul", koszul_truncation(1, 4).algebra()


def _transported_de_rham_inputs():
    # the same algebras in a basis changed within each degree, so that
    # their power bases are not made of multiples of basis vectors; the two
    # largest are left out, as the dense oracle takes seconds on each
    rng = make_rng(18)
    for name, a in _de_rham_inputs():
        if name not in ("p2h1", "p1h2"):
            yield name + " transported", transported(a, random_invertible_degree0(rng, a.space))


@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(2, 3), F(3)], ids=str)
def test_de_rham_table_equals_dense_oracle(eps):
    general = False
    for name, a in list(_de_rham_inputs()) + list(_transported_de_rham_inputs()):
        dr = de_rham_truncation(a, eps)
        elems, mult, d = dense_de_rham(a, eps)
        assert dr._elems == elems, name
        # keys, values and insertion order
        assert list(dr.algebra.table.items()) == list(mult.items()), name
        assert list(dr.algebra.d.entries.items()) == list(d.items()), name
        # block 0 holds A's basis; a vector of a power basis in a later
        # block with two or more nonzero entries takes the general
        # coordinate path
        general = general or any(sum(1 for c in v if c) > 1 for n, _, v in dr._elems if n)
    assert general


def _de_rham_bad_inputs():
    """Two algebras outside the axioms on which A[t,dt]_1 fails a check.

    (1) x·x = y, y·y = z, all in degree 0, is commutative but not
    associative: A² = (y, z), A³ = (z), A⁴ = 0, so the cap is t³, yet
    (y⊗t²)·(y⊗t²) = z⊗t⁴ ≠ 0.  (2) a·a = b with d b = c breaks Leibniz:
    b spans A², but d b leaves it.
    """
    space = GradedSpace([("x", 0), ("y", 0), ("z", 0)])
    yield NilpotentDgAlgebra(space, {(0, 0): {1: F(1)}, (1, 1): {2: F(1)}},
                             GradedMap(space, space, 1)), "beyond the exact t-cap"
    space = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    yield NilpotentDgAlgebra(space, {(0, 0): {1: F(1)}},
                             GradedMap(space, space, 1, {(2, 1): F(1)})), \
        "coefficient escapes its power ideal"


@pytest.mark.parametrize("case", [0, 1], ids=["t-cap", "escapes"])
def test_de_rham_certificate_errors(case):
    a, message = list(_de_rham_bad_inputs())[case]
    with pytest.raises(linalg.CertificateError, match=message):
        de_rham_truncation(a, 1)


def test_de_rham_element_certificate_errors():
    # on the valid counterexample algebra: a vector of A off A², and a
    # t-power above the cap
    a, _ = counterexample_algebras()
    dr = de_rham_truncation(a, 1)
    outside = next(v for v in a.power_ideal_bases()[0]
                   if linalg.echelon(a.power_ideal_bases()[1]).coords(v) is None)
    with pytest.raises(linalg.CertificateError, match="coefficient escapes its power ideal"):
        dr.element(2, False, outside)
    with pytest.raises(linalg.CertificateError, match="beyond the exact t-cap"):
        dr.element(dr.t_cap + 1, False, outside)


def test_de_rham_forms_only_the_nonzero_power_basis_products(monkeypatch):
    """On the p1h2 truncation, A[t,dt] forms 89 of the 42² products of
    power-basis vectors: exactly the nonzero ones, each once."""
    import defalg.algebras as algebras
    a = pairs_truncation(1, 2, 3).algebra()
    powers = a.power_ideal_bases()
    formed = []
    real = algebras._products_with

    def counting(*args):
        out = real(*args)
        formed.extend(out)
        return out
    monkeypatch.setattr(algebras, "_products_with", counting)
    dr = de_rham_truncation(a, 1)
    # the power ideals A^(p+1) that the blocks hold
    used = {0} | {_ceil_frac(n, dr.eps) - 1 for n in range(1, dr.t_cap + 1)}
    vectors = [v for p in used for v in powers[p]]
    nonzero = sum(1 for u in vectors for v in vectors if any(a.product(u, v)))
    assert len(vectors) == 42
    assert len(formed) == nonzero == 89
    assert all(w for _, w in formed)


def test_power_ideal_bases_form_each_product_once(monkeypatch):
    """On the p1h2 truncation, power_ideal_bases forms the e_i·w of each
    basis vector w in one pass over w's support, one term per nonzero
    e_i e_j with j in it, and hands each nonzero e_i·w to the echelon
    once, i-major, as the Fraction walk forms them."""
    import defalg.algebras as algebras
    a = pairs_truncation(1, 2, 3).algebra()
    terms, added = [], []
    real_add, real_scaled = linalg.Echelon.add, algebras._add_scaled
    monkeypatch.setattr(linalg.Echelon, "add",
                        lambda self, v: added.append(dict(v)) or real_add(self, v))
    monkeypatch.setattr(algebras, "_add_scaled",
                        lambda *args: terms.append(args[1]) or real_scaled(*args))
    powers = a.power_ideal_bases()
    monkeypatch.undo()
    assert a.den == 1 and [len(p) for p in powers] == [19, 15, 8, 0]
    left = fraction_left(a)
    want, n_terms = [], 0
    for basis in powers[:-1]:
        prev = [{k: c for k, c in enumerate(w) if c} for w in basis]
        want += [p for i in range(a.dim) for w in prev
                 for p in [fraction_left_mul(left, i, w)] if p]
        n_terms += sum(1 for w in prev for j in w for i in range(a.dim) if (i, j) in a.table)
    assert len(terms) == n_terms
    assert [{k: c for k, c in v.items() if c} for v in added] == want


# ---------------------------------------------------------------------------
# the sparse structure-constant index against direct sums

def structure_sum(table, u, v, dim):
    """sum over (i, j) of u_i v_j (e_i e_j), straight from the table."""
    out = [F(0)] * dim
    for (i, j), row in table.items():
        for k, c in row.items():
            out[k] += u[i] * v[j] * c
    return out


def naive_power_dims(a):
    """dim A^n for n = 1, 2, ... by the dense loop: every product e_i w over
    the previous basis, kept when it raises the rank."""
    basis = [a.space.basis_vector(i) for i in range(a.dim)]
    dims = [len(basis)]
    while basis:
        kept, rk = [], 0
        for i in range(a.dim):
            for w in basis:
                p = structure_sum(a.table, a.space.basis_vector(i), w, a.dim)
                if linalg.rank([list(v) for v in kept] + [p]) > rk:
                    kept.append(p)
                    rk += 1
        dims.append(len(kept))
        if len(kept) == len(basis):
            return dims, None
        basis = kept
    return dims, len(dims)


coefficients = st.integers(-3, 3).map(F)


@st.composite
def filtered_products(draw, max_dim=7):
    """A random product on degree-0 basis vectors.  In a random order of the
    basis, e_i e_j has entries only after both e_i and e_j, which makes it
    nilpotent, except that with ``loose`` the later of the two is allowed
    too, which can make it not nilpotent.  Power ideals are defined for any
    bilinear product, associative or not."""
    n = draw(st.integers(0, max_dim))
    loose = draw(st.booleans())
    order = draw(st.permutations(range(n)))
    mult = {}
    for i in range(n):
        for j in range(n):
            lo = max(i, j) + (0 if loose else 1)
            if lo >= n or not draw(st.booleans()):
                continue
            row = {order[k]: draw(coefficients) for k in
                   draw(st.lists(st.integers(lo, n - 1), max_size=2, unique=True))}
            mult[(order[i], order[j])] = row
    space = GradedSpace([("e%d" % i, 0) for i in range(n)])
    return NilpotentDgAlgebra(space, mult, GradedMap(space, space, 1))


def check_powers_against_naive(a):
    dims, index = naive_power_dims(a)
    powers = a.power_ideal_bases()
    assert [len(p) for p in powers] == dims
    assert a.nilpotency_index() == index


@given(filtered_products())
@settings(max_examples=60, deadline=None)
def test_power_ideal_bases_match_naive_on_random_products(a):
    check_powers_against_naive(a)


def test_power_ideal_bases_match_naive_on_fixtures():
    rng = make_rng(23)
    algebras = [counterexample_algebras()[0], counterexample_extension().a]
    algebras += [random_algebra(rng) for _ in range(15)]
    algebras += [random_pair_truncation(rng, max_gens=4, max_order=3)
                 for _ in range(4)]
    for a in algebras:
        check_powers_against_naive(a)


@given(filtered_products(), st.data())
@settings(max_examples=60, deadline=None)
def test_product_matches_structure_sum(a, data):
    vec = st.lists(st.one_of(st.just(F(0)), coefficients),
                   min_size=a.dim, max_size=a.dim)
    u, v = data.draw(vec), data.draw(vec)
    assert a.product(u, v) == structure_sum(a.table, u, v, a.dim)


@given(st.integers(0, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_bracket_vec_matches_structure_sum(which, data):
    rng = make_rng(24 + which)
    ls = [sl2(), sl2_odd(), heisenberg()]
    if which < 3:
        l = ls[which]
    elif which < 6:
        l = tensor_dgla(ls[which - 3], random_algebra(rng))
    else:
        # a random (not necessarily Lie) bracket table on degree-0 vectors
        n = data.draw(st.integers(0, 6))
        space = GradedSpace([("x%d" % i, 0) for i in range(n)])
        table = data.draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.dictionaries(st.integers(0, n - 1), coefficients, max_size=3),
            max_size=12)) if n else {}
        l = Dgla(space, table, GradedMap(space, space, 1))
    vec = st.lists(st.one_of(st.just(F(0)), coefficients),
                   min_size=l.dim, max_size=l.dim)
    u, v = data.draw(vec), data.draw(vec)
    assert l.bracket_vec(u, v) == structure_sum(l.table, u, v, l.dim)
