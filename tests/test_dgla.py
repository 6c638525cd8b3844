"""DGLAs: tensor constructions, BCH, gauge action, Maurer-Cartan lifting."""

from fractions import Fraction

import pytest

from defalg import linalg
from defalg.algebras import (DgAlgebraMorphism, NilpotentDgAlgebra,
                             factor_into_small_extensions, kernel_extension)
from defalg.dgla import (Dgla, bch, def_tangent, derivations_dgla, gauge_act,
                         gauge_equivalent, mc_check, mc_defect, mc_lift,
                         tensor_dgla, trivial_algebra_of_complex)
from defalg.graded import Complex, GradedMap, GradedSpace, cohomology
from defalg.models import QuasismoothTrunc
from conftest import (counterexample_algebras, counterexample_element,
                      counterexample_extension, dense_contraction, dense_tensor_bracket,
                      dense_tensor_bracket_vec, direct_sum_dgla, heisenberg, make_rng,
                      random_abelian_dgla, random_algebra, random_dgla, sl2,
                      sl2_odd)

F = Fraction


def test_standard_dglas_validate():
    for l in (sl2(), heisenberg(), sl2_odd()):
        assert l.validate().ok


def test_table_entry_returns_a_fresh_vector():
    l = sl2()
    v = l.table_entry(0, 2)
    v[1] += 5
    assert l.table_entry(0, 2) == [F(0), F(1), F(0)]


def test_tensor_dgla_signs_certified():
    rng = make_rng(30)
    for _ in range(25):
        l = random_dgla(rng)
        a = random_algebra(rng, max_dim=4)
        if l.dim * a.dim > 12:
            continue
        t = tensor_dgla(l, a)
        assert t.validate().ok


def test_tensor_dgla_nilpotency():
    l = sl2()
    a = random_algebra(make_rng(31), max_dim=6)
    t = tensor_dgla(l, a)
    if t.nilpotency_class is not None:
        # iterated brackets of length > class vanish: spot-check
        depth = t.nilpotency_class
        v = t.space.basis_vector(0)
        acc = t.space.basis_vector(min(1, t.dim - 1))
        for _ in range(depth):
            acc = t.bracket_vec(v, acc)
        assert linalg.is_zero_vector(acc)


# ---- BCH against an exact matrix-logarithm oracle --------------------------

N = 4  # strictly upper triangular 4x4: nilpotency class 3


def mat_of(v):
    """Coordinates -> strictly upper triangular matrix."""
    slots = [(i, j) for i in range(N) for j in range(i + 1, N)]
    m = [[F(0)] * N for _ in range(N)]
    for c, (i, j) in zip(v, slots):
        m[i][j] = c
    return m


def vec_of(m):
    slots = [(i, j) for i in range(N) for j in range(i + 1, N)]
    return [m[i][j] for (i, j) in slots]


def mmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(N)) for j in range(N)]
            for i in range(N)]


def mexp(m):
    out = [[F(1) if i == j else F(0) for j in range(N)] for i in range(N)]
    term = [[F(1) if i == j else F(0) for j in range(N)] for i in range(N)]
    for k in range(1, N):
        term = mmul(term, m)
        term = [[c / k for c in row] for row in term]
        out = [[out[i][j] + term[i][j] for j in range(N)] for i in range(N)]
    return out


def mlog(m):
    x = [[m[i][j] - (F(1) if i == j else F(0)) for j in range(N)]
         for i in range(N)]
    out = [[F(0)] * N for _ in range(N)]
    term = [[F(1) if i == j else F(0) for j in range(N)] for i in range(N)]
    for k in range(1, N):
        term = mmul(term, x)
        sgn = F((-1) ** (k + 1), k)
        out = [[out[i][j] + sgn * term[i][j] for j in range(N)]
               for i in range(N)]
    return out


def commutator_bracket(u, w):
    a, b = mat_of(u), mat_of(w)
    ab, ba = mmul(a, b), mmul(b, a)
    return vec_of([[ab[i][j] - ba[i][j] for j in range(N)] for i in range(N)])


def test_bch_against_matrix_oracle():
    rng = make_rng(32)
    dim = N * (N - 1) // 2
    for _ in range(15):
        u = [F(rng.randint(-2, 2)) for _ in range(dim)]
        w = [F(rng.randint(-2, 2)) for _ in range(dim)]
        z = bch(commutator_bracket, u, w, 3)
        assert mat_of(z) == mlog(mmul(mexp(mat_of(u)), mexp(mat_of(w))))


def test_bch_degenerate_cases():
    dim = N * (N - 1) // 2
    zero = [F(0)] * dim
    u = [F(1)] * dim
    assert bch(commutator_bracket, u, zero, 3) == u
    assert bch(commutator_bracket, zero, u, 3) == u
    # u and -u are inverse
    minus = [-c for c in u]
    assert bch(commutator_bracket, u, minus, 3) == zero


# ---- gauge action ----------------------------------------------------------

def random_mc_element(rng, t):
    """An MC element obtained by gauging 0: x = e^a * 0."""
    deg0 = t.space.degree_indices(0)
    a = t.space.zero_vector()
    for i in deg0:
        a[i] = F(rng.randint(-2, 2))
    return gauge_act(t, a, t.space.zero_vector()), a


def test_gauge_act_preserves_mc():
    rng = make_rng(33)
    done = 0
    while done < 30:
        l = random_dgla(rng)
        a = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, a)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        x, _ = random_mc_element(rng, t)
        ok, _ = mc_check(t, x)
        assert ok
        deg0 = t.space.degree_indices(0)
        g = t.space.zero_vector()
        for i in deg0:
            g[i] = F(rng.randint(-2, 2))
        y = gauge_act(t, g, x)
        ok, _ = mc_check(t, y)
        assert ok
        done += 1


def test_gauge_action_group_law():
    rng = make_rng(34)
    done = 0
    while done < 20:
        l = random_dgla(rng)
        alg = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, alg)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        x, _ = random_mc_element(rng, t)
        deg0 = t.space.degree_indices(0)
        a = t.space.zero_vector()
        b = t.space.zero_vector()
        for i in deg0:
            a[i] = F(rng.randint(-1, 1))
            b[i] = F(rng.randint(-1, 1))
        lhs = gauge_act(t, a, gauge_act(t, b, x))
        rhs = gauge_act(t, bch(t.bracket_vec, a, b, t.nilpotency_class), x)
        assert lhs == rhs
        done += 1


def test_gauge_stabilizer_law():
    # e^a * b = b whenever [a, b] - d a = 0
    rng = make_rng(35)
    done = 0
    while done < 20:
        l = random_dgla(rng)
        alg = random_algebra(rng, max_dim=5)
        t = tensor_dgla(l, alg)
        if t.nilpotency_class is None:
            continue
        b, _ = random_mc_element(rng, t)
        deg0 = t.space.degree_indices(0)
        if not deg0:
            continue
        # solve [a, b] - d a = 0 over degree-0 coordinates
        cols = []
        for i in deg0:
            e = t.space.basis_vector(i)
            cols.append(linalg.vec_sub(t.bracket_vec(e, b), t.d.apply(e)))
        ns = linalg.nullspace([[cols[c][r] for c in range(len(cols))]
                               for r in range(t.dim)])
        for coeffs in ns:
            a = t.space.zero_vector()
            for c, i in zip(coeffs, deg0):
                a[i] = c
            assert gauge_act(t, a, b) == b
        done += 1


def test_def_tangent_matches_cohomology():
    for l in (sl2(), heisenberg(), random_abelian_dgla(make_rng(36))):
        assert def_tangent(l).dims() == cohomology(l.complex()).dims()


# ---- Maurer-Cartan lifting -------------------------------------------------

def test_counterexample_not_liftable():
    l = sl2()
    e = counterexample_extension()
    tb = tensor_dgla(l, e.b)
    x = counterexample_element(l, tb)
    ok, _ = mc_check(tb, x)
    assert ok
    res = mc_lift(e, l, x)
    assert not res.lifted
    assert res.obstruction_class is not None
    assert any(res.obstruction_class)
    assert res.cohomology_class is None   # not strictly small


def test_zero_element_always_lifts():
    l = sl2()
    e = counterexample_extension()
    tb = tensor_dgla(l, e.b)
    res = mc_lift(e, l, tb.space.zero_vector())
    assert res.lifted
    ok, _ = mc_check(res.tensor_a, res.lift)
    assert ok


def test_lift_through_strictly_small_extension():
    rng = make_rng(37)
    from defalg.algebras import quotient_algebra, factor_into_small_extensions
    done = 0
    while done < 10:
        l = random_dgla(rng)
        a = random_algebra(rng, max_dim=5)
        ann = a.annihilator_basis()
        if not ann or a.dim == 0:
            continue
        q, proj = quotient_algebra(a, ann)
        from defalg.algebras import kernel_extension
        e = kernel_extension(proj)
        if e.validate():
            continue
        t = tensor_dgla(l, a)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        x_up, _ = random_mc_element(rng, t)
        tb = tensor_dgla(l, e.b)
        # push x_up down to B, then lift back: must succeed
        x = [F(0)] * (l.dim * e.b.dim)
        amat = e.alpha.map
        for i in range(l.dim):
            for p in range(a.dim):
                c = x_up[t.pair_index(i, p)]
                if c:
                    col = amat.column(p)
                    for qq, cc in enumerate(col):
                        if cc:
                            x[tb.pair_index(i, qq)] += c * cc
        ok, _ = mc_check(tb, x)
        assert ok
        res = mc_lift(e, l, x)
        assert res.lifted
        okl, _ = mc_check(res.tensor_a, res.lift)
        assert okl
        done += 1


def test_lift_translations_are_lifts():
    l = sl2()
    e = counterexample_extension()
    tb = tensor_dgla(l, e.b)
    res = mc_lift(e, l, tb.space.zero_vector())
    assert res.lifted
    for v in res.lift_translations:
        cand = linalg.vec_add(res.lift, v)
        ok, _ = mc_check(res.tensor_a, cand)
        assert ok


# ---- gauge equivalence decision -------------------------------------------

def test_gauge_equivalent_verify_mode():
    rng = make_rng(38)
    l = sl2()
    a = random_algebra(rng, max_dim=5)
    t = tensor_dgla(l, a)
    x, g = random_mc_element(rng, t)
    dec = gauge_equivalent(l, a, t.space.zero_vector(), x,
                           mode="verify", witness=g)
    assert dec.verdict == "YES"


def test_gauge_equivalent_abelian_complete():
    rng = make_rng(39)
    done = 0
    while done < 10:
        l = random_abelian_dgla(rng)
        a = random_algebra(rng, max_dim=4)
        t = tensor_dgla(l, a)
        # in the abelian case the orbit of x is x - d(L⊗A)^0
        deg0 = t.space.degree_indices(0)
        deg1 = t.space.degree_indices(1)
        if not deg1:
            continue
        x = t.space.zero_vector()
        c = t.space.zero_vector()
        for i in deg0:
            c[i] = F(rng.randint(-2, 2))
        y = linalg.vec_sub(x, t.d.apply(c))
        okx, _ = mc_check(t, x)
        oky, _ = mc_check(t, y)
        if not (okx and oky):
            continue
        dec = gauge_equivalent(l, a, x, y, mode="decide")
        assert dec.verdict == "YES"
        assert gauge_act(t, dec.witness, x) == y
        done += 1


def test_gauge_equivalent_distinguishes_classes():
    # abelian L with cohomology: distinct H¹ classes are inequivalent
    rng = make_rng(40)
    done = 0
    while done < 5:
        l = random_abelian_dgla(rng)
        # dual numbers' maximal ideal: one square-zero generator in degree 0
        a = NilpotentDgAlgebra.trivial(GradedSpace([("eps", 0)]))
        t = tensor_dgla(l, a)
        coh = cohomology(t.complex())
        if not coh.dim(1):
            continue
        y = coh.representative(
            [i for i in range(coh.harmonic_space.dim)
             if coh.harmonic_space.degrees[i] == 1][0])
        dec = gauge_equivalent(l, a, t.space.zero_vector(), y, mode="decide")
        assert dec.verdict == "NO"
        done += 1


def test_gauge_equivalent_staged():
    rng = make_rng(41)
    l = sl2()
    a, _ = counterexample_algebras()
    t = tensor_dgla(l, a)
    x, g = random_mc_element(rng, t)
    dec = gauge_equivalent(l, a, t.space.zero_vector(), x, mode="decide")
    assert dec.verdict == "YES"
    assert gauge_act(t, dec.witness, t.space.zero_vector()) == x


# ---- derivation DGLAs ------------------------------------------------------

def test_derivations_dgla_validates():
    rng = make_rng(42)
    for _ in range(5):
        a = random_algebra(rng, max_dim=4)
        if a.dim == 0:
            continue
        der, basis_maps = derivations_dgla(a)
        assert der.validate().ok
        # each basis derivation satisfies the Leibniz rule
        for h in basis_maps:
            n = h.degree
            for i in range(a.dim):
                for j in range(a.dim):
                    lhs = h.apply(a.table_entry(i, j))
                    sgn = F(-1 if (n % 2 and a.space.degrees[i] % 2) else 1)
                    rhs = linalg.vec_add(
                        a.product(h.apply(a.space.basis_vector(i)),
                                  a.space.basis_vector(j)),
                        linalg.vec_scale(sgn, a.product(
                            a.space.basis_vector(i),
                            h.apply(a.space.basis_vector(j)))))
                    assert lhs == rhs


# ---- L⊗A as a view: brackets against the defining formula ------------------

def _odd_algebras():
    """Nilpotent algebras whose odd elements multiply nontrivially, a
    trivial one, and the zero algebra."""
    mixed = QuasismoothTrunc(GradedSpace([("a", 1), ("b", 2)]), 3, {}).algebra()
    odd = QuasismoothTrunc(GradedSpace([("a", 1), ("c", 1), ("b", 0)]), 2, {}).algebra()
    trivial = NilpotentDgAlgebra.trivial(GradedSpace([("t", 1), ("s", 0)]))
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    return [mixed, odd, counterexample_algebras()[0], trivial, zero]


def _zero_dglas():
    space = GradedSpace([("z0", 0), ("z1", 1)])
    abelian = Dgla(space, {}, GradedMap(space, space, 1))
    empty = Dgla(GradedSpace([]), {}, GradedMap(GradedSpace([]), GradedSpace([]), 1))
    return [abelian, empty]


def test_tensor_bracket_matches_dense_oracle():
    rng = make_rng(90)
    flipped = 0
    for l in [sl2_odd(), heisenberg()] + _zero_dglas():
        for a in _odd_algebras():
            t = tensor_dgla(l, a)
            want = dense_tensor_bracket(l, a)
            flipped += sum(1 for (s, u), row in want.items()
                           if any(row) and a.space.degrees[s % a.dim] % 2
                           and l.space.degrees[u // a.dim] % 2)
            for _ in range(6):
                u = [F(rng.choice([0, 0, 1, -1, 2])) for _ in range(t.dim)]
                v = [F(rng.choice([0, 1, -2, 3])) for _ in range(t.dim)]
                assert t.bracket_vec(u, v) == dense_tensor_bracket_vec(want, u, v)
            for s, u in want:
                assert t.bracket_vec(t.space.basis_vector(s),
                                     t.space.basis_vector(u)) == want[(s, u)]
            # the lazily built table holds exactly the nonzero brackets, and
            # its left index gives the same brackets as the view
            assert {key: [row.get(k, F(0)) for k in range(t.dim)]
                    for key, row in t.table.items()} == \
                {key: row for key, row in want.items() if any(row)}
            for _ in range(3):
                u = [F(rng.randint(-2, 2)) for _ in range(t.dim)]
                v = [F(rng.randint(-2, 2)) for _ in range(t.dim)]
                assert Dgla.bracket_vec(t, u, v) == t.bracket_vec(u, v)
    assert flipped      # the Koszul sign decides some of the brackets


def test_mc_lift_builds_no_tensor_table_and_no_ideal_powers(monkeypatch):
    l = sl2()
    e = counterexample_extension()
    x = counterexample_element(l, tensor_dgla(l, e.b))
    stages = factor_into_small_extensions(e.alpha)
    assert not e.is_strictly_small() and stages[0].is_strictly_small()

    def no_powers(self):
        raise AssertionError("mc_lift computed ideal powers")
    monkeypatch.setattr(NilpotentDgAlgebra, "power_ideal_bases", no_powers)
    for ext, elem in [(e, x)] + [(s, [F(0)] * (l.dim * s.b.dim)) for s in stages]:
        res = mc_lift(ext, l, elem)
        for t in (res.tensor_a, res.tensor_i):
            assert not {"bracket", "_left", "nilpotency_class"} & set(vars(t))


def test_mc_lift_on_strictly_small_extension_inverts_nothing(monkeypatch):
    # sl2_odd over the free truncation A_4 -> A_3 on (t:0, u:1, v:1): the
    # lift reads one class in H²(L⊗I) and T = d, so no contraction map
    # (p, incl, sigma) and no dense inverse is built
    gens = GradedSpace([("t", 0), ("u", 1), ("v", 1)])
    a4, a3 = (QuasismoothTrunc(gens, n, {}).algebra() for n in (4, 3))
    pm = GradedMap(a4.space, a3.space, 0, {(k, k): F(1) for k in range(a3.dim)})
    e = kernel_extension(DgAlgebraMorphism(a4, a3, pm))
    assert e.is_strictly_small()
    l = sl2_odd()
    tb = tensor_dgla(l, a3)
    x = tb.space.zero_vector()
    x[tb.pair_index(0, a3.space.index("u"))] = F(1)      # e ⊗ u
    x[tb.pair_index(3, a3.space.index("t"))] = F(-2)     # E ⊗ t
    assert mc_check(tb, x)[0]
    calls = []
    real = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda a: calls.append(1) or real(a))
    res = mc_lift(e, l, x)
    assert calls == []
    assert res.lifted and mc_check(res.tensor_a, res.lift)[0]
    ref = dense_contraction(res.tensor_i.complex())
    assert res.cohomology_class == ref.class_of(res.defect)


def test_mc_lift_on_strictly_small_extension_eliminates_each_degree_once(monkeypatch):
    # L = sl2_odd ⊕ (p -> q) over A_4 -> A_3, the pair so that d's columns
    # tell the degrees of L⊗I apart, and x = e⊗tu + f⊗tv, whose defect
    # h⊗t²uv is obstructed: T's echelon over (L⊗I)¹ is the contraction's
    # degree-1 echelon, and the contraction computes cocycles only in
    # degree 2, where the defect's class is read
    gens = GradedSpace([("t", 0), ("u", 1), ("v", 1)])
    a4, a3 = (QuasismoothTrunc(gens, n, {}).algebra() for n in (4, 3))
    pm = GradedMap(a4.space, a3.space, 0, {(k, k): F(1) for k in range(a3.dim)})
    e = kernel_extension(DgAlgebraMorphism(a4, a3, pm))
    pair = GradedSpace([("p", 0), ("q", 1)])
    l = direct_sum_dgla(sl2_odd(), Dgla(pair, {}, GradedMap(pair, pair, 1, {(1, 0): F(1)})))
    tb = tensor_dgla(l, a3)
    x = tb.space.zero_vector()
    x[tb.pair_index(0, a3.space.index("t*u"))] = F(1)
    x[tb.pair_index(2, a3.space.index("t*v"))] = F(1)
    echelons, related = {}, []
    real_add, real_relations, real_of = (linalg.Echelon._add, linalg.relations,
                                         linalg.Echelon.relations_of)

    def add(self, v):
        sv = dict(v) if isinstance(v, dict) else {j: c for j, c in enumerate(v) if c}
        echelons.setdefault(id(self), (self, []))[1].append(sv)
        return real_add(self, v)
    monkeypatch.setattr(linalg.Echelon, "_add", add)
    monkeypatch.setattr(linalg, "relations",
                        lambda vs: related.append(list(vs)) or real_relations(vs))
    monkeypatch.setattr(linalg.Echelon, "relations_of",
                        lambda self, vs: related.append(list(vs)) or real_of(self, vs))
    res = mc_lift(e, l, x)
    ti = res.tensor_i
    dcols = ti.d.columns()
    by_degree = {k: [dcols[i] for i in ti.space.degree_indices(k)]
                 for k in set(ti.space.degrees)}
    assert len(set(map(repr, by_degree.values()))) == len(by_degree) > 2

    def degrees(lists):     # T's echelon is extended by (L⊗I)² when x is obstructed
        return sorted(k for vs in lists for k, cols in by_degree.items()
                      if vs == cols or (k == 1 and vs[:len(cols)] == cols))
    assert degrees(vs for _, vs in echelons.values()) == sorted(by_degree)
    assert degrees(related) == [1, 2]
    ref = dense_contraction(ti.complex())
    assert not res.lifted and any(res.cohomology_class)
    assert res.cohomology_class == ref.class_of(res.defect)
    # the obstruction extends T's echelon afterwards; degree 1 is unchanged
    split = res.i_cohomology.split(1)
    assert split.boundaries == ref.boundaries[1] and split.harmonics == ref.harmonics[1]
