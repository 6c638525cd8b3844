"""Graded spaces, Koszul signs, symmetric powers, cohomology contractions."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defalg import linalg
from defalg.graded import (Complex, Contraction, GradedMap, GradedSpace,
                           ShortExactSequence, canonical_monomial, cohomology,
                           connecting_hom, is_chain_map, is_quasiiso,
                           koszul_sign, shift, shift_space, solve_homotopy,
                           symmetric_power, unshuffles, WordBasis)
from conftest import dense_contraction, make_rng, random_complex, rref_solve

F = Fraction


def compose_perm(sigma, tau):
    """Image-tuple composition: applying sigma first, then tau."""
    return tuple(sigma[tau[i]] for i in range(len(tau)))


def test_koszul_sign_identity_and_transposition():
    degs = [0, 1, 2, 3]
    assert koszul_sign((0, 1, 2, 3), degs) == 1
    # adjacent swap of two odd elements
    assert koszul_sign((0, 2, 1, 3), [0, 1, 1, 0]) == -1
    # adjacent swap with one even element
    assert koszul_sign((0, 2, 1, 3), [0, 2, 1, 0]) == 1


@given(st.lists(st.integers(min_value=-2, max_value=3),
                min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_koszul_sign_cocycle(degs):
    perms = list(itertools.permutations(range(4)))
    for sigma in perms[:8]:
        for tau in perms[:8]:
            lhs = koszul_sign(compose_perm(sigma, tau), degs)
            rhs = koszul_sign(sigma, degs) * \
                koszul_sign(tau, [degs[sigma[i]] for i in range(4)])
            assert lhs == rhs


def test_unshuffle_counts_and_monotonicity():
    for p in range(0, 5):
        for q in range(0, 5):
            if p + q < 1:
                continue
            us = unshuffles(p, q)
            assert len(us) == math.comb(p + q, p)
            for sigma in us:
                assert sorted(sigma) == list(range(p + q))
                assert list(sigma[:p]) == sorted(sigma[:p])
                assert list(sigma[p:]) == sorted(sigma[p:])


def test_canonical_monomial():
    degs = [1, 2, 1]
    # odd repeat dies
    assert canonical_monomial((0, 0), degs) is None
    # even repeat survives
    assert canonical_monomial((1, 1), degs) == ((1, 1), 1)
    # swapping two odd letters flips the sign
    word, sgn = canonical_monomial((2, 0), degs)
    assert word == (0, 2) and sgn == -1


def test_symmetric_power_index_consistency():
    v = GradedSpace([("a", 1), ("b", 2), ("c", 1)])
    p = symmetric_power(v, 2)
    for word in itertools.product(range(3), repeat=2):
        res = p.index(word)
        cm = canonical_monomial(word, v.degrees)
        if cm is None:
            assert res is None
        else:
            pos, sgn = res
            assert p.monomials[pos] == cm[0] and sgn == cm[1]
    # aa is zero (odd), bb survives (even)
    assert p.index((0, 0)) is None
    assert p.index((1, 1)) is not None


def test_shift_space_and_complex():
    v = GradedSpace([("a", 0), ("b", 1)])
    s = shift_space(v, 1)
    assert list(s.degrees) == [-1, 0]
    d = GradedMap(v, v, 1)
    d.set_entry(1, 0, F(1))
    cx = Complex(v, d)
    sh = shift(cx, 1)
    assert sh.d.apply(sh.space.basis_vector(0)) == \
        [F(0), F(-1)]  # d[1] = -d


def test_contraction_homotopy_identities():
    rng = make_rng(10)
    for _ in range(30):
        cx, dims = random_complex(rng)
        c = cohomology(cx)
        assert c.dims() == {k: n for k, n in dims.items() if n}
        ip = c.include.compose(c.project)
        hom = c.sigma.compose(cx.d) + cx.d.compose(c.sigma)
        assert hom == GradedMap.identity(cx.space) - ip
        assert c.project.compose(c.include) == \
            GradedMap.identity(c.harmonic_space)
        # harmonic representatives are cocycles
        assert cx.d.compose(c.include).is_zero()


def test_contraction_matches_dense_reference():
    # the per-degree lazy contraction builds, entry for entry, what the
    # eager one builds in every degree; class_of is read before project
    # exists, so it is checked on its own echelon
    for seed in range(60):
        rng = make_rng(1000 + seed)
        cx, _ = random_complex(rng)
        ref = dense_contraction(cx)
        c = cohomology(cx)
        assert c.dims() == ref.dims
        assert c.harmonic_space == ref.harmonic_space
        cocycles = [c.representative(t) for t in range(c.harmonic_space.dim)]
        cocycles += [cx.d.apply(cx.space.basis_vector(i)) for i in range(cx.space.dim)]
        mixed = cx.space.zero_vector()
        for v in cocycles:
            mixed = linalg.vec_add(mixed, linalg.vec_scale(F(rng.randint(-3, 3)), v))
        probes = cocycles + [mixed] + [cx.space.basis_vector(i) for i in range(cx.space.dim)]
        for v in probes:
            assert c.class_of(v) == ref.class_of(v)
        assert "_project_sigma" not in vars(c)
        for k in sorted(set(cx.space.degrees)) + [min(cx.space.degrees) - 1,
                                                  max(cx.space.degrees) + 1]:
            split = c.split(k)
            assert split.boundaries == ref.boundaries.get(k, [])
            assert split.preimages == ref.boundary_preimages.get(k, [])
            assert split.harmonics == ref.harmonics.get(k, [])
            assert split.complements == ref.complements.get(k, [])
        assert c.project == ref.project
        assert c.include == ref.include
        assert c.sigma == ref.sigma
        hom = c.sigma.compose(cx.d) + cx.d.compose(c.sigma)
        assert hom == GradedMap.identity(cx.space) - c.include.compose(c.project)


def test_contraction_classes_and_boundaries():
    rng = make_rng(11)
    for _ in range(20):
        cx, _ = random_complex(rng)
        c = cohomology(cx)
        for i in range(cx.space.dim):
            dv = cx.d.apply(cx.space.basis_vector(i))
            if linalg.is_zero_vector(dv):
                continue
            assert c.class_of(dv) == c.harmonic_space.zero_vector()
            pre = c.is_boundary(dv)
            assert pre is not None
            assert cx.d.apply(pre) == dv
        for t in range(c.harmonic_space.dim):
            rep = c.representative(t)
            cls = c.class_of(rep)
            assert cls == c.harmonic_space.basis_vector(t)


def test_rank_identity_cocycles_boundaries():
    rng = make_rng(12)
    for _ in range(50):
        cx, _ = random_complex(rng)
        c = cohomology(cx)
        for k in set(cx.space.degrees):
            idx = cx.space.degree_indices(k)
            dk = [cx.d.apply(cx.space.basis_vector(i)) for i in idx]
            rank_dk = linalg.rank([list(v) for v in dk]) if dk else 0
            z = len(idx) - rank_dk
            prev = cx.space.degree_indices(k - 1)
            dprev = [cx.d.apply(cx.space.basis_vector(i)) for i in prev]
            b = linalg.rank([list(v) for v in dprev]) if dprev else 0
            assert z - b == c.dim(k)


def test_is_quasiiso_inclusion_of_harmonics():
    rng = make_rng(13)
    for _ in range(15):
        cx, _ = random_complex(rng)
        c = cohomology(cx)
        hcx = Complex.zero_differential(c.harmonic_space)
        assert is_quasiiso(c.include, hcx, cx)
        assert is_quasiiso(GradedMap.identity(cx.space), cx, cx)
        # the zero map is a quasi-iso only for acyclic complexes
        if c.total_dim():
            assert not is_quasiiso(GradedMap(cx.space, cx.space, 0), cx, cx)


def test_connecting_hom_two_term_example():
    # 0 -> K[-1] -> cone -> K[0] -> 0 with connecting map an isomorphism
    sub = Complex.zero_differential(GradedSpace([("s", 1)]))
    quot = Complex.zero_differential(GradedSpace([("q", 0)]))
    total_space = GradedSpace([("s", 1), ("q", 0)])
    d = GradedMap(total_space, total_space, 1)
    d.set_entry(0, 1, F(1))
    total = Complex(total_space, d)
    incl = GradedMap(sub.space, total_space, 0, {(0, 0): F(1)})
    proj = GradedMap(total_space, quot.space, 0, {(0, 1): F(1)})
    ses = ShortExactSequence(sub, total, quot, incl, proj)
    assert not ses.validate()
    delta = connecting_hom(ses)
    assert delta.matrix() == [[F(1)]]


def test_connecting_hom_certificate_is_explicit(monkeypatch):
    # the snake-lemma checks raise CertificateError, also under python -O
    sub = Complex.zero_differential(GradedSpace([("s", 1)]))
    quot = Complex.zero_differential(GradedSpace([("q", 0)]))
    total_space = GradedSpace([("s", 1), ("q", 0)])
    total = Complex(total_space, GradedMap(total_space, total_space, 1, {(0, 1): F(1)}))
    ses = ShortExactSequence(sub, total, quot,
                             GradedMap(sub.space, total_space, 0, {(0, 0): F(1)}),
                             GradedMap(total_space, quot.space, 0, {(0, 1): F(1)}))
    monkeypatch.setattr(Contraction, "class_of", lambda self, v: None)
    with pytest.raises(linalg.CertificateError, match="snake output is not a cocycle"):
        connecting_hom(ses)


def test_graded_map_degree_enforcement():
    v = GradedSpace([("a", 0), ("b", 1)])
    m = GradedMap(v, v, 1)
    with pytest.raises(ValueError):
        m.set_entry(0, 1, F(1))  # would be degree -1
    m.set_entry(1, 0, F(1))
    assert m.apply([F(1), F(0)]) == [F(0), F(1)]


def test_complex_rejects_nonsquare_zero():
    v = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(v, v, 1, {(1, 0): F(1), (2, 1): F(1)})
    with pytest.raises(ValueError):
        Complex(v, d)


def test_word_basis_positions():
    v = GradedSpace([("a", 0), ("b", 1)])
    wb = WordBasis(v, 3)
    assert wb.words[:2] == ((0,), (1,)) and wb.offsets == {1: 0, 2: 2, 3: 4}
    assert wb.space.dim == len(wb.words) == 2 + 2 + 2
    assert wb.position((1, 0)) == (wb.words.index((0, 1)), 1)
    assert wb.position((1, 1)) is None          # odd letter squared
    for word in ((), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            wb.position(word)
    assert wb.component(list(range(wb.space.dim)), 2) == [2, 3]


def test_solve_homotopy_matches_dense_solve_over_the_slots():
    """d_tgt∘X + X∘d_src = T solved sparsely equals the dense rref solution
    over the same unknowns, with all entries (r, c) as equations."""
    rng = make_rng(70)
    solved = unsolvable = 0
    for case in range(60):
        src, _ = random_complex(rng, max_dim=6)
        tgt, _ = random_complex(rng, max_dim=6)
        deg = rng.choice([-1, 0, 1, 2])
        slots = [(j, i) for j in range(tgt.space.dim) for i in range(src.space.dim)
                 if tgt.space.degrees[j] == src.space.degrees[i] + deg - 1]
        x0 = GradedMap(src.space, tgt.space, deg - 1,
                       {s: F(rng.randint(-2, 2)) for s in slots})
        t = tgt.d.compose(x0) + x0.compose(src.d)
        if case % 2:            # perturb: often no solution
            for j in range(tgt.space.dim):
                for i in range(src.space.dim):
                    if tgt.space.degrees[j] == src.space.degrees[i] + deg \
                            and rng.random() < 0.5:
                        t.set_entry(j, i, t.entries.get((j, i), F(0)) + 1)
        cols = []
        for s in slots:
            unit = GradedMap(src.space, tgt.space, deg - 1, {s: F(1)})
            comb = tgt.d.compose(unit) + unit.compose(src.d)
            cols.append([comb.entries.get((r, c), F(0)) for r in range(tgt.space.dim)
                         for c in range(src.space.dim)])
        rows = [[col[k] for col in cols] for k in range(tgt.space.dim * src.space.dim)]
        rhs = [t.entries.get((r, c), F(0)) for r in range(tgt.space.dim)
               for c in range(src.space.dim)]
        want = rref_solve(rows, rhs)
        got = solve_homotopy(src.d, tgt.d, t)
        if want is None:
            assert got is None
            unsolvable += 1
            continue
        assert got == GradedMap(src.space, tgt.space, deg - 1,
                                {s: x for s, x in zip(slots, want) if x})
        assert tgt.d.compose(got) + got.compose(src.d) == t
        solved += 1
    assert solved >= 20 and unsolvable >= 5
