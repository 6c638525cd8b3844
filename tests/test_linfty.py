"""L-infinity structures on truncated symmetric coalgebras."""

from fractions import Fraction

import pytest

from defalg import linalg
from defalg.dgla import Dgla, mc_check, tensor_dgla, tensor_space
from defalg.graded import GradedMap, GradedSpace
from defalg.linfty import (LInftyStructure, SymCoalgebra, check_coderivation,
                           check_coalgebra_morphism, check_linfty,
                           coalgebra_morphism_from_linear,
                           coderivation_from_taylor, dgla_to_linfty,
                           dual_algebra, dual_coalgebra, linfty_mc_check,
                           linfty_to_dgla)
from conftest import (counterexample_algebras, make_rng, random_abelian_dgla,
                      random_algebra, random_dgla, sl2, sl2_odd)

F = Fraction


def test_coalgebra_axioms():
    rng = make_rng(50)
    for _ in range(8):
        dim = rng.randint(1, 4)
        v = GradedSpace([("v%d" % i, rng.randint(-1, 2)) for i in range(dim)])
        for order in (1, 2, 3, 4):
            c = SymCoalgebra(v, order)
            assert c.check_cocommutative()
            assert c.check_coassociative()


def test_coderivation_identity():
    rng = make_rng(51)
    for _ in range(10):
        l = random_dgla(rng, max_dim=5)
        s = dgla_to_linfty(l, order=3)
        q = coderivation_from_taylor(s)
        assert check_coderivation(s.coalgebra, q)


def test_dictionary_soundness():
    # valid DGLAs give L-infinity structures
    for l in (sl2(), sl2_odd(), random_abelian_dgla(make_rng(52))):
        s = dgla_to_linfty(l, order=3)
        assert check_linfty(s).ok


def non_jacobi_mutation():
    """A bracket table that is antisymmetric but fails Jacobi."""
    space = GradedSpace([("e", 0), ("h", 0), ("f", 0)])
    br = {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)},
          (1, 2): {0: F(1)}, (2, 1): {0: F(-1)},
          (2, 0): {0: F(1)}, (0, 2): {0: F(-1)}}
    return Dgla(space, br, GradedMap(space, space, 1))


def test_dictionary_detects_jacobi_failure_at_arity_three():
    bad = non_jacobi_mutation()
    assert not bad.validate().ok          # genuinely not a Lie algebra
    s = dgla_to_linfty(bad, order=3)
    rep = check_linfty(s)
    assert not rep.ok
    assert rep.defect_arities == [3]


def test_dictionary_roundtrip_exact():
    rng = make_rng(53)
    for _ in range(10):
        l = random_dgla(rng, max_dim=6)
        s = dgla_to_linfty(l, order=3)
        l2 = linfty_to_dgla(s)
        assert l2.space == l.space
        assert l2.d == l.d
        for i in range(l.dim):
            for j in range(l.dim):
                assert l2.table_entry(i, j) == l.table_entry(i, j)


def test_mc_condition_agreement():
    rng = make_rng(54)
    done = 0
    while done < 25:
        l = random_dgla(rng, max_dim=5)
        a = random_algebra(rng, max_dim=4)
        if l.dim * a.dim > 16:
            continue
        t = tensor_dgla(l, a)
        s = dgla_to_linfty(l, order=3)
        tsp = tensor_space(s.coalgebra.letters, a.space)
        # same index layout, shifted degrees
        assert [d + 1 for d in tsp.degrees] == list(t.space.degrees)
        x = t.space.zero_vector()
        for i in t.space.degree_indices(1):
            x[i] = F(rng.randint(-2, 2))
        ok_dgla, _ = mc_check(t, x)
        ok_linf, _ = linfty_mc_check(s, a, x)
        assert ok_dgla == ok_linf
        done += 1


def test_mc_defect_equals_dgla_defect():
    # on mixed instances (both differentials and brackets active) the
    # L-infinity defect coincides with the DGLA defect coefficientwise
    from defalg.dgla import mc_defect
    from conftest import direct_sum_dgla
    rng = make_rng(59)
    done = 0
    while done < 20:
        l = direct_sum_dgla(random_dgla(rng, max_dim=4),
                            random_abelian_dgla(rng, max_dim=4))
        a = random_algebra(rng, max_dim=4)
        if l.dim * a.dim > 40:
            continue
        t = tensor_dgla(l, a)
        s = dgla_to_linfty(l, order=3)
        x = t.space.zero_vector()
        for i in t.space.degree_indices(1):
            x[i] = F(rng.randint(-2, 2))
        _, defect = linfty_mc_check(s, a, x)
        assert defect == mc_defect(t, x)
        done += 1


def test_mc_agreement_on_genuine_solutions():
    from defalg.dgla import gauge_act
    rng = make_rng(55)
    done = 0
    while done < 10:
        l = random_dgla(rng, max_dim=5)
        a = random_algebra(rng, max_dim=4)
        t = tensor_dgla(l, a)
        if t.nilpotency_class is None or not t.space.degree_indices(0):
            continue
        g = t.space.zero_vector()
        for i in t.space.degree_indices(0):
            g[i] = F(rng.randint(-2, 2))
        x = gauge_act(t, g, t.space.zero_vector())
        s = dgla_to_linfty(l, order=3)
        ok, defect = linfty_mc_check(s, a, x)
        assert ok and linalg.is_zero_vector(defect)
        done += 1


def test_linear_map_extends_to_coalgebra_morphism():
    rng = make_rng(56)
    l = sl2()
    s = dgla_to_linfty(l, order=3)
    c = s.coalgebra
    # a random degree-0 linear map C -> V[1] extends to θ with π∘θ = m
    m = GradedMap(c.space, c.letters, 0)
    for pos in range(c.space.dim):
        for j in range(c.letters.dim):
            if c.space.degrees[pos] == c.letters.degrees[j] and \
                    rng.random() < 0.5:
                m.set_entry(j, pos, F(rng.randint(-2, 2)))
    theta = coalgebra_morphism_from_linear(c, m, c)
    assert check_coalgebra_morphism(c, c, theta)
    # corestriction to V[1] recovers m
    for pos in range(c.space.dim):
        img = theta.apply(c.space.basis_vector(pos))
        assert img[:c.letters.dim] == m.apply(c.space.basis_vector(pos))


def test_morphism_criterion_reduces_to_linear_data():
    # for a linear map supported on word-length one, θ restricted to V[1]
    # words is the map itself and the morphism property is automatic
    l = sl2_odd()
    s = dgla_to_linfty(l, order=2)
    c = s.coalgebra
    m = GradedMap(c.space, c.letters, 0)
    for i in range(c.letters.dim):
        m.set_entry(i, i, F(2))
    theta = coalgebra_morphism_from_linear(c, m, c)
    assert check_coalgebra_morphism(c, c, theta)
    # on a length-2 word, θ is the induced ⊙²(m): here 4·Id
    off = c.offsets[2]
    for t in range(len(c.powers[2].monomials)):
        img = theta.apply(c.space.basis_vector(off + t))
        expect = c.space.zero_vector()
        expect[off + t] = F(4)
        assert img == expect


def test_dual_coalgebra_and_double_dual():
    rng = make_rng(57)
    for _ in range(6):
        a = random_algebra(rng, max_dim=5)
        c = dual_coalgebra(a)
        assert not c.validate()
        b = dual_algebra(c)
        assert b.space == a.space
        assert b.d == a.d
        for i in range(a.dim):
            for j in range(a.dim):
                assert b.table_entry(i, j) == a.table_entry(i, j)


def test_minimality_detection():
    l = sl2()                             # zero differential: minimal
    assert dgla_to_linfty(l, 3).is_minimal()
    ab = random_abelian_dgla(make_rng(58))
    s = dgla_to_linfty(ab, 3)
    assert s.is_minimal() == ab.d.is_zero()
