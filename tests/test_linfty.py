"""L-infinity structures on truncated symmetric coalgebras."""

from fractions import Fraction

import pytest

from defalg.dgla import Dgla, mc_check, tensor_dgla, tensor_space
from defalg.graded import GradedMap, GradedSpace
from defalg.linfty import (LInftyStructure, SymCoalgebra, check_linfty, dgla_to_linfty,
                           linfty_mc_check, linfty_to_dgla)
from defalg.models import QuasismoothTrunc
from conftest import (entries, heisenberg, make_rng, random_abelian_dgla, random_algebra,
                      random_dgla, reference_check_linfty, reference_coassociative,
                      reference_cocommutative, reference_linfty_mc_check, sl2, sl2_odd,
                      sparse)

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
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in t.space.degrees])
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
        x = sparse([F(rng.randint(-2, 2)) if d == 1 else F(0) for d in t.space.degrees])
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
        g = sparse([F(rng.randint(-2, 2)) if d == 0 else F(0) for d in t.space.degrees])
        x = gauge_act(t, g, {})
        s = dgla_to_linfty(l, order=3)
        ok, defect = linfty_mc_check(s, a, x)
        assert ok and defect == {}
        done += 1


def test_taylor_coefficient_on_a_word_of_another_length_is_refused():
    # Q¹_k reads all the words of C(V[1]), so the length of each word it
    # reads is checked: in V[1], x has degree -1 and y degree 0, and Q¹_2
    # may send x⊙y to y, not x or x⊙y⊙y (all of degree -1)
    v = GradedSpace([("x", 0), ("y", 1)])
    c = SymCoalgebra(v, 3)
    xy, xyy = c.position((0, 1))[0], c.position((0, 1, 1))[0]
    assert LInftyStructure(v, 3, {2: GradedMap(c.space, c.letters, 1, {(1, xy): F(1)})}, c)
    for word in (0, xyy):
        with pytest.raises(ValueError) as err:
            LInftyStructure(v, 3, {2: GradedMap(c.space, c.letters, 1, {(1, word): F(1)})}, c)
        assert str(err.value) == "Q¹_2 has wrong source/target/degree"


def test_minimality_detection():
    l = sl2()                             # zero differential: minimal
    assert dgla_to_linfty(l, 3).is_minimal()
    ab = random_abelian_dgla(make_rng(58))
    s = dgla_to_linfty(ab, 3)
    assert s.is_minimal() == ab.d.is_zero()


def random_taylor(rng, v, order, arities, density):
    """Random Q¹_k for k in ``arities``: each admissible entry is set with
    probability ``density``."""
    c = SymCoalgebra(v, order)
    taylor = {}
    for k in arities:
        q = GradedMap(c.space, c.letters, 1)
        for u in c.of_length(k):
            for t in range(c.letters.dim):
                if c.letters.degrees[t] == c.space.degrees[u] + 1 \
                        and rng.random() < density:
                    q.set_entry(t, u, F(rng.randint(-3, 3), rng.randint(1, 2)))
        taylor[k] = q
    return taylor


def random_linfty(rng):
    """One of: the structure of a random DGLA; that structure with random
    entries added; random Q¹_1..Q¹_3 on a small space whose odd letters
    give words with repeated even letters in V[1]; a lone Q¹_3 at order 4,
    which squares to arity 5 and so is L-infinity on the truncation."""
    kind = rng.randrange(4)
    if kind < 2:
        s = dgla_to_linfty(random_dgla(rng, max_dim=5), order=rng.randint(2, 4))
        if kind == 0:
            return s
        extra = random_taylor(rng, s.v, s.order, range(1, s.order + 1), 0.2)
        taylor = dict(s.taylor)
        for k, q in extra.items():
            taylor[k] = q + taylor[k] if k in taylor else q
        return LInftyStructure(s.v, s.order, taylor)
    v = GradedSpace([("v%d" % i, rng.choice([0, 1, 1, 2])) for i in range(rng.randint(2, 4))])
    if kind == 2:
        order = rng.randint(2, 3)
        return LInftyStructure(v, order, random_taylor(rng, v, order,
                                                       range(1, order + 1), 0.5))
    return LInftyStructure(v, 4, random_taylor(rng, v, 4, [3], 0.4))


def test_ce_reading_matches_coalgebra_oracles():
    """The Jacobi check read through the CE truncation equals Q∘Q of the
    unshuffle sum, entry for entry."""
    rng = make_rng(60)
    failing = repeated_even = 0
    for _ in range(120):
        s = random_linfty(rng)
        c = s.coalgebra
        rep = check_linfty(s)
        ok, arities, defects = reference_check_linfty(s)
        assert (rep.ok, rep.defect_arities, rep.defects) == (ok, arities, defects)
        failing += not ok
        repeated_even += any(len(set(w)) < len(w) for q in s.taylor.values()
                             for (_, u), _ in entries(q).items()
                             for w in [c.words[u]])
    assert failing >= 20 and repeated_even >= 1


def test_mc_check_matches_power_expansion():
    """linfty_mc_check read through the CE truncation equals the expansion
    of m^⊙n, on random degree-0 m over random algebras."""
    rng = make_rng(61)
    nonzero = 0
    # g of degree 0 has nonzero powers: images of even letters of V[1]
    # that multiply to a nonzero product on a word with a repeated letter
    poly = QuasismoothTrunc(GradedSpace([("g", 0), ("k", 1)]), 3, {}).algebra()
    for case in range(80):
        s = random_linfty(rng)
        a = poly if case % 3 == 0 else random_algebra(rng, max_dim=5)
        space = tensor_space(s.coalgebra.letters, a.space)
        m = [F(rng.randint(-2, 2)) if d == 0 else F(0) for d in space.degrees]
        got = linfty_mc_check(s, a, sparse(m))
        ok, defect = reference_linfty_mc_check(s, a, m)
        assert got == (ok, sparse(defect))
        nonzero += not got[0]
    assert nonzero >= 25


@pytest.mark.parametrize("l", [sl2(), sl2_odd(), heisenberg()], ids=["sl2", "sl2_odd", "heisenberg"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_ce_truncation_is_the_kuranishi_model(l, order):
    """For d_L = 0 the CE truncation of L's structure and the Kuranishi
    prorepresenting truncation of L have the same components."""
    from defalg.models import kuranishi_prorepresent
    r, _ = kuranishi_prorepresent(l, order=order)
    ce = dgla_to_linfty(l, order).ce
    assert sorted(ce.components) == sorted(r.components)
    for k, m in ce.components.items():
        assert entries(m) == entries(r.components[k])


def test_coproduct_and_coaxioms_match_unshuffle_oracles():
    """The co-axioms read on the dual truncation agree with the loops over
    the Koszul-signed unshuffle coproduct."""
    rng = make_rng(62)
    words = 0
    for _ in range(30):
        v = GradedSpace([("v%d" % i, rng.randint(-1, 2)) for i in range(rng.randint(1, 4))])
        for order in (1, 2, 3, 4):
            c = SymCoalgebra(v, order)
            words += len(c.words)
            assert c.check_cocommutative() == reference_cocommutative(c) is True
            assert c.check_coassociative() == reference_coassociative(c) is True
    assert words >= 600
