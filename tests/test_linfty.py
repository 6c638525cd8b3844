"""L-infinity structures on truncated symmetric coalgebras."""

from fractions import Fraction

import pytest

from defalg.dgla import Dgla, mc_check, tensor_dgla, tensor_space
from defalg.graded import GradedMap, GradedSpace
from defalg.linfty import (LInftyStructure, SymCoalgebra, check_coderivation,
                           check_coalgebra_morphism, check_linfty,
                           coalgebra_morphism_from_linear,
                           coderivation_from_taylor, dgla_to_linfty,
                           dual_algebra, dual_coalgebra, linfty_mc_check,
                           linfty_to_dgla)
from defalg.models import QuasismoothTrunc
from conftest import (entries, heisenberg, make_rng, random_abelian_dgla, random_algebra,
                      perturb_one_entry, random_dgla, reference_check_coalgebra_morphism,
                      reference_check_coderivation, reference_check_linfty,
                      reference_coalgebra_morphism_from_linear, reference_coassociative,
                      reference_cocommutative, reference_coderivation,
                      reference_coproduct, reference_dual_coalgebra_failures,
                      reference_linfty_mc_check, sl2, sl2_odd, sparse)

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
        assert c.component(img, 1) == m.apply(c.space.basis_vector(pos))


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
    for w in c.of_length(2):
        assert theta.apply(c.space.basis_vector(w)) == {w: F(4)}


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
    """The coderivation and the Jacobi check read through the CE
    truncation equal the unshuffle sum and Q∘Q, entry for entry."""
    rng = make_rng(60)
    failing = repeated_even = 0
    for _ in range(120):
        s = random_linfty(rng)
        c = s.coalgebra
        assert coderivation_from_taylor(s) == reference_coderivation(s)
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


# ---------------------------------------------------------------------------
# the coalgebra read through its dual truncation, against the unshuffle
# oracles; half of the inputs of each check carry one perturbed entry


def random_letters(rng, prefix, max_dim=4):
    return GradedSpace([("%s%d" % (prefix, i), rng.randint(-1, 2))
                        for i in range(rng.randint(1, max_dim))])


def test_coproduct_and_coaxioms_match_unshuffle_oracles():
    rng = make_rng(62)
    words = 0
    for _ in range(30):
        v = random_letters(rng, "v")
        for order in (1, 2, 3, 4):
            c = SymCoalgebra(v, order)
            for pos in range(len(c.words)):
                assert c.coproduct(pos) == reference_coproduct(c, pos)
            words += len(c.words)
            assert c.check_cocommutative() == reference_cocommutative(c) is True
            assert c.check_coassociative() == reference_coassociative(c) is True
    assert words >= 600


def test_coderivation_check_matches_unshuffle_oracle():
    rng = make_rng(63)
    verdicts = []
    for case in range(120):
        s = random_linfty(rng)
        q = coderivation_from_taylor(s)
        if case % 2:
            q = perturb_one_entry(rng, q)
            if q is None:
                continue
        got = check_coderivation(s.coalgebra, q)
        assert got == reference_check_coderivation(s.coalgebra, q)
        verdicts.append(got)
    assert len(verdicts) >= 100
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 10


def test_coalgebra_morphism_matches_iterated_coproduct_oracle():
    rng = make_rng(64)
    verdicts = []
    for case in range(120):
        c = SymCoalgebra(random_letters(rng, "v", 3), rng.randint(1, 3))
        d = c if case % 4 < 2 else SymCoalgebra(random_letters(rng, "w", 3), rng.randint(1, 3))
        m = GradedMap(c.space, d.letters, 0)
        for pos in range(c.space.dim):
            for t in range(d.letters.dim):
                if c.space.degrees[pos] == d.letters.degrees[t] and rng.random() < 0.5:
                    m.set_entry(t, pos, F(rng.randint(-2, 2), rng.randint(1, 2)))
        theta = coalgebra_morphism_from_linear(c, m, d)
        assert theta == reference_coalgebra_morphism_from_linear(c, m, d)
        if case % 2:
            theta = perturb_one_entry(rng, theta)
            if theta is None:
                continue
        got = check_coalgebra_morphism(c, d, theta)
        assert got == reference_check_coalgebra_morphism(c, d, theta)
        verdicts.append(got)
    assert len(verdicts) >= 100
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 10


def test_dual_coalgebra_validate_matches_coproduct_oracle():
    rng = make_rng(65)
    verdicts = []
    while len(verdicts) < 120:
        c = dual_coalgebra(random_algebra(rng, max_dim=5))
        if len(verdicts) % 2:
            degs = c.space.degrees
            slots = [(k, i, j) for k in range(len(degs)) for i in range(len(degs))
                     for j in range(len(degs)) if degs[k] == degs[i] + degs[j]]
            if not slots:
                continue
            k, i, j = rng.choice(slots)
            row = c.coproduct.setdefault(k, {})
            row[(i, j)] = row.get((i, j), F(0)) + rng.choice([-1, 1, F(1, 3)])
        errs = c.validate()
        cocomm, coassoc, conil = reference_dual_coalgebra_failures(c)
        assert (not errs) == (cocomm and coassoc and conil)
        assert any(e.startswith("graded commutativity") for e in errs) == (not cocomm)
        assert any(e.startswith("associativity") for e in errs) == (not coassoc)
        verdicts.append(not errs)
    assert all(verdicts[::2]) and verdicts.count(False) >= 10
