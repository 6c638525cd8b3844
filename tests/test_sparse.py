"""Vectors of graded spaces are sparse dicts: the sparse kernels against
their list-vector oracles in ``conftest``.

Each kernel is given a vector as a ``{index: Fraction}`` dict with no zero
value and must return one in the same normal form (int keys in range, no
zero value) holding what its dense oracle computes.  Coefficients are small
fractions or about 2**70, vectors are empty, one-entry or dense, and a
bilinear kernel is also called with ``u is v``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from defalg.dgla import gauge_act, mc_defect, tensor_dgla
from defalg.graded import cohomology
from conftest import (dense, dense_apply, dense_contraction, dense_gauge_act,
                      dense_mc_defect, dense_tensor_bracket, dense_tensor_bracket_vec,
                      fraction_bilinear, is_normal, make_rng, random_algebra,
                      random_complex, random_dgla, rescaled, sparse)

F = Fraction

coefficients = st.one_of(
    st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 4)]),
    st.builds(lambda n, d, neg: F(-n if neg else n, d), st.integers(1, 2 ** 70),
              st.integers(1, 2 ** 70), st.booleans()))


@st.composite
def vectors(draw, n, degrees=None, degree=None):
    """A list vector of length n: empty, one entry, or random entries, each
    zero or a coefficient; with ``degree``, zero off that degree."""
    slots = [i for i in range(n) if degree is None or degrees[i] == degree]
    shape = draw(st.sampled_from(["empty", "one", "random"]))
    v = [F(0)] * n
    if shape == "one" and slots:
        v[draw(st.sampled_from(slots))] = draw(coefficients)
    elif shape == "random":
        for i in slots:
            if draw(st.booleans()):
                v[i] = draw(coefficients)
    return v


@st.composite
def structures(draw):
    """An algebra, a DGLA or a tensor DGLA, some in a fractional basis."""
    rng = make_rng(draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(["algebra", "dgla", "tensor"]))
    if kind == "algebra":
        s = random_algebra(rng, max_dim=6)
    elif kind == "dgla":
        s = random_dgla(rng, max_dim=6)
    else:
        return tensor_dgla(random_dgla(rng, max_dim=4), random_algebra(rng, max_dim=4))
    if draw(st.booleans()):
        s = rescaled(s, [draw(st.sampled_from([F(1, 2), F(-2, 3), F(3)])) for _ in range(s.dim)])
    return s


@st.composite
def structure_and_vectors(draw):
    s = draw(structures())
    return s, draw(vectors(s.dim)), draw(vectors(s.dim))


def operation(s):
    return s.bracket_vec if hasattr(s, "bracket_vec") else s.product


@given(structure_and_vectors())
@settings(max_examples=120, deadline=None)
def test_products_and_brackets_match_the_dense_sum(case):
    s, u, v = case
    su, sv = sparse(u), sparse(v)
    for x, y, sx, sy in ((u, v, su, sv), (u, u, su, su), (v, u, sv, su)):
        got = operation(s)(sx, sy)
        assert is_normal(got, s.dim)
        assert got == sparse(fraction_bilinear(s, x, y))
    assert su == sparse(u) and sv == sparse(v)      # the inputs are left as they were


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=60, deadline=None)
def test_tensor_bracket_matches_the_defining_formula(seed, data):
    rng = make_rng(seed)
    t = tensor_dgla(random_dgla(rng, max_dim=4), random_algebra(rng, max_dim=4))
    table = dense_tensor_bracket(t.l, t.a)
    u, v = data.draw(vectors(t.dim)), data.draw(vectors(t.dim))
    su, sv = sparse(u), sparse(v)
    for x, y, sx, sy in ((u, v, su, sv), (u, u, su, su)):
        got = t.bracket_vec(sx, sy)
        assert is_normal(got, t.dim)
        assert got == sparse(dense_tensor_bracket_vec(table, x, y))


@given(structure_and_vectors())
@settings(max_examples=80, deadline=None)
def test_apply_and_mc_defect_match_the_dense_oracles(case):
    s, u, _ = case
    su = sparse(u)
    got = s.d.apply(su)
    assert is_normal(got, s.dim) and got == sparse(dense_apply(s.d, u))
    if hasattr(s, "bracket_vec"):
        got = mc_defect(s, su)
        assert is_normal(got, s.dim) and got == sparse(dense_mc_defect(s, u))


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=50, deadline=None)
def test_gauge_act_matches_the_dense_series(seed, data):
    rng = make_rng(seed)
    t = tensor_dgla(random_dgla(rng, max_dim=4), random_algebra(rng, max_dim=4))
    a = data.draw(vectors(t.dim, t.space.degrees, 0))
    x = data.draw(vectors(t.dim, t.space.degrees, 1))
    for sa, sx in ((sparse(a), sparse(x)), (sparse(a), {}), ({}, sparse(x))):
        got = gauge_act(t, sa, sx)
        assert is_normal(got, t.dim)
        assert got == sparse(dense_gauge_act(t, dense(sa, t.dim), dense(sx, t.dim)))


@given(st.integers(0, 10 ** 6), st.data())
@settings(max_examples=60, deadline=None)
def test_class_of_and_sigma_match_the_dense_contraction(seed, data):
    cx, _ = random_complex(make_rng(seed))
    c, ref = cohomology(cx), dense_contraction(cx)
    n = cx.space.dim
    # a random vector, its boundary and a cocycle from the harmonics
    v = data.draw(vectors(n))
    cocycle = dense_apply(cx.d, v)
    for h in range(c.harmonic_space.dim):
        cocycle = [a + data.draw(coefficients) * b
                   for a, b in zip(cocycle, dense(c.representative(h), n))]
    for w in (v, dense_apply(cx.d, v), cocycle):
        sw = sparse(w)
        want = ref.class_of(w)
        got = c.class_of(sw)
        assert got == (None if want is None else sparse(want))
        assert got is None or is_normal(got, c.harmonic_space.dim)
        got = c.sigma.apply(sw)
        assert is_normal(got, n) and got == sparse(dense_apply(ref.sigma, w))
