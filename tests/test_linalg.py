"""Exact linear algebra: solver correctness against direct verification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defalg import linalg
from conftest import extend_basis, identity, make_rng, mat_mul, mat_vec, rref

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5,
                         max_denominator=6).map(Fraction)


def random_matrix(rng, m, n, density=0.7):
    return [[F(rng.randint(-4, 4)) if rng.random() < density else F(0)
             for _ in range(n)] for _ in range(m)]


def test_rref_idempotent_and_pivots():
    rng = make_rng(1)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r, piv = rref(a)
        r2, piv2 = rref(r)
        assert r2 == r and piv2 == piv
        for k, j in enumerate(piv):
            assert r[k][j] == F(1)
            assert all(r[t][j] == F(0) for t in range(len(r)) if t != k)


def test_solve_verifies_and_detects_inconsistency():
    rng = make_rng(2)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        x = [F(rng.randint(-3, 3)) for _ in range(n)]
        b = mat_vec(a, x)
        sol = linalg.solve(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b


def test_solve_none_only_when_out_of_span():
    rng = make_rng(3)
    hits = 0
    for _ in range(80):
        m, n = rng.randint(2, 6), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        sol = linalg.solve(a, b)
        if sol is None:
            hits += 1
            cols = [[a[i][j] for i in range(m)] for j in range(n)]
            assert linalg.rank([row[:] for row in a]) < \
                linalg.rank([c[:] for c in cols] + [b])
        else:
            assert mat_vec(a, sol) == b
    assert hits > 0


def test_nullspace_is_kernel_basis():
    rng = make_rng(4)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        ns = linalg.nullspace(a)
        for v in ns:
            assert linalg.is_zero_vector(mat_vec(a, v))
        assert len(ns) == n - linalg.rank([row[:] for row in a])
        if ns:
            assert linalg.rank([v[:] for v in ns]) == len(ns)


def test_invert_roundtrip():
    rng = make_rng(5)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        if linalg.rank([row[:] for row in a]) < n:
            continue
        inv = linalg.invert(a)
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)
        done += 1


def test_independent_subset_and_extend_basis():
    rng = make_rng(6)
    for _ in range(40):
        n = rng.randint(1, 5)
        vecs = [ [F(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(rng.randint(0, 6)) ]
        chosen = linalg.independent_subset(vecs)
        sub = [vecs[i] for i in chosen]
        assert linalg.rank([v[:] for v in sub]) == len(sub)
        for v in vecs:
            assert linalg.solve_in_span(sub, v) is not None
        cands = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(3)]
        ext = extend_basis(sub, cands)
        full = sub + [cands[i] for i in ext]
        assert linalg.rank([v[:] for v in full]) == len(full)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_solve_in_span_exactness(vectors, target):
    coords = linalg.solve_in_span(vectors, target)
    if coords is not None:
        acc = [F(0)] * 3
        for c, v in zip(coords, vectors):
            acc = linalg.vec_add(acc, linalg.vec_scale(c, v))
        assert acc == list(target)
    else:
        assert linalg.rank([list(v) for v in vectors]) < \
            linalg.rank([list(v) for v in vectors] + [list(target)])


# ---------------------------------------------------------------------------
# the incremental echelon against the rank / solve path

@st.composite
def vector_lists(draw, max_vectors=8):
    """Sparse rational vectors of one length, with zero vectors and with
    repeated, scaled and summed copies of earlier ones."""
    n = draw(st.integers(1, 6))
    sparse_vec = st.lists(st.one_of(st.just(F(0)), st.just(F(0)), rationals),
                          min_size=n, max_size=n)
    out = []
    for _ in range(draw(st.integers(0, max_vectors))):
        kind = draw(st.sampled_from(["fresh", "zero", "copy", "combo"]))
        if kind == "zero" or (kind != "fresh" and not out):
            out.append([F(0)] * n if kind == "zero" else draw(sparse_vec))
        elif kind == "fresh":
            out.append(draw(sparse_vec))
        elif kind == "copy":
            v = draw(st.sampled_from(out))
            out.append(linalg.vec_scale(draw(rationals), v))
        else:
            u, w = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(linalg.vec_add(linalg.vec_scale(draw(rationals), u), w))
    return n, out


def greedy_by_rank(base, candidates):
    """Indices into candidates that raise the rank of base + chosen."""
    rows = [list(v) for v in base]
    rk = linalg.rank(rows) if rows else 0
    chosen = []
    for idx, v in enumerate(candidates):
        new_rank = linalg.rank(rows + [list(v)])
        if new_rank > rk:
            rows.append(list(v))
            chosen.append(idx)
            rk = new_rank
    return chosen


@given(vector_lists(), vector_lists())
@settings(max_examples=80, deadline=None)
def test_independent_subset_and_extend_basis_match_rank(first, second):
    n, vecs = first
    assert linalg.independent_subset(vecs) == greedy_by_rank([], vecs)
    cands = [(v + [F(0)] * n)[:n] for v in second[1]]
    assert extend_basis(vecs, cands) == greedy_by_rank(vecs, cands)


@given(vector_lists())
@settings(max_examples=80, deadline=None)
def test_relations_after_the_fact_match_relations(first):
    _, vecs = first
    ech, rels = linalg.relations(vecs)
    assert linalg.echelon(vecs).relations_of(vecs) == rels
    assert ech.relations_of(vecs) == rels


@given(vector_lists(), st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_coords_match_solve_in_span(first, data):
    n, vecs = first
    ech = linalg.Echelon()
    for v in vecs:
        ech.add(v)
    assert ech.count == len(vecs)
    inside = [F(0)] * n
    for v in vecs:
        inside = linalg.vec_add(inside, linalg.vec_scale(data.draw(rationals), v))
    anywhere = data.draw(st.lists(rationals, min_size=n, max_size=n))
    for target in (inside, anywhere, [F(0)] * n):
        expect = linalg.solve_in_span(vecs, target)
        got = ech.coords(target)
        assert got == expect
        sparse = ech.coords({j: x for j, x in enumerate(target) if x})
        assert sparse == expect
    assert ech.coords(inside) is not None


@given(vector_lists(), st.data())
@settings(max_examples=80, deadline=None)
def test_pivot_inverse_gives_the_coordinates_of_the_span(first, data):
    # for a vector of the span, q times its coordinates are read off its
    # entries at the pivot columns alone; with dependent vectors added they
    # are the coordinates that coords() gives, zero off the greedy ones
    n, vecs = first
    ech = linalg.echelon(vecs)
    inv, q = ech.pivot_inverse()
    assert len(inv) == len(ech.independent)
    inside = [F(0)] * n
    for v in vecs:
        inside = linalg.vec_add(inside, linalg.vec_scale(data.draw(rationals), v))
    got = [F(0)] * len(vecs)
    for p, col in inv.items():
        for k, z in col.items():
            got[k] += inside[p] * z / q
    assert got == ech.coords(inside)
