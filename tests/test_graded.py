"""Graded spaces, Koszul signs, symmetric powers, cohomology contractions."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defalg import linalg
from defalg.graded import (Complex, GradedMap, GradedSpace, _words_of_length,
                           canonical_monomial, cohomology, is_chain_map, is_quasiiso,
                           koszul_sign, shift, shift_space, solve_homotopy,
                           unshuffles, word_count, MAX_WORDS, WordBasis)
from defalg.models import QuasismoothTrunc
from conftest import (ShortExactSequence, connecting_hom, entries, dense, dense_contraction,
                      is_normal, make_rng, mat_add, mat_mul, mat_scale, mat_transpose,
                      mat_vec, matrix, random_complex, rank,
                      reference_monomials, reference_tensor_space, reference_truncation_rows,
                      reference_word_space, rref_rank, rref_solve, sparse)

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
    # the words of each length are the oracle's monomials of that power,
    # in its order, and a word of length 2 is placed among them with the
    # sign of sorting it
    v = GradedSpace([("a", 1), ("b", 2), ("c", 1)])
    wb = WordBasis(v, 3)
    for k in (1, 2, 3):
        assert [wb.words[p] for p in wb.of_length(k)] == reference_monomials(v, k)
    for word in itertools.product(range(3), repeat=2):
        res = wb.position(word)
        cm = canonical_monomial(word, v.degrees)
        if cm is None:
            assert res is None
        else:
            pos, sgn = res
            assert pos in wb.of_length(2) and wb.words[pos] == cm[0] and sgn == cm[1]
    # aa is zero (odd), bb survives (even)
    assert wb.position((0, 0)) is None
    assert wb.position((1, 1)) is not None


def test_words_of_length_match_the_filter_oracle():
    # formed one letter at a time, the words are the sorted tuples that
    # repeat no odd letter, in the same order
    rng = make_rng(29)
    for _ in range(300):
        odd = [rng.randrange(2) for _ in range(rng.randint(1, 7))]
        v = GradedSpace([("x%d" % i, p) for i, p in enumerate(odd)])
        k = rng.randint(1, 6)
        assert _words_of_length(odd, k) == reference_monomials(v, k)


def test_shift_space_and_complex():
    v = GradedSpace([("a", 0), ("b", 1)])
    s = shift_space(v, 1)
    assert list(s.degrees) == [-1, 0]
    d = GradedMap(v, v, 1)
    d.set_entry(1, 0, F(1))
    cx = Complex(v, d)
    sh = shift(cx, 1)
    assert sh.d.apply(sh.space.basis_vector(0)) == {1: F(-1)}  # d[1] = -d


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
        # the side conditions the hull's transfer recursion relies on
        assert c.sigma.compose(c.sigma).is_zero()
        assert c.sigma.compose(c.include).is_zero()
        assert c.project.compose(c.sigma).is_zero()


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
        mixed = {}
        for v in cocycles:
            linalg.add_into(mixed, v, F(rng.randint(-3, 3)))
        probes = cocycles + [mixed] + [cx.space.basis_vector(i) for i in range(cx.space.dim)]
        for v in probes:
            want = ref.class_of(dense(v, cx.space.dim))
            assert c.class_of(v) == (None if want is None else sparse(want))
        assert "_project_sigma" not in vars(c)
        for k in sorted(set(cx.space.degrees)) + [min(cx.space.degrees) - 1,
                                                  max(cx.space.degrees) + 1]:
            split = c.split(k)
            assert split.boundaries == [sparse(v) for v in ref.boundaries.get(k, [])]
            assert split.preimages == [sparse(v) for v in ref.boundary_preimages.get(k, [])]
            assert split.harmonics == [sparse(v) for v in ref.harmonics.get(k, [])]
            assert split.complements == [sparse(v) for v in ref.complements.get(k, [])]
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
            if not dv:
                continue
            assert c.class_of(dv) == {}
            pre = c.is_boundary(dv)
            assert pre is not None
            assert cx.d.apply(pre) == dv
        for t in range(c.harmonic_space.dim):
            rep = c.representative(t)
            cls = c.class_of(rep)
            assert cls == {t: F(1)}


def test_rank_identity_cocycles_boundaries():
    rng = make_rng(12)
    for _ in range(50):
        cx, _ = random_complex(rng)
        c = cohomology(cx)
        for k in set(cx.space.degrees):
            idx = cx.space.degree_indices(k)
            dk = [cx.d.apply(cx.space.basis_vector(i)) for i in idx]
            rank_dk = rank([dense(v, cx.space.dim) for v in dk]) if dk else 0
            z = len(idx) - rank_dk
            prev = cx.space.degree_indices(k - 1)
            dprev = [cx.d.apply(cx.space.basis_vector(i)) for i in prev]
            b = rank([dense(v, cx.space.dim) for v in dprev]) if dprev else 0
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
    assert matrix(delta) == [[F(1)]]


def test_graded_map_degree_enforcement():
    v = GradedSpace([("a", 0), ("b", 1)])
    m = GradedMap(v, v, 1)
    with pytest.raises(ValueError):
        m.set_entry(0, 1, F(1))  # would be degree -1
    m.set_entry(1, 0, F(1))
    assert m.apply({0: F(1)}) == {1: F(1)}


# ---------------------------------------------------------------------------
# the column form of GradedMap against dense matrices

coefficients = st.one_of(
    st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 4)]),
    st.builds(lambda n, d, neg: F(-n if neg else n, d), st.integers(1, 2 ** 70),
              st.integers(1, 2 ** 70), st.booleans()))

spaces = st.lists(st.integers(-1, 2), max_size=5).map(
    lambda degs: GradedSpace([("e%d" % i, d) for i, d in enumerate(degs)]))


@st.composite
def graded_maps(draw, source=None, target=None, degree=None):
    """(m, a): a GradedMap built from its entries by the constructor, and
    its matrix a.  Every admissible entry is drawn nonzero, zero, or left
    out, so some entries handed to the constructor are zeros."""
    source = draw(spaces) if source is None else source
    target = draw(spaces) if target is None else target
    degree = draw(st.integers(-1, 1)) if degree is None else degree
    a = [[F(0)] * source.dim for _ in range(target.dim)]
    given_entries = {}
    for j in range(target.dim):
        for i in range(source.dim):
            if target.degrees[j] == source.degrees[i] + degree:
                kind = draw(st.sampled_from(["none", "zero", "coefficient", "coefficient"]))
                if kind != "none":
                    a[j][i] = F(0) if kind == "zero" else draw(coefficients)
                    given_entries[(j, i)] = a[j][i]
    return GradedMap(source, target, degree, given_entries), a


def vectors(n):
    return st.dictionaries(st.integers(0, n - 1), coefficients, max_size=n) if n else st.just({})


def snapshot(m):
    """A copy of everything a map holds, to check that it is not changed."""
    return (m.source, m.target, m.degree, [dict(col) for col in m.columns()])


@given(graded_maps(), st.data())
@settings(max_examples=150, deadline=None)
def test_column_form_matches_dense_matrices(drawn, data):
    m, a = drawn
    n, k = m.source.dim, m.target.dim
    before = snapshot(m)
    # columns: the matrix's columns, sparse; the stored ones are nonzero
    assert [dense(col, k) for col in m.columns()] == mat_transpose(a, n)
    assert all(col and is_normal(col, k) for _, col in m.nonzero_columns())
    assert [i for i, _ in sorted(m.nonzero_columns())] == [i for i in range(n)
                                                            if any(row[i] for row in a)]
    v = data.draw(vectors(n))
    v_before = dict(v)
    img = m.apply(v)
    assert is_normal(img, k) and dense(img, k) == mat_vec(a, dense(v, n))
    assert m(v) == img and v == v_before
    c = data.draw(st.one_of(st.just(F(0)), coefficients))
    assert matrix(m.scale(c)) == mat_scale(c, a) and matrix(-m) == mat_scale(F(-1), a)
    t = m.transpose()
    assert (t.source, t.target, t.degree) == (m.target.dual(), m.source.dual(), m.degree)
    assert matrix(t) == mat_transpose(a, n)
    # ==: the same columns, however built, and any one entry changed
    assert m == GradedMap.from_columns(m.source, m.target, m.degree, [dict(col) for col in m.columns()])
    assert m == GradedMap.from_columns(m.source, m.target, m.degree, dict(m.nonzero_columns()))
    assert m.is_zero() == (not any(any(row) for row in a))
    slots = [(j, i) for j in range(k) for i in range(n)
             if m.target.degrees[j] == m.source.degrees[i] + m.degree]
    if slots:
        j, i = data.draw(st.sampled_from(slots))
        other = GradedMap(m.source, m.target, m.degree, entries(m))
        other.set_entry(j, i, a[j][i] + data.draw(coefficients))
        assert other != m and m == GradedMap(m.source, m.target, m.degree, entries(m))
    # the kernel: independent null vectors, as many as the nullity
    kernel = m.kernel_basis()
    assert all(not any(mat_vec(a, dense(z, n))) for z in kernel)
    assert len(kernel) == n - rref_rank(a) == rank([dense(z, n) for z in kernel])
    assert m.rank() == rref_rank(a)
    assert snapshot(m) == before


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_column_form_sums_and_composites_match_dense_matrices(data):
    s, t, u = data.draw(spaces), data.draw(spaces), data.draw(spaces)
    d1, d2 = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
    m1, a1 = data.draw(graded_maps(s, t, d1))
    m2, a2 = data.draw(graded_maps(s, t, d1))
    m3, a3 = data.draw(graded_maps(t, u, d2))
    before = [snapshot(m) for m in (m1, m2, m3)]
    total, diff, comp = m1 + m2, m1 - m2, m3.compose(m1)
    assert matrix(total) == mat_add(a1, a2)
    assert matrix(diff) == mat_add(a1, mat_scale(F(-1), a2))
    assert (comp.source, comp.target, comp.degree) == (s, u, d1 + d2)
    assert matrix(comp) == (mat_mul(a3, a1) if t.dim else [[F(0)] * s.dim for _ in range(u.dim)])
    for out, rows in ((total, t.dim), (diff, t.dim), (comp, u.dim)):
        assert all(col and is_normal(col, rows) for _, col in out.nonzero_columns())
    assert (m1 - m1).is_zero() and m1 + m2 == m2 + m1
    assert [snapshot(m) for m in (m1, m2, m3)] == before
    # the results hold columns of their own: changing one leaves the inputs
    for out in (total, diff, comp):
        for i, _ in list(out.nonzero_columns()):
            out.set_entry(next(iter(out.column(i))), i, 0)
    assert [snapshot(m) for m in (m1, m2, m3)] == before


def test_degree_violating_entries_raise():
    v = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    with pytest.raises(ValueError, match=r"entry \(a <- b\) violates degree 1 homogeneity"):
        GradedMap(v, v, 1, {(2, 0): F(1), (0, 1): F(3)})
    m = GradedMap(v, v, 1, {(0, 1): F(0)})      # a zero entry is never checked or kept
    assert m.is_zero()
    with pytest.raises(ValueError, match=r"entry \(b <- c\) violates degree 1 homogeneity"):
        m.set_entry(1, 2, F(1))
    assert m.is_zero()
    # the zero column handed out is shared, so it is read-only
    m.set_entry(1, 0, F(2))
    for col in (m.column(1), m.columns()[2]):
        with pytest.raises(TypeError):
            col[2] = F(1)
    assert m.columns() == [{1: F(2)}, {}, {}]


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
    # the ⊙²-part keeps its positions among all words
    assert list(wb.of_length(2)) == [2, 3] and list(wb.of_length(3)) == [4, 5]
    assert wb.component({i: F(i) for i in range(1, wb.space.dim)}, 2) == {2: F(2), 3: F(3)}


@given(st.lists(st.integers(-2, 3), min_size=1, max_size=5), st.integers(2, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_word_product_merges_like_canonical_monomial(degrees, order, data):
    # the product of two canonical words, formed by merging them, is the
    # canonical monomial of their concatenation with its Koszul sign, or
    # None when an odd letter is in both
    v = GradedSpace([("x%d" % i, d) for i, d in enumerate(degrees)])
    wb = WordBasis(v, order)
    p = data.draw(st.sampled_from(wb.words[:wb.offsets[order]]))
    q = data.draw(st.sampled_from(wb.words[:wb.offsets[order + 1 - len(p)]]))
    cm = canonical_monomial(p + q, degrees)
    want = None if cm is None else (wb.words.index(cm[0]), cm[1])
    assert wb.product(p, q) == want == wb.position(p + q)


def test_truncation_products_match_the_sorted_concatenation():
    # QuasismoothTrunc.algebra() reads each product off the merge; it is
    # what sorting the concatenated word gives, entry for entry and in order
    v = GradedSpace([("a", 0), ("b", 1), ("c", 1), ("e", 2), ("f", -1)])
    for order in (1, 2, 4):
        left = QuasismoothTrunc(v, order, {}).algebra().rows()
        assert left == reference_truncation_rows(WordBasis(v, order))


# names drawn from an alphabet with both separators, so that joined names
# collide now and then
_NAMES = st.text(alphabet="ab@*", max_size=3)


@st.composite
def named_spaces(draw, max_dim=4):
    names = draw(st.lists(_NAMES, min_size=0, max_size=max_dim, unique=True))
    return GradedSpace([(n, draw(st.integers(-2, 2))) for n in names])


def _built(make):
    """What make() returns, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


def assert_same_space(lazy, eager, strangers):
    """The lazily named space reads like the eager oracle: the same names,
    basis, indices, equality and hash; names not in it are KeyErrors with
    the name as their argument in both."""
    if isinstance(eager, str):
        assert lazy == eager
        return
    assert not isinstance(lazy, str)
    assert lazy.dim == eager.dim and lazy.degrees == eager.degrees
    assert [lazy.name(i) for i in range(lazy.dim)] == list(eager.names)
    assert lazy.names == eager.names and lazy.basis == eager.basis
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    for i, n in enumerate(eager.names):
        assert lazy.index(n) == eager.index(n) == i
    for n in strangers:
        if n not in eager.names:
            for space in (lazy, eager):
                with pytest.raises(KeyError) as err:
                    space.index(n)
                assert err.value.args == (n,)


@given(named_spaces(), named_spaces(), st.lists(st.text(alphabet="ab@*", max_size=6)))
@settings(max_examples=300, deadline=None)
def test_tensor_space_names_match_the_eager_oracle(l, a, strangers):
    from defalg.dgla import tensor_space
    # the lazy space first, so its names are read only through its methods
    lazy = _built(lambda: tensor_space(l, a))
    assert_same_space(lazy, _built(lambda: reference_tensor_space(l, a)), strangers)


@given(named_spaces(), st.integers(1, 3), st.lists(st.text(alphabet="ab@*", max_size=6)))
@settings(max_examples=300, deadline=None)
def test_word_space_names_match_the_eager_oracle(v, order, strangers):
    lazy = _built(lambda: WordBasis(v, order))
    eager = _built(lambda: reference_word_space(
        v, [w for k in range(1, order + 1) for w in reference_monomials(v, k)]))
    assert_same_space(lazy if isinstance(lazy, str) else lazy.space, eager, strangers)


def test_joined_names_are_built_only_when_read():
    from defalg.dgla import tensor_space
    l = GradedSpace([("e", 0), ("f", 1)])
    r = WordBasis(GradedSpace([("x", 0), ("y", 1)]), 3).space
    t = tensor_space(l, r)
    assert t.dim == 2 * r.dim and t.name(2 * r.dim - 1) == "f@x*x*y"
    assert not {"names", "basis", "_index"} & (set(vars(t)) | set(vars(r)))
    # a tensor name is looked up through the factors' name indices
    assert t.index("f@x*y") == r.dim + r.names.index("x*y")
    assert not {"names", "basis", "_index"} & set(vars(t))


def test_word_count_is_the_length_of_the_word_basis():
    for degrees in ([0], [1], [0, 1], [1, 1, 3], [0, 2, 1, -1], [0, 0, 0, 1, 1, 1]):
        v = GradedSpace([("x%d" % i, d) for i, d in enumerate(degrees)])
        for order in range(1, 6):
            assert word_count(v, order) == len(WordBasis(v, order).words)


def test_word_cap_refuses_by_the_count_before_forming_a_word(monkeypatch):
    # the count of an sl2_odd-shaped basis (three even, three odd letters):
    # 4,088 words at order 14, which the cap allows ten times over, and
    # 295,360 at order 60, which it refuses before any word is formed
    v = GradedSpace([("x%d" % i, i % 2) for i in range(6)])
    assert word_count(v, 14) == 4088 and MAX_WORDS >= 10 * 4088
    assert word_count(v, 60) == 295360 > MAX_WORDS
    import defalg.graded

    def no_words(*args):
        raise AssertionError("a word was formed")
    monkeypatch.setattr(defalg.graded, "_words_of_length", no_words)
    for order in (60, MAX_WORDS + 1):
        with pytest.raises(ValueError) as err:
            WordBasis(v, order)
        assert str(err.value) == (
            "a truncation at order %d on 6 letters has %d words; the cap is %d words and "
            "order %d" % (order, word_count(v, order), MAX_WORDS, MAX_WORDS))
    # odd letters alone give at most 2^o - 1 words, so a long order is
    # refused by the order
    odd = GradedSpace([("y", 1)])
    assert word_count(odd, 10 ** 12) == 1
    with pytest.raises(ValueError):
        WordBasis(odd, 10 ** 12)


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
                        t.set_entry(j, i, entries(t).get((j, i), F(0)) + 1)
        cols = []
        for s in slots:
            unit = GradedMap(src.space, tgt.space, deg - 1, {s: F(1)})
            comb = tgt.d.compose(unit) + unit.compose(src.d)
            cols.append([entries(comb).get((r, c), F(0)) for r in range(tgt.space.dim)
                         for c in range(src.space.dim)])
        rows = [[col[k] for col in cols] for k in range(tgt.space.dim * src.space.dim)]
        rhs = [entries(t).get((r, c), F(0)) for r in range(tgt.space.dim)
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
