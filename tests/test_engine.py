"""The echelon engine against the dense reference elimination.

Every solver in ``defalg.linalg`` and the kernel and rank of ``GradedMap``
are views of ``linalg.Echelon``; the reference answers are read off the
reduced row echelon form in ``conftest.rref``.  The sparse multiplicativity
check of ``DgAlgebraMorphism`` is compared with its dense reference loop, and
the callers that read kernels and products sparsely (the fiber product, the
square-zero check of a small extension document) are pinned on edge cases.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from defalg import docio, linalg
from defalg.algebras import (BilinearStructure, DgAlgebraMorphism, NilpotentDgAlgebra,
                             fiber_product)
from defalg.graded import GradedMap, GradedSpace
from defalg.models import QuasismoothTrunc
from conftest import (FractionEchelon, counterexample_extension, dense_violations,
                      make_rng, random_algebra, rref_invert, rref_nullspace, rref_rank,
                      rref_solve)

F = Fraction

small = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(Fraction)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """m x n rational matrices, m and n from 0: dense or sparse, with zero
    rows and columns, and with rows that are combinations of earlier rows."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    entry = st.one_of(st.just(F(0)), small) if density < 1 else small
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combo"]))
        if kind == "zero":
            rows.append([F(0)] * n)
        elif kind == "combo" and rows:
            u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(small)
            rows.append([c * x + y for x, y in zip(u, w)])
        else:
            rows.append([draw(entry) if draw(st.floats(0, 1)) < density else F(0)
                         for _ in range(n)])
    zero_cols = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)) if n else []
    for row in rows:
        for j in zero_cols:
            row[j] = F(0)
    return rows


def columns_of(a, n):
    return [[row[j] for row in a] for j in range(n)]


def padded(a, n):
    """a with one zero row appended: the same null space, also for m = 0."""
    return [row[:] for row in a] + [[F(0)] * n]


def right_hand_sides(draw, a, n):
    m = len(a)
    x = draw(st.lists(small, min_size=n, max_size=n))
    inside = [sum((row[j] * x[j] for j in range(n)), F(0)) for row in a]
    anywhere = draw(st.lists(small, min_size=m, max_size=m))
    return [inside, anywhere, [F(0)] * m]


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solvers_match_reference_rref(a, data):
    n = len(a[0]) if a else data.draw(st.integers(0, 4))
    cols = columns_of(a, n) if a else [[] for _ in range(n)]
    assert linalg.rank(a) == rref_rank(a)
    assert linalg.nullspace(a) == rref_nullspace(a)
    ech, rels = linalg.relations(cols)
    assert rels == rref_nullspace(padded(a, n))
    assert ech.count == n
    for b in right_hand_sides(data.draw, a, n):
        expect = rref_solve(a, b)
        assert linalg.solve(a, b) == expect
        if a:
            assert linalg.solve_in_span(cols, b) == expect
            assert ech.coords(b) == expect
    if len(a) == n:
        try:
            expect = rref_invert(a)
        except ValueError:
            with pytest.raises(ValueError):
                linalg.invert(a)
        else:
            assert linalg.invert(a) == expect


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_graded_map_rank_and_kernel_match_reference_rref(a, data):
    n = len(a[0]) if a else data.draw(st.integers(0, 4))
    source = GradedSpace([("s%d" % i, 0) for i in range(n)])
    target = GradedSpace([("t%d" % j, 0) for j in range(len(a))])
    f = GradedMap(source, target, 0,
                  {(j, i): c for j, row in enumerate(a) for i, c in enumerate(row)})
    assert f.rank() == rref_rank(a)
    assert f.kernel_basis() == rref_nullspace(padded(a, n))
    ech = linalg.echelon(f.columns())
    for b in right_hand_sides(data.draw, a, n):
        assert ech.coords(b) == rref_solve(padded(a, n), b + [F(0)])


@pytest.mark.parametrize("a", [[], [[], []], [[F(0), F(0)]], [[F(0)], [F(0)]]])
def test_empty_and_zero_matrices(a):
    n = len(a[0]) if a else 0
    assert linalg.rank(a) == rref_rank(a) == 0
    assert linalg.nullspace(a) == rref_nullspace(a)
    b = [F(0)] * len(a)
    assert linalg.solve(a, b) == rref_solve(a, b) == [F(0)] * n
    if a:
        b[0] = F(1)
        assert linalg.solve(a, b) is None and rref_solve(a, b) is None
    assert linalg.relations([])[1] == []


def test_kernel_basis_with_zero_dimensional_target():
    source = GradedSpace([("a", 0), ("b", 1), ("c", 1)])
    f = GradedMap(source, GradedSpace([]), 0)
    assert f.kernel_basis() == [[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                                [F(0), F(0), F(1)]]
    assert f.rank() == 0
    assert GradedMap(GradedSpace([]), source, 0).kernel_basis() == []


def test_relations_are_the_dependent_vectors_minus_their_coordinates():
    u, w = [F(1), F(2)], [F(0), F(1)]
    vectors = [u, [F(2), F(4)], w, [F(0), F(0)], [F(1), F(3)]]
    ech, rels = linalg.relations(vectors)
    assert rels == [[F(-2), F(1), F(0), F(0), F(0)],
                    [F(0), F(0), F(0), F(1), F(0)],
                    [F(-1), F(0), F(-1), F(0), F(1)]]
    assert ech.count == 5
    assert ech.coords([F(3), F(7)]) == [F(3), F(0), F(1), F(0), F(0)]


def test_invert_rejects_singular_and_non_square():
    with pytest.raises(ValueError):
        linalg.invert([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ValueError):
        linalg.invert([[F(1)], [F(2)]])
    with pytest.raises(ValueError):
        linalg.invert([[F(1), F(0)]])
    assert linalg.invert([]) == []


# ---------------------------------------------------------------------------
# the integer engine against the Fraction engine, on wide coefficients

@st.composite
def wide_vectors(draw, max_vectors=8):
    """Vectors of one length with numerators and denominators up to 2**70,
    as dense lists or sparse dicts: fresh ones, zero ones, and repeated,
    scaled and summed copies of earlier ones."""
    n = draw(st.integers(1, 6))
    num, den = (draw(st.sampled_from([1, 6, 2 ** 70])) for _ in range(2))
    entry = st.builds(F, st.integers(-num, num), st.integers(1, den))
    fresh = st.lists(st.one_of(st.just(F(0)), entry), min_size=n, max_size=n)
    dense = []
    for _ in range(draw(st.integers(0, max_vectors))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combo"]))
        if kind == "zero":
            dense.append([F(0)] * n)
        elif kind == "fresh" or not dense:
            dense.append(draw(fresh))
        elif kind == "copy":
            c = draw(entry)
            dense.append([c * x for x in draw(st.sampled_from(dense))])
        else:
            c, u, w = draw(entry), draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
            dense.append([c * x + y for x, y in zip(u, w)])
    vectors = [{j: x for j, x in enumerate(v) if x} if draw(st.booleans()) else v
               for v in dense]
    return n, dense, vectors, entry


def as_fractions(ech):
    """The stored rows of a ``linalg.Echelon`` in the oracle's form."""
    return [(p, {j: F(x, d) for j, x in row.items()}, {t: F(x, e) for t, x in expr.items()})
            for p, row, d, expr, e in ech._rows]


@given(wide_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_matches_fraction_engine(drawn, data):
    n, dense, vectors, entry = drawn
    ech, ref = linalg.Echelon(), FractionEchelon()
    for v in vectors:
        assert ech.add(v) == ref.add(v)
    assert (ech.count, ech.independent) == (ref.count, ref.independent)
    assert as_fractions(ech) == ref._rows
    for p, row, d, expr, e in ech._rows:
        assert row[p] == d > 0 and gcd(*row.values()) == 1
        assert e > 0 and gcd(e, *expr.values()) == 1
    inside = [F(0)] * n
    for v in dense:
        c = data.draw(entry)
        inside = [x + c * y for x, y in zip(inside, v)]
    anywhere = data.draw(st.lists(entry, min_size=n, max_size=n))
    for target in (inside, anywhere, [F(0)] * n):
        assert ech.coords(target) == ref.coords(target)
        assert ech.coords({j: x for j, x in enumerate(target) if x}) == ref.coords(target)
    assert ech.coords(inside) is not None
    rels = ref.relations_of(dense)
    assert linalg.relations(vectors)[1] == rels
    assert ech.relations_of(vectors) == rels


@given(wide_vectors())
@settings(max_examples=100, deadline=None)
def test_solvers_match_references_on_wide_coefficients(drawn):
    n, dense, vectors, _ = drawn
    a = [list(row) for row in zip(*dense)]      # the vectors as columns
    if not a:
        return
    assert linalg.nullspace(a) == rref_nullspace(a)
    for b in dense + [[F(0)] * n, [F(1)] * n]:  # the columns of a, then two more
        assert linalg.solve(a, b) == rref_solve(a, b)
    square = [row[:n] for row in dense[:n]]
    if len(square) == n:
        ref = FractionEchelon()
        for j in range(n):
            ref.add({i: row[j] for i, row in enumerate(square) if row[j]})
        try:
            expect = rref_invert(square)
        except ValueError:
            assert len(ref.independent) < n
            with pytest.raises(ValueError):
                linalg.invert(square)
        else:
            cols = [ref.coords({k: F(1)}) for k in range(n)]
            assert [[c[i] for c in cols] for i in range(n)] == expect
            assert linalg.invert(square) == expect


@given(wide_vectors(), st.data())
@settings(max_examples=100, deadline=None)
def test_zero_coordinates_are_the_shared_zero(drawn, data):
    # a coordinate is built as a Fraction only where it is nonzero
    n, dense, vectors, entry = drawn
    ech, rels = linalg.relations(vectors)
    target = data.draw(st.lists(entry, min_size=n, max_size=n))
    coords = [c for c in (ech.coords(v) for v in vectors + [target, [F(0)] * n]) if c]
    assert all(x is linalg.ZERO for vec in rels + coords for x in vec if not x)


try:
    import sympy
except ImportError:          # optional: the reference rref covers the rest
    sympy = None


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_and_nullity_match_sympy(a):
    n = len(a[0]) if a else 0
    sm = sympy.Matrix(len(a), n, [sympy.Rational(x.numerator, x.denominator)
                                  for row in a for x in row])
    assert linalg.rank(a) == sm.rank()
    if a:
        assert len(linalg.nullspace(a)) == len(sm.nullspace()) == n - sm.rank()


# ---------------------------------------------------------------------------
# multiplicativity of morphisms on the structure constants

def random_degree0_map(rng, source, target, density):
    entries = {}
    for i in range(source.dim):
        for j in range(target.dim):
            if (source.degrees[i] == target.degrees[j] and rng.random() < density):
                entries[(j, i)] = F(rng.randint(-2, 2))
    return GradedMap(source, target, 0, entries)


def test_violations_match_dense_reference():
    rng = make_rng(51)
    failing = 0
    for trial in range(60):
        a = random_algebra(rng)
        b = a if trial % 2 else random_algebra(rng)
        maps = [random_degree0_map(rng, a.space, b.space, 0.3)]
        if b is a:
            ident = GradedMap.identity(a.space)
            maps.append(ident)
            bumped = dict(ident.entries)
            i = rng.randrange(a.dim) if a.dim else None
            if i is not None:
                bumped[(i, i)] = F(2)
                maps.append(GradedMap(a.space, a.space, 0, bumped))
        for f in maps:
            m = DgAlgebraMorphism(a, b, f, check=False)
            got = m.violations()
            assert got == dense_violations(m)
            failing += sum(1 for err in got if err.startswith("not multiplicative"))
    e = counterexample_extension()
    assert e.alpha.violations() == dense_violations(e.alpha) == []
    assert failing > 20


def test_violations_form_no_products_and_match_dense_reference(monkeypatch):
    # the identity of a truncated polynomial algebra into a copy of it with
    # 0, 1 and several structure constants perturbed: one sparse pass, no
    # product of two images, and the dense reference's pairs in its order
    a = QuasismoothTrunc(GradedSpace([("t", 0), ("u", 1), ("v", 2)]), 3, {}).algebra()
    rng = make_rng(52)
    keys = sorted(a.table)
    calls = []
    for name in ("sparse_product", "_int_product"):
        real = getattr(BilinearStructure, name)
        monkeypatch.setattr(BilinearStructure, name,
                            lambda self, *args, real=real: calls.append(1) or real(self, *args))
    for n_perturbed in (0, 1, 2, 5, len(keys)):
        table = {key: dict(row) for key, row in a.table.items()}
        for key in rng.sample(keys, n_perturbed):
            k = rng.choice(sorted(table[key]))
            table[key][k] += rng.choice([1, -1, 2])
        b = NilpotentDgAlgebra(a.space, table, a.d)
        m = DgAlgebraMorphism(a, b, GradedMap.identity(a.space), check=False)
        got = m.violations()
        assert calls == []
        assert got == dense_violations(m)
        assert len(got) == n_perturbed
        calls.clear()


SQUARE_KERNEL_EXT = """kind: small_extension
begin a
kind: nilpotent_dg_algebra
basis:
  z 0
  x 0
  w 0
  y 0
mult:
  x x -> 1 y
  w w -> 1 y
end a
begin b
kind: nilpotent_dg_algebra
basis:
  z 0
end b
alpha:
  z -> 1 z
"""


def test_kernel_not_square_zero_is_named_once_per_offending_element():
    # x² = w² = y in the kernel <x, w, y>: x and w each have a nonzero product
    with pytest.raises(docio.DocumentError) as exc:
        docio.build_small_extension(docio.parse(SQUARE_KERNEL_EXT))
    assert str(exc.value) == ("invalid small extension: kernel is not square-zero; "
                              "kernel is not square-zero")


def test_fiber_product_over_the_zero_algebra_is_the_direct_product():
    a = NilpotentDgAlgebra.trivial(GradedSpace([("x", 0), ("x2", 1)]))
    b = NilpotentDgAlgebra.trivial(GradedSpace([("y", 1)]))
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    fp = fiber_product(
        DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0)),
        DgAlgebraMorphism(b, zero, GradedMap(b.space, zero.space, 0)))
    assert fp.algebra.dim == 3
    assert fp.proj_a.is_surjective() and fp.proj_b.is_surjective()
