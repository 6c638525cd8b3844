"""Shared fixtures: standard algebras and randomized valid instances."""

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from defalg import linalg
from defalg.algebras import NilpotentDgAlgebra, ValidationReport
from defalg.dgla import Dgla, tensor_dgla
from defalg.graded import (Complex, GradedMap, GradedSpace, cohomology, is_chain_map,
                           solve_homotopy)
from defalg.models import QuasismoothTrunc

F = Fraction

SEED = int(os.environ.get("DEFALG_SEED", "20260823"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion when the gate was exercised."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_line("")
        for n in sorted(RESULTS):
            terminalreporter.write_line("CRITERION %d: %s" % (n, RESULTS[n]))


def make_rng(salt=0):
    return random.Random(SEED + salt)


# ---------------------------------------------------------------------------
# dense vectors: a vector of a graded space as a list with one Fraction per
# basis vector, the form the package's vectors had before they became
# ``linalg.SparseVec`` dicts; kept for the dense oracles below

def dense(v, n):
    """The list form of a sparse vector of an n-dimensional space."""
    return [v.get(i, F(0)) for i in range(n)]


def sparse(v):
    """The sparse form of a list vector: its nonzero entries."""
    return {i: c for i, c in enumerate(v) if c}


def densify(v, n):
    """The list form of sparse coordinates in n vectors, or None for None:
    how the oracles below and the tests read ``linalg`` coordinates."""
    return None if v is None else dense(v, n)


def zero_vector(n):
    return [F(0)] * n


def basis_vector(n, i):
    v = zero_vector(n)
    v[i] = F(1)
    return v


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, v):
    return [c * a for a in v]


def is_zero_vector(v):
    return all(a == 0 for a in v)


def entries(m):
    """The entries {(target index, source index): c} of a ``GradedMap``,
    read off its columns in order of source index."""
    return {(j, i): c for i, col in enumerate(m.columns()) for j, c in col.items()}


def tensor_push(src, dst_space, f, dst_adim):
    """The map 1⊗f: L⊗A -> L⊗A' of a coefficient map f: A -> A', built
    whole from f's entries, one copy per basis vector x_i of L; the
    package pushes vectors block by block instead (``push_blocks``)."""
    na = src.a.dim
    return GradedMap(src.space, dst_space, f.degree,
                     {(i * dst_adim + q, i * na + p): c for (q, p), c in entries(f).items()
                      for i in range(src.l.dim)})


def dense_apply(m, v):
    """``GradedMap.apply`` on list vectors."""
    out = zero_vector(m.target.dim)
    for (j, i), c in entries(m).items():
        if v[i]:
            out[j] += c * v[i]
    return out


# ---------------------------------------------------------------------------
# dense matrix views: a matrix as a list of rows, and solutions and null
# vectors as lists, the forms ``linalg`` gave before its coordinates became
# ``SparseVec`` dicts; each is a view of the sparse routines, kept as an
# oracle beside the reference eliminations below

def matrix(f):
    """The matrix of a ``GradedMap``: row j, column i holds entry (j, i)."""
    m = [[F(0)] * f.source.dim for _ in range(f.target.dim)]
    for (j, i), c in entries(f).items():
        m[j][i] = c
    return m


def columns(a):
    """The columns of a matrix, as sparse vectors."""
    return [{i: row[j] for i, row in enumerate(a) if row[j]}
            for j in range(len(a[0]) if a else 0)]


def rank(a):
    """The number of independent rows of a matrix."""
    return len(linalg.independent_subset([sparse(row) for row in a]))


def nullspace(a):
    """Basis of the right null space of a matrix, as lists."""
    n = len(a[0]) if a else 0
    return [dense(v, n) for v in linalg.nullspace([sparse(row) for row in a], n)]


def solve(a, b):
    """One solution of A x = b as a list, zero off the greedy independent
    columns, or None if inconsistent."""
    return densify(linalg.solve_in_span(columns(a), sparse(b)), len(a[0]) if a else 0)


def invert(a):
    """The inverse of a square matrix as a list of rows; ValueError if it
    has none."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix is not invertible")
    cols = linalg.invert(columns(a))
    return [dense({k: c[i] for k, c in enumerate(cols) if i in c}, len(a))
            for i in range(len(a))]


def is_normal(v, n):
    """Whether v is a sparse vector of an n-dimensional space in normal
    form: a dict with int keys in range and no zero value."""
    return isinstance(v, dict) and all(
        type(i) is int and 0 <= i < n and isinstance(c, Fraction) and c
        for i, c in v.items())


# ---------------------------------------------------------------------------
# standard fixtures

def sl2():
    """sl2 in degree 0: basis e, h, f; [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    space = GradedSpace([("e", 0), ("h", 0), ("f", 0)])
    br = {(0, 2): {1: F(1)}, (2, 0): {1: F(-1)},
          (1, 0): {0: F(2)}, (0, 1): {0: F(-2)},
          (1, 2): {2: F(-2)}, (2, 1): {2: F(2)}}
    return Dgla(space, br, GradedMap(space, space, 1))


def sl2_odd():
    """sl2 ⋉ (adjoint in degree 1): mixed-degree DGLA with zero differential."""
    space = GradedSpace([("e", 0), ("h", 0), ("f", 0),
                         ("E", 1), ("H", 1), ("Fo", 1)])
    base = {(0, 2): {1: F(1)}, (2, 0): {1: F(-1)},
            (1, 0): {0: F(2)}, (0, 1): {0: F(-2)},
            (1, 2): {2: F(-2)}, (2, 1): {2: F(2)}}
    br = dict(base)
    for (i, j), sv in base.items():
        # [x, y'] = [x,y]' and [x', y] = [x,y]'; [x', y'] = 0
        br[(i, j + 3)] = {k + 3: c for k, c in sv.items()}
        br[(i + 3, j)] = {k + 3: c for k, c in sv.items()}
    return Dgla(space, br, GradedMap(space, space, 1))


def heisenberg():
    space = GradedSpace([("x", 0), ("y", 0), ("z", 0)])
    br = {(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}}
    return Dgla(space, br, GradedMap(space, space, 1), nilpotency_class=2)


def heisenberg_cochains():
    """N, the augmentation ideal of CE*(𝔥₃): x, y, z of degree 1 with
    dz = xy, and their exterior products (dim 7), as a truncation."""
    v = GradedSpace([("x", 1), ("y", 1), ("z", 1)])
    shell = QuasismoothTrunc(v, 3, {}, check=False)
    d2 = GradedMap(v, shell.basis.space, 1)
    pos, sgn = shell.basis.position((0, 1))
    d2.set_entry(pos, 2, F(sgn))
    return shell.with_components({2: d2})


def sl2_heisenberg():
    """L = sl2 ⊗ N for N = ``heisenberg_cochains()``: a non-formal DGLA of
    dim 21 with H(L) of dims {1: 6, 2: 6, 3: 3}, whose Kuranishi map has
    no quadratic part on H¹ (Goldman–Millson, Nomizu)."""
    return tensor_as_dgla(sl2(), heisenberg_cochains().algebra())


def tensor_as_dgla(l, a):
    """L⊗A built as a ``Dgla`` from its constants and its d."""
    t = tensor_dgla(l, a)
    return Dgla(t.space, {(i, j): row for i, j, row in t.constants()}, t.d)


def sl2_heisenberg_unital():
    """L = sl2 ⊗ (ℚ1 ⊕ N) for N = ``heisenberg_cochains()``: dim 24, with
    H⁰ = sl2 ⊗ 1 beside H(sl2 ⊗ N), so its hull has generators of degree 1
    (the extended part of the functor).  Basis x_1, x_x, ..., x_xyz per
    x in sl2, L-major.  sl2 sits in degree 0, so [x⊗a, y⊗b] = [x, y]⊗ab
    and d(x⊗a) = x⊗da."""
    g, n = sl2(), heisenberg_cochains().algebra()
    na = n.dim + 1      # position 0 of each block is x⊗1
    words = ["1"] + [w.replace("*", "") for w in n.space.names]
    space = GradedSpace([(x + "_" + words[p], 0 if p == 0 else n.space.degrees[p - 1])
                         for x in g.space.names for p in range(na)])
    prod = {(0, q): {q: F(1)} for q in range(na)}
    prod.update(((p, 0), {p: F(1)}) for p in range(1, na))
    prod.update(((p + 1, q + 1), {r + 1: c for r, c in row.items()})
                for p, q, row in n.constants())
    br = {(i * na + p, j * na + q): {k * na + r: ck * cr
                                     for k, ck in lrow.items() for r, cr in arow.items()}
          for i, j, lrow in g.constants() for (p, q), arow in prod.items()}
    dcols = {i * na + p + 1: {i * na + r + 1: c for r, c in col.items()}
             for i in range(g.dim) for p, col in n.d.nonzero_columns()}
    return Dgla(space, br, GradedMap.from_columns(space, space, 1, dcols))


def plain_names(l):
    """L with each basis name x@w1*w2 of a tensor DGLA written x_w1w2, a
    name a document can hold."""
    names = [name.replace("@", "_").replace("*", "") for name in l.space.names]
    space = GradedSpace(list(zip(names, l.space.degrees)))
    return Dgla(space, {(i, j): row for i, j, row in l.constants()},
                GradedMap.from_columns(space, space, 1, dict(l.d.nonzero_columns())),
                l.nilpotency_class)


def counterexample_algebras():
    """The square-zero (not strictly small) extension with uv = uw = dw."""
    aspace = GradedSpace([("u", 1), ("v", 1), ("w", 1), ("dw", 2)])
    da = GradedMap(aspace, aspace, 1)
    da.set_entry(3, 2, F(1))
    mult = {(0, 1): {3: F(1)}, (1, 0): {3: F(-1)},
            (0, 2): {3: F(1)}, (2, 0): {3: F(-1)}}
    a = NilpotentDgAlgebra(aspace, mult, da)
    bspace = GradedSpace([("u", 1), ("v", 1)])
    b = NilpotentDgAlgebra.trivial(bspace)
    return a, b


def counterexample_extension():
    from defalg.algebras import DgAlgebraMorphism, kernel_extension
    a, b = counterexample_algebras()
    alpha = GradedMap(a.space, b.space, 0, {(0, 0): F(1), (1, 1): F(1)})
    return kernel_extension(DgAlgebraMorphism(a, b, alpha))


def counterexample_element(l, tb):
    """-h/2 ⊗ u + e ⊗ v in L ⊗ B for L = sl2."""
    return {tb.pair_index(1, 0): F(-1, 2),     # h ⊗ u
            tb.pair_index(0, 1): F(1)}         # e ⊗ v


def uv_extension_document(a_body, b_body, b_names):
    """A small_extension document; alpha maps each named basis element of
    B to the basis element of A with the same name."""
    alpha = "".join("  %s -> 1 %s\n" % (n, n) for n in b_names)
    return ("kind: small_extension\nbegin a\nkind: nilpotent_dg_algebra\n%s"
            "end a\nbegin b\nkind: nilpotent_dg_algebra\n%send b\nalpha:\n%s"
            % (a_body, b_body, alpha))


UV_BASIS = "basis:\n  u 1\n  v 1\n"
UV_MULT = "mult:\n  u v -> 1 uv\n  v u -> -1 uv\n"
# 0 -> <uv> -> <u, v, uv> -> <u, v> -> 0: strictly small, H(I) = I
UV_SQUARE_EXT = uv_extension_document(UV_BASIS + "  uv 2\n" + UV_MULT,
                                      UV_BASIS, ["u", "v"])
# the same with w (degree 1, dw = uv) in the kernel: strictly small, acyclic I
UV_ACYCLIC_EXT = uv_extension_document(
    UV_BASIS + "  w 1\n  uv 2\nd:\n  w -> 1 uv\n" + UV_MULT, UV_BASIS,
    ["u", "v"])
# B = m/m³ on u, v (basis u, v, uv) with a kernel <s> of degree 2
UV_M3_EXT = uv_extension_document(UV_BASIS + "  uv 2\n  s 2\n" + UV_MULT,
                                  UV_BASIS + "  uv 2\n" + UV_MULT,
                                  ["u", "v", "uv"])


# ---------------------------------------------------------------------------
# randomized valid instances

def random_invertible_degree0(rng, space):
    """Unitriangular within each degree block, hence invertible."""
    m = GradedMap.identity(space)
    for k in set(space.degrees):
        idx = space.degree_indices(k)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                c = rng.randint(-2, 2)
                if c:
                    m.set_entry(idx[a], idx[b], F(c))
    return m


def rescaled(s, scales):
    """The same structure (algebra or DGLA) in the basis e'_i = scales[i]·e_i:
    e'_i e'_j = Σ s_i s_j c_k / s_k e'_k and d e'_i = Σ s_i d_ki / s_k e'_k.
    Scales such as 1/2 and -2/3 give fractional structure constants."""
    table = {(i, j): {k: scales[i] * scales[j] * c / scales[k] for k, c in row.items()}
             for (i, j), row in s.table.items()}
    d = GradedMap(s.space, s.space, 1, {(k, i): scales[i] * c / scales[k]
                                        for (k, i), c in entries(s.d).items()})
    if isinstance(s, Dgla):
        return Dgla(s.space, table, d, s.nilpotency_class)
    return type(s)(s.space, table, d)



def transported(s, g):
    """The same structure (algebra or DGLA) in the basis e'_i = g(e_i), for
    an invertible degree-0 map g: constants and d in the new coordinates,
    which are g⁻¹ of the old ones."""
    n = s.dim
    m = matrix(g)
    inv = invert(m)
    cols = [[m[a][i] for a in range(n)] for i in range(n)]

    def new_coords(v):
        out = {}
        for k in range(n):
            c = sum((inv[k][a] * v[a] for a in range(n) if v[a]), F(0))
            if c:
                out[k] = c
        return out
    table = {}
    for i in range(n):
        for j in range(n):
            v = [F(0)] * n
            for (a, b), row in s.table.items():
                if cols[i][a] and cols[j][b]:
                    for k, c in row.items():
                        v[k] += cols[i][a] * cols[j][b] * c
            if any(v):
                table[(i, j)] = new_coords(v)
    d = GradedMap(s.space, s.space, 1, {(k, i): c for i in range(n)
                                        for k, c in new_coords(dense_apply(s.d, cols[i])).items()})
    if isinstance(s, Dgla):
        return Dgla(s.space, table, d, s.nilpotency_class)
    return type(s)(s.space, table, d)

def random_complex(rng, max_dim=12):
    """A valid complex with known cohomology, then a change of basis."""
    n_h = rng.randint(0, 3)
    n_p = rng.randint(0, (max_dim - n_h) // 2)
    basis = []
    for t in range(n_h):
        basis.append(("h%d" % t, rng.randint(-2, 3)))
    pair_degs = [rng.randint(-2, 2) for _ in range(n_p)]
    for t, k in enumerate(pair_degs):
        basis.append(("p%d" % t, k))
        basis.append(("q%d" % t, k + 1))
    if not basis:
        basis = [("h0", 0)]
        n_h = 1
    space = GradedSpace(basis)
    d = GradedMap(space, space, 1)
    for t in range(n_p):
        d.set_entry(n_h + 2 * t + 1, n_h + 2 * t, F(rng.choice([1, 2, -1])))
    g = random_invertible_degree0(rng, space)
    ginv = invert(matrix(g))
    gm = GradedMap(space, space, 0,
                   {(j, i): ginv[j][i] for j in range(space.dim)
                    for i in range(space.dim) if ginv[j][i]})
    dc = gm.compose(d).compose(g)
    cx = Complex(space, dc)
    dims = {}
    for t in range(n_h):
        k = space.degrees[t]
        dims[k] = dims.get(k, 0) + 1
    return cx, dims


def random_pair_truncation(rng, max_gens=3, max_order=3):
    """A materialized truncated polynomial dg-algebra with d from acyclic pairs."""
    n_p = rng.randint(0, max_gens // 2)
    n_free = rng.randint(1 if n_p == 0 else 0, max_gens - 2 * n_p)
    basis = []
    for t in range(n_free):
        basis.append(("g%d" % t, rng.randint(1, 2)))
    for t in range(n_p):
        k = rng.randint(1, 2)
        basis.append(("s%d" % t, k))
        basis.append(("t%d" % t, k + 1))
    v = GradedSpace(basis)
    shell = QuasismoothTrunc(v, rng.randint(1, max_order), {}, check=False)
    # the first dim v words are the letters
    d1 = GradedMap(v, shell.basis.space, 1)
    for t in range(n_p):
        d1.set_entry(n_free + 2 * t + 1, n_free + 2 * t, F(1))
    comps = {1: d1} if entries(d1) else {}
    return shell.with_components(comps).algebra()


def random_algebra(rng, max_dim=8):
    kind = rng.randrange(3)
    if kind == 0:
        cx, _ = random_complex(rng, max_dim=min(max_dim, 6))
        return NilpotentDgAlgebra.trivial(cx.space, cx.d)
    if kind == 1:
        return counterexample_algebras()[0]
    while True:
        a = random_pair_truncation(rng)
        if a.dim <= max_dim:
            return a


def random_abelian_dgla(rng, max_dim=8):
    cx, _ = random_complex(rng, max_dim=max_dim)
    return Dgla(cx.space, {}, cx.d, nilpotency_class=1)


def direct_sum_dgla(l1, l2):
    basis = [("A" + n, d) for n, d in l1.space.basis] + \
            [("B" + n, d) for n, d in l2.space.basis]
    sp = GradedSpace(basis)
    n1 = l1.dim
    br = {}
    for (i, j), sv in l1.table.items():
        br[(i, j)] = dict(sv)
    for (i, j), sv in l2.table.items():
        br[(i + n1, j + n1)] = {k + n1: c for k, c in sv.items()}
    d = GradedMap(sp, sp, 1)
    for (j, i), c in entries(l1.d).items():
        d.set_entry(j, i, c)
    for (j, i), c in entries(l2.d).items():
        d.set_entry(j + n1, i + n1, c)
    return Dgla(sp, br, d)


def random_section(e, rng):
    """A random set-linear section of alpha (section + arbitrary I-shift)."""
    sec = e.section()
    out = GradedMap(e.b.space, e.a.space, 0, dict(entries(sec)))
    for i in range(e.b.dim):
        for k in range(e.i_complex.space.dim):
            if e.i_complex.space.degrees[k] != e.b.space.degrees[i]:
                continue
            c = F(rng.randint(-2, 2))
            if not c:
                continue
            for j, cj in e.iota.column(k).items():
                out.set_entry(j, i, entries(out).get((j, i), F(0)) + c * cj)
    return out


def perturb_one_entry(rng, f):
    """f with one admissible entry (row degree = column degree + f.degree)
    moved by a nonzero amount, or None when f admits no entry."""
    slots = [(j, i) for i in range(f.source.dim) for j in range(f.target.dim)
             if f.target.degrees[j] == f.source.degrees[i] + f.degree]
    if not slots:
        return None
    j, i = rng.choice(slots)
    out = GradedMap(f.source, f.target, f.degree, entries(f))
    out.set_entry(j, i, entries(out).get((j, i), F(0)) + rng.choice([-2, -1, 1, F(1, 2)]))
    return out


def random_dgla(rng, max_dim=8):
    kind = rng.randrange(4)
    if kind == 0:
        return sl2()
    if kind == 1:
        return heisenberg()
    if kind == 2:
        return sl2_odd()
    return random_abelian_dgla(rng, max_dim=max_dim)


# ---------------------------------------------------------------------------
# reference validators

def dense_algebra_report(self) -> ValidationReport:
    """NilpotentDgAlgebra.validate() as dense n³ loops over basis vectors,
    kept as the reference for the structure-constant validator."""
    errs = []
    names = self.space.names
    degs = self.space.degrees
    n = self.dim
    prods = {}
    for i in range(n):
        for j in range(n):
            prods[(i, j)] = dense(self.table_entry(i, j), n)

    def product(u, v):
        return fraction_bilinear(self, u, v)

    def d(v):
        return dense_apply(self.d, v)

    def e(i):
        return basis_vector(n, i)
    for i in range(n):
        for j in range(i, n):
            sgn = -1 if (degs[i] % 2 and degs[j] % 2) else 1
            lhs = prods[(i, j)]
            rhs = vec_scale(Fraction(sgn), prods[(j, i)])
            if lhs != rhs:
                errs.append("graded commutativity fails on (%s, %s)" % (names[i], names[j]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = product(prods[(i, j)], e(k))
                rhs = product(e(i), prods[(j, k)])
                if lhs != rhs:
                    errs.append("associativity fails on (%s, %s, %s)"
                                % (names[i], names[j], names[k]))
    dd = self.d.compose(self.d)
    if not dd.is_zero():
        errs.append("d∘d != 0")
    for i in range(n):
        for j in range(n):
            lhs = d(prods[(i, j)])
            sgn = Fraction(-1 if degs[i] % 2 else 1)
            rhs = vec_add(product(d(e(i)), e(j)), vec_scale(sgn, product(e(i), d(e(j)))))
            if lhs != rhs:
                errs.append("Leibniz fails on (%s, %s)" % (names[i], names[j]))
    idx = self.nilpotency_index()
    if idx is None:
        errs.append("not nilpotent")
    return ValidationReport(errors=errs, nilpotency_index=idx)


def dense_dgla_report(self) -> ValidationReport:
    """Dgla.validate() as dense n³ loops over basis vectors, kept as the
    reference for the structure-constant validator."""
    errs = []
    n = self.dim
    degs = self.space.degrees
    names = self.space.names

    def table_entry(i, j):
        return dense(self.table_entry(i, j), n)

    def bracket(u, v):
        return fraction_bilinear(self, u, v)

    def d(v):
        return dense_apply(self.d, v)
    for i in range(n):
        for j in range(i, n):
            sgn = Fraction(-1 if (degs[i] % 2 and degs[j] % 2) else 1)
            lhs = table_entry(i, j)
            rhs = vec_scale(-sgn, table_entry(j, i))
            if lhs != rhs:
                errs.append("graded antisymmetry fails on (%s, %s)" % (names[i], names[j]))
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            sgn = Fraction(-1 if (degs[i] % 2 and degs[j] % 2) else 1)
            for k in range(n):
                lhs = bracket(ei, table_entry(j, k))
                rhs = vec_add(bracket(table_entry(i, j), basis_vector(n, k)),
                              vec_scale(sgn, bracket(ej, table_entry(i, k))))
                if lhs != rhs:
                    errs.append("graded Jacobi fails on (%s, %s, %s)"
                                % (names[i], names[j], names[k]))
    for i in range(n):
        ei = basis_vector(n, i)
        sgn = Fraction(-1 if degs[i] % 2 else 1)
        for j in range(n):
            ej = basis_vector(n, j)
            lhs = d(table_entry(i, j))
            rhs = vec_add(bracket(d(ei), ej), vec_scale(sgn, bracket(ei, d(ej))))
            if lhs != rhs:
                errs.append("Leibniz fails on (%s, %s)" % (names[i], names[j]))
    if not self.d.compose(self.d).is_zero():
        errs.append("d∘d != 0")
    return ValidationReport(errors=errs)


def dense_violations(self) -> list:
    """DgAlgebraMorphism.violations() as a dense loop over all basis pairs,
    in lexicographic order, kept as the reference for the structure-constant
    check."""
    errs = []
    f = self.map
    if not f.compose(self.source.d) == self.target.d.compose(f):
        errs.append("does not commute with differentials")
    cols = [f.column(i) for i in range(self.source.dim)]
    for i in range(self.source.dim):
        for j in range(self.source.dim):
            lhs = f.apply(self.source.table_entry(i, j))
            rhs = self.target.product(cols[i], cols[j])
            if lhs != rhs:
                errs.append("not multiplicative on (%s, %s)"
                            % (self.source.space.names[i], self.source.space.names[j]))
    return errs


# ---------------------------------------------------------------------------
# the structure-constant walks on Fractions, kept as the oracles for the
# integer index of ``BilinearStructure``: they read ``table`` alone

def fraction_left(s):
    """The left index i -> [(j, Fraction row of e_i e_j)] of s.table."""
    left = [[] for _ in range(s.dim)]
    for (i, j), row in s.table.items():
        left[i].append((j, row))
    return left


def fraction_bilinear(s, u, v):
    """Σ u_i v_j (e_i e_j) on Fractions, walking the support of u."""
    left = fraction_left(s)
    out = [F(0)] * s.dim
    for i, cu in enumerate(u):
        if cu:
            for j, row in left[i]:
                if v[j]:
                    for k, ck in row.items():
                        out[k] += cu * v[j] * ck
    return out


def fraction_left_mul(left, i, w):
    """e_i·w for a sparse w through a Fraction left index, its zero
    entries dropped."""
    out = {}
    for j, row in left[i]:
        if w.get(j):
            for k, ck in row.items():
                out[k] = out.get(k, F(0)) + w[j] * ck
    return {k: c for k, c in out.items() if c}


def fraction_sparse_product(s, u, w):
    out, left = {}, fraction_left(s)
    for i, cu in u.items():
        for k, c in fraction_left_mul(left, i, w).items():
            out[k] = out.get(k, F(0)) + cu * c
    return {k: c for k, c in out.items() if c}


def _add_scaled_fractions(defects, key, c, row):
    out = defects.setdefault(key, {})
    for t, x in row.items():
        out[t] = out.get(t, F(0)) + c * x


def _failing_fractions(defects):
    return sorted(key for key, out in defects.items() if any(out.values()))


def fraction_axiom_errors(s):
    """BilinearStructure._axiom_errors() as the sparse walk over the
    Fraction table and d's entries, with d∘d from ``GradedMap.compose``."""
    table, left, lie, d = s.table, fraction_left(s), s._lie, s.d
    odd = [deg % 2 for deg in s.space.degrees]
    right = [[] for _ in range(s.dim)]
    for (i, m), row in table.items():
        right[m].append((i, row))
    symmetry = []
    for i, j in sorted({(min(p), max(p)) for p in table}):
        sgn = (-1 if odd[i] and odd[j] else 1) * (-1 if lie else 1)
        if table.get((i, j), {}) != {k: sgn * c for k, c in table.get((j, i), {}).items()}:
            symmetry.append((i, j))
    triples = {}
    for (p, q), row in table.items():
        for m, c in row.items():
            for k, r in left[m]:
                _add_scaled_fractions(triples, (p, q, k), c, r)
            for i, r in right[m]:
                _add_scaled_fractions(triples, (i, p, q), -c, r)
                if lie:
                    _add_scaled_fractions(triples, (p, i, q), -c if odd[p] and odd[i] else c, r)
    leibniz = {}
    dcols = d.columns()
    for (i, j), row in table.items():
        for m, c in row.items():
            _add_scaled_fractions(leibniz, (i, j), c, dcols[m])
    for (p, q), c in entries(d).items():
        for j, r in left[p]:
            _add_scaled_fractions(leibniz, (q, j), -c, r)
        for i, r in right[p]:
            _add_scaled_fractions(leibniz, (i, q), c if odd[i] else -c, r)

    def messages(axiom, keys):
        return ["%s fails on (%s)" % (axiom, ", ".join(s.space.names[t] for t in key))
                for key in keys]
    sym_axiom, triple_axiom = (("graded antisymmetry", "graded Jacobi") if lie
                               else ("graded commutativity", "associativity"))
    return (messages(sym_axiom, symmetry), messages(triple_axiom, _failing_fractions(triples)),
            messages("Leibniz", _failing_fractions(leibniz)),
            [] if d.compose(d).is_zero() else ["d∘d != 0"])


def fraction_violations(self):
    """DgAlgebraMorphism.violations() as the sparse walk over the Fraction
    tables and f's entries, with the chain-map check from ``compose``."""
    errs = []
    f, src = self.map, self.source
    if not f.compose(src.d) == self.target.d.compose(f):
        errs.append("does not commute with differentials")
    cols = f.columns()
    rows = [[] for _ in range(self.target.dim)]
    for (b, j), c in entries(f).items():
        rows[b].append((j, c))
    defects = {}
    for (i, j), row in src.table.items():
        for m, c in row.items():
            _add_scaled_fractions(defects, (i, j), c, cols[m])
    target_left = fraction_left(self.target)
    for i, col in enumerate(cols):
        for a, fa in col.items():
            for b, prod in target_left[a]:
                for j, fb in rows[b]:
                    _add_scaled_fractions(defects, (i, j), -fa * fb, prod)
    for i, j in _failing_fractions(defects):
        errs.append("not multiplicative on (%s, %s)" % (src.space.names[i], src.space.names[j]))
    return errs


def fraction_power_ideal_bases(a):
    """NilpotentDgAlgebra.power_ideal_bases() with each e_i·w formed on
    Fractions by its own walk, i-major."""
    left = fraction_left(a)
    powers = [[{i: F(1)} for i in range(a.dim)]]
    prev = [{i: F(1)} for i in range(a.dim)]
    while prev:
        ech = linalg.Echelon()
        nxt = [p for i in range(a.dim) for w in prev
               for p in [fraction_left_mul(left, i, w)] if p and ech.add(p)]
        powers.append(nxt)
        if len(nxt) == len(prev):
            break
        prev = nxt
    return powers


def fraction_annihilator_basis(a):
    n, left = a.dim, fraction_left(a)
    return linalg.relations(
        [{j * n + k: c for j, row in left[i] for k, c in row.items()} for i in range(n)])[1]


def fraction_extension_checks(e):
    """(is_strictly_small(), the number of 'kernel is not square-zero'
    errors of validate()) on Fractions."""
    img, left = e.iota.columns(), fraction_left(e.a)
    strict = not any(fraction_left_mul(left, i, x) for x in img for i in range(e.a.dim))
    return strict, sum(1 for x in img if any(fraction_sparse_product(e.a, x, y) for y in img))


def reference_kernel_extension(alpha):
    """A surjection packaged as a small extension the way it was before one
    echelon over alpha's columns answered everything: a null basis of
    alpha, split into homogeneous components, an independent subset of
    them, and fresh eliminations for the checks and the section.  Kept as
    the reference for ``algebras.kernel_extension``.  Returns iota's
    columns, d_I's entries, the ``validate()`` messages and the section's
    columns (None when alpha is not surjective); ValueError as
    ``kernel_extension`` raises it."""
    a, b = alpha.source, alpha.target
    homog = []
    for v in alpha.map.kernel_basis():
        homog.extend(a.space.homogeneous_components(v).values())
    basis = [homog[c] for c in linalg.independent_subset(homog)]
    ispace = GradedSpace([("i%d" % k, a.space.vector_degree(v))
                          for k, v in enumerate(basis)])
    di = {}
    for k, v in enumerate(basis):
        coords = linalg.solve_in_span(basis, a.d.apply(v))
        if coords is None:
            raise ValueError("kernel is not stable under the differential")
        di.update({(j, k): c for j, c in coords.items()})
    iota = GradedMap.from_columns(ispace, a.space, 0, basis)
    d_i = GradedMap(ispace, ispace, 1, di)
    errs = []
    if iota.compose(d_i) != a.d.compose(iota):
        errs.append("iota is not a chain map")
    if rank(matrix(iota)) != len(basis):
        errs.append("iota is not injective")
    if rank(matrix(alpha.map)) != b.dim:
        errs.append("alpha is not surjective")
    if not alpha.map.compose(iota).is_zero():
        errs.append("alpha ∘ iota != 0")
    if a.dim != b.dim + len(basis):
        errs.append("dimensions inconsistent with exactness")
    errs.extend(dense_violations(alpha))
    for x in basis:
        if any(a.product(x, y) for y in basis):
            errs.append("kernel is not square-zero")
    amat = matrix(alpha.map)
    section = [solve(amat, basis_vector(b.dim, j)) for j in range(b.dim)]
    return SimpleNamespace(iota=basis, d_i=di, errors=errs,
                           section=None if None in section else section)


def reference_small_extension_chain(alpha):
    """``algebras.factor_into_small_extensions`` with every stage on the
    general route, J = ker ∩ Ann from a kernel basis and an intersection of
    spans, also when the map is zero.  Kept as the reference for the zero
    map, where the chain reads Ann(A_j) alone."""
    from defalg.algebras import (DgAlgebraMorphism, _intersect_spans, kernel_extension,
                                 quotient_algebra)
    chain, current = [], alpha
    while True:
        kern = current.map.kernel_basis()
        if not kern:
            return chain
        inter = _intersect_spans(kern, current.source.annihilator_basis())
        homog = []
        for v in inter:
            homog.extend(current.source.space.homogeneous_components(v).values())
        j_basis = [homog[k] for k in linalg.independent_subset(homog)]
        q, proj = quotient_algebra(current.source, j_basis)
        chain.append(kernel_extension(proj))
        current = DgAlgebraMorphism(q, current.target,
                                    current.map.compose(chain[-1].section()), check=False)


def dense_quotient_algebra(a, ideal):
    """A/J the way it was before the projection was read off A's constants:
    every product of two complement basis vectors formed densely and
    projected through its own echelon solve, and likewise d of each.  Kept
    as the reference for ``algebras.quotient_algebra``; returns the
    quotient and the projection's graded map."""
    span = linalg.echelon(ideal)
    nj = span.count
    std = [a.space.basis_vector(i) for i in range(a.dim)]
    compl_idx = [i for i, v in enumerate(std) if span.add(v)]

    def project(v):
        coords = dense(span.coords(v), span.count)
        return [coords[nj + i] for i in compl_idx]

    space = GradedSpace([(a.space.names[i], a.space.degrees[i]) for i in compl_idx])
    reps = [std[i] for i in compl_idx]
    mult = {}
    for i, u in enumerate(reps):
        for j, v in enumerate(reps):
            p = project(a.product(u, v))
            if any(p):
                mult[(i, j)] = {k: c for k, c in enumerate(p) if c}
    d = GradedMap(space, space, 1)
    for i, u in enumerate(reps):
        for j, c in enumerate(project(a.d.apply(u))):
            if c:
                d.set_entry(j, i, c)
    pmap = GradedMap(a.space, space, 0)
    for i in range(a.dim):
        for j, c in enumerate(project(std[i])):
            if c:
                pmap.set_entry(j, i, c)
    return NilpotentDgAlgebra(space, mult, d), pmap


def extend_basis(base, candidates):
    """Indices into ``candidates`` extending ``base`` to a basis of
    span(base + candidates), greedily in order; the vectors are lists."""
    ech = linalg.echelon(sparse(v) for v in base)
    return [idx for idx, v in enumerate(candidates) if ech.add(sparse(v))]


def dense_contraction(cx):
    """The contraction of a complex built eagerly in every degree: boundaries
    and cocycles from two eliminations per degree, harmonics extending the
    boundaries, and p and sigma from a dense inverse of [B | H | W].  Kept
    as the reference for ``graded.Contraction``, which builds the same data
    one degree at a time."""
    space = cx.space
    dcols = cx.d.columns()
    degs = sorted(set(space.degrees))
    by_degree = {k: space.degree_indices(k) for k in degs}
    boundary_data = {}
    for k in degs:
        src = by_degree[k]
        for c in linalg.independent_subset([dcols[i] for i in src]):
            b = dense(dcols[src[c]], space.dim)
            boundary_data.setdefault(k + 1, []).append((b, basis_vector(space.dim, src[c])))
    out = SimpleNamespace(boundaries={}, boundary_preimages={}, harmonics={},
                          complements={}, dims={})
    harmonic_basis = []
    for k in degs:
        idx = by_degree[k]
        cocycles = []
        for nv in linalg.relations([dcols[i] for i in idx])[1]:
            v = zero_vector(space.dim)
            for pos, c in nv.items():
                v[idx[pos]] = c
            cocycles.append(v)
        bnd = [b for b, _ in boundary_data.get(k, [])]
        harm = [cocycles[e] for e in extend_basis(bnd, cocycles)]
        out.boundaries[k] = bnd
        out.boundary_preimages[k] = [p for _, p in boundary_data.get(k, [])]
        out.harmonics[k] = harm
        out.complements[k] = [p for _, p in boundary_data.get(k + 1, [])]
        if harm:
            out.dims[k] = len(harm)
        harmonic_basis += [("H%d_%d" % (k, t), k, h) for t, h in enumerate(harm)]
    out.harmonic_space = GradedSpace([(nm, k) for nm, k, _ in harmonic_basis])
    out.include = GradedMap.from_columns(out.harmonic_space, space, 0,
                                         [sparse(h) for _, _, h in harmonic_basis])
    out.project = GradedMap(space, out.harmonic_space, 0)
    out.sigma = GradedMap(space, space, -1)
    hoff = 0
    for k in degs:
        idx = by_degree[k]
        cols = out.boundaries[k] + out.harmonics[k] + out.complements[k]
        inv = invert([[c[i] for c in cols] for i in idx])
        nb, nh = len(out.boundaries[k]), len(out.harmonics[k])
        for pos, i in enumerate(idx):
            for t in range(nh):
                out.project.set_entry(hoff + t, i, inv[nb + t][pos])
            for t in range(nb):
                for j, pc in enumerate(out.boundary_preimages[k][t]):
                    if pc and inv[t][pos]:
                        out.sigma.set_entry(
                            j, i, entries(out.sigma).get((j, i), F(0)) + inv[t][pos] * pc)
        hoff += nh

    def class_of(v):
        """[v] on the harmonic basis, for a list v, or None off the cocycles."""
        if not is_zero_vector(dense_apply(cx.d, v)):
            return None
        return dense_apply(out.project, v)

    out.class_of = class_of
    return out


def dense_mc_defect(t, x):
    """dx + ½[x, x] on list vectors, the bracket summed over ``t.table``."""
    return vec_add(dense_apply(t.d, x), [c / 2 for c in fraction_bilinear(t, x, x)])


def dense_twisted_differential(t, x):
    """The matrix of d_x = d + [x, −] on L⊗A as a list of rows: d from its
    defining formula d(x_i⊗a_p) = dx_i⊗a_p + (-1)^{|x_i|} x_i⊗da_p on the
    factors' matrices, and column s of [x, −] summed over ``t.table``."""
    ld, ad, na = matrix(t.l.d), matrix(t.a.d), t.a.dim
    m = [[F(0)] * t.dim for _ in range(t.dim)]
    for i in range(t.l.dim):
        sgn = -1 if t.l.space.degrees[i] % 2 else 1
        for p in range(na):
            for j in range(t.l.dim):
                m[j * na + p][i * na + p] += ld[j][i]
            for q in range(na):
                m[i * na + q][i * na + p] += sgn * ad[q][p]
    for (r, s), row in t.table.items():
        if x.get(r):
            for k, c in row.items():
                m[k][s] += x[r] * c
    return m


def dense_gauge_act(t, a, x):
    """e^a · x = exp(ad_a)(x + d) - d on list vectors, the brackets summed
    over ``t.table``; the series stops at its first zero term."""
    from math import factorial
    da = dense_apply(t.d, a)
    out, term, beta, k = list(x), list(x), F(1), 0
    while True:
        k += 1
        assert k <= t.nilpotency_class + 1, "nilpotency bound exceeded in gauge action"
        term = fraction_bilinear(t, a, term)
        if beta:
            term = vec_sub(term, vec_scale(beta, da))
        beta = F(0)
        if is_zero_vector(term):
            return out
        out = vec_add(out, vec_scale(F(1, factorial(k)), term))


def dense_tensor_bracket(l, a):
    """The bracket table of L⊗A straight from the defining formula
    [x_i⊗a_p, x_j⊗a_q] = (-1)^{|a_p||x_j|} [x_i, x_j]⊗a_p·a_q, computed from
    ``table_entry`` of L and of A over all index quadruples; kept
    as the reference for ``TensorDgla``.  Returns {(s, t): dense row}."""
    na = a.dim
    table = {}
    for i in range(l.dim):
        for j in range(l.dim):
            xij = dense(l.table_entry(i, j), l.dim)
            for p in range(na):
                sgn = -1 if a.space.degrees[p] % 2 and l.space.degrees[j] % 2 else 1
                for q in range(na):
                    apq = dense(a.table_entry(p, q), na)
                    table[(i * na + p, j * na + q)] = [
                        sgn * xij[k] * apq[r] for k in range(l.dim) for r in range(na)]
    return table


def dense_tensor_bracket_vec(table, u, v):
    """The sum of u_s v_t [e_s, e_t] over a dense reference table."""
    out = [F(0)] * len(u)
    for (s, t), row in table.items():
        c = u[s] * v[t]
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# reference matrices, used to check solutions and inverses

def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), F(0)) for row in a]


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0)) for j in range(cols)]
            for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_transpose(a, n_cols):
    """The transpose of a matrix with n_cols columns (and maybe no rows)."""
    return [[row[j] for row in a] for j in range(n_cols)]


# ---------------------------------------------------------------------------
# reference echelon engine: ``linalg.Echelon`` as it was on Fraction rows

class FractionEchelon:
    """``linalg.Echelon`` computed entry by entry in Fractions, kept as its
    oracle: the same pivots, rows and answers.  Each stored row is
    (pivot column, row with a 1 at the pivot, row as a combination of the
    added vectors)."""

    def __init__(self):
        self.count = 0
        self.independent = []
        self._rows = []

    def _reduce(self, v):
        """The residual of v, and the (row, multiplier) pairs subtracted."""
        r = dict(v) if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}
        used = []
        for k, (p, row, _) in enumerate(self._rows):
            c = r.get(p)
            if not c:
                continue
            used.append((k, c))
            for j, x in row.items():
                y = r.get(j, F(0)) - c * x
                if y:
                    r[j] = y
                else:
                    del r[j]
        return r, used

    def _combine(self, used, n):
        out = [F(0)] * n
        for k, c in used:
            for t, x in self._rows[k][2].items():
                out[t] += c * x
        return out

    def add(self, v):
        r, used = self._reduce(v)
        idx = self.count
        self.count += 1
        if not r:
            return False
        self.independent.append(idx)
        p = min(r, key=lambda j: (r[j].denominator, abs(r[j].numerator), j))
        inv = 1 / r[p]
        combo = {idx: inv}
        for k, c in used:
            for t, x in self._rows[k][2].items():
                combo[t] = combo.get(t, F(0)) - inv * c * x
        self._rows.append((p, {j: x * inv for j, x in r.items()},
                           {t: x for t, x in combo.items() if x}))
        return True

    def coords(self, v):
        r, used = self._reduce(v)
        return None if r else self._combine(used, self.count)

    def relations_of(self, vectors):
        out = []
        for f, v in enumerate(vectors):
            if f not in self.independent:
                rel = [-x for x in self.coords(v)]
                rel[f] = F(1)
                out.append(rel)
        return out


class ScanEchelon(linalg.Echelon):
    """``linalg.Echelon`` with the rows to subtract found by a pass over
    every stored row, as before the pivot lookup, kept as its oracle: the
    same rows, in the same order, with the same arithmetic."""

    def _reduce(self, v):
        src = [(j, x) for j, x in v.items() if x]
        den = lcm(*(x.denominator for _, x in src))
        r = {j: x.numerator * (den // x.denominator) for j, x in src}
        used = []
        for k, (p, row, d, _, _) in enumerate(self._rows):
            c = r.get(p)
            if not c:
                continue
            used.append((k, c, den))
            if d != 1:
                g = gcd(c, d)
                if g != d:
                    s = d // g
                    den *= s
                    for j in r:
                        r[j] *= s
                c //= g
            for j, x in row.items():
                y = r.get(j, 0) - c * x
                if y:
                    r[j] = y
                else:
                    del r[j]
        return r, used, den


# ---------------------------------------------------------------------------
# reference linear algebra: dense Gauss-Jordan elimination, kept as the
# oracle for the echelon engine in ``defalg.linalg``

def _pivot_row(col, rows):
    """Among candidate rows, pick a nonzero entry with smallest denominator,
    breaking ties by smallest absolute numerator."""
    best = None
    best_key = None
    for r in rows:
        x = col[r]
        if x == 0:
            continue
        key = (x.denominator, abs(x.numerator))
        if best is None or key < best_key:
            best, best_key = r, key
    return best


def rref(a):
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = [row[:] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = _pivot_row([r[i][col] for i in range(m)], range(row, m))
        if p is None:
            continue
        r[row], r[p] = r[p], r[row]
        pv = r[row][col]
        if pv != 1:
            r[row] = [x / pv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col]:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def rref_rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def rref_nullspace(a):
    """Basis of the right null space of ``a`` read off its rref."""
    if not a:
        return []
    n = len(a[0])
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for f in [j for j in range(n) if j not in pivot_set]:
        v = [F(0)] * n
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def rref_solve(a, b):
    """One solution of A x = b read off the rref of [A | b], or None."""
    if not a:
        return [] if is_zero_vector(b) else ([] if not b else None)
    n = len(a[0])
    r, pivots = rref([a[i][:] + [b[i]] for i in range(len(a))])
    if pivots and pivots[-1] == n:
        return None
    x = [F(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def rref_invert(a):
    """The inverse of a square matrix read off the rref of [A | 1]."""
    n = len(a)
    aug = [a[i][:] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    return [row[n:] for row in r]


# ---------------------------------------------------------------------------
# reference A[t,dt]_eps: every pair of basis elements multiplied densely and
# solved for in its block, kept as the oracle for ``DeRhamAlgebra``

def dense_de_rham(a, eps):
    """(basis elements (n, is_dt, v), product table, d's entries) of
    A[t,dt]_eps; the table is filled in the order of the pairs (i, j)."""
    from defalg.algebras import _ceil_frac
    powers = a.power_ideal_bases()
    n_max = 0
    while _ceil_frac(n_max + 1, eps) < len(powers):
        n_max += 1
    blocks = {(0, False): [basis_vector(a.dim, i) for i in range(a.dim)]}
    for n in range(1, n_max + 1):
        for dt in (False, True):
            blocks[(n, dt)] = [dense(v, a.dim) for v in powers[_ceil_frac(n, eps) - 1]]
    elems, offsets = [], {}
    for (n, dt), vecs in blocks.items():
        offsets[(n, dt)] = len(elems)
        elems += [(n, dt, v) for v in vecs]
    solved = {}

    def put(n, dt, vec, out, coef):
        if is_zero_vector(vec):
            return
        key = (n, dt, tuple(vec))
        if key not in solved:
            vecs = blocks[(n, dt)]
            solved[key] = rref_solve([[v[r] for v in vecs] for r in range(a.dim)], vec)
        assert solved[key] is not None, "coefficient escapes its power ideal"
        for k, c in enumerate(solved[key]):
            out[offsets[(n, dt)] + k] += coef * c

    mult = {}
    for i, (n1, dt1, v1) in enumerate(elems):
        for j, (n2, dt2, v2) in enumerate(elems):
            if dt1 and dt2:
                continue
            out = [F(0)] * len(elems)
            sgn = F(-1 if dt1 and a.space.vector_degree(sparse(v2)) % 2 else 1)
            put(n1 + n2, dt1 or dt2, fraction_bilinear(a, v1, v2), out, sgn)
            row = {k: c for k, c in enumerate(out) if c}
            if row:
                mult[(i, j)] = row
    d = {}
    for i, (n, dt, v) in enumerate(elems):
        out = [F(0)] * len(elems)
        put(n, dt, dense_apply(a.d, v), out, F(1))
        if not dt and n > 0:
            put(n, True, v, out, F(-n if a.space.vector_degree(sparse(v)) % 2 else n))
        d.update({(j, i): c for j, c in enumerate(out) if c})
    return [(n, dt, sparse(v)) for n, dt, v in elems], mult, d


def chain_homotopic(f, g):
    """(f ~ g, σ) for dg-algebra morphisms between trivial-multiplication
    algebras, where homotopy is chain homotopy: f - g = dσ + σd, a linear
    problem for ``solve_homotopy``."""
    if not (f.source.has_trivial_mult() and f.target.has_trivial_mult()):
        raise ValueError("decision requires trivial multiplications")
    sigma = solve_homotopy(f.source.d, f.target.d, f.map - g.map)
    return sigma is not None, sigma


# ---------------------------------------------------------------------------
# the snake-lemma connecting homomorphism of a short exact sequence of
# complexes, kept as the oracle for the obstruction map of an abelian DGLA

@dataclass
class ShortExactSequence:
    """0 -> sub -> total -> quotient -> 0 of complexes, degreewise exact."""
    sub: Complex
    total: Complex
    quotient: Complex
    include: GradedMap   # sub -> total, degree 0 chain map
    project: GradedMap   # total -> quotient, degree 0 chain map

    def validate(self):
        errs = []
        if not is_chain_map(self.include, self.sub, self.total):
            errs.append("inclusion is not a chain map")
        if not is_chain_map(self.project, self.total, self.quotient):
            errs.append("projection is not a chain map")
        if self.include.rank() != self.sub.space.dim:
            errs.append("inclusion is not injective")
        if self.project.rank() != self.quotient.space.dim:
            errs.append("projection is not surjective")
        if not self.project.compose(self.include).is_zero():
            errs.append("projection ∘ inclusion != 0")
        # exactness in the middle: rank-nullity
        if self.total.space.dim != self.sub.space.dim + self.quotient.space.dim:
            errs.append("dimensions do not add up (not exact in the middle)")
        return errs


def connecting_hom(ses):
    """Snake-lemma connecting map H(quotient) -> H(sub) of degree +1."""
    assert not ses.validate()
    hq = cohomology(ses.quotient)
    hs = cohomology(ses.sub)
    out = {}
    pech = linalg.echelon(ses.project.columns())
    iech = linalg.echelon(ses.include.columns())
    for c in range(hq.harmonic_space.dim):
        y = pech.coords(hq.representative(c))
        assert y is not None, "projection not surjective on the representative"
        z = iech.coords(ses.total.d.apply(y))
        assert z is not None, "d(lift) is not in the image of the inclusion"
        cls = hs.class_of(z)
        assert cls is not None, "snake output is not a cocycle"
        out[c] = cls
    return GradedMap.from_columns(hq.harmonic_space, hs.harmonic_space, 1, out)


def truncate(r, order):
    """R/R^{order+1}: the words of length at most order come first in R's
    basis, so the components up to that length keep their columns."""
    out = QuasismoothTrunc(r.v, order, {}, check=False)
    return out.with_components({k: GradedMap.from_columns(
        r.v, out.basis.space, 1, dict(m.nonzero_columns()))
        for k, m in r.components.items() if k <= order}, check=False)


def pairs_truncation(n_pairs, n_h, order):
    """Generators u_k (0), w_k (1), h_j (1) with d u_k = (-1)^k w_k and
    d h_j = sum over k of (-1)^(j+k) w_k·h_j.  d² = 0 because the w_k are
    odd; only the h_j survive minimalization."""
    basis = []
    for k in range(n_pairs):
        basis += [("u%d" % k, 0), ("w%d" % k, 1)]
    basis += [("h%d" % j, 1) for j in range(n_h)]
    shell = QuasismoothTrunc(GradedSpace(basis), order, {}, check=False)
    v, b = shell.v, shell.basis
    d1 = GradedMap(v, b.space, 1)
    d2 = GradedMap(v, b.space, 1)
    for k in range(n_pairs):
        d1.set_entry(2 * k + 1, 2 * k, F((-1) ** k))
        for j in range(n_h):
            pos, sgn = b.position((2 * k + 1, 2 * n_pairs + j))
            d2.set_entry(pos, 2 * n_pairs + j, F(sgn * (-1) ** (j + k)))
    return shell.with_components({1: d1, 2: d2} if n_h else {1: d1})


def reference_tensor_space(l, a):
    """The graded space of L⊗A with every name x_i@a_p built at once, as
    ``GradedSpace`` checks them: the oracle for the names that
    ``dgla.tensor_space`` builds only when read."""
    return GradedSpace([(l.names[i] + "@" + a.names[p], l.degrees[i] + a.degrees[p])
                        for i in range(l.dim) for p in range(a.dim)])


def reference_monomials(v, n):
    """The canonical monomials of the n-th graded-symmetric power of v: the
    sorted index tuples that repeat no odd letter."""
    return [t for t in itertools.combinations_with_replacement(range(v.dim), n)
            if not any(a == b and v.degrees[a] % 2 for a, b in zip(t, t[1:]))]


def reference_word_space(v, words):
    """The space spanned by ``words`` on the letters v, every word named at
    once by its letters' names joined by ``*``."""
    return GradedSpace([("*".join(v.names[i] for i in w), sum(v.degrees[i] for i in w))
                        for w in words])


def reference_truncation_rows(b):
    """The whole product table of the truncation on a word basis b, as its
    integer left index: word p -> [(q, {p·q: ±1})] over the words q with
    len(p) + len(q) <= order, each product placed by sorting the
    concatenated word (``WordBasis.position``)."""
    return [[(q, {res[0]: res[1]}) for q in range(b.offsets[b.order + 1 - len(wp)])
             for res in [b.position(wp + b.words[q])] if res is not None]
            for wp in b.words]


def reference_differential(r):
    """QuasismoothTrunc.differential() with each spliced word
    word[:t] + u + word[t+1:] placed by ``WordBasis.position``, which sorts
    it with its Koszul sign."""
    b = r.basis
    images = [[] for _ in range(r.v.dim)]
    for m in r.components.values():
        for letter, col in enumerate(m.columns()):
            images[letter].extend((b.words[u], c) for u, c in sorted(col.items()))
    out = {}
    for pos, word in enumerate(b.words):
        prefix_sign = 1
        for t, letter in enumerate(word):
            for u, c in images[letter]:
                seq = word[:t] + u + word[t + 1:]
                res = b.position(seq) if len(seq) <= r.order else None
                if res is not None:
                    out[(res[0], pos)] = out.get((res[0], pos), F(0)) + prefix_sign * res[1] * c
            if r.v.degrees[letter] % 2:
                prefix_sign = -prefix_sign
    return GradedMap(b.space, b.space, 1, out)


def free_sr_truncation(order):
    """The truncation on s (degree 0) and r (degree 1) with d = 0."""
    return QuasismoothTrunc(GradedSpace([("s", 0), ("r", 1)]), order, {})


def koszul_truncation(pairs, order):
    """The acyclic truncation on Koszul pairs (s_k:0, r_k:1), d s_k = r_k."""
    shell = QuasismoothTrunc(GradedSpace([(name % k, deg) for k in range(pairs)
                                          for name, deg in (("s%d", 0), ("r%d", 1))]),
                             order, {}, check=False)
    d1 = GradedMap(shell.v, shell.basis.space, 1,
                   {(2 * k + 1, 2 * k): F(1) for k in range(pairs)})
    return shell.with_components({1: d1})


# ---------------------------------------------------------------------------
# reference L-infinity computations on the coalgebra: the unshuffle sum,
# Q∘Q and the expansion of m^⊙n, kept as the oracles for the
# Chevalley-Eilenberg reading in ``defalg.linfty``

def reference_coderivation(s):
    """Q(v₁⊙…⊙vₘ) = Σ_k Σ_{σ∈S(k,m-k)} ε(σ) Q¹_k(first k)⊙(rest)."""
    from defalg.graded import koszul_sign, unshuffles
    c = s.coalgebra
    q = GradedMap(c.space, c.space, 1)
    for pos, word in enumerate(c.words):
        m = len(word)
        degs = [c.letters.degrees[i] for i in word]
        acc = {}
        for k, qk in s.taylor.items():
            if k > m:
                continue
            for sigma in unshuffles(k, m - k):
                sgn = koszul_sign(sigma, degs)
                left = tuple(word[sigma[t]] for t in range(k))
                rest = tuple(word[sigma[t]] for t in range(k, m))
                res = c.position(left)
                if res is None:
                    continue
                lpos, lsgn = res
                for t, ct in qk.column(lpos).items():
                    res2 = c.position((t,) + rest)
                    if res2 is None:
                        continue
                    npos, nsgn = res2
                    acc[npos] = acc.get(npos, F(0)) + F(sgn * lsgn * nsgn) * ct
        for npos, cval in acc.items():
            if cval:
                q.set_entry(npos, pos, cval)
    return q


def reference_check_linfty(s):
    """(ok, defect arities, defects) from Q∘Q corestricted to V[1]."""
    c = s.coalgebra
    q = reference_coderivation(s)
    qq = q.compose(q)
    defects = {}
    for k in range(1, s.order + 1):
        dm = GradedMap(c.space, c.letters, 2)
        for col in c.of_length(k):
            for t, x in qq.column(col).items():
                if t < c.letters.dim:
                    dm.set_entry(t, col, x)
        if not dm.is_zero():
            defects[k] = dm
    assert qq.is_zero() == (not defects)
    return qq.is_zero(), sorted(defects), defects


def reference_linfty_mc_check(s, a, m):
    """(Id ⊗ d_A)(m) - Σ_n (1/n!) (Q¹_n ⊗ Id)(m^⊙n), m^⊙n expanded."""
    from math import factorial
    from defalg.dgla import tensor_space
    from defalg.graded import canonical_monomial
    c = s.coalgebra
    sh = c.letters
    na = a.dim
    defect = zero_vector(tensor_space(sh, a.space).dim)
    for i in range(sh.dim):
        sgn = F(-1 if (sh.degrees[i] + 1) % 2 else 1)
        for (q, p), cd in entries(a.d).items():
            if m[i * na + p]:
                defect[i * na + q] += sgn * cd * m[i * na + p]
    power = {((i,), p): m[i * na + p] for i in range(sh.dim) for p in range(na)
             if m[i * na + p]}
    n = 1
    while power and n <= s.order:
        qn = s.taylor.get(n)
        if qn is not None:
            for (word, p), cv in power.items():
                res = c.position(word)
                if res is None:
                    continue
                pos, sgn0 = res
                for t, ct in qn.column(pos).items():
                    defect[t * na + p] -= F(sgn0, factorial(n)) * ct * cv
        nxt = {}
        if n < s.order:
            for (word, p), cv in power.items():
                for j in range(sh.dim):
                    for q in range(na):
                        c2 = m[j * na + q]
                        row = a.table.get((p, q))
                        if not c2 or not row:
                            continue
                        sgn = -1 if (a.space.degrees[p] % 2 and sh.degrees[j] % 2) else 1
                        cm = canonical_monomial(word + (j,), sh.degrees)
                        if cm is None:
                            continue
                        w2, s2 = cm
                        for r, c3 in row.items():
                            nxt[(w2, r)] = nxt.get((w2, r), F(0)) + sgn * s2 * cv * c2 * c3
        power = {key: v for key, v in nxt.items() if v}
        n += 1
    return is_zero_vector(defect), defect


# ---------------------------------------------------------------------------
# reference coalgebra computations: the Koszul-signed unshuffle coproduct
# and the loops over it that check the co-axioms, coderivations and
# coalgebra morphisms, the axioms of a dual coalgebra read on its
# coproduct, and the shifted-kernel check read on dense vectors, kept as
# the oracles for their readings on dual algebras in ``defalg.linfty`` and
# ``defalg.obstruction``

def _nonzero(d):
    return {k: c for k, c in d.items() if c}


def reference_coproduct(c, pos):
    """Reduced coproduct of a monomial as {(left, right): coefficient}, the
    Koszul-signed sum over its unshuffles."""
    from defalg.graded import koszul_sign, unshuffles
    word = c.words[pos]
    m = len(word)
    degs = [c.letters.degrees[i] for i in word]
    out = {}
    for r in range(1, m):
        for sigma in unshuffles(r, m - r):
            sgn = koszul_sign(sigma, degs)
            pl, sl = c.position(tuple(word[sigma[t]] for t in range(r)))
            pr, sr = c.position(tuple(word[sigma[t]] for t in range(r, m)))
            out[(pl, pr)] = out.get((pl, pr), F(0)) + F(sgn * sl * sr)
    return _nonzero(out)


def reference_cocommutative(c):
    for pos in range(len(c.words)):
        cp = reference_coproduct(c, pos)
        for (a, b), x in cp.items():
            sgn = -1 if c.space.degrees[a] % 2 and c.space.degrees[b] % 2 else 1
            if cp.get((b, a), F(0)) != sgn * x:
                return False
    return True


def _coassociativity_sides(coproduct, top):
    """((Δ⊗Id)Δ, (Id⊗Δ)Δ) of the element ``top`` for a coproduct given as
    a function of a basis index."""
    lhs, rhs = {}, {}
    for (a, b), x in coproduct(top).items():
        for (a1, a2), y in coproduct(a).items():
            lhs[(a1, a2, b)] = lhs.get((a1, a2, b), F(0)) + x * y
        for (b1, b2), y in coproduct(b).items():
            rhs[(a, b1, b2)] = rhs.get((a, b1, b2), F(0)) + x * y
    return _nonzero(lhs), _nonzero(rhs)


def reference_coassociative(c):
    def coproduct(pos):
        return reference_coproduct(c, pos)
    return all(lhs == rhs for lhs, rhs in
               (_coassociativity_sides(coproduct, pos) for pos in range(len(c.words))))


def reference_iterated_coproduct(c, pos, n):
    """Δ^{n-1}: the component of the monomial in C^{⊗n} (positions)."""
    cur = {(pos,): F(1)}
    for _ in range(n - 1):
        nxt = {}
        for tup, x in cur.items():
            for (a, b), y in reference_coproduct(c, tup[0]).items():
                key = (a, b) + tup[1:]
                nxt[key] = nxt.get(key, F(0)) + x * y
        cur = _nonzero(nxt)
    return cur


def reference_check_coderivation(c, q):
    """ΔQ = (Q⊗Id + Id⊗Q)Δ with the Koszul sign on Id⊗Q, word by word."""
    for pos in range(len(c.words)):
        lhs = {}
        for a, x in q.column(pos).items():
            for key, y in reference_coproduct(c, a).items():
                lhs[key] = lhs.get(key, F(0)) + x * y
        rhs = {}
        for (a, b), y in reference_coproduct(c, pos).items():
            for t, x in q.column(a).items():
                rhs[(t, b)] = rhs.get((t, b), F(0)) + y * x
            sgn = -1 if c.space.degrees[a] % 2 else 1
            for t, x in q.column(b).items():
                rhs[(a, t)] = rhs.get((a, t), F(0)) + sgn * y * x
        if _nonzero(lhs) != _nonzero(rhs):
            return False
    return True


def reference_coalgebra_morphism_from_linear(c, m, d):
    """θ = Σ_n (1/n!) ⊙ⁿ(m) ∘ Δ^{n-1}, the product m(w₁)⊙…⊙m(wₙ) expanded
    multilinearly."""
    from math import factorial
    theta = GradedMap(c.space, d.space, 0)
    for pos in range(len(c.words)):
        acc = {}
        for n in range(1, min(len(c.words[pos]), d.order) + 1):
            for tup, x in reference_iterated_coproduct(c, pos, n).items():
                terms = [((), x)]
                for p in tup:
                    col = sorted(m.column(p).items())
                    terms = [(letters + (t,), y * ct) for letters, y in terms
                             for t, ct in col]
                for letters, y in terms:
                    res = d.position(letters)
                    if res is not None:
                        acc[res[0]] = acc.get(res[0], F(0)) + F(res[1], factorial(n)) * y
        for p, x in _nonzero(acc).items():
            theta.set_entry(p, pos, x)
    return theta


def reference_check_coalgebra_morphism(c, d, theta):
    """Δ_D θ = (θ⊗θ) Δ_C on every monomial, within the truncation."""
    for pos in range(len(c.words)):
        lhs = {}
        for a, x in theta.column(pos).items():
            for key, y in reference_coproduct(d, a).items():
                lhs[key] = lhs.get(key, F(0)) + x * y
        rhs = {}
        for (a, b), y in reference_coproduct(c, pos).items():
            for s, xs in theta.column(a).items():
                for t, xt in theta.column(b).items():
                    rhs[(s, t)] = rhs.get((s, t), F(0)) + y * xs * xt
        if _nonzero(lhs) != _nonzero(rhs):
            return False
    return True


def reference_dual_coalgebra_failures(dc):
    """(cocommutative, coassociative, conilpotent) of a DualCoalgebra, read
    on its coproduct."""
    n = dc.space.dim
    degs = dc.space.degrees

    def coproduct(k):
        return dc.coproduct.get(k, {})
    cocomm = all(coproduct(k).get((j, i), F(0)) == (-1 if degs[i] % 2 and degs[j] % 2 else 1) * x
                 for k in range(n) for (i, j), x in coproduct(k).items())
    coassoc = all(lhs == rhs for lhs, rhs in (_coassociativity_sides(coproduct, k)
                                              for k in range(n)))
    # conilpotent: the coproduct iterated n times on the first factor vanishes
    layer = {(k, (k,)): F(1) for k in range(n)}
    for _ in range(n):
        nxt = {}
        for (k, tup), x in layer.items():
            for (a, b), y in coproduct(tup[0]).items():
                key = (k, (a, b) + tup[1:])
                nxt[key] = nxt.get(key, F(0)) + x * y
        layer = _nonzero(nxt)
    return cocomm, coassoc, not layer


def reference_shifted_kernel_violations(e, phi, shift):
    """Where phi: B -> I[shift] fails to be a dg-algebra morphism, in the
    wording and order of ``DgAlgebraMorphism.violations``: the chain
    condition phi d_B = (-1)^shift d_I phi, then phi(e_i e_j) = 0 on every
    nonzero product of B, evaluated on dense vectors."""
    b = e.b
    errs = []
    sgn = F(-1 if shift % 2 else 1)
    if phi.compose(b.d) != e.i_complex.d.compose(phi).scale(sgn):
        errs.append("does not commute with differentials")
    for i, j, p in b.constants():
        if not is_zero_vector(dense_apply(phi, dense(p, b.dim))):
            errs.append("not multiplicative on (%s, %s)" % (b.space.names[i], b.space.names[j]))
    return errs


# ---------------------------------------------------------------------------
# the Fraction path from the text of an algebra or DGLA document to the
# integer index, the linear gauge decision on A² = 0 and the staged gauge
# search that joins each stage's correction by BCH: the oracles for the
# parser that reads integral constants as Python ints, for the one-stage
# chain of an algebra with zero product and for the central stage
# corrections

TABLE_WRONG_DEGREE = {"nilpotent_dg_algebra": ("mult", "product %s*%s has an entry of wrong degree"),
                      "dgla": ("bracket", "bracket [%s, %s] has an entry of wrong degree")}


def reference_combo(text):
    """A combination with every coefficient a Fraction: the terms of each
    name summed, in the order of the name's first term, zero sums dropped."""
    text = text.strip()
    if text == "0":
        return ()
    out = {}
    for term in text.split("+"):
        tok, name = term.split()
        out[name] = out.get(name, F(0)) + F(tok)
    return tuple((name, c) for name, c in out.items() if c)


def reference_structure_payload(text):
    """(kind, payload) of a well-formed ``nilpotent_dg_algebra`` or
    ``dgla`` document (fields basis, d, the table field and nilpotency,
    items indented), every coefficient a Fraction."""
    kind, fld, payload = None, None, {"basis": [], "d": {}}
    for line in text.splitlines():
        body = line.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        if not body[0].isspace():
            fld, _, rest = body.partition(":")
            if fld == "kind":
                kind = rest.strip()
                payload[TABLE_WRONG_DEGREE[kind][0]] = {}
            elif fld == "nilpotency":
                payload["nilpotency"] = int(rest)
            continue
        item = body.strip()
        if fld == "basis":
            name, deg = item.split()
            payload["basis"].append((name, int(deg)))
            continue
        lhs, rhs = item.split("->")
        combo = reference_combo(rhs)
        if combo:
            payload[fld][lhs.strip() if fld == "d" else tuple(lhs.split())] = combo
    payload["basis"] = tuple(payload["basis"])
    if kind == "dgla":
        payload.setdefault("nilpotency", None)
    return kind, payload


def reference_build_structure(text):
    """(kind, payload, den, left) for an algebra or DGLA document, its
    constants read as Fractions and put on the integer index as the
    Fraction parser did: each row over the lcm of its denominators, a
    row of wrong degree a ValueError with the builder's message, all rows
    rescaled at the end to the lcm of the row denominators."""
    kind, payload = reference_structure_payload(text)
    fld, wrong_degree = TABLE_WRONG_DEGREE[kind]
    names = [n for n, _ in payload["basis"]]
    degs = [d for _, d in payload["basis"]]
    left = [[] for _ in names]
    by_den = {}
    for (n1, n2), combo in payload[fld].items():
        i, j = names.index(n1), names.index(n2)
        row = {names.index(n): c for n, c in combo}
        den = lcm(*(c.denominator for c in row.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in row.items()}
        if any(degs[k] != degs[i] + degs[j] for k in nums):
            raise ValueError(wrong_degree % (n1, n2))
        left[i].append((j, nums))
        by_den.setdefault(den, []).append(nums)
    den = lcm(*by_den)
    for row_den, rows in by_den.items():
        for nums in rows:
            for k in nums:
                nums[k] *= den // row_den
    return kind, payload, den, left


def reference_linear_gauge(l, a, x, y):
    """The gauge decision on A² = 0, where the orbit of x is x - d(L⊗A)⁰:
    a linear problem, complete.  ("YES", witness) or ("NO", None)."""
    from defalg.dgla import gauge_act, tensor_dgla
    t = tensor_dgla(l, a)
    assert a.has_trivial_mult(), "the linear decision needs A² = 0"
    if x == y:
        return "YES", {}
    deg0 = t.space.degree_indices(0)
    dcols = t.d.columns()
    sol = linalg.solve_in_span([dcols[i] for i in deg0], linalg.add_into(dict(x), y, F(-1)))
    if sol is None:
        return "NO", None
    wit = {deg0[pos]: c for pos, c in sol.items()}
    assert gauge_act(t, wit, x) == y
    return "YES", wit


def reference_staged_witness(l, a, x, y):
    """(witness, depth) of the staged search of ``gauge_equivalent`` with
    each stage's correction c joined to the lifted witness w as BCH(c, w).
    When a stage has no linear correction the witness is None and depth
    counts the stages above it: 0 for the top stage A_{n-1} → 0, where
    that search answers NO, more for a lower stage, where it answers
    UNKNOWN.  Otherwise depth is None; x and y are MC elements of L⊗A."""
    from defalg.algebras import DgAlgebraMorphism, factor_into_small_extensions
    from defalg.dgla import bch, gauge_act, tensor_dgla, trivial_algebra_of_complex
    t = tensor_dgla(l, a)
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    chain = factor_into_small_extensions(
        DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0), check=False))
    stages = [e.a for e in chain] + [zero]
    projs = [DgAlgebraMorphism.identity(a)]
    for e in chain:
        projs.append(e.alpha.compose(projs[-1]))
    witness = {}
    tensors = {len(chain): tensor_dgla(l, zero)}
    for j in range(len(chain) - 1, -1, -1):
        tj = tensors[j] = tensor_dgla(l, stages[j])
        e = chain[j]
        tii = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
        push = tensor_push(t, tj.space, projs[j].map, stages[j].dim)
        lift_w = tensor_push(tensors[j + 1], tj.space, e.section(),
                             stages[j].dim).apply(witness)
        ri = e.kernel_coords(linalg.add_into(gauge_act(tj, lift_w, push.apply(x)),
                                             push.apply(y), F(-1)))
        deg0 = tii.space.degree_indices(0)
        dcols = tii.d.columns()
        sol = linalg.solve_in_span([dcols[i] for i in deg0], ri)
        if sol is None:
            return None, len(chain) - 1 - j
        c = {deg0[pos]: x for pos, x in sol.items()}
        c_in_j = tensor_push(tii, tj.space, e.iota, e.a.dim).apply(c)
        witness = bch(tj.bracket_vec, c_in_j, lift_w, max(tj.nilpotency_class, 1))
    assert gauge_act(t, witness, x) == y
    return witness, None


# ---------------------------------------------------------------------------
# the order-by-order hull construction on L⊗R with R's derivation as it
# grows: the oracle for the transfer recursion of ``kuranishi_prorepresent``

def reference_prorepresent(l, order):
    """R and ξ built order by order on L⊗R with R's derivation: each order's
    defect is a cocycle of L per word, split by ``class_of`` and the
    inclusion into its class, which gives d_k, and an exact part, absorbed
    into ξ through σ; R's derivation and L⊗R are rebuilt whenever d
    changes."""
    from defalg.dgla import mc_defect
    from defalg.models import is_minimal
    contraction = cohomology(l.complex())
    h = contraction.harmonic_space
    reps = [contraction.representative(c) for c in range(h.dim)]
    v = GradedSpace([("x_" + h.names[c].replace("^", ""), 1 - h.degrees[c])
                     for c in range(h.dim)])
    comps = {}
    r = QuasismoothTrunc(v, order, {}, check=False)
    t = tensor_dgla(l, r.algebra())
    xi = {t.pair_index(i, c): cv for c in range(h.dim) for i, cv in reps[c].items()}
    hvec = mc_defect(t, xi)
    na = r.basis.space.dim
    for k in range(2, order + 1):
        span = r.basis.of_length(k)
        parts = {}
        for key, c in hvec.items():
            i, w = divmod(key, na)
            if w in span:
                parts.setdefault(w, {})[i] = c
        kcols = {}
        for w, hm in sorted(parts.items()):
            assert not l.d.apply(hm), "the order-%d defect is not a cocycle" % k
            cls = contraction.class_of(hm)
            for c, cc in sorted(cls.items()):
                sgn = F(-1 if (1 + h.degrees[c]) % 2 else 1)
                kcols.setdefault(c, {})[w] = sgn * cc
            exact = linalg.add_into(hm, contraction.include.apply(cls), F(-1))
            linalg.add_into(xi, {t.pair_index(i, w): cv
                                 for i, cv in contraction.sigma.apply(exact).items()}, F(-1))
        if kcols:
            comps[k] = GradedMap.from_columns(v, r.basis.space, 1, kcols)
            r = r.with_components(comps, check=False)
            t = tensor_dgla(l, r.algebra())
        hvec = mc_defect(t, xi)
        assert not any(key % na in span for key in hvec), \
            "the Maurer-Cartan defect does not vanish at order %d" % k
    assert not r.square_on_letters() and is_minimal(r)
    return r, xi
