"""Shared fixtures: standard algebras and randomized valid instances."""

import os
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from defalg import linalg
from defalg.algebras import NilpotentDgAlgebra, ValidationReport
from defalg.dgla import Dgla
from defalg.graded import Complex, GradedMap, GradedSpace, symmetric_power
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
    x = tb.space.zero_vector()
    x[tb.pair_index(1, 0)] = F(-1, 2)     # h ⊗ u
    x[tb.pair_index(0, 1)] = F(1)         # e ⊗ v
    return x


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
                                        for (k, i), c in s.d.entries.items()})
    if isinstance(s, Dgla):
        return Dgla(s.space, table, d, s.nilpotency_class)
    return type(s)(s.space, table, d)



def transported(s, g):
    """The same structure (algebra or DGLA) in the basis e'_i = g(e_i), for
    an invertible degree-0 map g: constants and d in the new coordinates,
    which are g⁻¹ of the old ones."""
    n = s.dim
    m = g.matrix()
    inv = linalg.invert(m)
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
                                        for k, c in new_coords(s.d.apply(cols[i])).items()})
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
    ginv = linalg.invert(g.matrix())
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
    order = rng.randint(1, max_order)
    p1 = symmetric_power(v, 1)
    d1 = GradedMap(v, p1.space, 1)
    for t in range(n_p):
        d1.set_entry(n_free + 2 * t + 1, n_free + 2 * t, F(1))
    comps = {1: d1} if d1.entries else {}
    return QuasismoothTrunc(v, order, comps).algebra()


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
    for (j, i), c in l1.d.entries.items():
        d.set_entry(j, i, c)
    for (j, i), c in l2.d.entries.items():
        d.set_entry(j + n1, i + n1, c)
    return Dgla(sp, br, d)


def random_section(e, rng):
    """A random set-linear section of alpha (section + arbitrary I-shift)."""
    sec = e.section()
    out = GradedMap(e.b.space, e.a.space, 0, dict(sec.entries))
    for i in range(e.b.dim):
        for k in range(e.i_complex.space.dim):
            if e.i_complex.space.degrees[k] != e.b.space.degrees[i]:
                continue
            c = F(rng.randint(-2, 2))
            if not c:
                continue
            col = e.iota.apply(e.i_complex.space.basis_vector(k))
            for j, cj in enumerate(col):
                if cj:
                    out.set_entry(j, i, out.entries.get((j, i), F(0)) + c * cj)
    return out


def perturb_one_entry(rng, f):
    """f with one admissible entry (row degree = column degree + f.degree)
    moved by a nonzero amount, or None when f admits no entry."""
    slots = [(j, i) for i in range(f.source.dim) for j in range(f.target.dim)
             if f.target.degrees[j] == f.source.degrees[i] + f.degree]
    if not slots:
        return None
    j, i = rng.choice(slots)
    out = GradedMap(f.source, f.target, f.degree, f.entries)
    out.set_entry(j, i, out.entries.get((j, i), F(0)) + rng.choice([-2, -1, 1, F(1, 2)]))
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
            prods[(i, j)] = self.table_entry(i, j)
    for i in range(n):
        for j in range(i, n):
            sgn = -1 if (degs[i] % 2 and degs[j] % 2) else 1
            lhs = prods[(i, j)]
            rhs = linalg.vec_scale(Fraction(sgn), prods[(j, i)])
            if lhs != rhs:
                errs.append("graded commutativity fails on (%s, %s)" % (names[i], names[j]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = self.product(prods[(i, j)], self.space.basis_vector(k))
                rhs = self.product(self.space.basis_vector(i), prods[(j, k)])
                if lhs != rhs:
                    errs.append("associativity fails on (%s, %s, %s)"
                                % (names[i], names[j], names[k]))
    dd = self.d.compose(self.d)
    if not dd.is_zero():
        errs.append("d∘d != 0")
    for i in range(n):
        for j in range(n):
            lhs = self.d.apply(prods[(i, j)])
            sgn = Fraction(-1 if degs[i] % 2 else 1)
            rhs = linalg.vec_add(
                self.product(self.d.apply(self.space.basis_vector(i)),
                             self.space.basis_vector(j)),
                linalg.vec_scale(sgn, self.product(self.space.basis_vector(i),
                                                   self.d.apply(self.space.basis_vector(j)))))
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
    for i in range(n):
        for j in range(i, n):
            sgn = Fraction(-1 if (degs[i] % 2 and degs[j] % 2) else 1)
            lhs = self.table_entry(i, j)
            rhs = linalg.vec_scale(-sgn, self.table_entry(j, i))
            if lhs != rhs:
                errs.append("graded antisymmetry fails on (%s, %s)" % (names[i], names[j]))
    for i in range(n):
        ei = self.space.basis_vector(i)
        for j in range(n):
            ej = self.space.basis_vector(j)
            sgn = Fraction(-1 if (degs[i] % 2 and degs[j] % 2) else 1)
            for k in range(n):
                lhs = self.bracket_vec(ei, self.table_entry(j, k))
                rhs = linalg.vec_add(
                    self.bracket_vec(self.table_entry(i, j), self.space.basis_vector(k)),
                    linalg.vec_scale(sgn, self.bracket_vec(ej, self.table_entry(i, k))))
                if lhs != rhs:
                    errs.append("graded Jacobi fails on (%s, %s, %s)"
                                % (names[i], names[j], names[k]))
    for i in range(n):
        ei = self.space.basis_vector(i)
        sgn = Fraction(-1 if degs[i] % 2 else 1)
        for j in range(n):
            ej = self.space.basis_vector(j)
            lhs = self.d.apply(self.table_entry(i, j))
            rhs = linalg.vec_add(
                self.bracket_vec(self.d.apply(ei), ej),
                linalg.vec_scale(sgn, self.bracket_vec(ei, self.d.apply(ej))))
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
    for (p, q), c in d.entries.items():
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
    for (b, j), c in f.entries.items():
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
    powers = [[a.space.basis_vector(i) for i in range(a.dim)]]
    prev = [{i: F(1)} for i in range(a.dim)]
    while prev:
        ech = linalg.Echelon()
        nxt = [p for i in range(a.dim) for w in prev
               for p in [fraction_left_mul(left, i, w)] if p and ech.add(p)]
        powers.append([[p.get(k, F(0)) for k in range(a.dim)] for p in nxt])
        if len(nxt) == len(prev):
            break
        prev = nxt
    return powers


def fraction_annihilator_basis(a):
    n, left = a.dim, fraction_left(a)
    return linalg.relations([{j * n + k: c for j, row in left[i] for k, c in row.items()}
                             for i in range(n)])[1]


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
        di.update({(j, k): c for j, c in enumerate(coords) if c})
    iota = GradedMap.from_columns(ispace, a.space, 0, basis)
    d_i = GradedMap(ispace, ispace, 1, di)
    errs = []
    if iota.compose(d_i) != a.d.compose(iota):
        errs.append("iota is not a chain map")
    if linalg.rank(iota.matrix()) != len(basis):
        errs.append("iota is not injective")
    if linalg.rank(alpha.map.matrix()) != b.dim:
        errs.append("alpha is not surjective")
    if not alpha.map.compose(iota).is_zero():
        errs.append("alpha ∘ iota != 0")
    if a.dim != b.dim + len(basis):
        errs.append("dimensions inconsistent with exactness")
    errs.extend(dense_violations(alpha))
    for x in basis:
        if any(any(a.product(x, y)) for y in basis):
            errs.append("kernel is not square-zero")
    amat = alpha.map.matrix()
    section = [linalg.solve(amat, b.space.basis_vector(j)) for j in range(b.dim)]
    return SimpleNamespace(iota=basis, d_i=di, errors=errs,
                           section=None if None in section else section)


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
        coords = span.coords(v)
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
    span(base + candidates), greedily in order."""
    ech = linalg.echelon(base)
    return [idx for idx, v in enumerate(candidates) if ech.add(v)]


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
            b = space.zero_vector()
            for j, x in dcols[src[c]].items():
                b[j] = x
            boundary_data.setdefault(k + 1, []).append((b, space.basis_vector(src[c])))
    out = SimpleNamespace(boundaries={}, boundary_preimages={}, harmonics={},
                          complements={}, dims={})
    harmonic_basis = []
    for k in degs:
        idx = by_degree[k]
        cocycles = []
        for nv in linalg.relations([dcols[i] for i in idx])[1]:
            v = space.zero_vector()
            for pos, i in enumerate(idx):
                v[i] = nv[pos]
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
                                         [h for _, _, h in harmonic_basis])
    out.project = GradedMap(space, out.harmonic_space, 0)
    out.sigma = GradedMap(space, space, -1)
    hoff = 0
    for k in degs:
        idx = by_degree[k]
        cols = out.boundaries[k] + out.harmonics[k] + out.complements[k]
        inv = linalg.invert([[c[i] for c in cols] for i in idx])
        nb, nh = len(out.boundaries[k]), len(out.harmonics[k])
        for pos, i in enumerate(idx):
            for t in range(nh):
                out.project.set_entry(hoff + t, i, inv[nb + t][pos])
            for t in range(nb):
                for j, pc in enumerate(out.boundary_preimages[k][t]):
                    if pc and inv[t][pos]:
                        out.sigma.set_entry(
                            j, i, out.sigma.entries.get((j, i), F(0)) + inv[t][pos] * pc)
        hoff += nh

    def class_of(v):
        if not linalg.is_zero_vector(cx.d.apply(v)):
            return None
        return out.project.apply(v)

    out.class_of = class_of
    return out


def dense_tensor_bracket(l, a):
    """The bracket table of L⊗A straight from the defining formula
    [x_i⊗a_p, x_j⊗a_q] = (-1)^{|a_p||x_j|} [x_i, x_j]⊗a_p·a_q, computed from
    ``table_entry`` of L and of A over all index quadruples; kept
    as the reference for ``TensorDgla``.  Returns {(s, t): dense row}."""
    na = a.dim
    table = {}
    for i in range(l.dim):
        for j in range(l.dim):
            xij = l.table_entry(i, j)
            for p in range(na):
                sgn = -1 if a.space.degrees[p] % 2 and l.space.degrees[j] % 2 else 1
                for q in range(na):
                    apq = a.table_entry(p, q)
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
        return [] if linalg.is_zero_vector(b) else ([] if not b else None)
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
    blocks = {(0, False): [a.space.basis_vector(i) for i in range(a.dim)]}
    for n in range(1, n_max + 1):
        for dt in (False, True):
            blocks[(n, dt)] = powers[_ceil_frac(n, eps) - 1]
    elems, offsets = [], {}
    for (n, dt), vecs in blocks.items():
        offsets[(n, dt)] = len(elems)
        elems += [(n, dt, v) for v in vecs]
    solved = {}

    def put(n, dt, vec, out, coef):
        if linalg.is_zero_vector(vec):
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
            sgn = F(-1 if dt1 and a.space.vector_degree(v2) % 2 else 1)
            put(n1 + n2, dt1 or dt2, a.product(v1, v2), out, sgn)
            row = {k: c for k, c in enumerate(out) if c}
            if row:
                mult[(i, j)] = row
    d = {}
    for i, (n, dt, v) in enumerate(elems):
        out = [F(0)] * len(elems)
        put(n, dt, a.d.apply(v), out, F(1))
        if not dt and n > 0:
            put(n, True, v, out, F(-n if a.space.vector_degree(v) % 2 else n))
        d.update({(j, i): c for j, c in enumerate(out) if c})
    return elems, mult, d


def pairs_truncation(n_pairs, n_h, order):
    """Generators u_k (0), w_k (1), h_j (1) with d u_k = (-1)^k w_k and
    d h_j = sum over k of (-1)^(j+k) w_k·h_j.  d² = 0 because the w_k are
    odd; only the h_j survive minimalization."""
    basis = []
    for k in range(n_pairs):
        basis += [("u%d" % k, 0), ("w%d" % k, 1)]
    basis += [("h%d" % j, 1) for j in range(n_h)]
    v = GradedSpace(basis)
    p1, p2 = symmetric_power(v, 1), symmetric_power(v, 2)
    d1 = GradedMap(v, p1.space, 1)
    d2 = GradedMap(v, p2.space, 1)
    for k in range(n_pairs):
        d1.set_entry(2 * k + 1, 2 * k, F((-1) ** k))
        for j in range(n_h):
            pos, sgn = p2.index((2 * k + 1, 2 * n_pairs + j))
            d2.set_entry(pos, 2 * n_pairs + j, F(sgn * (-1) ** (j + k)))
    return QuasismoothTrunc(v, order, {1: d1, 2: d2} if n_h else {1: d1})


def koszul_truncation(pairs, order):
    """The acyclic truncation on Koszul pairs (s_k:0, r_k:1), d s_k = r_k."""
    v = GradedSpace([(name % k, deg) for k in range(pairs)
                     for name, deg in (("s%d", 0), ("r%d", 1))])
    d1 = GradedMap(v, symmetric_power(v, 1).space, 1,
                   {(2 * k + 1, 2 * k): F(1) for k in range(pairs)})
    return QuasismoothTrunc(v, order, {1: d1})


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
                res = c.powers[k].index(left)
                if res is None:
                    continue
                lpos, lsgn = res
                for t, ct in enumerate(qk.column(lpos)):
                    if not ct:
                        continue
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
        dm = GradedMap(c.powers[k].space, c.letters, 2)
        for col in range(len(c.powers[k].monomials)):
            v = qq.apply(c.space.basis_vector(c.offsets[k] + col))
            for t in range(c.letters.dim):
                if v[t]:
                    dm.set_entry(t, col, v[t])
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
    defect = tensor_space(sh, a.space).zero_vector()
    for i in range(sh.dim):
        sgn = F(-1 if (sh.degrees[i] + 1) % 2 else 1)
        for (q, p), cd in a.d.entries.items():
            if m[i * na + p]:
                defect[i * na + q] += sgn * cd * m[i * na + p]
    power = {((i,), p): m[i * na + p] for i in range(sh.dim) for p in range(na)
             if m[i * na + p]}
    n = 1
    while power and n <= s.order:
        qn = s.taylor.get(n)
        if qn is not None:
            for (word, p), cv in power.items():
                res = c.powers[n].index(word)
                if res is None:
                    continue
                pos, sgn0 = res
                for t, ct in enumerate(qn.column(pos)):
                    if ct:
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
    return linalg.is_zero_vector(defect), defect


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
        for a, x in enumerate(q.column(pos)):
            if x:
                for key, y in reference_coproduct(c, a).items():
                    lhs[key] = lhs.get(key, F(0)) + x * y
        rhs = {}
        for (a, b), y in reference_coproduct(c, pos).items():
            for t, x in enumerate(q.column(a)):
                if x:
                    rhs[(t, b)] = rhs.get((t, b), F(0)) + y * x
            sgn = -1 if c.space.degrees[a] % 2 else 1
            for t, x in enumerate(q.column(b)):
                if x:
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
                    col = m.column(p)
                    terms = [(letters + (t,), y * ct) for letters, y in terms
                             for t, ct in enumerate(col) if ct]
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
        for a, x in enumerate(theta.column(pos)):
            if x:
                for key, y in reference_coproduct(d, a).items():
                    lhs[key] = lhs.get(key, F(0)) + x * y
        rhs = {}
        for (a, b), y in reference_coproduct(c, pos).items():
            ta, tb = theta.column(a), theta.column(b)
            for s, xs in enumerate(ta):
                for t, xt in enumerate(tb):
                    if xs and xt:
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
        dense = [p.get(k, F(0)) for k in range(b.dim)]
        if not linalg.is_zero_vector(phi.apply(dense)):
            errs.append("not multiplicative on (%s, %s)" % (b.space.names[i], b.space.names[j]))
    return errs


# ---------------------------------------------------------------------------
# the Fraction path from the text of an algebra or DGLA document to the
# integer index, and the staged gauge search that joins each stage's
# correction by BCH: the oracles for the parser that reads integral
# constants as Python ints and for the central stage corrections

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


def reference_staged_witness(l, a, x, y):
    """The witness of the staged search of ``gauge_equivalent`` with each
    stage's correction c joined to the lifted witness w as BCH(c, w), or
    None where that search answers UNKNOWN; x and y are MC elements of
    L⊗A, A² ≠ 0."""
    from defalg.algebras import DgAlgebraMorphism, factor_into_small_extensions
    from defalg.dgla import (bch, gauge_act, tensor_dgla, tensor_push,
                             trivial_algebra_of_complex)
    t = tensor_dgla(l, a)
    zero = NilpotentDgAlgebra.trivial(GradedSpace([]))
    chain = factor_into_small_extensions(
        DgAlgebraMorphism(a, zero, GradedMap(a.space, zero.space, 0), check=False))
    stages = [e.a for e in chain] + [zero]
    projs = [DgAlgebraMorphism.identity(a)]
    for e in chain:
        projs.append(e.alpha.compose(projs[-1]))
    witness = []
    tensors = {len(chain): tensor_dgla(l, zero)}
    for j in range(len(chain) - 1, -1, -1):
        tj = tensors[j] = tensor_dgla(l, stages[j])
        e = chain[j]
        tii = tensor_dgla(l, trivial_algebra_of_complex(e.i_complex))
        push = tensor_push(t, tj.space, projs[j].map, stages[j].dim)
        lift_w = tensor_push(tensors[j + 1], tj.space, e.section(),
                             stages[j].dim).apply(witness) \
            if stages[j + 1].dim else tj.space.zero_vector()
        ri = e.kernel_coords(linalg.vec_sub(gauge_act(tj, lift_w, push.apply(x)),
                                            push.apply(y)))
        deg0 = tii.space.degree_indices(0)
        dcols = tii.d.columns()
        sol = linalg.solve_in_span([dcols[i] for i in deg0], ri)
        if sol is None:
            return None
        c = tii.space.zero_vector()
        for pos, i in enumerate(deg0):
            c[i] = sol[pos]
        c_in_j = tensor_push(tii, tj.space, e.iota, e.a.dim).apply(c)
        witness = bch(tj.bracket_vec, c_in_j, lift_w, max(tj.nilpotency_class, 1))
    return witness if gauge_act(t, witness, x) == list(y) else None
