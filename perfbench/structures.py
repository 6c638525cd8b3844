"""Sparse structure constants, seeded constructions and document writers.

This module is the benchmark's own algebra: it builds the DGLAs and
nilpotent dg-algebras the workloads feed to ``defalg``, writes them in the
``defalg`` document format, and computes in L ⊗ A independently of the
library, so that the output checks in ``oracles.py`` do not rest on the
code they check.

Conventions follow ``docs/format.md`` and the ``TensorDgla`` docstring:
``[x⊗a, y⊗b] = (-1)^{|a||y|} [x,y] ⊗ ab`` and
``d(x⊗a) = dx ⊗ a + (-1)^{|x|} x ⊗ da``.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def add_into(out, vec, c=1):
    """out += c * vec for sparse dict vectors; drops entries that cancel."""
    for k, v in vec.items():
        s = out.get(k, ZERO) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Struct:
    """A graded space with a differential and a bilinear table.

    ``d[i]`` is the sparse image of basis element i and ``table[(i, j)]``
    the sparse product or bracket of basis elements i and j.  The same
    shape serves DGLAs (bracket) and nilpotent dg-algebras (product).
    """

    def __init__(self, basis, d=None, table=None):
        self.basis = list(basis)
        self.names = [n for n, _ in self.basis]
        self.degs = [k for _, k in self.basis]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.d = {i: dict(v) for i, v in (d or {}).items() if v}
        self.table = {k: dict(v) for k, v in (table or {}).items() if v}

    @property
    def dim(self):
        return len(self.basis)

    def nonzeros(self):
        return sum(len(v) for v in self.table.values()) + \
            sum(len(v) for v in self.d.values())

    def apply_d(self, vec):
        out = {}
        for i, c in vec.items():
            add_into(out, self.d.get(i, {}), c)
        return out

    def mul(self, u, v):
        out = {}
        for i, cu in u.items():
            for j, cv in v.items():
                row = self.table.get((i, j))
                if row:
                    add_into(out, row, cu * cv)
        return out


# ---------------------------------------------------------------------------
# Lie algebras and abelian complexes

def _sl2_table():
    t = {(0, 2): {1: 1}, (2, 0): {1: -1}, (1, 0): {0: 2}, (0, 1): {0: -2},
         (1, 2): {2: -2}, (2, 1): {2: 2}}
    return {key: {k: Fraction(c) for k, c in row.items()} for key, row in t.items()}


def sl2():
    return Struct([("e", 0), ("h", 0), ("f", 0)], table=_sl2_table())


def heisenberg():
    return Struct([("x", 0), ("y", 0), ("z", 0)],
                  table={(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)}})


def sl2_odd():
    """sl2 ⋉ sl2[-1]: the adjoint module in degree 1, zero differential."""
    table = _sl2_table()
    base = dict(table)
    for (i, j), row in base.items():
        table[(i, j + 3)] = {k + 3: c for k, c in row.items()}
        table[(i + 3, j)] = {k + 3: c for k, c in row.items()}
    return Struct([("e", 0), ("h", 0), ("f", 0), ("E", 1), ("H", 1), ("Fo", 1)],
                  table=table)


def _rewrite(s, g, ginv, basis):
    """``s`` in the basis whose vector j is Σ_i g[j][i] e_i; ginv is the inverse."""

    def to_new(vec):
        out = {}
        for j, c in vec.items():
            add_into(out, ginv[j], c)
        return out

    n = s.dim
    d = {i: to_new(s.apply_d(g[i])) for i in range(n)}
    table = {}
    for i in range(n):
        for j in range(n):
            v = s.mul(g[i], g[j])
            if v:
                table[(i, j)] = to_new(v)
    return Struct(basis, d, table)


def signed_basis(s, rng):
    """The same structure in the basis ±e_i with seeded signs.  Nothing
    cancels and the order stays, so every seed gives the same structure
    constants up to sign, and the same work.

    Returns the new structure and, per old basis vector, its coordinates in
    the new basis.
    """
    g = {i: {i: Fraction(rng.choice([1, -1]))} for i in range(s.dim)}
    return _rewrite(s, g, g, s.basis), g


def abelian(rng, harmonic_degs, pair_degs, prefix="a"):
    """An abelian DGLA (or trivial-product algebra) with known cohomology.

    One class per entry of ``harmonic_degs`` and one acyclic pair
    p -> ±q per entry of ``pair_degs``, in a seeded basis.  Returns the
    structure and a cocycle representing each class.
    """
    basis = [("%sh%d" % (prefix, t), k) for t, k in enumerate(harmonic_degs)]
    d = {}
    for t, k in enumerate(pair_degs):
        p = len(basis)
        basis += [("%sp%d" % (prefix, t), k), ("%sq%d" % (prefix, t), k + 1)]
        d[p] = {p + 1: Fraction(rng.choice([1, -1]))}
    s, images = signed_basis(Struct(basis, d), rng)
    return s, [images[t] for t in range(len(harmonic_degs))]


def direct_sum(a, b):
    n = a.dim
    d = dict(a.d)
    for i, v in b.d.items():
        d[i + n] = {k + n: c for k, c in v.items()}
    table = dict(a.table)
    for (i, j), v in b.table.items():
        table[(i + n, j + n)] = {k + n: c for k, c in v.items()}
    return Struct(a.basis + b.basis, d, table)


def tensor_struct(l, a):
    """L ⊗ A as a DGLA, basis ``x@a`` in L-major order."""
    na = a.dim
    basis = [(l.names[i] + "@" + a.names[p], l.degs[i] + a.degs[p])
             for i in range(l.dim) for p in range(na)]
    out = Struct(basis)
    for key, v in tensor_d_basis(l, a).items():
        out.d[key[0] * na + key[1]] = {i * na + p: c for (i, p), c in v.items()}
    for (i, j), lrow in l.table.items():
        for (p, q), arow in a.table.items():
            sgn = -1 if (a.degs[p] % 2 and l.degs[j] % 2) else 1
            row = {}
            for k, ck in lrow.items():
                for r, cr in arow.items():
                    add_into(row, {k * na + r: ck * cr}, sgn)
            if row:
                key = (i * na + p, j * na + q)
                out.table[key] = add_into(out.table.get(key, {}), row)
                if not out.table[key]:
                    del out.table[key]
    return out


def tensor_d_basis(l, a):
    out = {}
    for i in range(l.dim):
        for p in range(a.dim):
            v = tensor_d(l, a, {(i, p): Fraction(1)})
            if v:
                out[(i, p)] = v
    return out


# ---------------------------------------------------------------------------
# free graded-commutative truncations

class FreeTruncation:
    """m/m^{n+1} for the free graded-commutative algebra on ``gens``.

    Monomials are exponent tuples (odd exponents at most 1), named by
    repeating generator names.  ``dgen[g]`` gives d of generator g as a
    sparse combination of monomials; the derivation extension must square
    to zero, which the callers ensure by construction.
    """

    def __init__(self, gens, order, dgen=None):
        self.gens = list(gens)
        self.order = order
        ng = len(gens)
        gdeg = [k for _, k in gens]
        monos = []
        for length in range(1, order + 1):
            for word in combinations_with_replacement(range(ng), length):
                exps = [0] * ng
                for w in word:
                    exps[w] += 1
                if any(exps[g] > 1 and gdeg[g] % 2 for g in range(ng)):
                    continue
                monos.append(tuple(exps))
        self.monos = monos
        self.pos = {m: i for i, m in enumerate(monos)}
        self.gdeg = gdeg
        basis = [("".join(gens[g][0] * e for g, e in enumerate(m)),
                  sum(gdeg[g] * e for g, e in enumerate(m))) for m in monos]
        self.dgen = dgen or {}
        table = {}
        for i, m1 in enumerate(monos):
            for j, m2 in enumerate(monos):
                r = self.mono_mul(m1, m2)
                if r is not None:
                    table[(i, j)] = {self.pos[r[0]]: Fraction(r[1])}
        d = {}
        for i, m in enumerate(monos):
            v = self._derive(m)
            if v:
                d[i] = v
        self.struct = Struct(basis, d, table)

    def mono_mul(self, m1, m2):
        """(product monomial, sign) or None when zero or past the order."""
        exps = tuple(a + b for a, b in zip(m1, m2))
        if sum(exps) > self.order:
            return None
        if any(e > 1 and self.gdeg[g] % 2 for g, e in enumerate(exps)):
            return None
        sign = 1
        for a, ea in enumerate(m1):
            if ea and self.gdeg[a] % 2:
                for b in range(a):
                    if m2[b] and self.gdeg[b] % 2:
                        sign = -sign
        return exps, sign

    def gen_mono(self, g):
        m = [0] * len(self.gens)
        m[g] = 1
        return tuple(m)

    def _derive(self, m):
        """The derivation extension of ``dgen`` evaluated on a monomial."""
        out = {}
        letters = [g for g, e in enumerate(m) for _ in range(e)]
        unit = tuple([0] * len(self.gens))
        for t, g in enumerate(letters):
            dg = self.dgen.get(g)
            if not dg:
                continue
            sign = -1 if sum(self.gdeg[x] for x in letters[:t]) % 2 else 1
            prefix = list(unit)
            for x in letters[:t]:
                prefix[x] += 1
            suffix = list(unit)
            for x in letters[t + 1:]:
                suffix[x] += 1
            for mono, c in dg.items():
                r1 = self.mono_mul(tuple(prefix), mono)
                if r1 is None:
                    continue
                r2 = self.mono_mul(r1[0], tuple(suffix))
                if r2 is None:
                    continue
                add_into(out, {self.pos[r2[0]]: Fraction(c)}, sign * r1[1] * r2[1])
        return out


def koszul_truncation(pairs, order, odd=()):
    """A truncation on Koszul pairs (s_k:0, r_k:1) with d s_k = r_k, followed
    by free generators of degree 1 named by ``odd``.  Without ``odd`` it is
    acyclic."""
    gens = []
    for k in range(pairs):
        gens += [("s%d" % k, 0), ("r%d" % k, 1)]
    gens += [(name, 1) for name in odd]
    dgen = {}
    for k in range(pairs):
        e = [0] * len(gens)
        e[2 * k + 1] = 1
        dgen[2 * k] = {tuple(e): Fraction(1)}
    return FreeTruncation(gens, order, dgen)


def truncation_projection(big, small):
    """The projection A_n -> A_m (m < n) of two truncations on equal generators."""
    return {i: {small.pos[m]: Fraction(1)} for i, m in enumerate(big.monos)
            if m in small.pos}


# ---------------------------------------------------------------------------
# computations in L ⊗ A (elements are dicts keyed by (i, p))

def tensor_bracket(l, a, u, v):
    out = {}
    for (i, p), cu in u.items():
        for (j, q), cv in v.items():
            lrow = l.table.get((i, j))
            if not lrow:
                continue
            arow = a.table.get((p, q))
            if not arow:
                continue
            c = cu * cv
            if a.degs[p] % 2 and l.degs[j] % 2:
                c = -c
            for k, ck in lrow.items():
                for r, cr in arow.items():
                    add_into(out, {(k, r): ck * cr}, c)
    return out


def tensor_d(l, a, u):
    out = {}
    for (i, p), c in u.items():
        for j, cj in l.d.get(i, {}).items():
            add_into(out, {(j, p): cj}, c)
        sgn = -1 if l.degs[i] % 2 else 1
        for q, cq in a.d.get(p, {}).items():
            add_into(out, {(i, q): cq}, sgn * c)
    return out


def mc_defect(l, a, x):
    """dx + ½[x, x] in L ⊗ A."""
    return add_into(tensor_d(l, a, x), tensor_bracket(l, a, x, x), HALF)


def gauge_act(l, a, w, x, max_terms=64):
    """e^w · x = Σ ad_w^k(x)/k! - Σ_{k≥1} ad_w^{k-1}(dw)/k!, a finite sum.

    Returns None when the series does not stop within ``max_terms``.
    """
    out = dict(x)
    term = add_into(tensor_bracket(l, a, w, x), tensor_d(l, a, w), -1)
    for k in range(1, max_terms + 1):
        if not term:
            return out
        add_into(out, term, Fraction(1, factorial(k)))
        term = tensor_bracket(l, a, w, term)
    return None


# ---------------------------------------------------------------------------
# exact rank (for invariants of small brackets)

def rank(rows):
    m = [list(r) for r in rows if any(r)]
    rk = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rk, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(len(m)):
            if r != rk and m[r][col]:
                c = m[r][col] / m[rk][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rk])]
        rk += 1
    return rk


def jacobiator_nonzero(s):
    """True when the bracket table of ``s`` breaks the graded Jacobi identity."""
    n = s.dim
    degs = s.degs
    for i in range(n):
        for j in range(n):
            sgn = -1 if (degs[i] % 2 and degs[j] % 2) else 1
            for k in range(n):
                ek = {k: Fraction(1)}
                lhs = s.mul({i: Fraction(1)}, s.table.get((j, k), {}))
                rhs = s.mul(s.table.get((i, j), {}), ek)
                add_into(rhs, s.mul({j: Fraction(1)}, s.table.get((i, k), {})), sgn)
                if lhs != rhs:
                    return True
    return False


# ---------------------------------------------------------------------------
# document writers (docs/format.md)

def fmt_combo(names, vec):
    items = [(k, c) for k, c in sorted(vec.items()) if c]
    if not items:
        return "0"
    return " + ".join("%s %s" % (c, names[k]) for k, c in items)


def _basis_lines(s):
    return ["basis:"] + ["  %s %d" % (n, k) for n, k in s.basis]


def _map_lines(field, s, m, target_names):
    rows = [(i, v) for i, v in sorted(m.items()) if v]
    if not rows:
        return []
    return [field + ":"] + ["  %s -> %s" % (s.names[i], fmt_combo(target_names, v))
                            for i, v in rows]


def _table_lines(field, s):
    rows = [(k, v) for k, v in sorted(s.table.items()) if v]
    if not rows:
        return []
    return [field + ":"] + ["  %s %s -> %s" % (s.names[i], s.names[j],
                                               fmt_combo(s.names, v))
                            for (i, j), v in rows]


def write_dgla(s):
    lines = ["kind: dgla"] + _basis_lines(s) + _map_lines("d", s, s.d, s.names) \
        + _table_lines("bracket", s)
    return "\n".join(lines) + "\n"


def write_algebra(s):
    lines = ["kind: nilpotent_dg_algebra"] + _basis_lines(s) \
        + _map_lines("d", s, s.d, s.names) + _table_lines("mult", s)
    return "\n".join(lines) + "\n"


def write_small_extension(a, b, alpha):
    lines = ["kind: small_extension", "begin a"] + write_algebra(a).splitlines() \
        + ["end a", "begin b"] + write_algebra(b).splitlines() + ["end b"] \
        + _map_lines("alpha", a, alpha, b.names)
    return "\n".join(lines) + "\n"


def write_mc(l, a, x):
    names = {}
    for (i, p) in x:
        names[(i, p)] = l.names[i] + "@" + a.names[p]
    return "kind: mc_element\nelement: %s\n" % fmt_combo(names, x)


def write_linfty(s, order):
    """The L∞ document of a DGLA: Q₁(w) = -dw, Q₂(w_i⊙w_j) = (-1)^{|w_i|}[w_i, w_j]."""
    lines = ["kind: linfty"] + _basis_lines(s) + ["order: %d" % order]
    items = []
    for i in range(s.dim):
        v = {k: -c for k, c in s.d.get(i, {}).items()}
        if v:
            items.append("  1 | %s -> %s" % (s.names[i], fmt_combo(s.names, v)))
    for i in range(s.dim):
        for j in range(i, s.dim):
            if i == j and s.degs[i] % 2 == 0:
                continue          # zero word in the shifted symmetric power
            v = s.table.get((i, j), {})
            if v:
                sgn = -1 if s.degs[i] % 2 else 1
                items.append("  2 | %s %s -> %s" % (
                    s.names[i], s.names[j],
                    fmt_combo(s.names, {k: sgn * c for k, c in v.items()})))
    if items:
        lines += ["taylor:"] + items
    return "\n".join(lines) + "\n"


def write_quasismooth(gens, order, dcomps):
    """``dcomps[(k, gen_index)]`` maps ``*``-joined words to coefficients."""
    lines = ["kind: quasismooth", "basis:"] + ["  %s %d" % g for g in gens] \
        + ["order: %d" % order]
    items = []
    for (k, g), combo in sorted(dcomps.items()):
        terms = [(w, c) for w, c in combo.items() if c]
        if terms:
            items.append("  %d | %s -> %s" % (
                k, gens[g][0], " + ".join("%s %s" % (c, w) for w, c in terms)))
    if items:
        lines += ["d:"] + items
    return "\n".join(lines) + "\n"
