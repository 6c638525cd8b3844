"""L-infinity structures on truncated reduced symmetric coalgebras.

The coalgebra C(V) = ⊕_{1≤i≤n} ⊙^i(V[1]) with the unshuffle coproduct,
coderivations from Taylor coefficients, the generalized Jacobi checker,
the two-way dictionary with DGLAs, coalgebra morphisms from linear data,
the L-infinity Maurer-Cartan equation over nilpotent coefficients, and
dual coalgebras of nilpotent dg-algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebras import NilpotentDgAlgebra, SparseVec
from .dgla import Dgla, tensor_space
from .graded import (GradedMap, GradedSpace, WordBasis, canonical_monomial,
                     koszul_sign, shift_space, unshuffles)
from .linalg import ONE, ZERO, CertificateError, Vector

Word = Tuple[int, ...]


class SymCoalgebra(WordBasis):
    """Reduced symmetric coalgebra on V[1], truncated at word length
    ``order``: the word basis on the letters of V[1], with the
    Koszul-signed unshuffle sum as coproduct.
    """

    def __init__(self, v: GradedSpace, order: int):
        super().__init__(shift_space(v, 1), order)

    def coproduct(self, pos: int) -> Dict[Tuple[int, int], Fraction]:
        """Reduced coproduct of a monomial as {(left, right): coefficient}."""
        word = self.words[pos]
        m = len(word)
        degs = [self.letters.degrees[i] for i in word]
        out: Dict[Tuple[int, int], Fraction] = {}
        for r in range(1, m):
            for sigma in unshuffles(r, m - r):
                sgn = koszul_sign(sigma, degs)
                left = tuple(word[sigma[t]] for t in range(r))
                right = tuple(word[sigma[t]] for t in range(r, m))
                pl, sl = self.position(left)
                pr, sr = self.position(right)
                key = (pl, pr)
                out[key] = out.get(key, ZERO) + Fraction(sgn * sl * sr)
        return {k: c for k, c in out.items() if c}

    def check_cocommutative(self) -> bool:
        for pos in range(len(self.words)):
            cp = self.coproduct(pos)
            for (a, b), c in cp.items():
                da = self.space.degrees[a]
                db = self.space.degrees[b]
                sgn = Fraction(-1 if (da % 2 and db % 2) else 1)
                if cp.get((b, a), ZERO) != sgn * c:
                    return False
        return True

    def check_coassociative(self) -> bool:
        for pos in range(len(self.words)):
            lhs: Dict[Tuple[int, int, int], Fraction] = {}
            rhs: Dict[Tuple[int, int, int], Fraction] = {}
            for (a, b), c in self.coproduct(pos).items():
                for (a1, a2), c2 in self.coproduct(a).items():
                    key = (a1, a2, b)
                    lhs[key] = lhs.get(key, ZERO) + c * c2
                for (b1, b2), c2 in self.coproduct(b).items():
                    key = (a, b1, b2)
                    rhs[key] = rhs.get(key, ZERO) + c * c2
            lhs = {k: c for k, c in lhs.items() if c}
            rhs = {k: c for k, c in rhs.items() if c}
            if lhs != rhs:
                return False
        return True

    def iterated_coproduct(self, pos: int, n: int) -> Dict[Word, Fraction]:
        """Delta^{n-1}: component of the monomial in C^{⊗n} (positions)."""
        cur: Dict[Word, Fraction] = {(pos,): ONE}
        for _ in range(n - 1):
            nxt: Dict[Word, Fraction] = {}
            for tup, c in cur.items():
                for (a, b), c2 in self.coproduct(tup[0]).items():
                    key = (a, b) + tup[1:]
                    nxt[key] = nxt.get(key, ZERO) + c * c2
            cur = {k: c for k, c in nxt.items() if c}
        return cur


class LInftyStructure:
    """Taylor coefficients Q¹_k : ⊙^k(V[1]) → V[1] of degree +1, k ≤ order."""

    def __init__(self, v: GradedSpace, order: int,
                 taylor: Dict[int, GradedMap], coalgebra: Optional[SymCoalgebra] = None):
        """``coalgebra``, when given, is ``SymCoalgebra(v, order)`` built
        already; it is shared, not rebuilt."""
        if coalgebra is None:
            coalgebra = SymCoalgebra(v, order)
        elif coalgebra.order != order or coalgebra.letters != shift_space(v, 1):
            raise ValueError("coalgebra is not the truncated coalgebra of the space")
        self.coalgebra = coalgebra
        self.v = v
        self.order = order
        self.taylor = {}
        for k, q in taylor.items():
            if not 1 <= k <= order:
                raise ValueError("taylor coefficient arity outside truncation")
            if q.source != self.coalgebra.powers[k].space \
                    or q.target != self.coalgebra.letters or q.degree != 1:
                raise ValueError("Q¹_%d has wrong source/target/degree" % k)
            if q.entries:
                self.taylor[k] = q

    def is_minimal(self) -> bool:
        return 1 not in self.taylor


def coderivation_from_taylor(s: LInftyStructure) -> GradedMap:
    """The coderivation Q on the truncated coalgebra induced by the Q¹_k.

    Q(v₁⊙…⊙vₘ) = Σ_k Σ_{σ∈S(k,m-k)} ε(σ) Q¹_k(first k)⊙(rest); the
    word-length filtration is preserved and the coderivation identity
    ΔQ = (Q⊗Id + Id⊗Q)Δ holds (checked by check_coderivation).
    """
    c = s.coalgebra
    q = GradedMap(c.space, c.space, 1)
    degs_of = c.letters.degrees
    for pos, word in enumerate(c.words):
        m = len(word)
        degs = [degs_of[i] for i in word]
        acc: Dict[int, Fraction] = {}
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
                col = qk.column(lpos)
                for t, ct in enumerate(col):
                    if not ct:
                        continue
                    new_word = (t,) + rest
                    res2 = c.position(new_word)
                    if res2 is None:
                        continue
                    npos, nsgn = res2
                    acc[npos] = acc.get(npos, ZERO) + \
                        Fraction(sgn * lsgn * nsgn) * ct
        for npos, cval in acc.items():
            if cval:
                q.set_entry(npos, pos, cval)
    return q


def check_coderivation(c: SymCoalgebra, q: GradedMap) -> bool:
    """ΔQ = (Q⊗Id + Id⊗Q)Δ with the Koszul sign on Id⊗Q."""
    for pos in range(len(c.words)):
        lhs: Dict[Tuple[int, int], Fraction] = {}
        qp = q.apply(c.space.basis_vector(pos))
        for a, ca in enumerate(qp):
            if ca:
                for (x, y), c2 in c.coproduct(a).items():
                    lhs[(x, y)] = lhs.get((x, y), ZERO) + ca * c2
        rhs: Dict[Tuple[int, int], Fraction] = {}
        for (a, b), c2 in c.coproduct(pos).items():
            qa = q.apply(c.space.basis_vector(a))
            for x, cx in enumerate(qa):
                if cx:
                    rhs[(x, b)] = rhs.get((x, b), ZERO) + c2 * cx
            sgn = Fraction(-1 if c.space.degrees[a] % 2 else 1)
            qb = q.apply(c.space.basis_vector(b))
            for y, cy in enumerate(qb):
                if cy:
                    rhs[(a, y)] = rhs.get((a, y), ZERO) + sgn * c2 * cy
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False
    return True


@dataclass
class LInftyReport:
    ok: bool
    defect_arities: List[int]          # arities with nonzero (Q²)¹ defect
    defects: Dict[int, GradedMap]      # arity -> corestricted defect map


def check_linfty(s: LInftyStructure) -> LInftyReport:
    """Q∘Q = 0, reported through its corestricted per-arity defects.

    Q² vanishes iff its corestriction to the V[1] block vanishes on every
    ⊙^m; both statements are computed and their agreement asserted.
    """
    c = s.coalgebra
    q = coderivation_from_taylor(s)
    qq = q.compose(q)
    nshift = c.letters.dim
    defects: Dict[int, GradedMap] = {}
    for k in range(1, s.order + 1):
        dm = GradedMap(c.powers[k].space, c.letters, 2)
        off = c.offsets[k]
        for col in range(len(c.powers[k].monomials)):
            v = qq.apply(c.space.basis_vector(off + col))
            for t in range(nshift):
                if v[t]:
                    dm.set_entry(t, col, v[t])
        if not dm.is_zero():
            defects[k] = dm
    full_zero = qq.is_zero()
    if full_zero != (not defects):
        raise CertificateError("corestriction criterion must agree with the full check")
    return LInftyReport(full_zero, sorted(defects), defects)


# ---------------------------------------------------------------------------
# the DGLA dictionary
# ---------------------------------------------------------------------------

def dgla_to_linfty(l: Dgla, order: int = 3) -> LInftyStructure:
    """Dictionary: Q¹₁(w[1]) = -(dw)[1], Q¹₂(w₁[1]⊙w₂[1]) = (-1)^{w̄₁}[w₁,w₂][1]."""
    c = SymCoalgebra(l.space, order)
    q1 = GradedMap(c.powers[1].space, c.letters, 1)
    for (j, i), cv in l.d.entries.items():
        q1.set_entry(j, i, -cv)
    taylor = {1: q1}
    if order >= 2:
        q2 = GradedMap(c.powers[2].space, c.letters, 1)
        for pos, (i, j) in enumerate(c.powers[2].monomials):
            sgn = Fraction(-1 if l.space.degrees[i] % 2 else 1)
            br = l.table_entry(i, j)
            for t, ct in enumerate(br):
                if ct:
                    q2.set_entry(t, pos,
                                 q2.entries.get((t, pos), ZERO) + sgn * ct)
        taylor[2] = q2
    return LInftyStructure(l.space, order, taylor)


def linfty_to_dgla(s: LInftyStructure) -> Dgla:
    """Inverse dictionary; requires Q¹_k = 0 for k ≥ 3."""
    for k in s.taylor:
        if k >= 3:
            raise ValueError("structure has a nonzero Taylor coefficient of arity >= 3")
    c = s.coalgebra
    space = s.v
    d = GradedMap(space, space, 1)
    q1 = s.taylor.get(1)
    if q1 is not None:
        for (j, i), cv in q1.entries.items():
            d.set_entry(j, i, -cv)
    bracket: Dict[Tuple[int, int], SparseVec] = {}
    q2 = s.taylor.get(2)
    if q2 is not None and s.order >= 2:
        p2 = c.powers[2]
        for i in range(space.dim):
            for j in range(space.dim):
                res = p2.index((i, j))
                if res is None:
                    continue
                pos, sgn0 = res
                sgn = Fraction(sgn0) * (-1 if space.degrees[i] % 2 else 1)
                col = q2.apply(p2.space.basis_vector(pos))
                row = {t: sgn * ct for t, ct in enumerate(col) if ct}
                if row:
                    bracket[(i, j)] = row
    return Dgla(space, bracket, d)


def coalgebra_morphism_from_linear(c: SymCoalgebra, m: GradedMap,
                                   d: SymCoalgebra) -> GradedMap:
    """θ = Σ_n (1/n!) ⊙ⁿ(m) ∘ Δ^{n-1} : C → C(W) for linear m: C → W[1].

    m must have degree 0; θ is a coalgebra morphism with π∘θ = m.
    """
    if m.source != c.space or m.target != d.letters or m.degree != 0:
        raise ValueError("need a degree-0 map from the coalgebra to W[1]")
    theta = GradedMap(c.space, d.space, 0)
    for pos in range(len(c.words)):
        acc: Dict[int, Fraction] = {}
        for n in range(1, min(len(c.words[pos]), d.order) + 1):
            coeff_n = Fraction(1, factorial(n))
            for tup, cval in c.iterated_coproduct(pos, n).items():
                # expand the product m(w₁)⊙…⊙m(wₙ) multilinearly
                terms: List[Tuple[Word, Fraction]] = [((), cval)]
                for p in tup:
                    col = m.apply(c.space.basis_vector(p))
                    nxt: List[Tuple[Word, Fraction]] = []
                    for letters, cc in terms:
                        for t, ct in enumerate(col):
                            if ct:
                                nxt.append((letters + (t,), cc * ct))
                    terms = nxt
                for letters, cc in terms:
                    res = d.position(letters)
                    if res is None:
                        continue
                    ppos, sgn = res
                    acc[ppos] = acc.get(ppos, ZERO) + coeff_n * Fraction(sgn) * cc
        for ppos, cval in acc.items():
            if cval:
                theta.set_entry(ppos, pos, cval)
    return theta


def check_coalgebra_morphism(c: SymCoalgebra, d: SymCoalgebra,
                             theta: GradedMap) -> bool:
    """Δ_D θ = (θ⊗θ) Δ_C on every monomial, within the truncation."""
    for pos in range(len(c.words)):
        lhs: Dict[Tuple[int, int], Fraction] = {}
        tv = theta.apply(c.space.basis_vector(pos))
        for a, ca in enumerate(tv):
            if ca:
                for (x, y), c2 in d.coproduct(a).items():
                    lhs[(x, y)] = lhs.get((x, y), ZERO) + ca * c2
        rhs: Dict[Tuple[int, int], Fraction] = {}
        for (a, b), c2 in c.coproduct(pos).items():
            ta = theta.apply(c.space.basis_vector(a))
            tb = theta.apply(c.space.basis_vector(b))
            for x, cx in enumerate(ta):
                if cx:
                    for y, cy in enumerate(tb):
                        if cy:
                            rhs[(x, y)] = rhs.get((x, y), ZERO) + c2 * cx * cy
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            return False
    return True


def linfty_mc_check(s: LInftyStructure, a: NilpotentDgAlgebra,
                    m: Sequence[Fraction]) -> Tuple[bool, Vector]:
    """The L-infinity Maurer-Cartan equation over nilpotent coefficients:

        (Id ⊗ d_A)(m) = Σ_n (1/n!) (Q¹_n ⊗ Id)(m^⊙n)

    for m ∈ (V[1]⊗A)⁰, a finite sum by nilpotency of A.  Returns the
    boolean verdict and the defect (lhs - rhs) in V[1]⊗A.
    """
    c = s.coalgebra
    sh = c.letters
    na = a.dim
    space = tensor_space(sh, a.space)
    deg = space.vector_degree(m)
    if deg not in (None, 0):
        raise ValueError("Maurer-Cartan candidates must have degree 0")
    defect = space.zero_vector()
    # lhs: (Id ⊗ d_A)(m); the Koszul sign for moving d_A past v[1] is taken
    # with the unshifted degree, matching the tensor-product differential
    for i in range(sh.dim):
        sgn = Fraction(-1 if (sh.degrees[i] + 1) % 2 else 1)
        for (q, p), cd in a.d.entries.items():
            cv = m[i * na + p]
            if cv:
                defect[i * na + q] += sgn * cd * cv
    # rhs: powers m^⊙n as {(word, A-basis index): coefficient}
    power: Dict[Tuple[Word, int], Fraction] = {}
    for i in range(sh.dim):
        for p in range(na):
            if m[i * na + p]:
                power[((i,), p)] = m[i * na + p]
    n = 1
    while power and n <= s.order:
        qn = s.taylor.get(n)
        if qn is not None:
            coeff_n = Fraction(1, factorial(n))
            pw = c.powers[n]
            for (word, p), cv in power.items():
                res = pw.index(word)
                if res is None:
                    continue
                pos, sgn0 = res
                col = qn.apply(pw.space.basis_vector(pos))
                for t, ct in enumerate(col):
                    if ct:
                        defect[t * na + p] -= coeff_n * Fraction(sgn0) * ct * cv
        # next power: multiply by m on the right
        nxt: Dict[Tuple[Word, int], Fraction] = {}
        if n < s.order:
            for (word, p), cv in power.items():
                pa_deg = a.space.degrees[p]
                for j in range(sh.dim):
                    for q in range(na):
                        c2 = m[j * na + q]
                        if not c2:
                            continue
                        row = a.table.get((p, q))
                        if not row:
                            continue
                        sgn = Fraction(-1 if (pa_deg % 2 and sh.degrees[j] % 2) else 1)
                        cm = canonical_monomial(word + (j,), sh.degrees)
                        if cm is None:
                            continue
                        w2, s2 = cm
                        for r, c3 in row.items():
                            key = (w2, r)
                            val = nxt.get(key, ZERO) + sgn * Fraction(s2) * cv * c2 * c3
                            if val:
                                nxt[key] = val
                            else:
                                nxt.pop(key, None)
        power = nxt
        n += 1
    return linalg.is_zero_vector(defect), defect


# ---------------------------------------------------------------------------
# dual coalgebras of nilpotent dg-algebras
# ---------------------------------------------------------------------------

@dataclass
class DualCoalgebra:
    space: GradedSpace
    coproduct: Dict[int, Dict[Tuple[int, int], Fraction]]
    codifferential: GradedMap

    def validate(self) -> List[str]:
        errs = []
        n = self.space.dim
        for k in range(n):
            cp = self.coproduct.get(k, {})
            for (i, j), c in cp.items():
                sgn = Fraction(-1 if (self.space.degrees[i] % 2
                                      and self.space.degrees[j] % 2) else 1)
                if cp.get((j, i), ZERO) != sgn * c:
                    errs.append("cocommutativity fails at %s" % self.space.names[k])
                    break
        for k in range(n):
            lhs: Dict[Tuple[int, int, int], Fraction] = {}
            rhs: Dict[Tuple[int, int, int], Fraction] = {}
            for (a, b), c in self.coproduct.get(k, {}).items():
                for (a1, a2), c2 in self.coproduct.get(a, {}).items():
                    key = (a1, a2, b)
                    lhs[key] = lhs.get(key, ZERO) + c * c2
                for (b1, b2), c2 in self.coproduct.get(b, {}).items():
                    key = (a, b1, b2)
                    rhs[key] = rhs.get(key, ZERO) + c * c2
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                errs.append("coassociativity fails at %s" % self.space.names[k])
        # conilpotency: iterated coproduct eventually vanishes
        layer = {k: {(k,): ONE} for k in range(n)}
        for _ in range(n + 1):
            if all(not v for v in layer.values()):
                break
            nxt = {}
            for k, terms in layer.items():
                acc: Dict[Tuple[int, ...], Fraction] = {}
                for tup, c in terms.items():
                    for (a, b), c2 in self.coproduct.get(tup[0], {}).items():
                        key = (a, b) + tup[1:]
                        acc[key] = acc.get(key, ZERO) + c * c2
                nxt[k] = {t: c for t, c in acc.items() if c}
            layer = nxt
        else:
            errs.append("coproduct is not conilpotent")
        return errs


def dual_coalgebra(a: NilpotentDgAlgebra) -> DualCoalgebra:
    """Transpose multiplication and differential onto the dual space."""
    space = a.space.dual()
    cp: Dict[int, Dict[Tuple[int, int], Fraction]] = {}
    for (i, j), row in a.table.items():
        for k, c in row.items():
            cp.setdefault(k, {})[(i, j)] = cp.get(k, {}).get((i, j), ZERO) + c
    cod = a.d.transpose()
    return DualCoalgebra(space, cp, cod)


def dual_algebra(c: DualCoalgebra) -> NilpotentDgAlgebra:
    """Inverse of dual_coalgebra; dualizing twice returns the input."""
    basis = [(name[:-1] if name.endswith("^") else name + "^", -d)
             for name, d in c.space.basis]
    space = GradedSpace(basis)
    mult: Dict[Tuple[int, int], SparseVec] = {}
    for k, row in c.coproduct.items():
        for (i, j), cv in row.items():
            if cv:
                mult.setdefault((i, j), {})[k] = \
                    mult.get((i, j), {}).get(k, ZERO) + cv
    d = GradedMap(space, space, 1,
                  {(i, j): cv for (j, i), cv in c.codifferential.entries.items()})
    return NilpotentDgAlgebra(space, mult, d)
