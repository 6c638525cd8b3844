"""L-infinity structures on truncated reduced symmetric coalgebras.

The coalgebra C(V) = ⊕_{1≤i≤n} ⊙^i(V[1]) with the unshuffle coproduct;
the Chevalley-Eilenberg truncation of a structure, through which its
coderivation, the generalized Jacobi checker and the L-infinity
Maurer-Cartan equation over nilpotent coefficients read the Taylor
coefficients; the two-way dictionary with DGLAs, coalgebra morphisms from
linear data, and dual coalgebras of nilpotent dg-algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebras import NilpotentDgAlgebra, SparseVec
from .dgla import Dgla, tensor_space
from .graded import (GradedMap, GradedSpace, WordBasis, koszul_sign, shift_space,
                     unshuffles)
from .linalg import ONE, ZERO, CertificateError, Vector
from .models import QuasismoothTrunc

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

    @cached_property
    def ce(self) -> QuasismoothTrunc:
        """The Chevalley-Eilenberg truncation: R/R^{n+1} on the dual
        letters (V[1])^∨ with d_k(x_t) = −Σ_u Q¹_k[t, u]/m(u)·x^u.  Its
        words are the coalgebra's words, in the same order."""
        dual = self.coalgebra.letters.dual()
        shell = QuasismoothTrunc(dual, self.order, {}, check=False)
        comps = {}
        for k, q in self.taylor.items():
            words = self.coalgebra.powers[k].monomials
            comps[k] = GradedMap(dual, shell.basis.powers[k].space, 1, {
                (u, t): -x / symmetry_factor(words[u]) for (t, u), x in q.entries.items()})
        return shell.with_components(comps, check=False)


def symmetry_factor(word: Word) -> int:
    """m(w): the product of the factorials of the letter multiplicities of w."""
    out = 1
    for letter in set(word):
        out *= factorial(word.count(letter))
    return out


def coderivation_from_taylor(s: LInftyStructure) -> GradedMap:
    """The coderivation Q on the truncated coalgebra induced by the Q¹_k.

    Q(v₁⊙…⊙vₘ) = Σ_k Σ_{σ∈S(k,m-k)} ε(σ) Q¹_k(first k)⊙(rest), read off the
    CE differential D as its scaled transpose Q[u, w] = −D[w, u]·m(w)/m(u):
    the monomial x^w pairs with the word w to m(w).  The word-length
    filtration is preserved and the coderivation identity
    ΔQ = (Q⊗Id + Id⊗Q)Δ holds (checked by check_coderivation).
    """
    words = s.coalgebra.words
    return GradedMap(s.coalgebra.space, s.coalgebra.space, 1, {
        (u, w): -x * symmetry_factor(words[w]) / symmetry_factor(words[u])
        for (w, u), x in s.ce.differential().entries.items()})


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

    Q = −M⁻¹DᵀM with M = diag(m(w)), so Q² = M⁻¹(D²)ᵀM and the (Q²)¹
    defect of arity k at (t, w) is m(w)·D²[w, t], read off the generator
    columns of D².  D² is a derivation, so it vanishes on the words iff it
    does on the generators; both statements are computed and their
    agreement checked.
    """
    c = s.coalgebra
    d = s.ce.differential()
    dd = d.compose(d)
    defects: Dict[int, GradedMap] = {}
    for (w, t), x in dd.entries.items():
        if t >= c.letters.dim:
            continue
        k = len(c.words[w])
        dm = defects.get(k)
        if dm is None:
            dm = defects[k] = GradedMap(c.powers[k].space, c.letters, 2)
        dm.set_entry(t, w - c.offsets[k], symmetry_factor(c.words[w]) * x)
    full_zero = dd.is_zero()
    if full_zero != (not defects):
        raise CertificateError("D² must vanish on the words iff on the generators")
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

    for m ∈ (V[1]⊗A)⁰, a finite sum by nilpotency of A.  The right side is
    read on the CE truncation: m is the algebra map f: x_t ↦ Σ_p m[t, p]·a_p,
    and at x_t the right side is −f(D x_t), where the product in A of each
    word w takes the Koszul sign (−1)^{Σ_{a<b}|w_a||w_b|} of gathering the
    A-factors of m^⊙n.  Returns the boolean verdict and the defect
    (lhs - rhs) in V[1]⊗A.
    """
    sh = s.coalgebra.letters
    na = a.dim
    space = tensor_space(sh, a.space)
    if any(x and space.degrees[i] for i, x in enumerate(m)):
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
    # rhs: f(D x_t) = Σ_u D[u, t]·f(x^u), entered with the opposite sign
    images = [{p: m[t * na + p] for p in range(na) if m[t * na + p]}
              for t in range(sh.dim)]
    for k, dk in s.ce.components.items():
        for (u, t), x in dk.entries.items():
            word = s.coalgebra.powers[k].monomials[u]
            prod = images[word[0]]
            for letter in word[1:]:
                prod = a.sparse_product(prod, images[letter]) if prod else prod
            n_odd = sum(sh.degrees[l] % 2 for l in word)
            sgn = -x if n_odd * (n_odd - 1) // 2 % 2 else x
            for r, y in prod.items():
                defect[t * na + r] += sgn * y
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
    for i, j, row in a.constants():
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
