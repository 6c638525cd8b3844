"""L-infinity structures on truncated reduced symmetric coalgebras.

The coalgebra C(V) = ⊕_{1≤i≤n} ⊙^i(V[1]), read through its dual
truncation R/R^{n+1} on the dual letters: under the pairing of words with
their monomials, the coproduct, the co-axioms, coderivations and
coalgebra morphisms are the scaled transposes of the product, the
algebra axioms, derivations and algebra morphisms there.  The
Chevalley-Eilenberg truncation of a structure, through which its
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
from .algebras import DgAlgebraMorphism, NilpotentDgAlgebra, SparseVec
from .dgla import Dgla, tensor_space
from .graded import GradedMap, GradedSpace, WordBasis, shift_space
from .linalg import ZERO, CertificateError, Vector
from .models import QuasismoothTrunc, morphism_from_generators

Word = Tuple[int, ...]


def symmetry_factor(word: Word) -> int:
    """m(w): the product of the factorials of the letter multiplicities of w."""
    out = 1
    for letter in set(word):
        out *= factorial(word.count(letter))
    return out


class SymCoalgebra(WordBasis):
    """Reduced symmetric coalgebra on V[1], truncated at word length
    ``order``: the word basis on the letters of V[1].

    Its structure is read off ``dual``, the truncation R/R^{n+1} with zero
    differential on the dual letters (V[1])^∨, whose words are the
    coalgebra's words in the same order.  Under the pairing
    ⟨x^u, w⟩ = m(u)·δ_uw (m the symmetry factor) the coproduct is the
    scaled transpose of the product, so each co-axiom is the matching
    axiom of the dual algebra.
    """

    def __init__(self, v: GradedSpace, order: int):
        super().__init__(shift_space(v, 1), order)

    @cached_property
    def dual(self) -> QuasismoothTrunc:
        return QuasismoothTrunc(self.letters.dual(), self.order, {}, check=False)

    def coproduct(self, pos: int) -> Dict[Tuple[int, int], Fraction]:
        """Reduced coproduct of a monomial as {(left, right): coefficient}:
        Δ(w)[(u, v)] is m(w)/(m(u)·m(v)) times the coefficient of x^w in
        x^u·x^v (the Koszul-signed unshuffle sum)."""
        words = self.words
        mw = symmetry_factor(words[pos])
        return {(u, v): row[pos] * mw / (symmetry_factor(words[u]) * symmetry_factor(words[v]))
                for u, v, row in self.dual.algebra().constants() if pos in row}

    def check_cocommutative(self) -> bool:
        return not self.dual.algebra()._axiom_errors()[0]

    def check_coassociative(self) -> bool:
        return not self.dual.algebra()._axiom_errors()[1]


def _transpose(f: GradedMap, source: WordBasis, target: WordBasis) -> GradedMap:
    """The transpose source → target of f under the pairing
    ⟨x^u, w⟩ = m(u)·δ_uw of words with their duals: f maps the words of
    ``target`` to those of ``source``, and fᵀ[a, b] = f[b, a]·m(b)/m(a)."""
    return GradedMap(source.space, target.space, f.degree, {
        (a, b): x * symmetry_factor(source.words[b]) / symmetry_factor(target.words[a])
        for (b, a), x in f.entries.items()})


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
        """The Chevalley-Eilenberg truncation: the coalgebra's ``dual``
        with d_k(x_t) = −Σ_u Q¹_k[t, u]/m(u)·x^u.  Its words are the
        coalgebra's words, in the same order."""
        dual = self.coalgebra.dual
        comps = {}
        for k, q in self.taylor.items():
            words = self.coalgebra.powers[k].monomials
            comps[k] = GradedMap(dual.v, dual.basis.powers[k].space, 1, {
                (u, t): -x / symmetry_factor(words[u]) for (t, u), x in q.entries.items()})
        return dual.with_components(comps, check=False)


def coderivation_from_taylor(s: LInftyStructure) -> GradedMap:
    """The coderivation Q on the truncated coalgebra induced by the Q¹_k.

    Q(v₁⊙…⊙vₘ) = Σ_k Σ_{σ∈S(k,m-k)} ε(σ) Q¹_k(first k)⊙(rest), read off the
    CE differential D as its scaled transpose Q[u, w] = −D[w, u]·m(w)/m(u):
    the monomial x^w pairs with the word w to m(w).  The word-length
    filtration is preserved and the coderivation identity
    ΔQ = (Q⊗Id + Id⊗Q)Δ holds (checked by check_coderivation).
    """
    return -_transpose(s.ce.differential(), s.coalgebra, s.coalgebra)


def check_coderivation(c: SymCoalgebra, q: GradedMap) -> bool:
    """ΔQ = (Q⊗Id + Id⊗Q)Δ with the Koszul sign on Id⊗Q: read on the dual
    truncation, where it says that the scaled transpose of Q is a
    derivation (the Leibniz list of the dual algebra with it as d)."""
    return not c.dual.algebra().with_differential(
        _transpose(q, c.dual.basis, c.dual.basis))._axiom_errors()[2]


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

    m must have degree 0; θ is a coalgebra morphism with π∘θ = m.  It is
    the scaled transpose of the algebra morphism of the dual truncations
    with x_t ↦ Σ_w m[t, w]/m(w)·x^w.
    """
    if m.source != c.space or m.target != d.letters or m.degree != 0:
        raise ValueError("need a degree-0 map from the coalgebra to W[1]")
    images = [c.dual.basis.space.zero_vector() for _ in range(d.letters.dim)]
    for (t, w), x in m.entries.items():
        images[t][w] = x / symmetry_factor(c.words[w])
    f = morphism_from_generators(d.dual, c.dual.algebra(), images, check=False)
    return _transpose(f.map, c, d)


def check_coalgebra_morphism(c: SymCoalgebra, d: SymCoalgebra,
                             theta: GradedMap) -> bool:
    """Δ_D θ = (θ⊗θ) Δ_C on every monomial, within the truncation: the
    scaled transpose of θ is multiplicative on the dual truncations."""
    f = DgAlgebraMorphism(d.dual.algebra(), c.dual.algebra(),
                          _transpose(theta, d.dual.basis, c.dual.basis), check=False)
    return not f.violations()


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
        """Cocommutativity, coassociativity and conilpotency, read as the
        commutativity, associativity and nilpotency errors of the dual
        algebra."""
        a = dual_algebra(self)
        comm, assoc, _, _ = a._axiom_errors()
        return comm + assoc + (["not nilpotent"] if a.nilpotency_index() is None else [])


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
