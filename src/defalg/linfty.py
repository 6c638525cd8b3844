"""L-infinity structures on truncated reduced symmetric coalgebras.

The coalgebra C(V) = ⊕_{1≤i≤n} ⊙^i(V[1]) is read through its dual
truncation R/R^{n+1} on the dual letters: under the pairing of words with
their monomials the coproduct is the scaled transpose of the product, so
cocommutativity and coassociativity are the algebra axioms there.  A
structure is read through its Chevalley-Eilenberg truncation, on which
the generalized Jacobi check and the L-infinity Maurer-Cartan equation
over nilpotent coefficients read the Taylor coefficients.  The module also
holds the two-way dictionary with DGLAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Dict, List, Optional, Tuple

from .algebras import NilpotentDgAlgebra, SparseVec
from .dgla import Dgla, tensor_space
from .graded import GradedMap, GradedSpace, WordBasis, shift_space
from .linalg import ZERO
from .models import QuasismoothTrunc, _word_images

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

    ``dual`` is the truncation R/R^{n+1} with zero differential on the
    dual letters (V[1])^∨, whose words are the coalgebra's words in the
    same order; a structure's CE truncation is ``dual`` with its
    differential.  Under the pairing ⟨x^u, w⟩ = m(u)·δ_uw (m the symmetry
    factor) the coproduct is the scaled transpose of the product, so each
    co-axiom is read as the matching axiom of the dual algebra.
    """

    def __init__(self, v: GradedSpace, order: int):
        super().__init__(shift_space(v, 1), order)

    @cached_property
    def dual(self) -> QuasismoothTrunc:
        return QuasismoothTrunc(self.letters.dual(), self.order, {}, check=False)

    def check_cocommutative(self) -> bool:
        return not self.dual.algebra()._axiom_errors()[0]

    def check_coassociative(self) -> bool:
        return not self.dual.algebra()._axiom_errors()[1]


class LInftyStructure:
    """Taylor coefficients Q¹_k : ⊙^k(V[1]) → V[1] of degree +1, k ≤ order,
    each a map from the coalgebra's words with its entries on the words
    of length k."""

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
            span = coalgebra.of_length(k)
            if q.source != coalgebra.space or q.target != coalgebra.letters or \
                    q.degree != 1 or any(u not in span for u, _ in q.nonzero_columns()):
                raise ValueError("Q¹_%d has wrong source/target/degree" % k)
            if not q.is_zero():
                self.taylor[k] = q

    def is_minimal(self) -> bool:
        return 1 not in self.taylor

    @cached_property
    def ce(self) -> QuasismoothTrunc:
        """The Chevalley-Eilenberg truncation: the coalgebra's ``dual``
        with d_k(x_t) = −Σ_u Q¹_k[t, u]/m(u)·x^u.  Its words are the
        coalgebra's words, in the same order."""
        dual, words = self.coalgebra.dual, self.coalgebra.words
        comps = {}
        for k, q in self.taylor.items():
            cols: Dict[int, SparseVec] = {}
            for u, col in q.nonzero_columns():
                for t, x in col.items():
                    cols.setdefault(t, {})[u] = -x / symmetry_factor(words[u])
            comps[k] = GradedMap.from_columns(dual.v, dual.basis.space, 1, cols)
        return dual.with_components(comps, check=False)


@dataclass
class LInftyReport:
    ok: bool
    defect_arities: List[int]          # arities with nonzero (Q²)¹ defect
    defects: Dict[int, GradedMap]      # arity -> corestricted defect map


def check_linfty(s: LInftyStructure) -> LInftyReport:
    """Q∘Q = 0, reported through its corestricted per-arity defects.

    Q = −M⁻¹DᵀM with M = diag(m(w)), so Q² = M⁻¹(D²)ᵀM and the (Q²)¹
    defect of arity k at (t, w) is m(w)·D²[w, t], read off the generator
    columns of D² (``square_on_letters``).  D² is a derivation, so Q∘Q = 0
    exactly when there is no defect.
    """
    c = s.coalgebra
    cols: Dict[int, Dict[int, SparseVec]] = {}
    for t, col in s.ce.square_on_letters().items():
        for w, x in col.items():
            cols.setdefault(len(c.words[w]), {}).setdefault(w, {})[t] = \
                symmetry_factor(c.words[w]) * x
    defects = {k: GradedMap.from_columns(c.space, c.letters, 2, kcols)
               for k, kcols in cols.items()}
    return LInftyReport(not defects, sorted(defects), defects)


# ---------------------------------------------------------------------------
# the DGLA dictionary
# ---------------------------------------------------------------------------

def dgla_to_linfty(l: Dgla, order: int = 3) -> LInftyStructure:
    """Dictionary: Q¹₁(w[1]) = -(dw)[1], Q¹₂(w₁[1]⊙w₂[1]) = (-1)^{w̄₁}[w₁,w₂][1]."""
    c = SymCoalgebra(l.space, order)
    # the first dim L words are the letters
    taylor = {1: GradedMap.from_columns(c.space, c.letters, 1, (-l.d).columns())}
    if order >= 2:
        odd = [d % 2 for d in l.space.degrees]
        taylor[2] = GradedMap.from_columns(c.space, c.letters, 1, {
            w: {t: -ct if odd[i] else ct for t, ct in l.table_entry(i, j).items()}
            for w in c.of_length(2) for i, j in [c.words[w]]})
    return LInftyStructure(l.space, order, taylor, c)


def linfty_to_dgla(s: LInftyStructure) -> Dgla:
    """Inverse dictionary; requires Q¹_k = 0 for k ≥ 3."""
    for k in s.taylor:
        if k >= 3:
            raise ValueError("structure has a nonzero Taylor coefficient of arity >= 3")
    c = s.coalgebra
    space = s.v
    q1 = s.taylor.get(1)
    d = GradedMap(space, space, 1) if q1 is None else \
        GradedMap.from_columns(space, space, 1, (-q1).columns())
    bracket: Dict[Tuple[int, int], SparseVec] = {}
    q2 = s.taylor.get(2)
    if q2 is not None and s.order >= 2:
        for i in range(space.dim):
            for j in range(space.dim):
                res = c.position((i, j))
                if res is None:
                    continue
                pos, sgn0 = res
                sgn = Fraction(sgn0) * (-1 if space.degrees[i] % 2 else 1)
                row = {t: sgn * ct for t, ct in q2.column(pos).items()}
                if row:
                    bracket[(i, j)] = row
    return Dgla(space, bracket, d)


def linfty_mc_check(s: LInftyStructure, a: NilpotentDgAlgebra,
                    m: SparseVec) -> Tuple[bool, SparseVec]:
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
    if any(space.degrees[i] for i in m):
        raise ValueError("Maurer-Cartan candidates must have degree 0")
    defect: Dict[int, Fraction] = {}
    # lhs: (Id ⊗ d_A)(m); the Koszul sign for moving d_A past v[1] is taken
    # with the unshifted degree, matching the tensor-product differential
    dcols = a.d.columns()
    images: List[SparseVec] = [{} for _ in range(sh.dim)]
    for key, cv in m.items():
        i, p = divmod(key, na)
        images[i][p] = cv
        c = -cv if (sh.degrees[i] + 1) % 2 else cv
        for q, cd in dcols[p].items():
            defect[i * na + q] = defect.get(i * na + q, ZERO) + cd * c
    # rhs: f(D x_t) = Σ_u D[u, t]·f(x^u), entered with the opposite sign
    image = _word_images(a, images)
    for dk in s.ce.components.values():
        for t, col in dk.nonzero_columns():
            for u, x in col.items():
                word = s.coalgebra.words[u]
                prod = image(word)
                n_odd = sum(sh.degrees[l] % 2 for l in word)
                sgn = -x if n_odd * (n_odd - 1) // 2 % 2 else x
                for r, y in prod.items():
                    defect[t * na + r] = defect.get(t * na + r, ZERO) + sgn * y
    defect = {key: c for key, c in defect.items() if c}
    return not defect, defect
