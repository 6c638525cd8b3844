"""Truncated complete quasismooth dg-algebras and their model theory.

Polynomial truncations R/R^{n+1} = ⊕_{1≤i≤n} ⊙^i V on the words of
``graded.WordBasis``, with a derivation differential given by components
d_k: V → ⊙^k V, each a map into the words, minimality and
smoothness tests, the minimalization algorithm with explicit projection,
section and homotopy, staged lifting of morphisms through the order
tower, and a minimal prorepresenting algebra for the deformation functor
of a DGLA, built by the transfer recursion and certified once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import linalg
from .algebras import (DgAlgebraMorphism, Homotopy, NilpotentDgAlgebra, Row, SparseVec,
                       _LazyRows, check_homotopy, constant_homotopy, de_rham_truncation)
from .dgla import Dgla, TensorDgla, mc_defect, tensor_dgla
from .graded import Complex, GradedMap, GradedSpace, WordBasis, cohomology
from .linalg import ONE, ZERO, CertificateError, add_into

Word = Tuple[int, ...]


def _word_row(b: WordBasis, p: int) -> Row:
    """The row of word p in a truncation's left index, [(q, {p·q: ±1})]
    over the words q short enough to multiply with p: they come first, and
    each product is ±1 times one word, so ``den`` is 1."""
    wp = b.words[p]
    return [(q, {res[0]: res[1]}) for q in range(b.offsets[b.order + 1 - len(wp)])
            for res in [b.product(wp, b.words[q])] if res is not None]


class QuasismoothTrunc:
    """R/R^{n+1} for R complete quasismooth on generators V.

    ``basis`` holds the words of ⊕_{1≤k≤n} ⊙^k V; ``components[k]`` is the
    degree +1 map d_k: V → ⊙^k V, a map from V to ``basis.space`` with its
    entries on the words of length k, and the induced derivation on the
    words squares to zero (checked on the letters).  The products depend
    on (V, n) alone, and the algebra's row of a word p is built when it is
    first read: the brackets of L⊗R read only the rows of ξ's support,
    while the checks that walk every row build the rest in one pass.  A
    truncation made by ``with_components`` shares the word basis and the
    rows built so far with the one it was made from.
    """

    def __init__(self, v: GradedSpace, order: int,
                 components: Dict[int, GradedMap], check: bool = True):
        self.v = v
        self.order = order
        self.basis = WordBasis(v, order)
        self._products: Optional[NilpotentDgAlgebra] = None
        self._set_components(components, check)

    def with_components(self, components: Dict[int, GradedMap],
                        check: bool = True) -> "QuasismoothTrunc":
        """The truncation on the same generators and order with other
        components: only its differential is new."""
        out = copy.copy(self)
        out._set_components(components, check)
        return out

    def _set_components(self, components: Dict[int, GradedMap], check: bool) -> None:
        self.components: Dict[int, GradedMap] = {}
        for k, m in components.items():
            if not 1 <= k <= self.order:
                raise ValueError("component order outside truncation")
            span = self.basis.of_length(k)
            if m.source != self.v or m.degree != 1 or m.target != self.basis.space or \
                    any(j not in span for _, col in m.nonzero_columns() for j in col):
                raise ValueError("component d_%d has wrong source/target/degree" % k)
            if not m.is_zero():
                self.components[k] = m
        self._algebra: Optional[NilpotentDgAlgebra] = None
        self._differential: Optional[GradedMap] = None
        if check and self.square_on_letters():
            raise ValueError("derivation does not square to zero on the truncation")

    def differential(self) -> GradedMap:
        """The derivation extension of the components to the words, built
        once per truncation and shared: no caller may change it.

        A letter's column is its image under the components.  Words come
        shortest first, so a longer word p·ℓ, ℓ its last letter, finds the
        column of its prefix p built and takes
        d(p·ℓ) = d(p)·ℓ + (−1)^{|p|} p·d(ℓ).  Each column lists its words
        in increasing position."""
        if self._differential is not None:
            return self._differential
        b, n = self.basis, self.order
        words = b.words
        cols: Dict[int, SparseVec] = {}
        for letter in range(self.v.dim):
            col = {u: c for k in sorted(self.components)
                   for u, c in sorted(self.components[k].column(letter).items())}
            if col:
                cols[letter] = col
        # a word's column is built from its letters': none when they have none
        for pos in range(self.v.dim, len(words) if cols else 0):
            p, last = words[pos][:-1], words[pos][-1]
            ppos = b.position(p)[0]
            acc: Dict[int, Fraction] = {}
            for u, c in cols.get(ppos, {}).items():
                res = b.product(words[u], (last,)) if len(words[u]) < n else None
                if res is not None:
                    acc[res[0]] = acc.get(res[0], ZERO) + (c if res[1] > 0 else -c)
            sign = -1 if b.space.degrees[ppos] % 2 else 1
            for u, c in cols.get(last, {}).items():
                res = b.product(p, words[u]) if len(p) + len(words[u]) <= n else None
                if res is not None:
                    acc[res[0]] = acc.get(res[0], ZERO) + (c if res[1] == sign else -c)
            col = {u: acc[u] for u in sorted(acc) if acc[u]}
            if col:
                cols[pos] = col
        self._differential = GradedMap.from_columns(b.space, b.space, 1, cols)
        return self._differential

    def square_on_letters(self) -> Dict[int, SparseVec]:
        """d(d x_t) for each letter x_t where it is nonzero.  d is odd, so
        d² = ½[d, d] is a derivation of the truncation: it vanishes on the
        words exactly when this is empty."""
        d = self.differential()
        return {t: dd for t in range(self.v.dim) for dd in [d.apply(d.column(t))] if dd}

    def linear_part(self) -> GradedMap:
        """d₁ read as the map V → V: the first dim V words are the
        letters."""
        d1 = self.components.get(1)
        return GradedMap.from_columns(self.v, self.v, 1, {} if d1 is None
                                      else dict(d1.nonzero_columns()))

    def algebra(self) -> NilpotentDgAlgebra:
        if self._algebra is None:
            if self._products is None:
                b = self.basis
                self._products = NilpotentDgAlgebra(b.space, (), GradedMap(b.space, b.space, 1))
                self._products._left = _LazyRows(len(b.words), partial(_word_row, b))
            self._algebra = self._products.with_differential(self.differential())
        return self._algebra

    def __repr__(self):
        return "QuasismoothTrunc(gen=%d, order=%d)" % (self.v.dim, self.order)


def is_minimal(r: QuasismoothTrunc) -> bool:
    return 1 not in r.components


def h_r_tangent(r: QuasismoothTrunc, i: int) -> int:
    """Tangent dimension in degree i: H^{i-1} of the dual of (V, d₁)."""
    dt = r.linear_part().transpose()
    coh = cohomology(Complex(dt.source, dt, check=False))
    return coh.dim(i - 1)


def is_smooth_minimal(r: QuasismoothTrunc) -> Tuple[bool, Optional[Dict]]:
    """A minimal truncation is smooth iff its differential vanishes.

    The witness for non-smoothness names the lowest order k with d_k ≠ 0
    and a generator whose image is nonzero: the projection onto the
    order-(k-1) truncation then fails to lift against a zero-differential
    free cover.
    """
    if not is_minimal(r):
        raise ValueError("smoothness test requires a minimal truncation")
    if not r.components:
        return True, None
    k = min(r.components)
    m = r.components[k]
    gen = next(i for i in range(r.v.dim) if m.column(i))
    return False, {"order": k, "generator": r.v.names[gen],
                   "component": m}


def _word_images(target: NilpotentDgAlgebra, images: List[SparseVec]
                 ) -> Callable[[Word], SparseVec]:
    """The image of a word under the multiplicative extension of the
    generator images: its prefix word's image times its last letter's,
    built on first read and kept with the images of its prefixes."""
    imgs: Dict[Word, SparseVec] = {}

    def image(word: Word) -> SparseVec:
        vec = imgs.get(word)
        if vec is None:
            vec = imgs[word] = (images[word[0]] if len(word) == 1
                                else target.product(image(word[:-1]), images[word[-1]]))
        return vec
    return image


def morphism_from_generators(r: QuasismoothTrunc, target: NilpotentDgAlgebra,
                             images: List[SparseVec], check: bool = True
                             ) -> DgAlgebraMorphism:
    """The multiplicative extension of generator images to the monomials
    (``_word_images`` on every word), which keeps the images as its
    columns: none of them may be changed afterwards."""
    image = _word_images(target, images)
    m = GradedMap.from_columns(r.basis.space, target.space, 0,
                               [image(word) for word in r.basis.words])
    return DgAlgebraMorphism(r.algebra(), target, m, check=check)


def invert_morphism(f: DgAlgebraMorphism) -> DgAlgebraMorphism:
    if f.source.dim != f.target.dim:
        raise ValueError("matrix is not invertible")
    m = GradedMap.from_columns(f.target.space, f.source.space, 0, linalg.invert(f.map.columns()))
    return DgAlgebraMorphism(f.target, f.source, m, check=False)


def change_of_generators(r: QuasismoothTrunc, new_v: GradedSpace,
                         images: List[SparseVec]
                         ) -> Tuple[QuasismoothTrunc, DgAlgebraMorphism, DgAlgebraMorphism]:
    """Re-present R on new generators given by elements of its algebra.

    The images must be degree-matching elements whose multiplicative
    extension is an isomorphism of the truncation (filtration-preserving
    changes of coordinates).  Returns the new presentation (sharing R's
    product index when on R's generators), the isomorphism G: new → old
    intertwining the differentials, and G⁻¹.
    """
    shell = (r.with_components({}, check=False) if new_v == r.v
             else QuasismoothTrunc(new_v, r.order, {}, check=False))
    a_old = r.algebra()
    g = morphism_from_generators(shell, a_old, images, check=False)
    ginv = invert_morphism(g)
    words = shell.basis.words
    cols: Dict[int, Dict[int, SparseVec]] = {}
    for i in range(new_v.dim):
        for w, c in ginv.map.apply(a_old.d.apply(images[i])).items():
            cols.setdefault(len(words[w]), {}).setdefault(i, {})[w] = c
    out = shell.with_components({k: GradedMap.from_columns(
        new_v, shell.basis.space, 1, kcols) for k, kcols in cols.items()})
    if out.differential() != ginv.map.compose(a_old.d).compose(g.map):
        raise CertificateError("the conjugated differential is not the derivation "
                               "of its components")
    gmor = DgAlgebraMorphism(out.algebra(), a_old, g.map)
    return out, gmor, ginv


@dataclass
class MinimalModel:
    r: QuasismoothTrunc
    s: QuasismoothTrunc
    pi: DgAlgebraMorphism           # r.algebra() -> s.algebra()
    gamma: DgAlgebraMorphism        # s.algebra() -> r.algebra()
    homotopy: Homotopy              # γπ ~ Id on r.algebra()


def minimalize(r: QuasismoothTrunc) -> MinimalModel:
    """A minimal model with projection, section and an explicit homotopy.

    Splits V = H ⊕ W ⊕ d₁(W) along the cohomology of (V, d₁), changes
    coordinates so that d(v_i) = w_i exactly and the differential of the
    harmonic generators lands in pure-H monomials, then quotients the
    acyclic pairs away.  The homotopy sends v ↦ v⊗t, w ↦ d(v⊗t) and is
    checked exactly at ε = 1.  Each piece is built once: the second change
    of coordinates shares the first one's product index, and g⁻¹ is
    composed from the inverses that the two changes compute.
    """
    if is_minimal(r):
        ident = DgAlgebraMorphism.identity(r.algebra())
        return MinimalModel(r, r, ident, ident, constant_homotopy(ident))
    coh = cohomology(Complex(r.v, r.linear_part(), check=False))
    a_old = r.algebra()

    # new linear coordinates: harmonic h_j, complements v_i, then w_i = d(v_i);
    # a vector of V is the same vector on the words, whose first ones are
    # the letters in generator order
    harms: List[SparseVec] = []
    comps: List[SparseVec] = []
    for k in sorted(set(r.v.degrees)):
        harms.extend(coh.split(k).harmonics)
        comps.extend(coh.split(k).complements)
    basis1 = []
    images1: List[SparseVec] = []
    for t, h in enumerate(harms):
        basis1.append(("h%d" % t, r.v.vector_degree(h)))
        images1.append(h)
    for t, v in enumerate(comps):
        basis1.append(("v%d" % t, r.v.vector_degree(v)))
        images1.append(v)
    for t, v in enumerate(comps):
        basis1.append(("w%d" % t, r.v.vector_degree(v) + 1))
        images1.append(a_old.d.apply(v))
    v1 = GradedSpace(basis1)
    r1, g1, g1inv = change_of_generators(r, v1, images1)

    nh, nw = len(harms), len(comps)
    h_idx = list(range(nh))
    v_idx = list(range(nh, nh + nw))
    w_idx = list(range(nh + nw, nh + 2 * nw))
    a1 = r1.algebra()
    # sanity: d(v_i) = w_i, d(w_i) = 0, d(h_j) has no length-1 part
    for t in range(nw):
        if a1.d.column(v_idx[t]) != {w_idx[t]: ONE} or a1.d.column(w_idx[t]):
            raise CertificateError("the new coordinates do not satisfy d(v) = w, d(w) = 0")

    # correct the harmonic generators so their differential is pure-H
    pure_h = _pure_h_selector(r1, set(h_idx))
    images2: List[SparseVec] = [{i: ONE} for i in range(v1.dim)]
    ds_words: Dict[int, Dict[int, Fraction]] = {j: {} for j in h_idx}
    for k in range(2, r.order + 1):
        # substitution of the images at the start of order k into the
        # pure-H words so far, built only for the words read; an image
        # corrected below is replaced, never changed in place
        subst = _word_images(a1, list(images2))
        for j in h_idx:
            defect = a1.d.apply(images2[j])
            for gpos, c in ds_words[j].items():
                add_into(defect, subst(r1.basis.words[gpos]), -c)
            # split the order-k defect into pure-H words and a δ₀-image
            rest: SparseVec = {}
            for gpos, c in sorted(r1.basis.component(defect, k).items()):
                if pure_h[gpos]:
                    ds_words[j][gpos] = ds_words[j].get(gpos, ZERO) + c
                else:
                    rest[gpos] = c
            if not rest:
                continue
            # solve δ₀(g) = -rest with g a length-k word of matching degree
            cand = [gpos for gpos in r1.basis.of_length(k)
                    if a1.space.degrees[gpos] == v1.degrees[j]]
            cols = [_delta0(r1, a1, gpos) for gpos in cand]
            sol = linalg.solve_in_span(cols, {g: -c for g, c in rest.items()})
            if sol is None:
                raise CertificateError("the acyclic correction has no solution")
            images2[j] = add_into(dict(images2[j]),
                                  {cand[posn]: c for posn, c in sol.items()})
    r2, g2, g2inv = change_of_generators(r1, v1, images2)
    a2 = r2.algebra()

    # read off the minimal quotient S on the harmonic generators
    h_space = GradedSpace([v1.basis[j] for j in h_idx])
    s_cols: Dict[int, Dict[int, SparseVec]] = {}
    s_shell = QuasismoothTrunc(h_space, r.order, {}, check=False)
    for k, m in r2.components.items():
        for j in h_idx:
            for gpos, c in sorted(m.column(j).items()):
                word = r2.basis.words[gpos]
                if not all(l in h_idx for l in word):
                    raise CertificateError("the harmonic differential is not pure-H "
                                           "after correction")
                pos, sgn = s_shell.basis.position(tuple(h_idx.index(l) for l in word))
                add_into(s_cols.setdefault(k, {}).setdefault(j, {}), {pos: c}, Fraction(sgn))
    s = s_shell.with_components({k: GradedMap.from_columns(
        h_space, s_shell.basis.space, 1, kcols) for k, kcols in s_cols.items()})
    a_s = s.algebra()

    # π₂, γ₂ and the homotopy on the normalized coordinates
    pi_images = [{h_idx.index(j): ONE} if j in h_idx else {} for j in range(v1.dim)]
    pi2 = morphism_from_generators(r2, a_s, pi_images)
    gamma2 = morphism_from_generators(s, a2, [{j: ONE} for j in h_idx])
    if pi2.map.compose(gamma2.map) != GradedMap.identity(a_s.space):
        raise CertificateError("π₂γ₂ is not the identity")

    # conjugate back through the coordinate changes; composites of the
    # morphisms checked above need no check of their own
    g = g1.compose(g2)
    ginv = g2inv.compose(g1inv)
    pi = pi2.compose(ginv)
    gamma = g.compose(gamma2)

    # the homotopy on the normalized generators, h ↦ h, v ↦ v⊗t and
    # w ↦ d(v⊗t), carried by g into A_old[t,dt]; composed with g⁻¹ it
    # starts at γπ and ends at Id
    dr = de_rham_truncation(a_old, 1)
    hot_images: List[SparseVec] = []
    for j in range(v1.dim):
        gj = g.map.column(j)
        if j in h_idx:
            hot_images.append(dr.include.map.apply(gj))
        elif j in v_idx:
            hot_images.append(dr.element(1, False, gj))
        else:
            hot_images.append(dr.algebra.d.apply(hot_images[v_idx[w_idx.index(j)]]))
    hmap = morphism_from_generators(r2, dr.algebra, hot_images,
                                    check=False).map.compose(ginv.map)
    hot = Homotopy(a_old, a_old, dr, hmap)
    if not check_homotopy(hot, gamma.compose(pi), DgAlgebraMorphism.identity(a_old)):
        raise CertificateError("the homotopy γπ ~ Id fails its check")
    return MinimalModel(r, s, pi, gamma, hot)


def _pure_h_selector(r1: QuasismoothTrunc, h_set) -> List[bool]:
    return [all(l in h_set for l in word) for word in r1.basis.words]


def _delta0(r1: QuasismoothTrunc, a1: NilpotentDgAlgebra, gpos: int) -> SparseVec:
    """The length-preserving part of d on a monomial: the v ↦ w derivation."""
    words = r1.basis.words
    return {g: c for g, c in a1.d.column(gpos).items() if len(words[g]) == len(words[gpos])}


def morphism_lift(s: QuasismoothTrunc, r: QuasismoothTrunc,
                  linear_images: List[SparseVec]
                  ) -> Optional[DgAlgebraMorphism]:
    """Staged lifting of generator images to a dg-algebra morphism S → R.

    The chain defect of the multiplicative extension is corrected one
    word-length at a time by a linear solve; each stage is guaranteed
    solvable when the relevant tower stages are acyclic small extensions,
    and None is returned honestly when a stage has no solution.
    """
    a_s = s.algebra()
    a_r = r.algebra()
    images = list(linear_images)
    # corrections start at order 2: the prescribed linear part is kept
    for k in range(2, r.order + 1):
        phi = morphism_from_generators(s, a_r, images, check=False)
        bad = [r.basis.component(add_into(phi.map.apply(a_s.d.column(i)),
                                          a_r.d.apply(phi.map.column(i)), -ONE), k)
               for i in range(s.v.dim)]
        if not any(bad):
            continue
        # unknowns: order-k corrections c_i per generator; the equations
        # are the order-k parts of the generators' defects, generator-major
        n = a_r.dim
        slots = [(i, w) for i in range(s.v.dim) for w in r.basis.of_length(k)
                 if a_r.space.degrees[w] == s.v.degrees[i]]
        d1s = s.components.get(1)
        cols: List[SparseVec] = []
        for (i, w) in slots:
            col = {i * n + t: -c for t, c in r.basis.component(a_r.d.column(w), k).items()}
            if d1s is not None:
                for i2 in range(s.v.dim):
                    c = d1s.column(i2).get(i)
                    if c:
                        add_into(col, {i2 * n + w: c})
            cols.append(col)
        sol = linalg.solve_in_span(cols, {i * n + t: -c for i, b in enumerate(bad)
                                          for t, c in b.items()})
        if sol is None:
            return None
        for posn, c in sol.items():
            i, w = slots[posn]
            # phi keeps images[i] as a column, so it is replaced, not changed
            images[i] = add_into(dict(images[i]), {w: c})
    phi = morphism_from_generators(s, a_r, images, check=False)
    if phi.violations():
        return None
    return DgAlgebraMorphism(a_s, a_r, phi.map)


@dataclass
class VersalElement:
    tensor: TensorDgla
    xi: SparseVec

    def defect(self) -> SparseVec:
        return mc_defect(self.tensor, self.xi)


def kuranishi_prorepresent(l: Dgla, order: int = 3) -> Tuple[QuasismoothTrunc, VersalElement]:
    """A minimal prorepresenting truncation for the deformation functor of L.

    Generators are dual to the tangent classes: one v_c of degree
    1 - deg(c) per harmonic class c.  ξ and d come from the transfer
    recursion (Kontsevich–Soibelman, Berglund) on L⊗R with R's products
    alone: ξ₁ = Σ x_c ⊗ v_c; at order k the ⊙^k-part of the MC defect is
    Q_k = ½Σ_{i+j=k} [ξ_i, ξ_j], d_k = p(Q_k) (sign -(-1)^{deg x_c} on
    x_c's column) and ξ_k = -σ(Q_k).  R's derivation would add (1⊗d_R)ξ,
    whose ⊙^k-part lies in σ's image, which p and σ kill (pσ = σσ = 0).
    R's derivation is built once, for the certificate: MC defect zero
    modulo order + 1, d² = 0 on the letters, and d₁ = 0.
    """
    contraction = cohomology(l.complex())
    h = contraction.harmonic_space
    v = GradedSpace([("x_" + h.names[c].replace("^", ""), 1 - h.degrees[c])
                     for c in range(h.dim)])
    # R's word basis and product index serve every order and the certificate
    r = QuasismoothTrunc(v, order, {}, check=False)
    t = tensor_dgla(l, r.algebra())
    # the word of length 1 on generator c is the c-th word
    xi = {t.pair_index(i, c): cv for c in range(h.dim)
          for i, cv in contraction.representative(c).items()}
    comps: Dict[int, GradedMap] = {}
    na = r.basis.space.dim
    for k in range(2, order + 1):
        span = r.basis.of_length(k)
        parts: Dict[int, SparseVec] = {}     # Q_k, an element of L per word
        for key, c in mc_defect(t, xi).items():
            i, w = divmod(key, na)
            if w in span:
                parts.setdefault(w, {})[i] = c
        kcols: Dict[int, SparseVec] = {}
        for w, q in sorted(parts.items()):
            for c, cc in sorted(contraction.project.apply(q).items()):
                kcols.setdefault(c, {})[w] = -cc if (1 + h.degrees[c]) % 2 else cc
            add_into(xi, {t.pair_index(i, w): cv
                          for i, cv in contraction.sigma.apply(q).items()}, -ONE)
        if kcols:
            comps[k] = GradedMap.from_columns(v, r.basis.space, 1, kcols)
    del t       # L⊗R's space is as large as this one's: one lives at a time
    r = r.with_components(comps, check=False)
    t = tensor_dgla(l, r.algebra())
    defect = mc_defect(t, xi)
    if defect:
        raise CertificateError("the Maurer-Cartan defect does not vanish at order %d"
                               % min(len(r.basis.words[key % na]) for key in defect))
    if r.square_on_letters():
        raise CertificateError("the derivation does not square to zero on the truncation")
    if not is_minimal(r):
        raise CertificateError("the prorepresenting truncation is not minimal")
    return r, VersalElement(t, xi)
