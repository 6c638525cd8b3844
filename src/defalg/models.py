"""Truncated complete quasismooth dg-algebras and their model theory.

Polynomial truncations R/R^{n+1} = ⊕_{1≤i≤n} ⊙^i V with a derivation
differential given by components d_k: V → ⊙^k V, minimality and
smoothness tests, the minimalization algorithm with explicit projection,
section and homotopy, staged lifting of morphisms through the order
tower, and the order-by-order construction of a minimal prorepresenting
algebra for the deformation functor of a DGLA.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import linalg
from .algebras import (DgAlgebraMorphism, Homotopy, NilpotentDgAlgebra, _dense,
                       check_homotopy, constant_homotopy, de_rham_truncation)
from .dgla import Dgla, TensorDgla, mc_defect, tensor_dgla
from .graded import (Complex, Contraction, GradedMap, GradedSpace, WordBasis,
                     cohomology)
from .linalg import ONE, ZERO, CertificateError, Vector

Word = Tuple[int, ...]


class QuasismoothTrunc:
    """R/R^{n+1} for R complete quasismooth on generators V.

    ``basis`` holds the words of ⊕_{1≤k≤n} ⊙^k V; ``components[k]`` is the
    degree +1 map V → ⊙^k V, and the induced derivation on the words
    squares to zero (checked).  The products depend on (V, n) alone: a
    truncation made by ``with_components`` shares the word basis and, once
    built, the algebra's integer index with the one it was made from.
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
            if m.source != self.v or m.degree != 1 or \
                    m.target != self.basis.powers[k].space:
                raise ValueError("component d_%d has wrong source/target/degree" % k)
            if m.entries:
                self.components[k] = m
        self._algebra: Optional[NilpotentDgAlgebra] = None
        if check:
            d = self.differential()
            if not d.compose(d).is_zero():
                raise ValueError("derivation does not square to zero on the truncation")

    def differential(self) -> GradedMap:
        """The derivation extension of the components to the words."""
        b = self.basis
        d = GradedMap(b.space, b.space, 1)
        degs = self.v.degrees
        # images[letter]: the words u of d(letter), with their coefficients
        images: List[List[Tuple[Word, Fraction]]] = [[] for _ in range(self.v.dim)]
        for k, m in self.components.items():
            for letter, col in enumerate(m.columns()):
                images[letter].extend((b.powers[k].monomials[upos], c)
                                      for upos, c in sorted(col.items()))
        for pos, word in enumerate(b.words):
            acc: Dict[int, Fraction] = {}
            prefix_sign = 1
            for t, letter in enumerate(word):
                for u, c in images[letter]:
                    seq = word[:t] + u + word[t + 1:]
                    if len(seq) > self.order:
                        continue
                    res = b.position(seq)
                    if res is None:
                        continue
                    npos, sgn = res
                    acc[npos] = acc.get(npos, ZERO) + \
                        Fraction(prefix_sign * sgn) * c
                if degs[letter] % 2:
                    prefix_sign = -prefix_sign
            for npos, c in acc.items():
                if c:
                    d.set_entry(npos, pos, c)
        return d

    def algebra(self) -> NilpotentDgAlgebra:
        if self._algebra is None:
            if self._products is None:
                b = self.basis
                # the words of length <= order - len(wp) come first; each
                # product is ±1 times one word, handed over as it is formed
                products = (((p, q), {res[0]: res[1]})
                            for p, wp in enumerate(b.words)
                            for q in range(b.offsets[self.order + 1 - len(wp)])
                            for res in [b.position(wp + b.words[q])] if res is not None)
                self._products = NilpotentDgAlgebra(b.space, products,
                                                    GradedMap(b.space, b.space, 1))
            self._algebra = self._products.with_differential(self.differential())
        return self._algebra

    def __repr__(self):
        return "QuasismoothTrunc(gen=%d, order=%d)" % (self.v.dim, self.order)


def is_minimal(r: QuasismoothTrunc) -> bool:
    return 1 not in r.components


def truncate(r: QuasismoothTrunc, order: int) -> QuasismoothTrunc:
    comps = {}
    for k, m in r.components.items():
        if k <= order:
            comps[k] = m
    return QuasismoothTrunc(r.v, order, comps, check=False)


def h_r_tangent(r: QuasismoothTrunc, i: int) -> int:
    """Tangent dimension in degree i: H^{i-1} of the dual of (V, d₁)."""
    d1 = r.components.get(1)
    dual = r.v.dual()
    entries = {} if d1 is None else \
        {(ii, jj): c for (jj, ii), c in d1.entries.items()}
    dt = GradedMap(dual, dual, 1, entries)
    coh = cohomology(Complex(dual, dt, check=False))
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
    gen = next(i for i in range(r.v.dim)
               if any(m.entries.get((j, i)) for j in range(m.target.dim)))
    return False, {"order": k, "generator": r.v.names[gen],
                   "component": m}


def morphism_from_generators(r: QuasismoothTrunc, target: NilpotentDgAlgebra,
                             images: List[Vector], check: bool = True
                             ) -> DgAlgebraMorphism:
    """The multiplicative extension of generator images to the monomials."""
    m = GradedMap(r.basis.space, target.space, 0)
    for pos, word in enumerate(r.basis.words):
        vec = images[word[0]]
        for letter in word[1:]:
            vec = target.product(vec, images[letter])
        for j, c in enumerate(vec):
            if c:
                m.set_entry(j, pos, c)
    return DgAlgebraMorphism(r.algebra(), target, m, check=check)


def invert_morphism(f: DgAlgebraMorphism) -> DgAlgebraMorphism:
    inv = linalg.invert(f.map.matrix())
    m = GradedMap(f.target.space, f.source.space, 0)
    for j in range(f.source.dim):
        for i in range(f.target.dim):
            if inv[j][i]:
                m.set_entry(j, i, inv[j][i])
    return DgAlgebraMorphism(f.target, f.source, m, check=False)


def change_of_generators(r: QuasismoothTrunc, new_v: GradedSpace,
                         images: List[Vector]
                         ) -> Tuple[QuasismoothTrunc, DgAlgebraMorphism]:
    """Re-present R on new generators given by elements of its algebra.

    The images must be degree-matching elements whose multiplicative
    extension is an isomorphism of the truncation (filtration-preserving
    changes of coordinates).  Returns the new presentation and the
    isomorphism G: new → old intertwining the differentials.
    """
    shell = QuasismoothTrunc(new_v, r.order, {}, check=False)
    a_old = r.algebra()
    g = morphism_from_generators(shell, a_old, images, check=False)
    ginv = invert_morphism(g)
    comps: Dict[int, GradedMap] = {}
    for i in range(new_v.dim):
        dv = ginv.map.apply(a_old.d.apply(images[i]))
        for k in range(1, r.order + 1):
            part = shell.basis.component(dv, k)
            if any(part):
                m = comps.get(k)
                if m is None:
                    m = GradedMap(new_v, shell.basis.powers[k].space, 1)
                    comps[k] = m
                for j, c in enumerate(part):
                    if c:
                        m.set_entry(j, i, c)
    out = shell.with_components(comps)
    if out.differential() != ginv.map.compose(a_old.d).compose(g.map):
        raise CertificateError("the conjugated differential is not the derivation "
                               "of its components")
    gmor = DgAlgebraMorphism(out.algebra(), a_old, g.map)
    return out, gmor


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
    checked exactly at ε = 1.
    """
    if is_minimal(r):
        ident = DgAlgebraMorphism.identity(r.algebra())
        return MinimalModel(r, r, ident, ident, constant_homotopy(ident))
    d1 = r.components.get(1, GradedMap(r.v, r.v, 1))
    coh = cohomology(Complex(r.v, d1, check=False))
    a_old = r.algebra()

    # new linear coordinates: harmonic h_j, complements v_i, then w_i = d(v_i)
    harms: List[Vector] = []
    comps: List[Vector] = []
    for k in sorted(set(r.v.degrees)):
        harms.extend(coh.split(k).harmonics)
        comps.extend(coh.split(k).complements)
    basis1 = []
    images1: List[Vector] = []
    for t, h in enumerate(harms):
        basis1.append(("h%d" % t, r.v.vector_degree(h)))
        images1.append(_embed_linear(r, h))
    for t, v in enumerate(comps):
        basis1.append(("v%d" % t, r.v.vector_degree(v)))
        images1.append(_embed_linear(r, v))
    for t, v in enumerate(comps):
        basis1.append(("w%d" % t, r.v.vector_degree(v) + 1))
        images1.append(a_old.d.apply(_embed_linear(r, v)))
    v1 = GradedSpace(basis1)
    r1, g1 = change_of_generators(r, v1, images1)

    nh, nw = len(harms), len(comps)
    h_idx = list(range(nh))
    v_idx = list(range(nh, nh + nw))
    w_idx = list(range(nh + nw, nh + 2 * nw))
    a1 = r1.algebra()
    # sanity: d(v_i) = w_i, d(w_i) = 0, d(h_j) has no length-1 part
    for t in range(nw):
        if a1.d.apply(a1.space.basis_vector(v_idx[t])) != a1.space.basis_vector(w_idx[t]) \
                or not linalg.is_zero_vector(a1.d.apply(a1.space.basis_vector(w_idx[t]))):
            raise CertificateError("the new coordinates do not satisfy d(v) = w, d(w) = 0")

    # correct the harmonic generators so their differential is pure-H
    pure_h = _pure_h_selector(r1, set(h_idx))
    images2: List[Vector] = [a1.space.basis_vector(i) for i in range(v1.dim)]
    ds_words: Dict[int, Dict[int, Fraction]] = {j: {} for j in h_idx}
    for k in range(2, r.order + 1):
        # substitution of current images into the pure-H words so far
        subst = morphism_from_generators(r1, a1,
                                         images2, check=False).map
        for j in h_idx:
            cur = a1.d.apply(images2[j])
            gamma_img = a1.space.zero_vector()
            for wpos, c in ds_words[j].items():
                gamma_img = linalg.vec_add(gamma_img,
                                           linalg.vec_scale(c, subst.apply(
                                               a1.space.basis_vector(wpos))))
            defect = linalg.vec_sub(cur, gamma_img)
            dk = r1.basis.component(defect, k)
            if not any(dk):
                continue
            # split the order-k defect into pure-H words and a δ₀-image
            rest = a1.space.zero_vector()
            for wpos, c in enumerate(dk):
                gpos = r1.basis.offsets[k] + wpos
                if not c:
                    continue
                if pure_h[gpos]:
                    ds_words[j][gpos] = ds_words[j].get(gpos, ZERO) + c
                else:
                    rest[gpos] += c
            if linalg.is_zero_vector(rest):
                continue
            # solve δ₀(g) = -rest with g a length-k word of matching degree
            cand = [gpos for gpos in range(a1.dim)
                    if len(r1.basis.words[gpos]) == k
                    and a1.space.degrees[gpos] == v1.degrees[j]]
            cols = []
            for gpos in cand:
                cols.append(_delta0(r1, a1, gpos, v_idx, w_idx))
            sol = linalg.solve_in_span(cols, linalg.vec_scale(Fraction(-1), rest))
            if sol is None:
                raise CertificateError("the acyclic correction has no solution")
            for posn, c in enumerate(sol):
                if c:
                    images2[j] = linalg.vec_add(
                        images2[j], linalg.vec_scale(c, a1.space.basis_vector(cand[posn])))
    r2, g2 = change_of_generators(r1, v1, images2)
    a2 = r2.algebra()

    # read off the minimal quotient S on the harmonic generators
    h_space = GradedSpace([v1.basis[j] for j in h_idx])
    s_comps: Dict[int, GradedMap] = {}
    s_shell = QuasismoothTrunc(h_space, r.order, {}, check=False)
    for k, m in r2.components.items():
        for j in h_idx:
            col = m.apply(v1.basis_vector(j))
            for wpos, c in enumerate(col):
                if not c:
                    continue
                word = r2.basis.powers[k].monomials[wpos]
                if not all(l in h_idx for l in word):
                    raise CertificateError("the harmonic differential is not pure-H "
                                           "after correction")
                pos, sgn = s_shell.basis.powers[k].index(
                    tuple(h_idx.index(l) for l in word))
                sm = s_comps.get(k)
                if sm is None:
                    sm = GradedMap(h_space, s_shell.basis.powers[k].space, 1)
                    s_comps[k] = sm
                sm.set_entry(pos, j, sm.entries.get((pos, j), ZERO) + Fraction(sgn) * c)
    s = s_shell.with_components(s_comps)
    a_s = s.algebra()

    # π₂, γ₂ and the homotopy on the normalized coordinates
    pi_images = []
    for j in range(v1.dim):
        pi_images.append(a_s.space.basis_vector(h_idx.index(j)) if j in h_idx
                         else a_s.space.zero_vector())
    pi2 = morphism_from_generators(r2, a_s, pi_images)
    gamma2 = morphism_from_generators(s, a2, [a2.space.basis_vector(j) for j in h_idx])
    if pi2.map.compose(gamma2.map) != GradedMap.identity(a_s.space):
        raise CertificateError("π₂γ₂ is not the identity")

    # conjugate back through the coordinate changes; composites of the
    # morphisms checked above need no check of their own
    g = g1.compose(g2)
    ginv = invert_morphism(g)
    pi = pi2.compose(ginv)
    gamma = g.compose(gamma2)

    # the homotopy on the normalized generators, h ↦ h, v ↦ v⊗t and
    # w ↦ d(v⊗t), carried by g into A_old[t,dt]; composed with g⁻¹ it
    # starts at γπ and ends at Id
    dr = de_rham_truncation(a_old, 1)
    hot_images: List[Vector] = []
    for j in range(v1.dim):
        gj = g.map.column(j)
        if j in h_idx:
            hot_images.append(dr.include.map.apply(gj))
        elif j in v_idx:
            hot_images.append(_dense(dr.element(1, False, gj), dr.algebra.dim))
        else:
            hot_images.append(dr.algebra.d.apply(hot_images[v_idx[w_idx.index(j)]]))
    hmap = morphism_from_generators(r2, dr.algebra, hot_images,
                                    check=False).map.compose(ginv.map)
    hot = Homotopy(a_old, a_old, dr, hmap)
    if not check_homotopy(hot, gamma.compose(pi), DgAlgebraMorphism.identity(a_old)):
        raise CertificateError("the homotopy γπ ~ Id fails its check")
    return MinimalModel(r, s, pi, gamma, hot)


def _embed_linear(r: QuasismoothTrunc, v: Vector) -> Vector:
    out = r.basis.space.zero_vector()
    out[:len(v)] = v  # the words of length 1 come first, in generator order
    return out


def _pure_h_selector(r1: QuasismoothTrunc, h_set) -> List[bool]:
    return [all(l in h_set for l in word) for word in r1.basis.words]


def _delta0(r1: QuasismoothTrunc, a1: NilpotentDgAlgebra, gpos: int,
            v_idx: List[int], w_idx: List[int]) -> Vector:
    """The length-preserving part of d on a monomial: the v ↦ w derivation."""
    k = len(r1.basis.words[gpos])
    full = a1.d.apply(a1.space.basis_vector(gpos))
    out = a1.space.zero_vector()
    part = r1.basis.component(full, k)
    for wpos, c in enumerate(part):
        if c:
            out[r1.basis.offsets[k] + wpos] = c
    return out


def morphism_lift(s: QuasismoothTrunc, r: QuasismoothTrunc,
                  linear_images: List[Vector]
                  ) -> Optional[DgAlgebraMorphism]:
    """Staged lifting of generator images to a dg-algebra morphism S → R.

    The chain defect of the multiplicative extension is corrected one
    word-length at a time by a linear solve; each stage is guaranteed
    solvable when the relevant tower stages are acyclic small extensions,
    and None is returned honestly when a stage has no solution.
    """
    a_s = s.algebra()
    a_r = r.algebra()
    images = [list(v) for v in linear_images]
    # corrections start at order 2: the prescribed linear part is kept
    for k in range(2, r.order + 1):
        phi = morphism_from_generators(s, a_r, images, check=False)
        defects = []
        for i in range(s.v.dim):
            gen = a_s.space.basis_vector(i)
            dft = linalg.vec_sub(phi.map.apply(a_s.d.apply(gen)),
                                 a_r.d.apply(phi.map.apply(gen)))
            defects.append(dft)
        bad = [r.basis.component(d, k) for d in defects]
        if not any(any(b) for b in bad):
            continue
        # unknowns: order-k corrections c_i per generator
        slots: List[Tuple[int, int]] = []
        for i in range(s.v.dim):
            for wpos in range(len(r.basis.powers[k].monomials) if r.v.dim else 0):
                if r.basis.powers[k].space.degrees[wpos] == s.v.degrees[i]:
                    slots.append((i, wpos))
        d1s = s.components.get(1)
        cols: List[Vector] = []
        for (i, wpos) in slots:
            col_parts: List[Vector] = [
                [ZERO] * (len(r.basis.powers[k].monomials) if r.v.dim else 0)
                for _ in range(s.v.dim)]
            gvec = a_r.space.zero_vector()
            gvec[r.basis.offsets[k] + wpos] = ONE
            dg = r.basis.component(a_r.d.apply(gvec), k)
            for t, c in enumerate(dg):
                col_parts[i][t] -= c
            if d1s is not None:
                for i2 in range(s.v.dim):
                    c = d1s.entries.get((i, i2))
                    if c:
                        col_parts[i2][wpos] += c
            cols.append([c for part in col_parts for c in part])
        target = [ZERO - c for b in bad for c in b]
        sol = linalg.solve_in_span(cols, target)
        if sol is None:
            return None
        for posn, c in enumerate(sol):
            if c:
                i, wpos = slots[posn]
                images[i][r.basis.offsets[k] + wpos] += c
    phi = morphism_from_generators(s, a_r, images, check=False)
    if phi.violations():
        return None
    return DgAlgebraMorphism(a_s, a_r, phi.map)


@dataclass
class VersalElement:
    l: Dgla
    base: QuasismoothTrunc
    tensor: TensorDgla
    xi: Vector

    def defect(self) -> Vector:
        return mc_defect(self.tensor, self.xi)


def kuranishi_prorepresent(l: Dgla, contraction: Optional[Contraction] = None,
                           order: int = 3) -> Tuple[QuasismoothTrunc, VersalElement]:
    """A minimal prorepresenting truncation for the deformation functor of L.

    Generators are dual to the tangent classes: one v_c of degree
    1 - deg(c) per harmonic class c.  Starting from the tautological
    element ξ₂ = Σ x_c ⊗ v_c, each order's Maurer-Cartan defect is split
    by the contraction: its harmonic part dictates the next differential
    component (with sign -(-1)^{deg x_c}) and its exact part is absorbed
    into ξ through the homotopy σ.  The result has d₁ = 0, d² = 0 on the
    truncation, and MC defect zero modulo order + 1.
    """
    if contraction is None:
        contraction = cohomology(l.complex())
    h = contraction.harmonic_space
    reps = [contraction.representative(c) for c in range(h.dim)]
    v = GradedSpace([("x_" + h.names[c].replace("^", ""), 1 - h.degrees[c])
                     for c in range(h.dim)])
    comps: Dict[int, GradedMap] = {}
    # one word basis and one product table serve every order: an order
    # that changes d rebuilds only d and the differential of L⊗R
    r = QuasismoothTrunc(v, order, {}, check=False)
    t = tensor_dgla(l, r.algebra())
    xi = t.space.zero_vector()
    for c in range(h.dim):
        for i, cv in enumerate(reps[c]):
            if cv:
                xi[t.pair_index(i, c)] += cv  # the word of length 1 on generator c
    hvec = mc_defect(t, xi)
    for k in range(2, order + 1):
        # extract the ⊙^k-part: a cocycle of L per monomial
        nmon = len(r.basis.powers[k].monomials)
        off = r.basis.offsets[k]
        changed = False     # whether d changed; ξ needs no rebuild
        for wpos in range(nmon):
            hm = [hvec[t.pair_index(i, off + wpos)] for i in range(l.dim)]
            if not any(hm):
                continue
            if not linalg.is_zero_vector(l.d.apply(hm)):
                raise CertificateError("the order-%d defect is not a cocycle" % k)
            cls = contraction.class_of(hm)
            for c, cc in enumerate(cls):
                if cc:
                    sgn = Fraction(-1 if (1 + h.degrees[c]) % 2 else 1)
                    m = comps.get(k)
                    if m is None:
                        m = GradedMap(v, r.basis.powers[k].space, 1)
                        comps[k] = m
                    m.set_entry(wpos, c,
                                m.entries.get((wpos, c), ZERO) + sgn * cc)
                    changed = True
            harm_part = contraction.include.apply(cls)
            exact = linalg.vec_sub(hm, harm_part)
            svec = contraction.sigma.apply(exact)
            for i, cv in enumerate(svec):
                if cv:
                    xi[t.pair_index(i, off + wpos)] -= cv
        if changed:
            r = r.with_components(comps, check=False)
            t = tensor_dgla(l, r.algebra())
        # the defect the next order starts from vanishes at this one
        hvec = mc_defect(t, xi)
        if any(hvec[t.pair_index(i, off + wpos)]
               for wpos in range(nmon) for i in range(l.dim)):
            raise CertificateError("the Maurer-Cartan defect does not vanish "
                                   "at order %d" % k)
    d = r.algebra().d
    if not d.compose(d).is_zero():
        raise CertificateError("the derivation does not square to zero on the truncation")
    if not is_minimal(r):
        raise CertificateError("the prorepresenting truncation is not minimal")
    return r, VersalElement(l, r, t, xi)
