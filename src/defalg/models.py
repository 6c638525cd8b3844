"""Truncated complete quasismooth dg-algebras and their model theory.

Polynomial truncations R/R^{n+1} = ⊕_{1≤i≤n} ⊙^i V with a derivation
differential given by components d_k: V → ⊙^k V, minimality and
smoothness tests, the minimalization algorithm with explicit projection,
section and homotopy, staged lifting of morphisms through the order
tower, and the order-by-order construction of a minimal prorepresenting
algebra for the deformation functor of a DGLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .algebras import (DgAlgebraMorphism, Homotopy, NilpotentDgAlgebra,
                       SparseVec, _dense, check_homotopy, constant_homotopy,
                       de_rham_truncation)
from .dgla import Dgla, TensorDgla, mc_defect, tensor_dgla
from .graded import (Complex, Contraction, GradedMap, GradedSpace,
                     SymmetricPower, canonical_monomial, cohomology,
                     symmetric_power)
from .linalg import ONE, ZERO, CertificateError, Vector

Word = Tuple[int, ...]


class QuasismoothTrunc:
    """R/R^{n+1} for R complete quasismooth on generators V.

    ``components[k]`` is the degree +1 map V → ⊙^k V; the induced
    derivation on the monomial basis squares to zero (checked).
    """

    def __init__(self, v: GradedSpace, order: int,
                 components: Dict[int, GradedMap], check: bool = True):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.v = v
        self.order = order
        self.powers: Dict[int, SymmetricPower] = {
            k: symmetric_power(v, k) for k in range(1, order + 1)}
        self.offsets: Dict[int, int] = {}
        basis = []
        words: List[Word] = []
        for k in range(1, order + 1):
            self.offsets[k] = len(basis)
            p = self.powers[k]
            basis.extend(p.space.basis)
            words.extend(p.monomials)
        self.space = GradedSpace(basis)
        self.words: Tuple[Word, ...] = tuple(words)
        self._pos = {w: i for i, w in enumerate(words)}
        self.components: Dict[int, GradedMap] = {}
        for k, m in components.items():
            if not 1 <= k <= order:
                raise ValueError("component order outside truncation")
            if m.source != v or m.degree != 1 or \
                    m.target != self.powers[k].space:
                raise ValueError("component d_%d has wrong source/target/degree" % k)
            if m.entries:
                self.components[k] = m
        self._algebra: Optional[NilpotentDgAlgebra] = None
        if check:
            d = self.differential()
            if not d.compose(d).is_zero():
                raise ValueError("derivation does not square to zero on the truncation")

    def position(self, word: Sequence[int]) -> Optional[Tuple[int, int]]:
        if not 1 <= len(word) <= self.order:
            return None
        cm = canonical_monomial(word, self.v.degrees)
        if cm is None:
            return None
        return self._pos[cm[0]], cm[1]

    def generator_position(self, i: int) -> int:
        return i  # length-1 words come first, in generator order

    def differential(self) -> GradedMap:
        """The derivation extension of the components to the monomial basis."""
        d = GradedMap(self.space, self.space, 1)
        degs = self.v.degrees
        for pos, word in enumerate(self.words):
            acc: Dict[int, Fraction] = {}
            prefix_sign = 1
            for t, letter in enumerate(word):
                for k, m in self.components.items():
                    col = m.apply(self.v.basis_vector(letter))
                    for upos, c in enumerate(col):
                        if not c:
                            continue
                        u = self.powers[k].monomials[upos]
                        seq = word[:t] + u + word[t + 1:]
                        if len(seq) > self.order:
                            continue
                        res = self.position(seq)
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
            mult: Dict[Tuple[int, int], SparseVec] = {}
            for p, wp in enumerate(self.words):
                for q, wq in enumerate(self.words):
                    if len(wp) + len(wq) > self.order:
                        continue
                    res = self.position(wp + wq)
                    if res is None:
                        continue
                    pos, sgn = res
                    mult[(p, q)] = {pos: Fraction(sgn)}
            self._algebra = NilpotentDgAlgebra(self.space, mult,
                                               self.differential())
        return self._algebra

    def word_component(self, vec: Sequence[Fraction], k: int) -> Vector:
        """The ⊙^k-part of an element of the materialized algebra."""
        off = self.offsets[k]
        size = len(self.powers[k].monomials)
        return list(vec[off:off + size])

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
    m = GradedMap(r.space, target.space, 0)
    for pos, word in enumerate(r.words):
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
            part = shell.word_component(dv, k)
            if any(part):
                m = comps.get(k)
                if m is None:
                    m = GradedMap(new_v, shell.powers[k].space, 1)
                    comps[k] = m
                for j, c in enumerate(part):
                    if c:
                        m.set_entry(j, i, c)
    out = QuasismoothTrunc(new_v, r.order, comps)
    assert out.differential() == ginv.map.compose(a_old.d).compose(g.map), \
        "conjugated differential must be the derivation of its components"
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
        harms.extend(coh.harmonics.get(k, []))
        comps.extend(coh.complements.get(k, []))
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
        assert a1.d.apply(a1.space.basis_vector(v_idx[t])) == \
            a1.space.basis_vector(w_idx[t])
        assert linalg.is_zero_vector(a1.d.apply(a1.space.basis_vector(w_idx[t])))

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
            dk = r1.word_component(defect, k)
            if not any(dk):
                continue
            # split the order-k defect into pure-H words and a δ₀-image
            rest = a1.space.zero_vector()
            for wpos, c in enumerate(dk):
                gpos = r1.offsets[k] + wpos
                if not c:
                    continue
                if pure_h[gpos]:
                    ds_words[j][gpos] = ds_words[j].get(gpos, ZERO) + c
                else:
                    rest[gpos] += c
            if linalg.is_zero_vector(rest):
                continue
            # solve δ₀(g) = -rest with g a length-k word of matching degree
            cand = [gpos for gpos in range(r1.space.dim)
                    if len(r1.words[gpos]) == k
                    and r1.space.degrees[gpos] == v1.degrees[j]]
            cols = []
            for gpos in cand:
                cols.append(_delta0(r1, a1, gpos, v_idx, w_idx))
            sol = linalg.solve_in_span(cols, linalg.vec_scale(Fraction(-1), rest))
            assert sol is not None, "acyclic correction must be solvable"
            for posn, c in enumerate(sol):
                if c:
                    images2[j] = linalg.vec_add(
                        images2[j], linalg.vec_scale(c, a1.space.basis_vector(cand[posn])))
    r2, g2 = change_of_generators(r1, v1, images2)
    a2 = r2.algebra()

    # read off the minimal quotient S on the harmonic generators
    h_space = GradedSpace([v1.basis[j] for j in h_idx])
    s_comps: Dict[int, GradedMap] = {}
    s_shell = QuasismoothTrunc(h_space, r.order, {}, check=False) \
        if h_space.dim else None
    for k, m in r2.components.items():
        for j in h_idx:
            col = m.apply(v1.basis_vector(j))
            for wpos, c in enumerate(col):
                if not c:
                    continue
                word = r2.powers[k].monomials[wpos]
                assert all(l in h_idx for l in word), \
                    "harmonic differential must be pure-H after correction"
                res = s_shell.position(tuple(h_idx.index(l) for l in word))
                pos, sgn = res
                sm = s_comps.get(k)
                if sm is None:
                    sm = GradedMap(h_space, s_shell.powers[k].space, 1)
                    s_comps[k] = sm
                sm.set_entry(pos - s_shell.offsets[k], j,
                             sm.entries.get((pos - s_shell.offsets[k], j), ZERO)
                             + Fraction(sgn) * c)
    s = QuasismoothTrunc(h_space, r.order, s_comps) if h_space.dim else \
        QuasismoothTrunc(h_space, r.order, {}, check=False)
    a_s = s.algebra()

    # π₂, γ₂ and the homotopy on the normalized coordinates
    pi_images = []
    for j in range(v1.dim):
        if j in h_idx:
            pi_images.append(a_s.space.basis_vector(h_idx.index(j))
                             if h_space.dim else [])
        else:
            pi_images.append(a_s.space.zero_vector())
    pi2 = morphism_from_generators(r2, a_s, pi_images)
    gamma2 = morphism_from_generators(
        s, a2, [a2.space.basis_vector(j) for j in h_idx]) if h_space.dim else \
        DgAlgebraMorphism(a_s, a2, GradedMap(a_s.space, a2.space, 0), check=False)
    assert pi2.map.compose(gamma2.map) == GradedMap.identity(a_s.space) \
        or not h_space.dim

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
    out = r.space.zero_vector()
    for i, c in enumerate(v):
        if c:
            out[r.generator_position(i)] = c
    return out


def _pure_h_selector(r1: QuasismoothTrunc, h_set) -> List[bool]:
    return [all(l in h_set for l in word) for word in r1.words]


def _delta0(r1: QuasismoothTrunc, a1: NilpotentDgAlgebra, gpos: int,
            v_idx: List[int], w_idx: List[int]) -> Vector:
    """The length-preserving part of d on a monomial: the v ↦ w derivation."""
    k = len(r1.words[gpos])
    full = a1.d.apply(a1.space.basis_vector(gpos))
    out = a1.space.zero_vector()
    part = r1.word_component(full, k)
    for wpos, c in enumerate(part):
        if c:
            out[r1.offsets[k] + wpos] = c
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
            gen = a_s.space.basis_vector(s.generator_position(i))
            dft = linalg.vec_sub(phi.map.apply(a_s.d.apply(gen)),
                                 a_r.d.apply(phi.map.apply(gen)))
            defects.append(dft)
        bad = [r.word_component(d, k) for d in defects]
        if not any(any(b) for b in bad):
            continue
        # unknowns: order-k corrections c_i per generator
        slots: List[Tuple[int, int]] = []
        for i in range(s.v.dim):
            for wpos in range(len(r.powers[k].monomials) if r.v.dim else 0):
                if r.powers[k].space.degrees[wpos] == s.v.degrees[i]:
                    slots.append((i, wpos))
        d1s = s.components.get(1)
        cols: List[Vector] = []
        for (i, wpos) in slots:
            col_parts: List[Vector] = [
                [ZERO] * (len(r.powers[k].monomials) if r.v.dim else 0)
                for _ in range(s.v.dim)]
            gvec = a_r.space.zero_vector()
            gvec[r.offsets[k] + wpos] = ONE
            dg = r.word_component(a_r.d.apply(gvec), k)
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
                images[i][r.offsets[k] + wpos] += c
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

    def build() -> Tuple[QuasismoothTrunc, TensorDgla]:
        rr = QuasismoothTrunc(v, order, dict(comps), check=False)
        return rr, tensor_dgla(l, rr.algebra())

    r, t = build()
    xi = t.space.zero_vector()
    for c in range(h.dim):
        gen = r.generator_position(c)
        for i, cv in enumerate(reps[c]):
            if cv:
                xi[t.pair_index(i, gen)] += cv
    for k in range(2, order + 1):
        hvec = mc_defect(t, xi)
        # extract the ⊙^k-part: a cocycle of L per monomial
        if r.v.dim == 0:
            break
        nmon = len(r.powers[k].monomials)
        off = r.offsets[k]
        changed = False
        for wpos in range(nmon):
            hm = [hvec[t.pair_index(i, off + wpos)] for i in range(l.dim)]
            if not any(hm):
                continue
            assert linalg.is_zero_vector(l.d.apply(hm)), \
                "order defect must be a cocycle"
            cls = contraction.class_of(hm)
            for c, cc in enumerate(cls):
                if cc:
                    sgn = Fraction(-1 if (1 + h.degrees[c]) % 2 else 1)
                    m = comps.get(k)
                    if m is None:
                        m = GradedMap(v, r.powers[k].space, 1)
                        comps[k] = m
                    m.set_entry(wpos, c,
                                m.entries.get((wpos, c), ZERO) + sgn * cc)
                    changed = True
            harm_part = contraction.include.apply(cls)
            exact = linalg.vec_sub(hm, harm_part)
            svec = contraction.sigma.apply(exact)
            if any(svec):
                for i, cv in enumerate(svec):
                    if cv:
                        xi[t.pair_index(i, off + wpos)] -= cv
                changed = True
        if changed:
            # rebuild the tensor algebra with the updated differential
            xi_old = xi
            r, t = build()
            xi = list(xi_old)
        hk = mc_defect(t, xi)
        for wpos in range(len(r.powers[k].monomials)):
            for i in range(l.dim):
                assert not hk[t.pair_index(i, r.offsets[k] + wpos)], \
                    "defect must vanish at the treated order"
    r_final = QuasismoothTrunc(v, order, dict(comps))  # check d² = 0
    assert is_minimal(r_final)
    _, t_final = build()
    return r_final, VersalElement(l, r_final, t_final, xi)
