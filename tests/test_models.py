"""Quasismooth truncations, minimal models, and prorepresentability."""

import pathlib
from fractions import Fraction

import pytest

from defalg import docio, linalg
from defalg.algebras import DgAlgebraMorphism, NilpotentDgAlgebra, check_homotopy
from defalg.dgla import Dgla, def_tangent
from defalg.graded import Complex, GradedMap, GradedSpace, cohomology, \
    symmetric_power
from defalg.models import (QuasismoothTrunc, h_r_tangent, is_minimal,
                           is_smooth_minimal, kuranishi_prorepresent,
                           minimalize, morphism_from_generators, morphism_lift,
                           truncate)
from defalg.obstruction import COMPARISON_SIGN, cohomology_bracket
from conftest import make_rng, sl2, sl2_odd

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def non_minimal_trunc(order=3):
    """V = {u:0, w:1, h:1} with d(u) = w and d(h) = w·h."""
    v = GradedSpace([("u", 0), ("w", 1), ("h", 1)])
    p1 = symmetric_power(v, 1)
    p2 = symmetric_power(v, 2)
    d1 = GradedMap(v, p1.space, 1, {(1, 0): F(1)})
    d2 = GradedMap(v, p2.space, 1)
    pos, sgn = p2.index((1, 2))
    d2.set_entry(pos, 2, F(sgn))
    return QuasismoothTrunc(v, order, {1: d1, 2: d2})


def test_truncation_algebra_validates():
    r = non_minimal_trunc()
    a = r.algebra()
    rep = a.validate()
    assert rep.ok, rep.errors
    assert not is_minimal(r)
    # truncating drops the top symmetric power
    r2 = truncate(r, 2)
    assert r2.order == 2
    assert r2.algebra().validate().ok


def test_tangent_dimensions():
    r = non_minimal_trunc()
    # tangent degree i counts generators of degree 1 - i surviving in H(V, d1)
    assert h_r_tangent(r, 0) == 1
    assert h_r_tangent(r, 1) == 0
    assert h_r_tangent(r, -1) == 0


def test_minimalize():
    r = non_minimal_trunc()
    a = r.algebra()
    mm = minimalize(r)
    assert is_minimal(mm.s)
    # u and w cancel; one degree-1 generator with zero differential remains
    assert mm.s.v.dim == 1 and mm.s.v.degrees[0] == 1
    assert not mm.s.components
    assert mm.pi.map.compose(mm.gamma.map) == \
        GradedMap.identity(mm.s.algebra().space)
    assert not mm.pi.violations() and not mm.gamma.violations()
    gp = DgAlgebraMorphism(a, a, mm.gamma.map.compose(mm.pi.map))
    assert check_homotopy(mm.homotopy, gp, DgAlgebraMorphism.identity(a))
    ok, wit = is_smooth_minimal(mm.s)
    assert ok and wit is None
    # tangent dimensions are preserved by minimalization
    for i in (-1, 0, 1, 2):
        assert h_r_tangent(r, i) == h_r_tangent(mm.s, i)


def test_minimalize_idempotent():
    mm = minimalize(non_minimal_trunc())
    mm2 = minimalize(mm.s)
    assert mm2.s is mm.s
    assert mm2.pi.map == GradedMap.identity(mm.s.algebra().space)
    assert check_homotopy(mm2.homotopy, mm2.gamma, mm2.gamma)


def test_minimalize_builds_one_de_rham_algebra(monkeypatch):
    import defalg.algebras
    built = []
    real = defalg.algebras.DeRhamAlgebra.__init__

    def counting(self, a, eps):
        built.append(a)
        real(self, a, eps)

    monkeypatch.setattr(defalg.algebras.DeRhamAlgebra, "__init__", counting)
    mm = minimalize(non_minimal_trunc())
    assert len(built) == 1
    assert mm.homotopy.derham.base is mm.r.algebra()


def _pairs_fixture():
    return docio.build(docio.parse((FIXTURES / "pairs.qs").read_text(encoding="utf-8")))


def test_minimalize_builds_each_piece_once(monkeypatch):
    """On pairs.qs, minimalize builds one word-basis product index per
    generators (the input's, the normalized ones shared by both coordinate
    changes, and the harmonic ones), one derivation per truncation, and
    inverts two matrices: g⁻¹ is composed from the coordinate changes'
    inverses."""
    import defalg.models as models
    r = _pairs_fixture()
    indexes, derivations, inverted = [], [], []
    real_index, real_differential, real_invert = (models.NilpotentDgAlgebra,
                                                  QuasismoothTrunc.differential, linalg.invert)

    def index(space, *args):
        indexes.append(tuple(space.basis))
        return real_index(space, *args)

    def differential(self):
        d = real_differential(self)
        derivations.append((self, d))
        return d
    monkeypatch.setattr(models, "NilpotentDgAlgebra", index)
    monkeypatch.setattr(QuasismoothTrunc, "differential", differential)
    monkeypatch.setattr(linalg, "invert", lambda m: inverted.append(m) or real_invert(m))
    mm = minimalize(r)
    monkeypatch.undo()
    assert len(indexes) == len(set(indexes)) == 3
    assert indexes[0] == tuple(r.basis.space.basis)
    assert indexes[-1] == tuple(mm.s.basis.space.basis)
    # every read of a truncation's derivation returns the one map built
    # for it (the truncations are kept alive, so their ids are distinct)
    built = {}
    for t, d in derivations:
        assert built.setdefault(id(t), d) is d
    assert len(derivations) > len(built)
    assert len(inverted) == 2
    # the composed inverse is g⁻¹: π∘γ = Id and γ∘π ~ Id are checked on it
    assert mm.pi.map.compose(mm.gamma.map) == GradedMap.identity(mm.s.algebra().space)
    a = r.algebra()
    gp = DgAlgebraMorphism(a, a, mm.gamma.map.compose(mm.pi.map))
    assert check_homotopy(mm.homotopy, gp, DgAlgebraMorphism.identity(a))


# an acyclic pair (u, w) beside harmonic generators h0, h1 whose
# differential keeps the pure-H word h0·h1: the harmonic correction of
# minimalize reads that word's image
MIXED_QS = """kind: quasismooth
basis:
  u 0
  w 1
  h0 1
  h1 1
order: 3
d:
  1 | u -> 1 w
  2 | h0 -> 1 h0*h1 + 1 w*h0
  3 | h1 -> 1 u*w*h1 + 2 u*w*h0
"""
MIXED_MINIMAL = """kind: quasismooth
basis:
  h0 1
  h1 1
order: 3
d:
  2 | h0 -> 1 h0*h1
"""


@pytest.mark.parametrize("text, loop_words", [
    ((FIXTURES / "pairs.qs").read_text(encoding="utf-8"), 0), (MIXED_QS, 1)])
def test_minimalize_builds_only_the_word_images_it_reads(monkeypatch, text, loop_words):
    """The harmonic correction substitutes the images at the start of each
    order into the pure-H words read so far, and builds only those images
    (with their prefixes), not a morphism over every word: minimalize
    calls ``morphism_from_generators`` five times whatever the order (two
    coordinate changes, π₂, γ₂ and the homotopy).  Every image the
    correction reads equals the left-to-right product of its letters'
    images, and the minimal model is the expected one (pairs.qs: its
    golden output in test_cli)."""
    import defalg.models as models
    r = docio.build(docio.parse(text))
    real_mfg, real_images = models.morphism_from_generators, models._word_images
    depth, calls, reads = [0], [], []

    def counted(*args, **kwargs):
        calls.append(1)
        depth[0] += 1
        try:
            return real_mfg(*args, **kwargs)
        finally:
            depth[0] -= 1

    def recorded(target, images):
        image, mine = real_images(target, images), not depth[0]

        def read(word):
            vec = image(word)
            if mine:
                reads.append((target, images, word, vec))
            return vec
        return read
    monkeypatch.setattr(models, "morphism_from_generators", counted)
    monkeypatch.setattr(models, "_word_images", recorded)
    mm = minimalize(r)
    monkeypatch.undo()
    assert len(calls) == 5
    assert len(reads) == loop_words < len(r.basis.words)
    for target, images, word, vec in reads:
        want = images[word[0]]
        for letter in word[1:]:
            want = target.product(want, images[letter])
        assert vec == want, word
    if text == MIXED_QS:
        assert docio.print_document(docio.document_of_quasismooth(mm.s)) == MIXED_MINIMAL


def test_morphism_from_generators_forms_one_product_per_word(monkeypatch):
    # each generator goes to itself plus the first word of length 2 of its
    # degree; every word's image is the left-to-right product of its
    # letters' images, formed from its prefix's image with one product
    r = _pairs_fixture()
    a = r.algebra()
    images = []
    for i, deg in enumerate(r.v.degrees):
        v = a.space.basis_vector(i)
        pos = next(p for p, w in enumerate(r.basis.words)
                   if len(w) == 2 and a.space.degrees[p] == deg)
        v[pos] += F(-3, 2)
        images.append(v)
    real = NilpotentDgAlgebra.product
    calls = []
    monkeypatch.setattr(NilpotentDgAlgebra, "product",
                        lambda self, u, v: calls.append(1) or real(self, u, v))
    f = morphism_from_generators(r, a, images, check=False)
    monkeypatch.undo()
    # 7 words of length 2 and 8 of length 3: 15 products, where a fold over
    # each word's letters forms 7 + 2·8 = 23
    assert len(calls) == sum(1 for w in r.basis.words if len(w) >= 2) == 15
    for pos, word in enumerate(r.basis.words):
        vec = images[word[0]]
        for letter in word[1:]:
            vec = a.product(vec, images[letter])
        assert f.map.column(pos) == vec, word


def test_morphism_lift_of_section():
    r = non_minimal_trunc()
    mm = minimalize(r)
    lift = morphism_lift(mm.s, r,
                         [mm.gamma.map.column(i) for i in range(mm.s.v.dim)])
    assert lift is not None and not lift.violations()
    # composing back with pi is the identity on the linear part
    comp = mm.pi.map.compose(lift.map)
    for i in range(mm.s.v.dim):
        assert comp.column(i) == \
            mm.s.algebra().space.basis_vector(i)


def test_morphism_lift_honest_failure():
    # S has one closed degree-1 generator; in R the candidate image z has
    # d(z) = q, so no multiplicative chain map extends the assignment
    vs = GradedSpace([("s1", 1)])
    s = QuasismoothTrunc(vs, 2, {})
    vt = GradedSpace([("z", 1), ("q", 2)])
    p1 = symmetric_power(vt, 1)
    d1 = GradedMap(vt, p1.space, 1, {(1, 0): F(1)})
    r = QuasismoothTrunc(vt, 2, {1: d1})
    bad = morphism_lift(s, r, [r.algebra().space.basis_vector(0)])
    assert bad is None


def test_kuranishi_sl2():
    l = sl2()
    rk, ve = kuranishi_prorepresent(l, order=3)
    assert is_minimal(rk)
    assert rk.v.dim == 3 and all(d == 1 for d in rk.v.degrees)
    # the versal element satisfies Maurer-Cartan through the captured order
    dft = ve.defect()
    assert linalg.is_zero_vector(dft)
    # quadratic differential only, of full rank
    d2 = rk.components.get(2)
    assert d2 is not None and 3 not in rk.components
    assert d2.rank() == 3
    ok, wit = is_smooth_minimal(rk)
    assert not ok and wit["order"] == 2


def test_kuranishi_sl2_quadratic_part_is_dual_bracket():
    # d₂ encodes the tangent-space bracket: the coefficient of x_a x_b in
    # d(x_c) matches the structure constant [t_a, t_b]^c up to one global sign
    l = sl2()
    rk, _ = kuranishi_prorepresent(l, order=3)
    cb = cohomology_bracket(l)
    d2 = rk.components[2]
    p2 = rk.basis.powers[2]
    sign = None
    for c in range(3):
        for pos, (a, b) in enumerate(p2.monomials):
            got = d2.entries.get((pos, c), F(0))
            want = cb.table_entry(a, b)[c]
            if a == b:
                want = want / 2          # x_a x_a appears once in ½[ξ,ξ]
            if want:
                if sign is None:
                    sign = got / want
                assert got == sign * want
            else:
                assert not got
    assert sign in (F(1), F(-1))


def test_kuranishi_abelian_is_smooth():
    space = GradedSpace([("a0", 0), ("a1", 1)])
    d = GradedMap(space, space, 1, {(1, 0): F(1)})
    ab = Dgla(space, {}, d, nilpotency_class=1)
    rk, ve = kuranishi_prorepresent(ab, order=3)
    assert rk.v.dim == 0 or not rk.components
    assert is_smooth_minimal(rk)[0]
    assert linalg.is_zero_vector(ve.defect())


def test_kuranishi_mixed_degrees():
    l = sl2_odd()
    rk, ve = kuranishi_prorepresent(l, order=3)
    assert is_minimal(rk)
    # one generator per cohomology class, with dual degree
    coh = def_tangent(l)
    want = sorted(1 - d for d in coh.harmonic_space.degrees)
    assert sorted(rk.v.degrees) == want
    assert linalg.is_zero_vector(ve.defect())
    # tangent dimensions of the model match the DGLA cohomology
    for i in (-1, 0, 1, 2):
        assert h_r_tangent(rk, i) == coh.dims().get(i, 0)


def test_prorepresent_builds_one_product_table(monkeypatch):
    # R's product table depends on (V, n) alone: every order shares it and
    # rebuilds only d
    import defalg.algebras
    l = sl2_odd()
    built = []
    real = defalg.algebras._structure_constants

    def counting(space, table, wrong_degree):
        built.append(space)
        return real(space, table, wrong_degree)

    monkeypatch.setattr(defalg.algebras, "_structure_constants", counting)
    rk, ve = kuranishi_prorepresent(l, order=4)
    assert len(built) == 1 and built[0] == rk.algebra().space
    assert ve.tensor.a is rk.algebra()
    assert linalg.is_zero_vector(ve.defect())


def test_with_components_shares_the_product_table():
    r = non_minimal_trunc()
    shell = QuasismoothTrunc(r.v, r.order, {}, check=False)
    a0 = shell.algebra()
    moved = shell.with_components(r.components)
    a = moved.algebra()
    assert a._left is a0._left and "table" not in vars(a)
    assert a.d == r.differential() and a0.d.is_zero()
    assert moved.basis is shell.basis and not shell.components


def test_prorepresent_never_builds_the_table_view_of_r(monkeypatch):
    # R is read only through its integer index: no order of the run reads
    # the Fraction constants of R's algebra, whose view stays unbuilt
    import defalg.algebras
    read = []
    real = defalg.algebras.BilinearStructure.constants

    def recording(self):
        read.append(self.space)
        return real(self)

    monkeypatch.setattr(defalg.algebras.BilinearStructure, "constants", recording)
    rk, ve = kuranishi_prorepresent(sl2_odd(), order=8)
    assert rk.algebra().space not in read and "table" not in vars(rk.algebra())
    assert linalg.is_zero_vector(ve.defect())
