"""Quasismooth truncations, minimal models, and prorepresentability."""

import pathlib
from fractions import Fraction

import pytest

from defalg import docio, linalg
from defalg.algebras import (DgAlgebraMorphism, NilpotentDgAlgebra, check_homotopy,
                             de_rham_truncation)
from defalg.dgla import Dgla, def_tangent
from defalg.linfty import dgla_to_linfty
from defalg.graded import Complex, GradedMap, GradedSpace, cohomology
from defalg.models import (QuasismoothTrunc, h_r_tangent, is_minimal,
                           is_smooth_minimal, kuranishi_prorepresent,
                           minimalize, morphism_from_generators, morphism_lift)
from defalg.obstruction import cohomology_bracket
from conftest import (direct_sum_dgla, entries, heisenberg, heisenberg_cochains,
                      koszul_truncation, make_rng, pairs_truncation, plain_names,
                      random_abelian_dgla, random_dgla, random_invertible_degree0,
                      random_pair_truncation, reference_differential, reference_prorepresent,
                      reference_truncation_rows, sl2, sl2_heisenberg, sl2_heisenberg_unital,
                      sl2_odd, tensor_as_dgla, transported, truncate)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"
SL2_HEIS = FIXTURES / "sl2_heis.dgla"
SL2_HEIS_UNITAL = pathlib.Path(__file__).resolve().parent / "golden" / "inputs" / \
    "sl2_heis_unital.dgla"


def _read_dgla(path):
    return docio.build(docio.parse(path.read_text(encoding="utf-8")))


def non_minimal_trunc(order=3):
    """V = {u:0, w:1, h:1} with d(u) = w and d(h) = w·h."""
    shell = QuasismoothTrunc(GradedSpace([("u", 0), ("w", 1), ("h", 1)]), order, {},
                             check=False)
    v, b = shell.v, shell.basis
    d1 = GradedMap(v, b.space, 1, {(1, 0): F(1)})
    d2 = GradedMap(v, b.space, 1)
    pos, sgn = b.position((1, 2))
    d2.set_entry(pos, 2, F(sgn))
    return shell.with_components({1: d1, 2: d2})


def random_truncation(rng, density):
    """A truncation on 1-4 letters of degrees -1..2 and of order 1-4, with
    components of every length: each admissible entry is present with
    probability ``density``, and d² = 0 is not imposed."""
    v = GradedSpace([("x%d" % i, rng.choice([-1, 0, 1, 2])) for i in range(rng.randint(1, 4))])
    shell = QuasismoothTrunc(v, rng.randint(1, 4), {}, check=False)
    b = shell.basis
    comps = {}
    for k in range(1, shell.order + 1):
        comps[k] = GradedMap(v, b.space, 1, {
            (j, i): F(rng.randint(-2, 2), rng.randint(1, 3))
            for i in range(v.dim) for j in b.of_length(k)
            if b.space.degrees[j] == v.degrees[i] + 1 and rng.random() < density})
    return shell.with_components(comps, check=False)


def perturbed_bracket(rng, l):
    """l with one bracket constant [e_i, e_j] moved, and [e_j, e_i] with it
    by graded antisymmetry, so that Jacobi may fail."""
    deg = l.space.degrees
    slots = [(i, j, t) for i in range(l.dim) for j in range(i, l.dim) for t in range(l.dim)
             if deg[t] == deg[i] + deg[j] and (i < j or deg[i] % 2)]
    if not slots:
        return l
    i, j, t = rng.choice(slots)
    table = {(a, b): dict(row) for a, b, row in l.constants()}
    c = rng.choice([-1, 1, F(1, 2)])
    for a, b, x in {(i, j, c), (j, i, -c if deg[i] * deg[j] % 2 == 0 else c)}:
        row = table.setdefault((a, b), {})
        row[t] = row.get(t, F(0)) + x
        if not row[t]:
            del row[t]
    return Dgla(l.space, {ab: row for ab, row in table.items() if row}, l.d)


def test_square_on_letters_is_the_letter_columns_of_d_squared():
    """d² is a derivation, so its letter columns decide whether it vanishes:
    square_on_letters() has the nonzero letter columns of d∘d, and it is
    empty exactly when d∘d vanishes on every word."""
    rng = make_rng(6)
    truncs = [random_truncation(rng, 1.0) for _ in range(150)]
    # Jacobi's defect has arity 3, so the CE truncations have order 3 or 4
    truncs += [dgla_to_linfty(perturbed_bracket(rng, random_dgla(rng, max_dim=4)),
                              rng.randint(3, 4)).ce for _ in range(30)]
    failing = []
    for r in truncs:
        d = r.differential()
        dd = d.compose(d)
        got = r.square_on_letters()
        assert got == {t: dd.column(t) for t in range(r.v.dim) if dd.column(t)}
        assert (not got) == dd.is_zero()
        if got:
            failing.append(r)
            with pytest.raises(ValueError, match="does not square to zero"):
                r.with_components(r.components)
        else:
            r.with_components(r.components)
    assert len(failing) >= 40 and len(truncs) - len(failing) >= 40
    assert sum(r in truncs[150:] for r in failing) >= 10


def test_differential_matches_the_sorted_spliced_words():
    # differential() takes d(p·ℓ) = d(p)·ℓ ± p·d(ℓ) from its prefix's
    # column; the reference splices d(letter t) into the word at t and sorts
    # the spliced word through WordBasis.position.  sl2 ⊗ N's hull is not
    # formal: it has d₂ and a cubic d₃
    rng = make_rng(5)
    truncs = [non_minimal_trunc(4), pairs_truncation(2, 1, 4), koszul_truncation(2, 3),
              kuranishi_prorepresent(sl2_odd(), order=6)[0], kuranishi_prorepresent(sl2(), order=4)[0],
              kuranishi_prorepresent(sl2_heisenberg(), order=4)[0]]
    truncs += [random_truncation(rng, 0.5) for _ in range(30)]
    nonzero = 0
    for r in truncs:
        got, want = r.differential(), reference_differential(r)
        assert got == want
        # each column lists its words in increasing position
        assert all(list(col) == sorted(col) for col in got.columns())
        nonzero += not got.is_zero()
    assert nonzero > 20


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


def test_minimalize_reads_only_the_rows_of_its_homotopy():
    """On the p1h2 truncation, minimalize's check of the homotopy builds 37
    of the 103 product rows of A[t,dt]_1, and they are the rows that a
    walk over every row builds."""
    mm = minimalize(pairs_truncation(1, 2, 3))
    dr = mm.homotopy.derham
    read = dict(dr.algebra._left)
    assert (len(read), dr.algebra.dim) == (37, 103)
    full = de_rham_truncation(dr.base, 1).algebra
    rows = full.rows()
    assert full.den == dr.algebra.den
    assert all(rows[i] == row for i, row in read.items())


def test_minimalize_on_the_ce_truncation_of_sl2_heisenberg():
    """Item 14's non-formal L = sl2 ⊗ N: the minimal model of its order-3
    Chevalley–Eilenberg truncation (1,825 words) has one generator per
    class of H(L), of degree 1 - deg; d₂ has its 12 entries on the three
    generators dual to H³, and the six dual to H² have d₂ = 0 and a cubic
    d₃ with 22 entries (no quadratic part on H¹, as for the Heisenberg
    group)."""
    l = sl2_heisenberg()
    coh = cohomology(l.complex())
    assert l.validate().ok and {k: coh.dim(k) for k in (0, 1, 2, 3, 4)} == \
        {0: 0, 1: 6, 2: 6, 3: 3, 4: 0}
    r = dgla_to_linfty(l, 3).ce
    assert len(r.basis.words) == 1825
    s = minimalize(r).s
    assert is_minimal(s) and sorted(s.v.degrees) == [-2] * 3 + [-1] * 6 + [0] * 6
    support = {k: {j: len(col) for j, col in m.nonzero_columns()}
               for k, m in s.components.items()}
    assert set(support) == {2, 3}
    assert {s.v.degrees[j] for j in support[2]} == {-2} and len(support[2]) == 3
    assert {s.v.degrees[j] for j in support[3]} == {-1} and len(support[3]) == 6
    assert sum(support[2].values()) == 12 and sum(support[3].values()) == 22


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
        pos = next(p for p, w in enumerate(r.basis.words)
                   if len(w) == 2 and a.space.degrees[p] == deg)
        images.append({i: F(1), pos: F(-3, 2)})
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


def test_component_on_a_word_of_another_length_is_refused():
    # d_k maps V into all the words, so the length of each word it reaches
    # is checked: d_2(a) may reach a*b, not b or a*a*b (all of degree 1)
    shell = QuasismoothTrunc(GradedSpace([("a", 0), ("b", 1)]), 3, {}, check=False)
    b = shell.basis
    ab, aab = b.position((0, 1))[0], b.position((0, 0, 1))[0]
    assert shell.with_components({2: GradedMap(shell.v, b.space, 1, {(ab, 0): F(1)})})
    for word in (1, aab):
        with pytest.raises(ValueError) as err:
            shell.with_components({2: GradedMap(shell.v, b.space, 1, {(word, 0): F(1)})})
        assert str(err.value) == "component d_2 has wrong source/target/degree"


def test_morphism_lift_honest_failure():
    # S has one closed degree-1 generator; in R the candidate image z has
    # d(z) = q, so no multiplicative chain map extends the assignment
    vs = GradedSpace([("s1", 1)])
    s = QuasismoothTrunc(vs, 2, {})
    shell = QuasismoothTrunc(GradedSpace([("z", 1), ("q", 2)]), 2, {}, check=False)
    r = shell.with_components({1: GradedMap(shell.v, shell.basis.space, 1, {(1, 0): F(1)})})
    bad = morphism_lift(s, r, [r.algebra().space.basis_vector(0)])
    assert bad is None


def test_kuranishi_sl2():
    l = sl2()
    rk, ve = kuranishi_prorepresent(l, order=3)
    assert is_minimal(rk)
    assert rk.v.dim == 3 and all(d == 1 for d in rk.v.degrees)
    # the versal element satisfies Maurer-Cartan through the captured order
    dft = ve.defect()
    assert dft == {}
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
    sign = None
    for c in range(3):
        for pos in rk.basis.of_length(2):
            a, b = rk.basis.words[pos]
            got = entries(d2).get((pos, c), F(0))
            want = cb.table_entry(a, b).get(c, F(0))
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
    assert ve.defect() == {}


def test_kuranishi_mixed_degrees():
    l = sl2_odd()
    rk, ve = kuranishi_prorepresent(l, order=3)
    assert is_minimal(rk)
    # one generator per cohomology class, with dual degree
    coh = def_tangent(l)
    want = sorted(1 - d for d in coh.harmonic_space.degrees)
    assert sorted(rk.v.degrees) == want
    assert ve.defect() == {}
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
    assert ve.defect() == {}


@pytest.mark.parametrize("order", range(3, 9))
def test_prorepresent_builds_rows_that_match_the_eager_table(order):
    # R's rows are built only where the brackets of L⊗R read them; each
    # one is the eager table's row, and so is every row built afterwards
    r, ve = kuranishi_prorepresent(sl2_odd(), order=order)
    rows, table = r.algebra()._left, reference_truncation_rows(r.basis)
    assert 0 < len(rows) < len(table)
    assert all(row == table[p] for p, row in rows.items())
    assert r.algebra().rows() == table and ve.defect() == {}


def test_truncation_rows_built_in_any_order_match_the_eager_table():
    rng = make_rng(241)
    for _ in range(12):
        v = GradedSpace([("x%d" % i, rng.randint(-1, 2)) for i in range(rng.randint(1, 4))])
        r = QuasismoothTrunc(v, rng.randint(3, 8), {})
        a, table = r.algebra(), reference_truncation_rows(r.basis)
        read = rng.sample(range(a.dim), min(a.dim, 6))
        assert [a._left[p] for p in read] == [table[p] for p in read]
        # a copy with another differential shares the rows built so far
        moved = r.with_components({}).algebra()
        assert moved._left is a._left and moved.rows() == table
        assert set(a._left) == set(range(a.dim))


def test_prorepresent_at_order_8_forms_few_products():
    # only ξ's words are multiplied: at order 8 on sl2_odd the rows built
    # hold at most 3,000 of the 26,418 nonzero products of the full table
    r, _ = kuranishi_prorepresent(sl2_odd(), order=8)
    assert sum(len(row) for row in r.algebra()._left.values()) <= 3000
    assert sum(len(row) for row in reference_truncation_rows(r.basis)) == 26418


def test_with_components_shares_the_product_table():
    r = non_minimal_trunc()
    shell = QuasismoothTrunc(r.v, r.order, {}, check=False)
    a0 = shell.algebra()
    moved = shell.with_components(r.components)
    a = moved.algebra()
    assert a._left is a0._left and "table" not in vars(a)
    assert a.d == r.differential() and a0.d.is_zero()
    assert moved.basis is shell.basis and not shell.components


def test_sl2_heis_documents_are_the_conftest_builders():
    # docs/fixtures/sl2_heis.dgla is sl2 ⊗ N with plain names, and the
    # unital file sl2 ⊗ (ℚ1 ⊕ N), whose H⁰ = sl2 gives degree-1 generators
    for path, l, dims in ((SL2_HEIS, plain_names(sl2_heisenberg()), {1: 6, 2: 6, 3: 3}),
                          (SL2_HEIS_UNITAL, sl2_heisenberg_unital(),
                           {0: 3, 1: 6, 2: 6, 3: 3})):
        doc = _read_dgla(path)
        assert doc.space.basis == l.space.basis and doc.d == l.d
        assert list(doc.constants()) == list(l.constants())
        assert not any(c in name for name in doc.space.names for c in "@*")
        assert doc.validate().ok and cohomology(doc.complex()).dims() == dims
    assert sl2_heisenberg_unital().dim == 24


def _random_hull_input(rng, kind):
    """A DGLA for the hull oracle: sl2, the Heisenberg algebra, sl2_odd or
    an abelian DGLA with d ≠ 0 (kind 0); one of them plus an abelian one
    (1); sl2 or the Heisenberg algebra tensored with a truncation on
    acyclic pairs (2) or with the cochains N of the Heisenberg algebra
    (3, non-formal: sl2 ⊗ N has d₃ ≠ 0), half of these in a random basis."""
    if kind == 0:
        return random_dgla(rng)
    if kind == 1:
        return direct_sum_dgla(random_dgla(rng, max_dim=4), random_abelian_dgla(rng, max_dim=5))
    a = heisenberg_cochains().algebra()
    while kind == 2 and not 0 < a.dim <= 4:
        a = random_pair_truncation(rng)
    l = tensor_as_dgla(rng.choice([sl2, heisenberg])(), a)
    return transported(l, random_invertible_degree0(rng, l.space)) if rng.random() < 0.5 else l


def test_prorepresent_matches_the_order_by_order_oracle_on_random_dglas():
    # the transfer recursion on R's products gives, exactly, the R and ξ
    # of the construction that rebuilds R's derivation at each order
    rng = make_rng(30)
    with_d = with_d3 = 0
    for case in range(160):
        l = _random_hull_input(rng, [0, 0, 0, 1, 1, 2, 2, 3][case % 8])
        order = rng.randint(2, 4) if l.dim < 15 else 3
        r, ve = kuranishi_prorepresent(l, order=order)
        ref, ref_xi = reference_prorepresent(l, order)
        assert r.components == ref.components and ve.xi == ref_xi
        with_d += not l.d.is_zero()
        with_d3 += 3 in r.components
    assert with_d >= 40 and with_d3 >= 10


@pytest.mark.parametrize("build, orders", [(lambda: _read_dgla(SL2_HEIS), range(2, 6)),
                                           (lambda: _read_dgla(SL2_HEIS_UNITAL), range(2, 5)),
                                           (sl2_odd, range(3, 15))],
                         ids=["sl2_heis", "sl2_heis_unital", "sl2_odd"])
def test_prorepresent_matches_the_order_by_order_oracle_on_the_fixtures(build, orders):
    l = build()
    for order in orders:
        r, ve = kuranishi_prorepresent(l, order=order)
        ref, ref_xi = reference_prorepresent(l, order)
        assert r.components == ref.components and ve.xi == ref_xi


@pytest.mark.parametrize("l, order, comps", [(sl2_heisenberg(), 4, [2, 3]),
                                             (sl2_heisenberg_unital(), 3, [2, 3]),
                                             (sl2_odd(), 6, [2])],
                         ids=["sl2_heis", "sl2_heis_unital", "sl2_odd"])
def test_prorepresent_builds_r_derivation_once(monkeypatch, l, order, comps):
    # every order runs on R's products alone, so R's derivation is built
    # once, for the certificate, and L⊗R twice: on the shell without
    # components, whose d is the empty map, and on R
    import defalg.models as models
    built, tensors = [], []
    real_differential, real_tensor = QuasismoothTrunc.differential, models.tensor_dgla

    def differential(self):
        if self._differential is None:
            built.append(self)
        return real_differential(self)
    monkeypatch.setattr(QuasismoothTrunc, "differential", differential)
    monkeypatch.setattr(models, "tensor_dgla", lambda l, a: tensors.append(a) or real_tensor(l, a))
    rk, ve = kuranishi_prorepresent(l, order=order)
    assert [sorted(r.components) for r in built] == [[], comps] and built[-1] is rk
    assert tensors == [built[0].algebra(), rk.algebra()] and ve.tensor.a is rk.algebra()


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
    assert ve.defect() == {}
