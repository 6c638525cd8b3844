"""Line-oriented document format: parse/print round-trips and builders."""

import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defalg import docio
from defalg.docio import DocumentError, build, parse, print_document
from defalg.linfty import LInftyStructure, dgla_to_linfty
from conftest import make_rng, random_algebra, random_complex, random_dgla

F = Fraction

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def test_fixture_documents_roundtrip():
    for path in sorted(FIXTURES.iterdir()):
        doc = parse(path.read_text())
        assert parse(print_document(doc)) == doc


def test_build_dgla_fixture():
    doc = parse((FIXTURES / "sl2.dgla").read_text())
    assert doc.kind == "dgla"
    l = build(doc)
    assert l.validate().ok
    assert l.space.names == ("e", "h", "f") or list(l.space.names) == ["e", "h", "f"]


def test_build_small_extension_fixture():
    doc = parse((FIXTURES / "counterexample.ext").read_text())
    e = docio.build_small_extension(doc)
    assert e.i_complex.space.dim == 2
    assert e.is_acyclic()
    # square-zero but not strictly small is accepted
    assert e.validate() == []
    assert not e.is_strictly_small()


def test_sl2_odd_fixture_is_sl2_odd():
    from conftest import sl2_odd
    l = docio.build(parse((FIXTURES / "sl2_odd.dgla").read_text()))
    want = sl2_odd()
    assert l.space.basis == want.space.basis
    assert l.table == want.table and l.d == want.d


def test_build_mc_element_fixture():
    from defalg.dgla import tensor_dgla
    from conftest import sl2
    doc = parse((FIXTURES / "counterexample.mc").read_text())
    e = docio.build_small_extension(
        parse((FIXTURES / "counterexample.ext").read_text()))
    t = tensor_dgla(sl2(), e.b)
    x = docio.build_mc_element(doc, t.space)
    assert x[t.pair_index(1, 0)] == F(-1, 2)
    assert x[t.pair_index(0, 1)] == F(1)
    back = docio.document_of_mc_element(t.space, x)
    assert docio.build_mc_element(parse(print_document(back)), t.space) == x


def test_quasismooth_roundtrip():
    text = ("kind: quasismooth\n"
            "basis:\n  x 1\n  y 1\norder: 3\nd:\n  2 | x -> -1 x*y\n")
    doc = parse(text)
    r = docio.build_quasismooth(doc)
    assert r.order == 3 and r.v.dim == 2
    again = docio.document_of_quasismooth(r)
    assert docio.build_quasismooth(parse(print_document(again))).differential() \
        == r.differential()


def test_parse_error_locations():
    cases = [("kind: dgla\nbasis:\n  x q\n", "line 3"),
             ("basis:\n  x 1\n", "kind"),
             ("kind: dgla\nbasis:\n  x 1\nbrackt:\n  x x -> 0\n",
              "unknown field")]
    for text, fragment in cases:
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert fragment in str(err.value)


def test_empty_algebra_document():
    a = build(parse("kind: nilpotent_dg_algebra\n"))
    assert a.validate().ok and a.dim == 0


def test_random_algebra_roundtrip():
    rng = make_rng(80)
    for _ in range(10):
        a = random_algebra(rng, max_dim=8)
        doc = docio.document_of_algebra(a)
        b = docio.build_algebra(parse(print_document(doc)))
        assert b.space == a.space
        assert b.d == a.d
        for i in range(a.dim):
            for j in range(a.dim):
                assert b.table_entry(i, j) == a.table_entry(i, j)
        assert print_document(docio.document_of_algebra(b)) == print_document(doc)


def test_random_dgla_roundtrip():
    rng = make_rng(81)
    for _ in range(8):
        l = random_dgla(rng, max_dim=8)
        doc = docio.document_of_dgla(l)
        m = docio.build_dgla(parse(print_document(doc)))
        assert m.space == l.space and m.d == l.d
        for i in range(l.dim):
            for j in range(l.dim):
                assert m.table_entry(i, j) == l.table_entry(i, j)
        assert print_document(docio.document_of_dgla(m)) == print_document(doc)


def test_fixture_structures_reprint_byte_identical():
    # printing a built DGLA or algebra gives the fixture's canonical text, and
    # building and printing that text again gives the same bytes
    ext = parse((FIXTURES / "counterexample.ext").read_text())
    cases = [(parse((FIXTURES / name).read_text()), docio.build_dgla, docio.document_of_dgla)
             for name in ("sl2.dgla", "sl2_odd.dgla")]
    cases += [(ext.payload[nm], docio.build_algebra, docio.document_of_algebra)
              for nm in ("a", "b")]
    for doc, build_obj, document_of in cases:
        text = print_document(document_of(build_obj(doc)))
        assert text == print_document(doc)
        assert print_document(document_of(build_obj(parse(text)))) == text


def test_random_complex_roundtrip():
    rng = make_rng(82)
    for _ in range(8):
        cx, _ = random_complex(rng, max_dim=8)
        doc = docio.document_of_complex(cx)
        cx2 = docio.build_complex(parse(print_document(doc)))
        assert cx2.space == cx.space and cx2.d == cx.d


def test_linfty_roundtrip():
    from conftest import sl2_odd
    s = dgla_to_linfty(sl2_odd(), order=3)
    doc = docio.document_of_linfty(s)
    s2 = docio.build_linfty(parse(print_document(doc)))
    assert docio.document_of_linfty(s2) == doc


def test_small_extension_roundtrip():
    doc = parse((FIXTURES / "counterexample.ext").read_text())
    e = docio.build_small_extension(doc)
    again = docio.document_of_small_extension(e)
    e2 = docio.build_small_extension(parse(print_document(again)))
    assert e2.a.space == e.a.space and e2.b.space == e.b.space
    assert e2.a.d == e.a.d and e2.alpha.map == e.alpha.map


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n\nkind: dgla\n# another\nbasis:\n"
            "  e 0\n\n  h 0\n  f 0\n")
    doc = parse(text)
    assert doc.kind == "dgla"
    assert len(doc.payload["basis"]) == 3


# ---------------------------------------------------------------------------
# linear combinations: one pass, same sums, same errors

NAMES = ("a", "b", "e@u", "x1")
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def reference_sum(terms):
    """The sum the two-pass parser formed: a zero seed for each new name,
    a separate list of first occurrences, zero sums dropped."""
    out, order = {}, []
    for name, c in terms:
        if name not in out:
            out[name] = F(0)
            order.append(name)
        out[name] += c
    return tuple((name, out[name]) for name in order if out[name])


@st.composite
def term_lists(draw):
    """Terms with repeated names and with terms that cancel earlier ones."""
    terms = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "repeat", "cancel"]))
        if kind == "fresh" or not terms:
            terms.append((draw(st.sampled_from(NAMES)), draw(coefficients)))
        else:
            name, c = draw(st.sampled_from(terms))
            terms.append((name, -c if kind == "cancel" else draw(coefficients)))
    return terms


def combo_text(terms, sep):
    return sep.join("%s %s" % (c, name) for name, c in terms) if terms else "0"


@given(term_lists(), st.sampled_from([" + ", "+", "  +   "]), st.data())
@settings(max_examples=150, deadline=None)
def test_combo_sums_match_reference_and_roundtrip(terms, sep, data):
    single = "kind: mc_element\nelement: %s\n" % combo_text(terms, sep)
    cut = sorted(data.draw(st.sets(st.integers(1, max(len(terms) - 1, 1)))))
    pieces = [terms[i:j] for i, j in zip([0] + cut, cut + [len(terms)])]
    listed = "kind: mc_element\nelement:\n" + "".join(
        "  %s\n" % combo_text(p, sep) for p in pieces)
    # each line of the list form is summed on its own first
    by_line = reference_sum([t for p in pieces for t in reference_sum(p)])
    for text, want in ((single, reference_sum(terms)), (listed, by_line)):
        doc = parse(text)
        assert doc.payload["element"] == want
        assert parse(print_document(doc)) == doc


@pytest.mark.parametrize("element, message", [
    ("1 a + 2", "line 2: term '2' must be 'coeff name'"),
    ("1 a b", "line 2: term '1 a b' must be 'coeff name'"),
    ("1 a +", "line 2: term '' must be 'coeff name'"),
    ("x a", "line 2: invalid rational 'x'"),
    ("1 a + 1/0 b", "line 2: invalid rational '1/0'"),
    ("2/ a", "line 2: invalid rational '2/'"),
    ("1.5 a", "line 2: invalid rational '1.5'"),
    ("1_000 a", "line 2: invalid rational '1_000'"),
    ("\uff11 a", "line 2: invalid rational '\uff11'"),
    ("1/-2 a", "line 2: invalid rational '1/-2'"),
    ("1/00 a", "line 2: invalid rational '1/00'"),
    ("- a", "line 2: invalid rational '-'"),
])
def test_combo_error_messages(element, message):
    with pytest.raises(DocumentError) as err:
        parse("kind: mc_element\nelement: %s\n" % element)
    assert str(err.value) == message


def test_build_linfty_builds_one_word_basis(monkeypatch):
    from conftest import sl2_odd
    from defalg.graded import WordBasis
    text = print_document(docio.document_of_linfty(dgla_to_linfty(sl2_odd(), order=3)))
    built = []
    real = WordBasis.__init__
    monkeypatch.setattr(WordBasis, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    s = docio.build_linfty(parse(text))
    assert len(built) == 1 and s.coalgebra.order == 3
    assert docio.document_of_linfty(s) == parse(text)
    with pytest.raises(ValueError, match="not the truncated coalgebra"):
        LInftyStructure(s.v, 2, {}, s.coalgebra)


LINFTY_HEAD = "kind: linfty\nbasis:\n  a 0\n  b 1\n"
QS_HEAD = "kind: quasismooth\nbasis:\n  x 1\n  y 2\n"


@pytest.mark.parametrize("text, message", [
    (LINFTY_HEAD + "taylor:\n  2 | a b -> 1 b\n", "linfty requires an 'order' field"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a b 1 b\n",
     "line 7: taylor item must be 'k | word -> combo'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 a b -> 1 b\n",
     "line 7: taylor item must be 'k | word -> combo'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  two | a b -> 1 b\n",
     "line 7: arity 'two' is not an integer"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  3 | a b a -> 1 b\n",
     "line 7: arity 3 is outside 1..2 (the order)"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a -> 1 b\n",
     "line 7: word length does not match arity 2"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a z -> 1 b\n", "line 7: unknown name 'z'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a z -> 1/0 b\n", "line 7: unknown name 'z'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a b -> 1 z\n", "line 7: unknown name 'z'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a b -> 1/0 b\n", "line 7: invalid rational '1/0'"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a b -> 1 b\n  2 | a b -> 1 b\n",
     "line 8: duplicate taylor entry for ('a', 'b')"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | a a -> 1 a\n",
     "word ('a', 'a') is zero in the symmetric power"),
    (LINFTY_HEAD + "order: 2\ntaylor:\n  1 | a -> 1 a\n",
     "entry (a <- a) violates degree 1 homogeneity"),
    (QS_HEAD + "d:\n  2 | y -> 1 x*x\n", "quasismooth requires an 'order' field"),
    (QS_HEAD + "order: 2\nd:\n  2 | y 1 x*x\n",
     "line 7: item must be 'k | generator -> combo'"),
    (QS_HEAD + "order: 2\nd:\n  2 y -> 1 x*x\n",
     "line 7: item must be 'k | generator -> combo'"),
    (QS_HEAD + "order: 2\nd:\n  two | y -> 1 x*x\n", "line 7: order 'two' is not an integer"),
    (QS_HEAD + "order: 2\nd:\n  3 | y -> 1 x*x*x\n",
     "line 7: order 3 is outside 1..2 (the order)"),
    (QS_HEAD + "order: 2\nd:\n  2 | z -> 1 x*x\n", "line 7: unknown generator 'z'"),
    (QS_HEAD + "order: 2\nd:\n  2 | z -> 1/0 x*x\n", "line 7: unknown generator 'z'"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1/0 x*x\n", "line 7: invalid rational '1/0'"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 x*x*x\n", "line 7: word 'x*x*x' has length != 2"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 x*z\n", "line 7: unknown name 'z'"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 x*x\n  2 | y -> 1 x*x\n",
     "line 8: duplicate component for 'y'"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 y*y\n",
     "entry (y*y <- y) violates degree 1 homogeneity"),
    (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 x*x\n",
     "word 'x*x' is zero in the symmetric power"),
    (QS_HEAD + "order: 2\nd:\n  1 | x -> 1 y\n  1 | y -> 1 x\n",
     "entry (x <- y) violates degree 1 homogeneity"),
    (QS_HEAD.replace("y 2", "y 2\n  z 3") + "order: 2\nd:\n  1 | x -> 1 y\n  1 | y -> 1 z\n",
     "derivation does not square to zero on the truncation"),
], ids=lambda x: x if len(x) < 40 else None)
def test_graded_list_error_messages(text, message):
    """The ``k | key -> combo`` lists of linfty and quasismooth documents
    report each malformed item with its own message."""
    with pytest.raises(DocumentError) as err:
        build(parse(text))
    assert str(err.value) == message


def test_graded_lists_print_by_arity_then_key():
    for text, want in [
            (LINFTY_HEAD + "order: 2\ntaylor:\n  2 | b b -> 1 b\n  1 | b -> 1 a\n"
             "  2 | a b -> 1 b\n",
             ["  1 | b -> 1 a", "  2 | a b -> 1 b", "  2 | b b -> 1 b"]),
            (QS_HEAD + "order: 2\nd:\n  2 | y -> 1 x*y\n  1 | x -> 1 y\n",
             ["  1 | x -> 1 y", "  2 | y -> 1 x*y"])]:
        printed = print_document(parse(text)).splitlines()
        assert printed[-len(want):] == want
