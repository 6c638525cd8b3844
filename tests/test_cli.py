"""Command-line interface: exit codes, reports, embedded documents."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from defalg import docio, linalg
from defalg.cli import main
from defalg.dgla import mc_defect
from conftest import UV_ACYCLIC_EXT, UV_M3_EXT, UV_SQUARE_EXT

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "fixtures"

SL2 = str(FIXTURES / "sl2.dgla")
SL2_ODD = str(FIXTURES / "sl2_odd.dgla")
EXT = str(FIXTURES / "counterexample.ext")
MC = str(FIXTURES / "counterexample.mc")
PAIRS = str(FIXTURES / "pairs.qs")

B_ALGEBRA = "kind: nilpotent_dg_algebra\nbasis:\n  u 1\n  v 1\n"
NON_MINIMAL = ("kind: quasismooth\nbasis:\n  u 0\n  w 1\n  h 1\norder: 3\n"
               "d:\n  1 | u -> 1 w\n  2 | h -> 1 w*h\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_validate_fixture(capsys):
    code, out, err = run(capsys, "validate", "--in", SL2)
    assert code == 0
    assert "dgla: valid" in out


def test_validate_json(capsys):
    code, data = run_json(capsys, "validate", "--in", SL2, "--in", EXT)
    assert code == 0
    assert data["command"] == "validate"
    assert data["exit"] == 0
    assert ["dgla", "valid"] in data["verdicts"]


def test_tangent(capsys):
    code, data = run_json(capsys, "tangent", "--in", SL2)
    assert code == 0
    assert data["tables"]["dimensions"] == {"0": 3}


def test_cohomology_of_complex(capsys, tmp_path):
    doc = tmp_path / "pair.cx"
    doc.write_text("kind: complex\nbasis:\n  p 0\n  q 1\n  h 2\n"
                   "d:\n  p -> 1 q\n")
    code, data = run_json(capsys, "cohomology", "--in", str(doc))
    assert code == 0
    assert data["tables"]["dimensions"] == {"2": 1}


def test_mc_check(capsys, tmp_path):
    b = tmp_path / "b.alg"
    b.write_text(B_ALGEBRA)
    code, out, _ = run(capsys, "mc-check", "--in", SL2, "--in", str(b),
                       "--in", MC)
    assert code == 0
    assert "maurer-cartan: yes" in out


def test_mc_check_failure(capsys, tmp_path):
    b = tmp_path / "b.alg"
    # give the base a differential so the element is no longer closed
    b.write_text("kind: nilpotent_dg_algebra\nbasis:\n  u 1\n  v 1\n"
                 "  du 2\nd:\n  u -> 1 du\n")
    code, out, _ = run(capsys, "mc-check", "--in", SL2, "--in", str(b),
                       "--in", MC)
    assert code == 1
    assert "maurer-cartan: no" in out
    assert "defect" in out


def test_mc_lift_obstructed(capsys):
    code, out, _ = run(capsys, "mc-lift", "--in", SL2, "--in", EXT,
                       "--in", MC)
    assert code == 1
    assert "lifted: obstructed" in out


@pytest.mark.parametrize("command", ["mc-lift", "obstruction"])
def test_scaled_counterexample_has_the_readme_verdicts(capsys, command):
    """counterexample_scaled.ext/.mc are the README extension and element in
    a fractional basis (p/q tokens, multi-term rows): the same verdicts, and
    the class is read in the new basis."""
    scaled = [str(FIXTURES / ("counterexample_scaled" + ext)) for ext in (".ext", ".mc")]
    code, data = run_json(capsys, command, "--in", SL2, "--in", EXT, "--in", MC)
    scode, sdata = run_json(capsys, command, "--in", SL2, "--in", scaled[0],
                            "--in", scaled[1])
    assert (scode, sdata["verdicts"]) == (code, data["verdicts"]) and code == 1
    key = "obstruction class" if command == "mc-lift" else "cokernel class"
    assert (data["tables"][key], sdata["tables"][key]) == (["-1"], ["-2/3"])


def test_obstruction_not_strictly_small(capsys):
    code, data = run_json(capsys, "obstruction", "--in", SL2, "--in", EXT,
                          "--in", MC)
    assert code == 1
    assert ["strictly small", "no"] in data["verdicts"]
    assert ["obstruction vanishes", "no"] in data["verdicts"]
    assert any(c != "0" for c in data["tables"]["cokernel class"])


EF_MC = "kind: mc_element\nelement: 1 e@u + 1 f@v\n"


def run_lift(capsys, tmp_path, command, extension, element):
    ext = tmp_path / "e.ext"
    ext.write_text(extension)
    mc = tmp_path / "x.mc"
    mc.write_text(element)
    return run(capsys, command, "--in", SL2, "--in", str(ext), "--in", str(mc))


@pytest.mark.parametrize("command, extension, code, text", [
    ("mc-lift", UV_SQUARE_EXT, 1,
     "command: mc-lift\nlifted: obstructed\nobstruction class:\n  0\n  1\n  0\n"
     "cohomology class:\n  0\n  1\n  0\nexit: 1\n"),
    ("obstruction", UV_SQUARE_EXT, 1,
     "command: obstruction\nstrictly small: yes\nobstruction vanishes: no\n"
     "class in kernel cohomology:\n  0\n  1\n  0\nexit: 1\n"),
    ("mc-lift", UV_ACYCLIC_EXT, 0,
     "command: mc-lift\nlifted: yes\nlift:\n  1 e@u + -1 h@w + 1 f@v\n"
     "lift translations:\nexit: 0\n"),
    ("obstruction", UV_ACYCLIC_EXT, 0,
     "command: obstruction\nstrictly small: yes\nobstruction vanishes: yes\n"
     "class in kernel cohomology:\nexit: 0\n"),
], ids=["mc-lift-obstructed", "obstruction-obstructed", "mc-lift-lifted",
        "obstruction-lifted"])
def test_lift_reports_on_strictly_small_extension(capsys, tmp_path, command,
                                                  extension, code, text):
    # e⊗u + f⊗v has defect h⊗uv: a nonzero class when I = <uv>, and
    # d(h⊗w) when the kernel also holds w with dw = uv
    assert run_lift(capsys, tmp_path, command, extension, EF_MC) == (code, text, "")


@pytest.mark.parametrize("command", ["mc-lift", "obstruction"])
@pytest.mark.parametrize("element, message", [
    (EF_MC, "error: input element does not satisfy Maurer-Cartan over B\n"),
    ("kind: mc_element\nelement: 1 e@uv\n",
     "error: Maurer-Cartan candidates must have degree 1\n"),
], ids=["not-mc-over-b", "degree-2"])
def test_exit_two_on_element_not_mc_over_base(capsys, tmp_path, command,
                                              element, message):
    # over B = m/m³ on u, v the defect of e⊗u + f⊗v is h⊗uv ≠ 0
    assert run_lift(capsys, tmp_path, command, UV_M3_EXT, element) == (2, "", message)


def test_exit_two_on_non_multiplicative_alpha(capsys, tmp_path):
    ext = tmp_path / "e.ext"
    ext.write_text("kind: small_extension\nbegin a\nkind: nilpotent_dg_algebra\n"
                   "basis:\n  x 0\n  y 0\n  z 0\n  t 0\n"
                   "mult:\n  x x -> 1 y\n  x z -> 1 t\n  z x -> 1 t\nend a\n"
                   "begin b\nkind: nilpotent_dg_algebra\nbasis:\n  x 0\n  y 0\n"
                   "mult:\n  x x -> 1 y\nend b\nalpha:\n  x -> 1 x\n  y -> 2 y\n")
    code, out, err = run(capsys, "validate", "--in", str(ext))
    assert code == 2
    assert out == ""
    assert "not multiplicative on (x, x)" in err


def test_gauge_reflexive(capsys, tmp_path):
    b = tmp_path / "b.alg"
    b.write_text(B_ALGEBRA)
    code, out, _ = run(capsys, "gauge", "--in", SL2, "--in", str(b),
                       "--in", MC, "--in", MC)
    assert code == 0
    assert "gauge-equivalent: YES" in out


def test_primary_bracket(capsys):
    code, data = run_json(capsys, "primary-bracket", "--in", SL2)
    assert code == 0
    assert data["tables"]["dimensions"] == {"0": 3}
    assert data["tables"]["bracket on cohomology"]   # sl2 bracket is nonzero


def test_dgla_to_linfty_and_check(capsys, tmp_path):
    code, data = run_json(capsys, "dgla-to-linfty", "--in", SL2)
    assert code == 0
    assert len(data["documents"]) == 1
    doc = docio.parse(data["documents"][0])
    assert doc.kind == "linfty"
    lf = tmp_path / "sl2.linfty"
    lf.write_text(data["documents"][0])
    code2, out, _ = run(capsys, "linfty-check", "--in", str(lf))
    assert code2 == 0
    assert "linfty: yes" in out


@pytest.mark.parametrize("fixture, order", [("sl2_odd.linf", "4"), ("jacobi_broken.linf", "3")])
def test_linfty_fixtures_are_what_dgla_to_linfty_prints(capsys, tmp_path, fixture, order):
    from test_linfty import non_jacobi_mutation
    from defalg.linfty import dgla_to_linfty
    if fixture == "jacobi_broken.linf":
        dgla = tmp_path / "jacobi_broken.dgla"
        dgla.write_text(docio.print_document(docio.document_of_dgla(non_jacobi_mutation())))
        # the command validates its DGLA and refuses this one, so the
        # fixture is what the function it calls prints for that document
        code, out, err = run(capsys, "dgla-to-linfty", "--in", str(dgla), "--order", order)
        assert code == 2 and out == "" and "graded Jacobi fails" in err
        s = dgla_to_linfty(docio.build(docio.parse(dgla.read_text())), order=int(order))
        documents = [docio.print_document(docio.document_of_linfty(s))]
    else:
        code, data = run_json(capsys, "dgla-to-linfty", "--in", SL2_ODD, "--order", order)
        assert code == 0
        documents = data["documents"]
    assert documents == [(FIXTURES / fixture).read_text()]
    code, data = run_json(capsys, "linfty-check", "--in", str(FIXTURES / fixture))
    broken = fixture == "jacobi_broken.linf"
    assert code == int(broken)
    assert data["tables"] == ({"defect arities": [3]} if broken else {})


def test_gauge_fixture_runs_the_staged_search(capsys):
    """koszul4_x.mc and koszul4_y.mc are e^a·0 and e^b·0 in sl2 ⊗ koszul4
    (A² ≠ 0); gauge finds a witness, which maps x to y."""
    from conftest import koszul_truncation
    from defalg.dgla import gauge_act, tensor_dgla
    l = docio.build(docio.parse(pathlib.Path(SL2).read_text()))
    a = docio.build(docio.parse((FIXTURES / "koszul4.alg").read_text()))
    assert not a.has_trivial_mult()
    assert docio.print_document(docio.document_of_algebra(a)) == docio.print_document(
        docio.document_of_algebra(koszul_truncation(1, 4).algebra()))
    t = tensor_dgla(l, a)
    elements = []
    for name, terms in (("x", "1 e@s0 + 1 f@s0*s0 + 1 h@s0*s0*s0"),
                        ("y", "-1 f@s0 + 2 h@s0*s0 + 1 e@s0*s0*s0*s0")):
        gen = docio.build_mc_element(docio.parse("kind: mc_element\nelement: %s\n" % terms),
                                     t.space)
        want = gauge_act(t, gen, t.space.zero_vector())
        path = FIXTURES / ("koszul4_%s.mc" % name)
        assert docio.build_mc_element(docio.parse(path.read_text()), t.space) == want
        elements.append(str(path))
    code, data = run_json(capsys, "gauge", "--in", SL2, "--in", str(FIXTURES / "koszul4.alg"),
                          "--in", elements[0], "--in", elements[1])
    assert code == 0 and data["verdicts"] == [["gauge-equivalent", "YES"]]
    witness = docio.build_mc_element(docio.parse(
        "kind: mc_element\nelement: %s\n" % data["tables"]["witness"][0]), t.space)
    x, y = (docio.build_mc_element(docio.parse(pathlib.Path(p).read_text()), t.space)
            for p in elements)
    assert any(c.denominator > 1 for c in witness)
    assert gauge_act(t, witness, x) == y


def test_minimalize(capsys, tmp_path):
    qs = tmp_path / "trunc.qs"
    qs.write_text(NON_MINIMAL)
    code, data = run_json(capsys, "minimalize", "--in", str(qs))
    assert code == 0
    assert ["already minimal", "no"] in data["verdicts"]
    assert ["minimal", "yes"] in data["verdicts"]
    out_doc = docio.parse(data["documents"][0])
    r = docio.build_quasismooth(out_doc)
    assert r.v.dim == 1 and r.v.degrees[0] == 1


def test_prorepresent(capsys):
    code, data = run_json(capsys, "prorepresent", "--in", SL2, "--order", "3")
    assert code == 0
    gens = data["tables"]["generators"]
    assert len(gens) == 3 and all(d == 1 for d in gens.values())
    model = docio.build_quasismooth(docio.parse(data["documents"][0]))
    assert model.v.dim == 3
    assert 2 in model.components and 3 not in model.components
    assert docio.parse(data["documents"][1]).kind == "mc_element"


SL2_ODD_ORDER_4 = """\
command: prorepresent
minimal: yes
generators:
  x_H0_0: 1
  x_H0_1: 1
  x_H0_2: 1
  x_H1_0: 0
  x_H1_1: 0
  x_H1_2: 0
---
kind: quasismooth
basis:
  x_H0_0 1
  x_H0_1 1
  x_H0_2 1
  x_H1_0 0
  x_H1_1 0
  x_H1_2 0
order: 4
d:
  2 | x_H0_0 -> 2 x_H0_0*x_H0_1
  2 | x_H0_1 -> -1 x_H0_0*x_H0_2
  2 | x_H0_2 -> 2 x_H0_1*x_H0_2
  2 | x_H1_0 -> 2 x_H0_0*x_H1_1 + -2 x_H0_1*x_H1_0
  2 | x_H1_1 -> -1 x_H0_0*x_H1_2 + 1 x_H0_2*x_H1_0
  2 | x_H1_2 -> 2 x_H0_1*x_H1_2 + -2 x_H0_2*x_H1_1
---
kind: mc_element
element: 1 e@x_H0_0 + 1 h@x_H0_1 + 1 f@x_H0_2 + 1 E@x_H1_0 + 1 H@x_H1_1 + 1 Fo@x_H1_2
exit: 0
"""


def test_prorepresent_sl2_odd_golden(capsys):
    code, out, err = run(capsys, "prorepresent", "--in", SL2_ODD, "--order", "4")
    assert (code, out, err) == (0, SL2_ODD_ORDER_4, "")


def test_prorepresent_sl2_odd_order_6_golden(capsys):
    # no component of order above 2 appears: the text is order 4's with
    # the order line changed
    code, out, err = run(capsys, "prorepresent", "--in", SL2_ODD, "--order", "6")
    assert (code, out, err) == (0, SL2_ODD_ORDER_4.replace("order: 4\n", "order: 6\n"), "")


PAIRS_MINIMALIZE = """\
command: minimalize
already minimal: no
minimal: yes
tangent dimensions:
  0: 2
---
kind: quasismooth
basis:
  h0 1
  h1 1
order: 3
exit: 0
"""


def test_minimalize_pairs_golden(capsys):
    code, out, err = run(capsys, "minimalize", "--in", PAIRS)
    assert (code, out, err) == (0, PAIRS_MINIMALIZE, "")


def test_exit_three_on_failed_certificate(capsys, monkeypatch):
    import defalg.models
    monkeypatch.setattr(defalg.models, "check_homotopy", lambda h, f, g: False)
    code, out, err = run(capsys, "minimalize", "--in", PAIRS)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name, fake", [
    ("is_minimal", lambda r: False),
    # a doubled defect doubles d₂, whose own defect then does not vanish
    ("mc_defect", lambda t, x: linalg.vec_scale(Fraction(2), mc_defect(t, x))),
], ids=["minimality", "mc-defect"])
def test_prorepresent_exit_three_on_failed_certificate(capsys, monkeypatch, name, fake):
    import defalg.models
    monkeypatch.setattr(defalg.models, name, fake)
    code, out, err = run(capsys, "prorepresent", "--in", SL2_ODD, "--order", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: certificate failed: ") and err.count("\n") == 1


def test_mc_lift_exit_three_on_failed_certificate(capsys, tmp_path, monkeypatch):
    # every MC check in mc_lift reports failure: the defect still comes
    # back, so the lift is found, and then its own certificate fails
    import defalg.dgla
    real = defalg.dgla.mc_check
    monkeypatch.setattr(defalg.dgla, "mc_check", lambda t, x: (False, real(t, x)[1]))
    code, out, err = run_lift(capsys, tmp_path, "mc-lift", UV_ACYCLIC_EXT, EF_MC)
    assert code == 3
    assert out == ""
    assert err == "error: certificate failed: the corrected lift fails Maurer-Cartan\n"


@pytest.mark.parametrize("command", ["mc-lift", "obstruction"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_exit_two_on_invalid_algebra_in_extension(tmp_path, command, flags):
    # A is not graded commutative: the lift's certificate fails, and the
    # failure is traced to the input algebra
    text = pathlib.Path(EXT).read_text()
    assert "u w -> 1 dw" in text
    bad = tmp_path / "bad.ext"
    bad.write_text(text.replace("u w -> 1 dw", "u w -> 0 dw"))
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", command, "--in", SL2,
                           "--in", str(bad), "--in", MC], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: invalid small extension: algebra a: "
                           "graded commutativity fails on (u, w)\n")


def test_factor_extensions(capsys):
    code, data = run_json(capsys, "factor-extensions", "--in", EXT)
    assert code == 0
    assert data["verdicts"] == [["stages", "2"]]
    assert data["tables"]["kernel dimensions per stage"] == [1, 1]


def test_exit_two_on_missing_file(capsys):
    code, out, err = run(capsys, "tangent", "--in", "/nonexistent/file")
    assert code == 2
    assert "error:" in err


def test_exit_two_on_malformed_document(capsys, tmp_path):
    bad = tmp_path / "bad.doc"
    bad.write_text("kind: dgla\nbasis:\n  x q\n")
    code, out, err = run(capsys, "validate", "--in", str(bad))
    assert code == 2
    assert "line 3" in err


LINFTY_HEAD = "kind: linfty\nbasis:\n  x 0\n  y 1\norder: 2\ntaylor:\n"


@pytest.mark.parametrize("command, text", [
    ("minimalize", "kind: quasismooth\nbasis:\n  u 0\n  w 1\norder: 1\n"
                   "d:\n  2 | w -> 1 w*u\n"),
    ("linfty-check", LINFTY_HEAD + "  0 | -> 1 y\n"),
    ("linfty-check", LINFTY_HEAD + "  3 | x x x -> 1 y\n"),
], ids=["quasismooth-order-above-order", "linfty-arity-zero",
        "linfty-arity-above-order"])
def test_exit_two_on_component_order_out_of_range(capsys, tmp_path, command, text):
    doc = tmp_path / "bad.doc"
    doc.write_text(text)
    code, out, err = run(capsys, command, "--in", str(doc))
    assert code == 2
    assert "line 7" in err and "outside 1.." in err
    assert out == ""


ONE_GEN = "basis:\n  u 1\n"
# documents with a list field written as a scalar (or the other way round),
# and the one-line error each gets
FIELD_SHAPE_ERRORS = {
    "basis": ("kind: dgla\nbasis: u 1\n", "line 2: 'basis' must be a list field"),
    "basis-subdocument": ("kind: dgla\nbegin basis\nkind: graded_space\nend basis\n",
                          "'basis' must be a list field"),
    "complex-d": ("kind: complex\n" + ONE_GEN + "d: u -> 0\n",
                  "line 4: 'd' must be a list field"),
    "algebra-d": ("kind: nilpotent_dg_algebra\n" + ONE_GEN + "d: u -> 0\n",
                  "line 4: 'd' must be a list field"),
    "mult": ("kind: nilpotent_dg_algebra\n" + ONE_GEN + "mult: u u -> 0\n",
             "line 4: 'mult' must be a list field"),
    "bracket": ("kind: dgla\n" + ONE_GEN + "bracket: x\n",
                "line 4: 'bracket' must be a list field"),
    "alpha": (UV_SQUARE_EXT.split("alpha:")[0] + "alpha: u -> 1 u\n",
              "line 18: 'alpha' must be a list field"),
    "taylor": (LINFTY_HEAD.replace("taylor:\n", "taylor: x\n"),
               "line 6: 'taylor' must be a list field"),
    "quasismooth-d": ("kind: quasismooth\nbasis:\n  u 0\n  w 1\norder: 1\nd: 1 | u -> 1 w\n",
                      "line 6: 'd' must be a list field"),
    "order": ("kind: linfty\n" + ONE_GEN + "order:\n  2\n",
              "line 5: 'order' must be a scalar field"),
    "nilpotency": ("kind: dgla\n" + ONE_GEN + "nilpotency:\n", "'nilpotency' must be a scalar field"),
    "element-subdocument": ("kind: mc_element\nbegin element\nkind: graded_space\nend element\n",
                            "'element' must be a list field"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("field", sorted(FIELD_SHAPE_ERRORS))
def test_exit_two_on_field_of_the_wrong_shape(tmp_path, field, flags):
    text, message = FIELD_SHAPE_ERRORS[field]
    doc = tmp_path / "bad.doc"
    doc.write_text(text)
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", "validate",
                           "--in", str(doc)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s\n" % message)



# rational tokens that Python's int() reads but docs/format.md does not
# allow, and the error each gets; a '+' splits a combo into terms first
OFF_FORMAT_RATIONALS = {
    "underscore": ("1_000", "invalid rational '1_000'"),
    "fullwidth": ("\uff11", "invalid rational '\uff11'"),
    "signed-denominator": ("1/-2", "invalid rational '1/-2'"),
    "plus": ("+3", "term '' must be 'coeff name'"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("case", sorted(OFF_FORMAT_RATIONALS))
def test_exit_two_on_rational_outside_the_format(tmp_path, case, flags):
    token, message = OFF_FORMAT_RATIONALS[case]
    mc = tmp_path / "x.mc"
    mc.write_text("kind: mc_element\nelement: %s h@u + 1 e@v\n" % token, encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", "obstruction",
                           "--in", SL2, "--in", EXT, "--in", str(mc)], capture_output=True,
                          env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == \
        (2, b"", "error: line 2: %s\n" % message)

# integer fields that Python's int() reads but docs/format.md does not
# allow, and the error each gets; the first is a dgla that was read as
# valid before integer fields followed the format
OFF_FORMAT_INTEGERS = {
    "degree-fullwidth": ("kind: dgla\nbasis:\n  e \uff11\n  f +0\n  g 0_0\n",
                         "line 3: degree '\uff11' is not an integer"),
    "degree-plus": ("kind: dgla\nbasis:\n  f +0\n", "line 3: degree '+0' is not an integer"),
    "degree-underscore": ("kind: dgla\nbasis:\n  g 0_0\n",
                          "line 3: degree '0_0' is not an integer"),
    "nilpotency": ("kind: dgla\n" + ONE_GEN + "nilpotency: +2\n",
                   "line 4: nilpotency '+2' is not an integer"),
    "order": ("kind: linfty\n" + ONE_GEN + "order: 1_0\n", "line 4: order '1_0' is not an integer"),
    "arity": ("kind: linfty\n" + ONE_GEN + "order: 2\ntaylor:\n  +1 | u -> 1 u\n",
              "line 6: arity '+1' is not an integer"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("case", sorted(OFF_FORMAT_INTEGERS))
def test_exit_two_on_integer_outside_the_format(tmp_path, case, flags):
    text, message = OFF_FORMAT_INTEGERS[case]
    doc = tmp_path / "bad.doc"
    doc.write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", "validate",
                           "--in", str(doc)], capture_output=True,
                          env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout, proc.stderr.decode("utf-8")) == \
        (2, b"", "error: %s\n" % message)


def test_main_calls_do_not_share_input_lists(capsys, tmp_path):
    # the parser is built once; each call reads only its own --in files
    b = tmp_path / "b.alg"
    b.write_text(B_ALGEBRA)
    assert run(capsys, "validate", "--in", SL2, "--in", str(b))[0] == 0
    code, out, _ = run(capsys, "validate", "--in", str(b))
    assert code == 0
    assert out == "command: validate\nnilpotent_dg_algebra: valid\nexit: 0\n"
    code, out, err = run(capsys, "validate")
    assert (code, out, err) == (0, "command: validate\nexit: 0\n", "")
    assert run(capsys, "validate", "--in", SL2)[1] == \
        "command: validate\ndgla: valid\nexit: 0\n"


def test_exit_two_on_wrong_kind(capsys, tmp_path):
    b = tmp_path / "b.alg"
    b.write_text(B_ALGEBRA)
    code, out, err = run(capsys, "tangent", "--in", str(b))
    assert code == 2
    assert "dgla" in err


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "defalg.cli", "tangent",
                           "--in", SL2], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dimensions" in proc.stdout


def test_minimalize_under_python_O(capsys):
    # asserts are stripped; the verdicts rest on explicit checks, so the
    # output is the same
    proc = subprocess.run([sys.executable, "-O", "-m", "defalg.cli", "minimalize",
                           "--in", PAIRS], capture_output=True)
    code, out, _ = run(capsys, "minimalize", "--in", PAIRS)
    assert proc.returncode == 0 and code == 0
    assert proc.stdout == out.encode("utf-8")


def test_src_has_no_assert_statements():
    # python -O strips assert: every check in the package is explicit code
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "defalg"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_src_reads_every_name_it_imports():
    # an imported name that its module never reads is dead code
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "defalg"
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, (path.name, sorted(imported - read))


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_prorepresent_exit_two_on_invalid_dgla(order, flags):
    # sl2_scaled_broken fails graded antisymmetry: from order 3 on the
    # Kuranishi certificate fails, and the failure is traced to the input
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", "prorepresent",
                           "--in", str(FIXTURES / "sl2_scaled_broken.dgla"),
                           "--order", str(order)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: invalid dgla: graded antisymmetry fails on (h, f); ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", [["primary-bracket"], ["dgla-to-linfty", "--order", "3"],
                                     ["prorepresent", "--order", "2"]],
                         ids=["primary-bracket", "dgla-to-linfty", "prorepresent"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_unguarded_commands_exit_two_on_invalid_dgla(command, flags):
    # no certificate guards these commands on sl2_scaled_broken (prorepresent
    # at order 2 checks nothing that antisymmetry breaks), so the DGLA is
    # validated before anything is computed
    proc = subprocess.run([sys.executable, *flags, "-m", "defalg.cli", *command,
                           "--in", str(FIXTURES / "sl2_scaled_broken.dgla")],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: invalid dgla: graded antisymmetry fails on (h, f); ")
    assert proc.stderr.count("\n") == 1


def test_defalg_seed_changes_nothing():
    # DEFALG_SEED seeds the test suite's generators; the program reads no
    # environment variable, and a value that is not a number is no error
    argv = [sys.executable, "-m", "defalg.cli", "tangent", "--in", SL2]
    env = {k: v for k, v in os.environ.items() if k != "DEFALG_SEED"}
    plain = subprocess.run(argv, capture_output=True, env=env)
    seeded = subprocess.run(argv, capture_output=True, env={**env, "DEFALG_SEED": "abc"})
    assert plain.returncode == seeded.returncode == 0
    assert seeded.stdout == plain.stdout
    assert b"Traceback" not in seeded.stderr
