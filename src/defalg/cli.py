"""Command-line interface: parse structure documents, dispatch, report.

``defalg <command> --in <file> [--in <file>…] [--order N] [--json]``

Exit status: 0 on success / verdict true, 1 on verdict false, 2 on input
errors (unreadable files, syntax errors, schema mismatches, an invalid DGLA
or algebra given to a command no certificate guards, and an input algebra
or DGLA found invalid once a certificate fails), 3 when an exact
certificate the program checks for its own result fails.  ``mc-check`` and
``gauge`` validate both their DGLA and their algebra before computing.  All
numbers in reports are exact rationals.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import docio, linalg
from .dgla import (def_tangent, gauge_equivalent, mc_check, mc_lift, tensor_dgla,
                   tensor_space)
from .graded import cohomology
from .linfty import check_linfty, dgla_to_linfty
from .models import h_r_tangent, is_minimal, kuranishi_prorepresent, minimalize
from .obstruction import cohomology_bracket
from .algebras import factor_into_small_extensions


class SchemaError(ValueError):
    """Command and input kinds do not match."""


@dataclass
class Report:
    command: str
    verdicts: List[Tuple[str, str]] = field(default_factory=list)
    tables: Dict[str, object] = field(default_factory=dict)
    documents: List[str] = field(default_factory=list)
    exit_status: int = 0

    def render_text(self) -> str:
        out = ["command: %s" % self.command]
        for label, verdict in self.verdicts:
            out.append("%s: %s" % (label, verdict))
        for name, table in self.tables.items():
            out.append(name + ":")
            if isinstance(table, dict):
                for k in sorted(table):
                    out.append("  %s: %s" % (k, table[k]))
            else:
                for row in table:
                    out.append("  " + str(row))
        for doc in self.documents:
            out.append("---")
            out.append(doc.rstrip("\n"))
        out.append("exit: %d" % self.exit_status)
        return "\n".join(out) + "\n"

    def render_json(self) -> str:
        def enc(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, dict):
                return {str(k): enc(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [enc(v) for v in x]
            return x
        return json.dumps({
            "command": self.command,
            "verdicts": enc(self.verdicts),
            "tables": enc(self.tables),
            "documents": list(self.documents),
            "exit": self.exit_status,
        }, indent=2) + "\n"


def _take(docs: List[docio.InputDocument], kind: str) -> docio.InputDocument:
    for i, d in enumerate(docs):
        if d is not None and d.kind == kind:
            docs[i] = None
            return d
    raise SchemaError("command requires an input of kind %r" % kind)


def _valid(label: str, obj):
    """obj, or DocumentError naming ``label`` when it fails its axioms."""
    errs = obj.validate().errors
    if errs:
        raise docio.DocumentError("invalid %s: %s" % (label, "; ".join(errs)))
    return obj


def _combo_str(space, vec) -> str:
    return docio._format_combo(docio._combo_of_vector(space, vec))


def _cohomology_class(res) -> List[Fraction]:
    """The class of an mc_lift result in H²(L⊗I), one coordinate per
    harmonic basis vector, as the reports list it."""
    return [res.cohomology_class.get(k, linalg.ZERO)
            for k in range(res.i_cohomology.harmonic_space.dim)]


def cmd_validate(docs, args) -> Report:
    rep = Report("validate")
    ok_all = True
    for d in docs:
        obj = docio.build(d) if d.kind != "mc_element" else None
        if d.kind == "mc_element":
            rep.verdicts.append(("mc_element", "skipped (needs ambient)"))
            continue
        if d.kind in ("nilpotent_dg_algebra", "dgla"):
            errs = list(obj.validate().errors)
        elif d.kind == "small_extension":      # the extension itself is checked on build
            errs = ["algebra %s: %s" % (side, err) for side, alg in (("a", obj.a), ("b", obj.b))
                    for err in alg.validate().errors]
        elif d.kind == "linfty":
            errs = ["generalized Jacobi fails at arity %d" % k
                    for k in check_linfty(obj).defect_arities]
        else:
            errs = []      # construction already validated
        ok_all = ok_all and not errs
        rep.verdicts.append((d.kind, "valid" if not errs
                             else "invalid: " + "; ".join(errs)))
    rep.exit_status = 0 if ok_all else 1
    return rep


def cmd_cohomology(docs, args) -> Report:
    for kind in ("complex", "nilpotent_dg_algebra", "dgla"):
        try:
            d = _take(docs, kind)
        except SchemaError:
            continue
        obj = docio.build(d)
        cx = obj if kind == "complex" else obj.complex()
        rep = Report("cohomology")
        rep.tables["dimensions"] = cohomology(cx).dims()
        return rep
    raise SchemaError("cohomology needs a complex, algebra or dgla input")


def cmd_tangent(docs, args) -> Report:
    l = docio.build(_take(docs, "dgla"))
    rep = Report("tangent")
    rep.tables["dimensions"] = def_tangent(l).dims()
    return rep


def _valid_extension(e):
    """e, or DocumentError naming the first of its algebras that is invalid."""
    _valid("small extension: algebra a", e.a)
    _valid("small extension: algebra b", e.b)
    return e


def _tensor_inputs(docs):
    l = _valid("dgla", docio.build(_take(docs, "dgla")))
    a = _valid("nilpotent_dg_algebra", docio.build(_take(docs, "nilpotent_dg_algebra")))
    return l, a, tensor_dgla(l, a)


def cmd_mc_check(docs, args) -> Report:
    l, a, t = _tensor_inputs(docs)
    x = docio.build_mc_element(_take(docs, "mc_element"), t.space)
    ok, defect = mc_check(t, x)
    rep = Report("mc-check")
    rep.verdicts.append(("maurer-cartan", "yes" if ok else "no"))
    if not ok:
        rep.tables["defect"] = [_combo_str(t.space, defect)]
        rep.exit_status = 1
    return rep


def _lift_from_inputs(docs):
    l = _valid("dgla", docio.build(_take(docs, "dgla")))
    e = docio.build_small_extension(_take(docs, "small_extension"))
    x = docio.build_mc_element(_take(docs, "mc_element"),
                               tensor_space(l.space, e.b.space))
    return mc_lift(e, l, x)


def cmd_mc_lift(docs, args) -> Report:
    res = _lift_from_inputs(docs)
    rep = Report("mc-lift")
    rep.verdicts.append(("lifted", "yes" if res.lifted else "obstructed"))
    if res.lifted:
        rep.tables["lift"] = [_combo_str(res.tensor_a.space, res.lift)]
        rep.tables["lift translations"] = [
            _combo_str(res.tensor_a.space, v) for v in res.lift_translations]
    else:
        rep.tables["obstruction class"] = list(res.obstruction_class)
        if res.cohomology_class is not None:
            rep.tables["cohomology class"] = _cohomology_class(res)
        rep.exit_status = 1
    return rep


def cmd_gauge(docs, args) -> Report:
    l, a, t = _tensor_inputs(docs)
    x = docio.build_mc_element(_take(docs, "mc_element"), t.space)
    y = docio.build_mc_element(_take(docs, "mc_element"), t.space)
    dec = gauge_equivalent(l, a, x, y)
    rep = Report("gauge")
    rep.verdicts.append(("gauge-equivalent", dec.verdict))
    if dec.witness is not None:
        rep.tables["witness"] = [_combo_str(t.space, dec.witness)]
    rep.exit_status = 0 if dec.verdict == "YES" else 1
    return rep


def cmd_obstruction(docs, args) -> Report:
    res = _lift_from_inputs(docs)
    small = res.cohomology_class is not None
    rep = Report("obstruction")
    rep.verdicts.append(("strictly small", "yes" if small else "no"))
    rep.verdicts.append(("obstruction vanishes", "yes" if res.lifted else "no"))
    if small:
        rep.tables["class in kernel cohomology"] = _cohomology_class(res)
    elif not res.lifted:
        rep.tables["cokernel class"] = list(res.obstruction_class)
    rep.exit_status = 0 if res.lifted else 1
    return rep


def cmd_primary_bracket(docs, args) -> Report:
    l = _valid("dgla", docio.build(_take(docs, "dgla")))
    hb = cohomology_bracket(l)
    rep = Report("primary-bracket")
    table = []
    for i, j, sv in hb.constants():
        combo = tuple((hb.space.names[k], c) for k, c in sv.items())
        table.append("[%s, %s] = %s" % (hb.space.names[i], hb.space.names[j],
                                        docio._format_combo(combo)))
    rep.tables["bracket on cohomology"] = table
    rep.tables["dimensions"] = {k: len(hb.space.degree_indices(k))
                                for k in sorted(set(hb.space.degrees))}
    return rep


def cmd_linfty_check(docs, args) -> Report:
    s = docio.build(_take(docs, "linfty"))
    r = check_linfty(s)
    rep = Report("linfty-check")
    rep.verdicts.append(("linfty", "yes" if r.ok else "no"))
    if not r.ok:
        rep.tables["defect arities"] = list(r.defect_arities)
        rep.exit_status = 1
    return rep


def cmd_dgla_to_linfty(docs, args) -> Report:
    l = _valid("dgla", docio.build(_take(docs, "dgla")))
    s = dgla_to_linfty(l, order=args.order)
    rep = Report("dgla-to-linfty")
    rep.documents.append(docio.print_document(docio.document_of_linfty(s)))
    return rep


def cmd_minimalize(docs, args) -> Report:
    r = docio.build(_take(docs, "quasismooth"))
    mm = minimalize(r)
    rep = Report("minimalize")
    rep.verdicts.append(("already minimal", "yes" if mm.s is r else "no"))
    rep.verdicts.append(("minimal", "yes" if is_minimal(mm.s) else "no"))
    degs = sorted(set(1 - d for d in mm.s.v.degrees)) if mm.s.v.dim else []
    rep.tables["tangent dimensions"] = {
        i: h_r_tangent(mm.s, i) for i in degs}
    rep.documents.append(
        docio.print_document(docio.document_of_quasismooth(mm.s)))
    return rep


def cmd_prorepresent(docs, args) -> Report:
    l = _valid("dgla", docio.build(_take(docs, "dgla")))
    r, ve = kuranishi_prorepresent(l, order=args.order)
    rep = Report("prorepresent")
    rep.verdicts.append(("minimal", "yes" if is_minimal(r) else "no"))
    rep.tables["generators"] = {
        r.v.names[i]: r.v.degrees[i] for i in range(r.v.dim)}
    rep.documents.append(docio.print_document(docio.document_of_quasismooth(r)))
    rep.documents.append(docio.print_document(
        docio.document_of_mc_element(ve.tensor.space, ve.xi)))
    return rep


def cmd_factor_extensions(docs, args) -> Report:
    e = _valid_extension(docio.build_small_extension(_take(docs, "small_extension")))
    chain = factor_into_small_extensions(e.alpha)
    rep = Report("factor-extensions")
    rep.verdicts.append(("stages", str(len(chain))))
    rep.tables["kernel dimensions per stage"] = [
        stage.i_complex.space.dim for stage in chain]
    return rep


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "tangent": cmd_tangent,
    "mc-check": cmd_mc_check,
    "mc-lift": cmd_mc_lift,
    "gauge": cmd_gauge,
    "obstruction": cmd_obstruction,
    "primary-bracket": cmd_primary_bracket,
    "linfty-check": cmd_linfty_check,
    "dgla-to-linfty": cmd_dgla_to_linfty,
    "minimalize": cmd_minimalize,
    "prorepresent": cmd_prorepresent,
    "factor-extensions": cmd_factor_extensions,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defalg",
        description="Exact deformation algebra: validate structures, compute "
                    "cohomology, Maurer-Cartan lifts, obstructions, "
                    "L-infinity checks and minimal models.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--in", dest="inputs", action="append", default=[],
                        metavar="FILE", help="input document (repeatable)")
    parser.add_argument("--order", type=int, default=3,
                        help="truncation order for dgla-to-linfty and "
                             "prorepresent (default 3)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    return parser


# built once; argparse copies the --in list before appending to it
_PARSER = _parser()


def _raise_on_invalid_input(docs: List[docio.InputDocument]) -> None:
    """DocumentError naming the first algebra or DGLA input, or algebra of
    a small extension, that fails its axioms."""
    for d in docs:
        if d.kind in ("nilpotent_dg_algebra", "dgla"):
            _valid(d.kind, docio.build(d))
        elif d.kind == "small_extension":
            _valid_extension(docio.build_small_extension(d))


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        docs = []
        for path in args.inputs:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise SchemaError("cannot read %s: %s" % (path, exc))
            docs.append(docio.parse(text))
        try:
            report = COMMANDS[args.command](list(docs), args)
        except linalg.CertificateError:
            # the inputs are validated only when a certificate fails: an
            # invalid input is an input error, not a defect of the program
            _raise_on_invalid_input(docs)
            raise
    except (docio.DocumentError, SchemaError, ValueError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except linalg.CertificateError as err:
        sys.stderr.write("error: certificate failed: %s\n" % err)
        return 3
    sys.stdout.write(report.render_json() if args.json
                     else report.render_text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
