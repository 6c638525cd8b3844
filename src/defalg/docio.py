"""Text documents describing spaces, algebras, DGLAs and related objects.

One self-describing line-oriented format: a ``kind:`` header followed by
named fields.  List fields open with ``field:`` and collect indented item
lines; subdocuments are bracketed by ``begin name`` / ``end name``.
Scalars are exact rationals written ``p`` or ``p/q``.  Unlisted structure
constants are zero.  Parsing is canonicalizing, so ``parse(print(x))``
returns an equal document for every valid document.

A parsed coefficient is a Python ``int`` when its token is integral and a
``Fraction`` only for a ``p/q`` token (equal, and hashing the same, to the
Fraction of the same value).  The structure constants of an algebra or a
DGLA go from the document to the integer index with no Fraction built for
an integral one; every ``GradedMap`` entry and vector coordinate built
here is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .algebras import (BilinearStructure, DgAlgebraMorphism, NilpotentDgAlgebra,
                       SmallExtension, kernel_extension)
from .dgla import Dgla
from .graded import Complex, GradedMap, GradedSpace
from .linfty import LInftyStructure, SymCoalgebra
from .models import QuasismoothTrunc

KINDS = ("graded_space", "complex", "nilpotent_dg_algebra", "dgla", "linfty",
         "small_extension", "mc_element", "quasismooth")

Scalar = Union[int, Fraction]
Combo = Tuple[Tuple[str, Scalar], ...]

# the field holding the structure constants of each bilinear kind
TABLE_FIELDS = {"nilpotent_dg_algebra": "mult", "dgla": "bracket"}
# the field holding the ``k | key -> combo`` list of each graded kind
GRADED_FIELDS = {"linfty": "taylor", "quasismooth": "d"}


class DocumentError(ValueError):
    """A syntax or semantic error, located by line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass
class InputDocument:
    kind: str
    payload: Dict


# ---------------------------------------------------------------------------
# parsing

def _parse_rational(tok: str, line: int) -> Scalar:
    """``p`` or ``p/q`` in ASCII digits, p with an optional leading ``-``
    and q unsigned and nonzero: an int for ``p``, a Fraction for ``p/q``.
    ``int`` alone would also take ``+3``, ``1_000``, surrounding spaces and
    non-ASCII digits."""
    num, slash, den = tok.partition("/")
    if tok.isascii() and (num.isdigit() or num[:1] == "-" and num[1:].isdigit()):
        if not slash:
            return int(num)
        if den.isdigit() and den.strip("0"):
            return Fraction(int(num), int(den))
    raise DocumentError("invalid rational %r" % tok, line)


def _parse_int(tok: str, what: str, line: int) -> int:
    """An integer field: ASCII digits with an optional leading ``-``.
    ``int`` alone would also take ``+0``, ``0_0``, surrounding spaces and
    non-ASCII digits such as ``１``."""
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise DocumentError("%s %r is not an integer" % (what, tok), line)


def _sum_terms(terms: Iterable[Tuple[str, Scalar]]) -> Combo:
    """One pass: each name once, in the order of its first term, with the
    sum of its coefficients; names whose sum is 0 are dropped."""
    out: Dict[str, Scalar] = {}
    for name, c in terms:
        out[name] = out[name] + c if name in out else c
    return tuple((name, c) for name, c in out.items() if c)


def _parse_term(term: str, line: int) -> Tuple[str, Scalar]:
    parts = term.split()
    if len(parts) != 2:
        raise DocumentError("term %r must be 'coeff name'" % term.strip(), line)
    return parts[1], _parse_rational(parts[0], line)


def _parse_combo(text: str, line: int) -> Combo:
    text = text.strip()
    if text == "0":
        return ()
    if "+" not in text:                 # one term: nothing to sum
        name, c = _parse_term(text, line)
        return ((name, c),) if c else ()
    return _sum_terms(_parse_term(term, line) for term in text.split("+"))


def _split_lines(text: str) -> List[Tuple[int, str, bool]]:
    """(line number, stripped content, was-indented) with comments removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0].rstrip()
        content = body.lstrip()
        if content:
            out.append((i, content, body[0] in " \t"))
    return out


def parse(text: str) -> InputDocument:
    lines = _split_lines(text)
    doc, pos = _parse_block(lines, 0, None)
    if pos != len(lines):
        raise DocumentError("unexpected content after document end",
                            lines[pos][0])
    return doc


def _parse_block(lines, pos: int, until: Optional[str]) -> Tuple[InputDocument, int]:
    kind: Optional[str] = None
    raw: Dict[str, object] = {}
    current: Optional[str] = None
    end = None if until is None else "end " + until
    while pos < len(lines):
        lno, body, indented = lines[pos]
        if body == end:
            break
        if indented:
            if current is None:
                raise DocumentError("item line outside any field", lno)
            raw[current].append((lno, body))
            pos += 1
            continue
        current = None
        if body.startswith("begin "):
            name = body[6:].strip()
            if not name:
                raise DocumentError("begin requires a field name", lno)
            sub, pos = _parse_block(lines, pos + 1, name)
            if pos >= len(lines) or lines[pos][1] != "end " + name:
                raise DocumentError("missing 'end %s'" % name, lno)
            raw[name] = sub
            pos += 1
            continue
        if ":" not in body:
            raise DocumentError("expected 'field:' or 'field: value'", lno)
        name, _, rest = body.partition(":")
        name = name.strip()
        rest = rest.strip()
        if name == "kind":
            if rest not in KINDS:
                raise DocumentError("unknown kind %r" % rest, lno)
            kind = rest
        elif rest:
            raw[name] = (lno, rest)
        else:
            raw[name] = []
            current = name
        pos += 1
    if kind is None:
        raise DocumentError("document has no 'kind' header",
                            lines[pos - 1][0] if pos else None)
    payload = _PAYLOAD_BUILDERS[kind](raw)
    return InputDocument(kind, payload), pos


def _take_list(raw, fld) -> List[Tuple[int, str]]:
    """The (line, text) items of list field ``fld``, none when it is
    absent; a scalar or a subdocument there is an error."""
    items = raw.pop(fld, [])
    if not isinstance(items, list):
        raise DocumentError("'%s' must be a list field" % fld,
                            items[0] if isinstance(items, tuple) else None)
    return items


def _take_basis(raw, fld="basis") -> Tuple[Tuple[str, int], ...]:
    items = _take_list(raw, fld)
    basis = []
    seen = set()
    for lno, body in items:
        parts = body.split()
        if len(parts) != 2:
            raise DocumentError("basis item must be 'name degree'", lno)
        name, deg = parts
        deg = _parse_int(deg, "degree", lno)
        if name in seen:
            raise DocumentError("duplicate basis name %r" % name, lno)
        seen.add(name)
        basis.append((name, deg))
    return tuple(basis)


def _check_names(combo: Combo, names, lno: int) -> None:
    for n, _ in combo:
        if n not in names:
            raise DocumentError("unknown name %r" % n, lno)


def _take_map(raw, fld, src_names, dst_names) -> Dict[str, Combo]:
    items = _take_list(raw, fld)
    out: Dict[str, Combo] = {}
    for lno, body in items:
        lhs, arrow, rhs = body.partition("->")
        if not arrow:
            raise DocumentError("map item must be 'name -> combo'", lno)
        src = lhs.strip()
        if src not in src_names:
            raise DocumentError("unknown name %r" % src, lno)
        if src in out:
            raise DocumentError("duplicate image for %r" % src, lno)
        combo = _parse_combo(rhs, lno)
        _check_names(combo, dst_names, lno)
        if combo:
            out[src] = combo
    return out


def _take_table(raw, fld, names) -> Dict[Tuple[str, str], Combo]:
    items = _take_list(raw, fld)
    out: Dict[Tuple[str, str], Combo] = {}
    for lno, body in items:
        lhs, arrow, rhs = body.partition("->")
        if not arrow:
            raise DocumentError("table item must be 'name name -> combo'", lno)
        key = tuple(lhs.split())
        if len(key) != 2:
            raise DocumentError("left side must be two names", lno)
        for p in key:
            if p not in names:
                raise DocumentError("unknown name %r" % p, lno)
        if key in out:
            raise DocumentError("duplicate entry for %r" % (key,), lno)
        combo = _parse_combo(rhs, lno)
        _check_names(combo, names, lno)
        if combo:
            out[key] = combo
    return out


def _take_scalar_int(raw, fld) -> Optional[int]:
    item = raw.pop(fld, None)
    if item is None:
        return None
    if not isinstance(item, tuple):
        raise DocumentError("'%s' must be a scalar field" % fld,
                            item[0][0] if isinstance(item, list) and item else None)
    return _parse_int(item[1], fld, item[0])


def _finish(raw) -> None:
    for k, v in raw.items():
        lno = None
        if isinstance(v, list) and v:
            lno = v[0][0]
        elif isinstance(v, tuple):
            lno = v[0]
        raise DocumentError("unknown field %r" % k, lno)


def _payload_graded_space(raw) -> Dict:
    basis = _take_basis(raw)
    _finish(raw)
    return {"basis": basis}


def _payload_complex(raw) -> Dict:
    basis = _take_basis(raw)
    names = {n for n, _ in basis}
    d = _take_map(raw, "d", names, names)
    _finish(raw)
    return {"basis": basis, "d": d}


def _payload_structure(raw, fld) -> Dict:
    """An algebra (table field ``mult``) or a DGLA (``bracket``, and the
    optional ``nilpotency``)."""
    basis = _take_basis(raw)
    names = {n for n, _ in basis}
    payload = {"basis": basis, "d": _take_map(raw, "d", names, names),
               fld: _take_table(raw, fld, names)}
    if fld == "bracket":
        payload["nilpotency"] = _take_scalar_int(raw, "nilpotency")
    _finish(raw)
    return payload


def _check_word(letters, k: int, names, lno: int, length_error: str) -> None:
    if len(letters) != k:
        raise DocumentError(length_error, lno)
    for l in letters:
        if l not in names:
            raise DocumentError("unknown name %r" % l, lno)


def _payload_graded(raw, kind) -> Dict:
    """A linfty or quasismooth document: one list of ``k | key -> combo``
    items with k in 1..order.  A linfty ``taylor`` key is a word of k
    letters and its combo sums letters; a quasismooth ``d`` key is a
    generator and its combo sums words of k letters written ``a*b``."""
    basis = _take_basis(raw)
    names = {n for n, _ in basis}
    order = _take_scalar_int(raw, "order")
    if order is None:
        raise DocumentError("%s requires an 'order' field" % kind)
    word_keys = kind == "linfty"
    fld = GRADED_FIELDS[kind]
    noun, shape = (("arity", "taylor item must be 'k | word -> combo'") if word_keys
                   else ("order", "item must be 'k | generator -> combo'"))
    items: Dict[Tuple[int, object], Combo] = {}
    for lno, body in _take_list(raw, fld):
        lhs, arrow, rhs = body.partition("->")
        head, bar, key = lhs.partition("|")
        if not arrow or not bar:
            raise DocumentError(shape, lno)
        k = _parse_int(head.strip(), noun, lno)
        if not 1 <= k <= order:
            raise DocumentError("%s %d is outside 1..%d (the order)" % (noun, k, order), lno)
        if word_keys:
            key = tuple(key.split())
            _check_word(key, k, names, lno, "word length does not match arity %d" % k)
        else:
            key = key.strip()
            if key not in names:
                raise DocumentError("unknown generator %r" % key, lno)
        combo = _parse_combo(rhs, lno)
        if word_keys:
            _check_names(combo, names, lno)
        else:
            for word, _ in combo:
                _check_word(word.split("*"), k, names, lno,
                            "word %r has length != %d" % (word, k))
        if (k, key) in items:
            raise DocumentError(("duplicate taylor entry for %r" if word_keys
                                 else "duplicate component for %r") % (key,), lno)
        if combo:
            items[(k, key)] = combo
    _finish(raw)
    return {"basis": basis, "order": order, fld: items}


def _payload_small_extension(raw) -> Dict:
    a = raw.pop("a", None)
    b = raw.pop("b", None)
    for nm, sub in (("a", a), ("b", b)):
        if not isinstance(sub, InputDocument) or \
                sub.kind != "nilpotent_dg_algebra":
            raise DocumentError(
                "small_extension requires a nilpotent_dg_algebra "
                "subdocument 'begin %s … end %s'" % (nm, nm))
    a_names = {n for n, _ in a.payload["basis"]}
    b_names = {n for n, _ in b.payload["basis"]}
    alpha = _take_map(raw, "alpha", a_names, b_names)
    _finish(raw)
    return {"a": a, "b": b, "alpha": alpha}


def _payload_mc_element(raw) -> Dict:
    item = raw.get("element")
    if item is None:
        raise DocumentError("mc_element requires an 'element' field")
    if isinstance(item, tuple):
        lno, text = raw.pop("element")
        combo = _parse_combo(text, lno)
    else:
        combo = _sum_terms(t for lno, body in _take_list(raw, "element")
                           for t in _parse_combo(body, lno))
    _finish(raw)
    return {"element": combo}


_PAYLOAD_BUILDERS = {
    "graded_space": _payload_graded_space,
    "complex": _payload_complex,
    "nilpotent_dg_algebra": lambda raw: _payload_structure(raw, "mult"),
    "dgla": lambda raw: _payload_structure(raw, "bracket"),
    "linfty": lambda raw: _payload_graded(raw, "linfty"),
    "small_extension": _payload_small_extension,
    "mc_element": _payload_mc_element,
    "quasismooth": lambda raw: _payload_graded(raw, "quasismooth"),
}


# ---------------------------------------------------------------------------
# printing

def _format_combo(combo: Combo) -> str:
    if not combo:
        return "0"
    return " + ".join("%s %s" % (c, n) for n, c in combo)


def _emit_basis(out: List[str], basis, prefix="") -> None:
    out.append(prefix + "basis:")
    for name, deg in basis:
        out.append(prefix + "  %s %d" % (name, deg))


def _emit_map(out: List[str], fld, table: Dict[str, Combo], order) -> None:
    if not table:
        return
    out.append(fld + ":")
    for name in order:
        if name in table:
            out.append("  %s -> %s" % (name, _format_combo(table[name])))


def _emit_table(out: List[str], fld, table, order) -> None:
    if not table:
        return
    out.append(fld + ":")
    pos = {n: i for i, n in enumerate(order)}
    for (n1, n2) in sorted(table, key=lambda k: (pos[k[0]], pos[k[1]])):
        out.append("  %s %s -> %s" % (n1, n2, _format_combo(table[(n1, n2)])))


def _emit_graded(out: List[str], fld, items, order) -> None:
    """``k | key -> combo`` items by k, then by the key's letters in basis
    order; a key is a word (a tuple of letters) or a generator."""
    if not items:
        return
    out.append(fld + ":")
    pos = {n: i for i, n in enumerate(order)}

    def letters(key):
        return key if isinstance(key, tuple) else (key,)
    for (k, key) in sorted(items, key=lambda kk: (kk[0], [pos[l] for l in letters(kk[1])])):
        out.append("  %d | %s -> %s" % (k, " ".join(letters(key)),
                                        _format_combo(items[(k, key)])))


def print_document(doc: InputDocument) -> str:
    out: List[str] = ["kind: %s" % doc.kind]
    p = doc.payload
    if doc.kind in ("graded_space", "complex", "nilpotent_dg_algebra", "dgla",
                    "linfty", "quasismooth"):
        _emit_basis(out, p["basis"])
        names = [n for n, _ in p["basis"]]
    if doc.kind == "complex":
        _emit_map(out, "d", p["d"], names)
    elif doc.kind in TABLE_FIELDS:
        _emit_map(out, "d", p["d"], names)
        _emit_table(out, TABLE_FIELDS[doc.kind], p[TABLE_FIELDS[doc.kind]], names)
        if p.get("nilpotency") is not None:
            out.append("nilpotency: %d" % p["nilpotency"])
    elif doc.kind in GRADED_FIELDS:
        out.append("order: %d" % p["order"])
        _emit_graded(out, GRADED_FIELDS[doc.kind], p[GRADED_FIELDS[doc.kind]], names)
    elif doc.kind == "small_extension":
        for nm in ("a", "b"):
            out.append("begin " + nm)
            out.extend(print_document(p[nm]).splitlines())
            out.append("end " + nm)
        a_names = [n for n, _ in p["a"].payload["basis"]]
        _emit_map(out, "alpha", p["alpha"], a_names)
    elif doc.kind == "mc_element":
        out.append("element: %s" % _format_combo(p["element"]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# building library objects from documents and back

def _combo_vector(space: GradedSpace, combo: Combo):
    v = space.zero_vector()
    for n, c in combo:
        v[space.index(n)] += c
    return v


def _map_from_payload(src: GradedSpace, dst: GradedSpace, degree: int,
                      table: Dict[str, Combo]) -> GradedMap:
    m = GradedMap(src, dst, degree)
    for name, combo in table.items():
        i = src.index(name)
        for n, c in combo:
            m.set_entry(dst.index(n), i, c)
    return m


def build_space(doc: InputDocument) -> GradedSpace:
    return GradedSpace(doc.payload["basis"])


def build_complex(doc: InputDocument) -> Complex:
    space = GradedSpace(doc.payload["basis"])
    try:
        d = _map_from_payload(space, space, 1, doc.payload["d"])
        return Complex(space, d)
    except ValueError as exc:
        raise DocumentError(str(exc))


def _build_structure(doc: InputDocument, cls, **extra):
    """The algebra or DGLA of a document, its table read from the kind's
    field as rows (i, j) -> {k: c} with the parsed coefficients as they
    are: a row of int coefficients goes onto the integer index as it is."""
    space = GradedSpace(doc.payload["basis"])
    index = space.index
    try:
        d = _map_from_payload(space, space, 1, doc.payload["d"])
        table = {(index(n1), index(n2)): {index(n): c for n, c in combo}
                 for (n1, n2), combo in doc.payload[TABLE_FIELDS[doc.kind]].items()}
        return cls(space, table, d, **extra)
    except ValueError as exc:
        raise DocumentError(str(exc))


def build_algebra(doc: InputDocument) -> NilpotentDgAlgebra:
    return _build_structure(doc, NilpotentDgAlgebra)


def build_dgla(doc: InputDocument) -> Dgla:
    return _build_structure(doc, Dgla, nilpotency_class=doc.payload.get("nilpotency"))


def _graded_maps(doc: InputDocument, powers, letters: GradedSpace
                 ) -> Dict[int, GradedMap]:
    """The maps of a ``k | key -> combo`` list, words placed in ``powers``
    with their signs: Q¹_k: ⊙^k → ``letters`` from a linfty document,
    d_k: ``letters`` → ⊙^k from a quasismooth one."""
    v = GradedSpace(doc.payload["basis"])
    word_keys = doc.kind == "linfty"
    maps: Dict[int, GradedMap] = {}
    for (k, key), combo in doc.payload[GRADED_FIELDS[doc.kind]].items():
        pw = powers[k]
        m = maps.get(k)
        if m is None:
            m = maps[k] = GradedMap(pw.space, letters, 1) if word_keys \
                else GradedMap(letters, pw.space, 1)
        for n, c in combo:
            word, letter = (key, n) if word_keys else (n, key)
            res = pw.index(tuple(v.index(l) for l in (word if word_keys else word.split("*"))))
            if res is None:
                raise DocumentError("word %r is zero in the symmetric power" % (word,))
            posn, sgn = res
            j, i = (v.index(letter), posn) if word_keys else (posn, v.index(letter))
            m.set_entry(j, i, m.entries.get((j, i), Fraction(0)) + Fraction(sgn) * c)
    return maps


def build_linfty(doc: InputDocument) -> LInftyStructure:
    space = GradedSpace(doc.payload["basis"])
    try:
        coalg = SymCoalgebra(space, doc.payload["order"])
        return LInftyStructure(space, coalg.order,
                               _graded_maps(doc, coalg.powers, coalg.letters), coalg)
    except ValueError as exc:
        raise DocumentError(str(exc))


def build_small_extension(doc: InputDocument) -> SmallExtension:
    a = build_algebra(doc.payload["a"])
    b = build_algebra(doc.payload["b"])
    try:
        alpha = DgAlgebraMorphism(
            a, b, _map_from_payload(a.space, b.space, 0, doc.payload["alpha"]),
            check=False)
        e = kernel_extension(alpha)
    except ValueError as exc:
        raise DocumentError(str(exc))
    # square-zero kernels that are not annihilated by A are accepted: the
    # lifting operations handle them and report strictness themselves
    errs = e.validate()
    if errs:
        raise DocumentError("invalid small extension: " + "; ".join(errs))
    return e


def build_mc_element(doc: InputDocument, space: GradedSpace):
    try:
        return _combo_vector(space, doc.payload["element"])
    except KeyError as exc:
        raise DocumentError("unknown tensor basis name %s" % exc)


def build_quasismooth(doc: InputDocument) -> QuasismoothTrunc:
    v = GradedSpace(doc.payload["basis"])
    try:
        shell = QuasismoothTrunc(v, doc.payload["order"], {}, check=False)
        return shell.with_components(_graded_maps(doc, shell.basis.powers, v))
    except ValueError as exc:
        raise DocumentError(str(exc))


def build(doc: InputDocument):
    """The library object for a context-free document kind."""
    builders = {
        "graded_space": build_space,
        "complex": build_complex,
        "nilpotent_dg_algebra": build_algebra,
        "dgla": build_dgla,
        "linfty": build_linfty,
        "small_extension": build_small_extension,
        "quasismooth": build_quasismooth,
    }
    if doc.kind not in builders:
        raise DocumentError("kind %r needs extra context to build" % doc.kind)
    return builders[doc.kind](doc)


# ---- documents from library objects ---------------------------------------

def _combo_of_vector(space: GradedSpace, vec) -> Combo:
    return tuple((space.names[i], c) for i, c in enumerate(vec) if c)


def _map_payload(m: GradedMap, src: GradedSpace, dst: GradedSpace
                 ) -> Dict[str, Combo]:
    out = {}
    for i in range(src.dim):
        combo = _combo_of_vector(dst, m.column(i))
        if combo:
            out[src.names[i]] = combo
    return out


def document_of_complex(c: Complex) -> InputDocument:
    return InputDocument("complex", {
        "basis": tuple(c.space.basis),
        "d": _map_payload(c.d, c.space, c.space)})


def _document_of_structure(kind: str, s: BilinearStructure, **extra) -> InputDocument:
    names = s.space.names
    table = {(names[i], names[j]): tuple((names[k], c) for k, c in sv.items())
             for i, j, sv in s.constants()}
    return InputDocument(kind, {
        "basis": tuple(s.space.basis),
        "d": _map_payload(s.d, s.space, s.space),
        TABLE_FIELDS[kind]: table, **extra})


def document_of_algebra(a: NilpotentDgAlgebra) -> InputDocument:
    return _document_of_structure("nilpotent_dg_algebra", a)


def document_of_dgla(l: Dgla) -> InputDocument:
    return _document_of_structure("dgla", l, nilpotency=l.nilpotency_class)


def document_of_linfty(s: LInftyStructure) -> InputDocument:
    taylor = {}
    for k, m in s.taylor.items():
        pw = s.coalgebra.powers[k]
        for posn, word in enumerate(pw.monomials):
            combo = _combo_of_vector(s.v, [
                m.entries.get((j, posn), Fraction(0)) for j in range(s.v.dim)])
            if combo:
                taylor[(k, tuple(s.v.names[l] for l in word))] = combo
    return InputDocument("linfty", {
        "basis": tuple(s.v.basis), "order": s.order, "taylor": taylor})


def document_of_small_extension(e: SmallExtension) -> InputDocument:
    return InputDocument("small_extension", {
        "a": document_of_algebra(e.a),
        "b": document_of_algebra(e.b),
        "alpha": _map_payload(e.alpha.map, e.a.space, e.b.space)})


def document_of_mc_element(space: GradedSpace, vec) -> InputDocument:
    return InputDocument("mc_element", {
        "element": _combo_of_vector(space, vec)})


def document_of_quasismooth(r: QuasismoothTrunc) -> InputDocument:
    d = {}
    for k, m in r.components.items():
        for i in range(r.v.dim):
            combo = _combo_of_vector(r.basis.powers[k].space, m.column(i))
            if combo:
                d[(k, r.v.names[i])] = combo
    return InputDocument("quasismooth", {
        "basis": tuple(r.v.basis), "order": r.order, "d": d})
