"""Exact checks of ``defalg`` command output.

Each check parses the text report and compares it with what the job's
construction guarantees, by explicit comparisons that return a reason on
failure (never ``assert``, so the checks also run under ``python -O``).
Maurer-Cartan, projection and gauge checks recompute in L ⊗ A with this
benchmark's own code from ``structures.py``.
"""

import re
from fractions import Fraction

from structures import (FreeTruncation, Struct, gauge_act, jacobiator_nonzero,
                        mc_defect, rank)

_NUMBER = re.compile(r"(?<![\w.@*/-])-?(\d+)(?:/(\d+))?(?![\w.@*/])")


def max_bits(text):
    """Largest numerator or denominator bit-length among the numbers in ``text``."""
    best = 0
    for num, den in _NUMBER.findall(text):
        best = max(best, int(num).bit_length(), int(den).bit_length() if den else 0)
    return best


class Report:
    """The text report of one command: verdicts, tables, documents, exit."""

    def __init__(self, text):
        lines = text.rstrip("\n").split("\n")
        self.exit = None
        if lines and lines[-1].startswith("exit: "):
            self.exit = int(lines[-1][len("exit: "):])
            lines = lines[:-1]
        chunks = [[]]
        for line in lines:
            if line == "---":
                chunks.append([])
            else:
                chunks[-1].append(line)
        self.documents = ["\n".join(c) + "\n" for c in chunks[1:]]
        self.verdicts = {}
        self.tables = {}
        current = None
        for line in chunks[0]:
            if line.startswith("  ") and current is not None:
                self.tables[current].append(line[2:])
            elif line.endswith(":"):
                current = line[:-1]
                self.tables[current] = []
            elif ": " in line:
                key, value = line.split(": ", 1)
                self.verdicts[key] = value
                current = None

    def mapping(self, table):
        out = {}
        for row in self.tables.get(table, []):
            k, v = row.split(": ", 1)
            out[k] = v
        return out


def parse_combo(text):
    """``c name + c name`` -> {name: Fraction}; ``0`` is the empty combo."""
    text = text.strip()
    out = {}
    if text == "0":
        return out
    for term in text.split(" + "):
        c, name = term.split()
        out[name] = out.get(name, Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def parse_quasismooth(doc):
    """(generators, order, {(k, generator): {word: c}}) of a quasismooth document."""
    gens, order, d = [], None, {}
    field = None
    for line in doc.splitlines():
        if not line.strip():
            continue
        if not line.startswith(" "):
            key, _, rest = line.partition(":")
            field = key
            if key == "order":
                order = int(rest)
            continue
        item = line.strip()
        if field == "basis":
            name, deg = item.split()
            gens.append((name, int(deg)))
        elif field == "d":
            head, combo = item.split(" -> ")
            k, gen = head.split(" | ")
            d[(int(k), gen)] = parse_combo(combo)
    return gens, order, d


def _word_to_mono(gens, word):
    """Exponent tuple and Koszul sign of a ``*``-joined word, or None if zero."""
    index = {n: i for i, (n, _) in enumerate(gens)}
    letters = [index[w] for w in word.split("*")]
    sign = 1
    for i in range(len(letters)):            # bubble sort, tracking odd swaps
        for j in range(len(letters) - 1 - i):
            a, b = letters[j], letters[j + 1]
            if a > b:
                if gens[a][1] % 2 and gens[b][1] % 2:
                    sign = -sign
                letters[j], letters[j + 1] = b, a
    exps = [0] * len(gens)
    for x in letters:
        exps[x] += 1
    if any(e > 1 and gens[g][1] % 2 for g, e in enumerate(exps)):
        return None
    return tuple(exps), sign


def truncation_of(gens, order, d):
    """The algebra of a parsed quasismooth document, built by this benchmark."""
    dgen = {}
    index = {n: i for i, (n, _) in enumerate(gens)}
    for (_, gen), combo in d.items():
        target = dgen.setdefault(index[gen], {})
        for word, c in combo.items():
            res = _word_to_mono(gens, word)
            if res is not None:
                target[res[0]] = target.get(res[0], Fraction(0)) + res[1] * c
    return FreeTruncation(gens, order, dgen)


def tensor_element(l, a, combo):
    """Parse ``x@a`` names into an element of L ⊗ A; None on an unknown name."""
    out = {}
    for name, c in combo.items():
        x, _, p = name.partition("@")
        if x not in l.index or p not in a.index:
            return None
        key = (l.index[x], a.index[p])
        out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _rebuild(docio, doc):
    """Rebuild a document with the library's own validation; reason or None."""
    try:
        docio.build(docio.parse(doc))
    except ValueError as exc:
        return "rebuild failed: %s" % exc
    return None


# ---------------------------------------------------------------------------
# per-command checks; each returns None when the output is right

def check_prorepresent(job, rep, docio):
    e = job.expect
    if rep.verdicts.get("minimal") != "yes":
        return "model not reported minimal"
    degs = sorted(int(v) for v in rep.mapping("generators").values())
    if degs != e["gen_degs"]:
        return "generator degrees %s, expected %s" % (degs, e["gen_degs"])
    if len(rep.documents) != 2:
        return "expected a quasismooth and an mc_element document"
    qs, mc = rep.documents
    why = _rebuild(docio, qs)
    if why:
        return why
    gens, order, d = parse_quasismooth(qs)
    if order != job.order or any(k == 1 for k, _ in d):
        return "model has order %s or a linear differential" % order
    trunc = truncation_of(gens, order, d)
    a = trunc.struct
    xi = {}
    for name, c in parse_combo(mc.split("element:", 1)[1]).items():
        x, _, word = name.partition("@")
        res = _word_to_mono(gens, word)
        if x not in e["l"].index or res is None:
            return "universal element names %r" % name
        key = (e["l"].index[x], trunc.pos[res[0]])
        xi[key] = xi.get(key, Fraction(0)) + res[1] * c
    if mc_defect(e["l"], a, xi):
        return "universal element is not Maurer-Cartan modulo order %d" % (order + 1)
    return None


def check_primary_bracket(job, rep, docio):
    e = job.expect
    dims = {int(k): int(v) for k, v in rep.mapping("dimensions").items()}
    if dims != e["hdims"]:
        return "cohomology dimensions %s, expected %s" % (dims, e["hdims"])
    basis = [("H%d_%d" % (k, t), k) for k in sorted(dims) for t in range(dims[k])]
    h = Struct(basis)
    for row in rep.tables.get("bracket on cohomology", []):
        m = re.fullmatch(r"\[(\S+), (\S+)\] = (.+)", row)
        if not m or m.group(1) not in h.index or m.group(2) not in h.index:
            return "bad bracket row %r" % row
        combo = parse_combo(m.group(3))
        if any(n not in h.index for n in combo):
            return "bad bracket row %r" % row
        h.table[(h.index[m.group(1)], h.index[m.group(2)])] = \
            {h.index[n]: c for n, c in combo.items()}
    n = h.dim
    for i in range(n):
        for j in range(n):
            sgn = -1 if (h.degs[i] % 2 and h.degs[j] % 2) else 1
            if h.table.get((i, j), {}) != {k: -sgn * c for k, c in h.table.get((j, i), {}).items()}:
                return "bracket is not graded antisymmetric"
    if jacobiator_nonzero(h):
        return "bracket breaks the Jacobi identity"
    image = [[h.table.get((i, j), {}).get(k, Fraction(0)) for k in range(n)]
             for i in range(n) for j in range(n)]
    if rank(image) != e["derived"]:
        return "dim [H, H] = %d, expected %d" % (rank(image), e["derived"])
    ad = [[h.table.get((i, j), {}).get(k, Fraction(0)) for j in range(n) for k in range(n)]
          for i in range(n)]
    if n - rank(ad) != e["center"]:
        return "center has dimension %d, expected %d" % (n - rank(ad), e["center"])
    return None


def check_minimalize(job, rep, docio):
    e = job.expect
    if rep.verdicts.get("already minimal") != "no" or rep.verdicts.get("minimal") != "yes":
        return "verdicts %s" % rep.verdicts
    tangent = {int(k): int(v) for k, v in rep.mapping("tangent dimensions").items()}
    if tangent != e["tangent"]:
        return "tangent dimensions %s, expected %s" % (tangent, e["tangent"])
    if len(rep.documents) != 1:
        return "expected one quasismooth document"
    why = _rebuild(docio, rep.documents[0])
    if why:
        return why
    gens, order, d = parse_quasismooth(rep.documents[0])
    if len(gens) != e["n_gens"] or order != e["order"] or any(k == 1 for k, _ in d):
        return "minimal model has %d generators, order %s" % (len(gens), order)
    return None


def _report_element(rep, table, l, a):
    rows = rep.tables.get(table, [])
    if len(rows) != 1:
        return None
    return tensor_element(l, a, parse_combo(rows[0]))


def check_lift(job, rep, docio):
    e = job.expect
    want = "obstructed" if e["obstructed"] else "yes"
    if rep.verdicts.get("lifted") != want:
        return "verdict %r, expected %r" % (rep.verdicts.get("lifted"), want)
    if e["obstructed"]:
        cls = [Fraction(c) for c in rep.tables.get("obstruction class", [])]
        return None if any(cls) else "obstructed without a nonzero class"
    y = _report_element(rep, "lift", e["l"], e["a"])
    if y is None:
        return "unreadable lift"
    if mc_defect(e["l"], e["a"], y):
        return "lift is not Maurer-Cartan"
    pushed = {}
    for (i, p), c in y.items():
        for q, cq in e["alpha"].get(p, {}).items():
            pushed[(i, q)] = pushed.get((i, q), Fraction(0)) + c * cq
    if {k: v for k, v in pushed.items() if v} != e["x"]:
        return "lift does not map to the input element"
    return None


def check_obstruction(job, rep, docio):
    e = job.expect
    if rep.verdicts.get("strictly small") != "yes":
        return "extension not reported strictly small"
    want = "no" if e["obstructed"] else "yes"
    if rep.verdicts.get("obstruction vanishes") != want:
        return "obstruction vanishes: %r, expected %r" % (
            rep.verdicts.get("obstruction vanishes"), want)
    cls = [Fraction(c) for c in rep.tables.get("class in kernel cohomology", [])]
    if any(cls) != e["obstructed"]:
        return "class %s disagrees with the verdict" % cls
    return None


def check_gauge(job, rep, docio):
    e = job.expect
    want = "YES" if e["equivalent"] else "NO"
    if rep.verdicts.get("gauge-equivalent") != want:
        return "verdict %r, expected %s" % (rep.verdicts.get("gauge-equivalent"), want)
    if not e["equivalent"]:
        return None
    w = _report_element(rep, "witness", e["l"], e["a"])
    if w is None:
        return "unreadable witness"
    if gauge_act(e["l"], e["a"], w, e["x"]) != e["y"]:
        return "witness does not map x to y"
    return None


def check_validate(job, rep, docio):
    e = job.expect
    verdict = rep.verdicts.get(e["doc_kind"], "")
    if (verdict == "valid") != e["valid"] or not (verdict == "valid"
                                                   or verdict.startswith("invalid: ")):
        return "verdict %r, expected %s" % (verdict, "valid" if e["valid"] else "invalid")
    return None


def check_linfty(job, rep, docio):
    e = job.expect
    want = "yes" if e["valid"] else "no"
    if rep.verdicts.get("linfty") != want:
        return "verdict %r, expected %r" % (rep.verdicts.get("linfty"), want)
    if not e["valid"] and rep.tables.get("defect arities") != ["3"]:
        return "defect arities %s, expected [3]" % rep.tables.get("defect arities")
    return None


CHECKS = {"prorepresent": check_prorepresent, "primary-bracket": check_primary_bracket,
          "minimalize": check_minimalize, "lift": check_lift,
          "obstruction": check_obstruction, "gauge": check_gauge,
          "validate": check_validate, "linfty-check": check_linfty}


def check(job, result, docio):
    """None when the job's run was right, else the reason it failed."""
    if result.error:
        return result.error
    if result.exit != job.expect["exit"]:
        return "exit %s, expected %s" % (result.exit, job.expect["exit"])
    rep = Report(result.stdout)
    if rep.exit != result.exit:
        return "report says exit %s, process returned %s" % (rep.exit, result.exit)
    try:
        return CHECKS[job.expect["kind"]](job, rep, docio)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return "unreadable output: %r" % exc
