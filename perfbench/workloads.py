"""Seeded job lists for the three workloads.

Every job is one ``defalg`` command on documents written by this module.
The shape of each list (which commands, which algebra sizes) is fixed;
the seed chooses signs in the bases and in the coefficients, and which
bracket constant gets perturbed.  Different seeds therefore give different
inputs of equal size and density, so timings of different seeds are
comparable.  Each job carries the
answer the construction guarantees (``expect``) and its input sizes.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from structures import (FreeTruncation, Struct, abelian, add_into, direct_sum,
                        gauge_act, heisenberg, jacobiator_nonzero, koszul_truncation,
                        signed_basis, sl2, sl2_odd, tensor_d, tensor_struct,
                        truncation_projection, write_algebra, write_dgla,
                        write_linfty, write_mc, write_quasismooth,
                        write_small_extension)

ORDER = 3


@dataclass
class Job:
    name: str
    command: str
    files: list
    expect: dict
    sizes: dict
    order: int = None

    def argv(self, workdir):
        argv = [self.command]
        for f in self.files:
            argv += ["--in", "%s/%s" % (workdir, f)]
        if self.order is not None:
            argv += ["--order", str(self.order)]
        return argv


@dataclass
class Workload:
    jobs: list = field(default_factory=list)
    docs: dict = field(default_factory=dict)      # file name -> text

    def add_doc(self, name, text):
        self.docs[name] = text
        return name


def sizes(l=None, a=None, order=None, nonzeros=0):
    return {"dim_l": l.dim if l else 0, "dim_a": a.dim if a else 0,
            "dim_la": (l.dim * a.dim) if (l and a) else 0,
            "nonzeros": nonzeros, "order": order or 0}


def _scaled(vec, c):
    return {k: Fraction(c) * v for k, v in vec.items() if c}


def _sign(rng):
    return Fraction(rng.choice([1, -1]))


def _signed_element(rng, indices):
    """Σ ±e_i over ``indices``: seeded signs on a fixed support, so that
    every seed gives coefficients of the same size."""
    return {i: _sign(rng) for i in indices}


def _lie(name, rng):
    """sl2 or heisenberg in a basis with seeded signs, or sl2_odd."""
    if name == "sl2_odd":
        return sl2_odd()
    return signed_basis(sl2() if name == "sl2" else heisenberg(), rng)[0]


# ---------------------------------------------------------------------------
# kuranishi: prorepresent, primary-bracket, minimalize

def kuranishi(seed):
    rng = random.Random(seed)
    w = Workload()
    # (label, Lie part, degrees of abelian classes, degrees of acyclic pairs).
    # Five equal-sized problems in different bases sit just below the
    # largest and above all others, so that job_tail_s lands on one size
    # for any round count from 2 to 10.
    ladder = [("sl2", "sl2", [], []),
              ("heis", "heis", [], []),
              ("sl2+H1", "sl2", [1], [0]),
              ("heis+H1", "heis", [1], [0, 1]),
              ("sl2+H1H2", "sl2", [1, 2], [0])]
    ladder += [("sl2+H1H1H0-%d" % b, "sl2", [1, 1, 0], [0]) for b in range(1, 6)]
    ladder += [("sl2_odd", "sl2_odd", [], [])]
    for label, lie, hdegs, pdegs in ladder:
        base = _lie(lie, rng)
        derived, center = {"sl2": (3, 0), "heis": (1, 1), "sl2_odd": (6, 0)}[lie]
        l = direct_sum(base, abelian(rng, hdegs, pdegs)[0]) if (hdegs or pdegs) else base
        fname = w.add_doc("k_%s.dgla" % label, write_dgla(l))
        hdims = {}
        for k in base.degs + hdegs:
            hdims[k] = hdims.get(k, 0) + 1
        gen_degs = sorted(1 - k for k in base.degs + hdegs)
        sz = sizes(l, None, ORDER, l.nonzeros())
        w.jobs.append(Job("prorepresent/" + label, "prorepresent", [fname],
                          {"exit": 0, "kind": "prorepresent", "l": l,
                           "gen_degs": gen_degs}, sz, ORDER))
        w.jobs.append(Job("primary-bracket/" + label, "primary-bracket", [fname],
                          {"exit": 0, "kind": "primary-bracket", "hdims": hdims,
                           "derived": derived, "center": center + len(hdegs)},
                          dict(sz, order=0)))
    # non-minimal truncations: pairs u -> c·w and odd h with d h = Σ a·w·h;
    # d² = 0 because the w are odd, and only the h survive minimalization
    for label, n_pairs, n_h, order in [("p1h1", 1, 1, 3), ("p2h1", 2, 1, 2),
                                       ("p1h2", 1, 2, 3)]:
        gens = []
        for k in range(n_pairs):
            gens += [("u%d" % k, 0), ("w%d" % k, 1)]
        hs = []
        for j in range(n_h):
            hs.append(len(gens))
            gens.append(("h%d" % j, 1))
        dcomps = {}
        for k in range(n_pairs):
            dcomps[(1, 2 * k)] = {"w%d" % k: _sign(rng)}
        for j, hj in enumerate(hs):
            dcomps[(2, hj)] = {"w%d*h%d" % (k, j): _sign(rng) for k in range(n_pairs)}
        fname = w.add_doc("k_%s.qs" % label, write_quasismooth(gens, order, dcomps))
        survivors = [deg for name, deg in gens if name.startswith("h")]
        tangent = {}
        for deg in survivors:
            tangent[1 - deg] = tangent.get(1 - deg, 0) + 1
        trunc = FreeTruncation(gens, order)
        w.jobs.append(Job("minimalize/" + label, "minimalize", [fname],
                          {"exit": 0, "kind": "minimalize", "tangent": tangent,
                           "n_gens": len(survivors), "order": order},
                          {"dim_l": 0, "dim_a": trunc.struct.dim, "dim_la": 0,
                           "nonzeros": sum(len(c) for c in dcomps.values()),
                           "order": order}))
    return w


# ---------------------------------------------------------------------------
# lift: mc-lift, obstruction, gauge

def _lift_problem(rng, l, n, obstructed):
    """An MC element over A_{n-1} = m/m^n on (t:0, u:1, v:1), d = 0.

    x = Σ ℓ_i ⊗ t^i u + Σ m_j ⊗ t^j v with every coefficient a multiple of
    one P ∈ L⁰ except ℓ_{n-2} = Q.  x is MC over A_{n-1}, and its only
    order-n defect is β₀[Q, P] ⊗ t^{n-2}uv, so it lifts to A_n iff
    [Q, P] = 0.  With d = 0 and A·I = 0 nothing can cancel that term.
    """
    gens = [("t", 0), ("u", 1), ("v", 1)]
    big = FreeTruncation(gens, n)
    small = FreeTruncation(gens, n - 1)
    deg0 = [i for i in range(l.dim) if l.degs[i] == 0]
    while True:
        p = _signed_element(rng, deg0)
        q = _signed_element(rng, deg0) if obstructed else _scaled(p, _sign(rng))
        if bool(l.mul(q, p)) == obstructed:
            break
    beta0 = _sign(rng)
    x = {}
    for i in range(n - 1):          # t^i u and t^i v have order i + 1 <= n - 1
        lu = q if i == n - 2 else _scaled(p, _sign(rng))
        mv = _scaled(p, beta0 if i == 0 else _sign(rng))
        for coef, exps in ((lu, (i, 1, 0)), (mv, (i, 0, 1))):
            pos = small.pos[exps]
            for k, ck in coef.items():
                add_into(x, {(k, pos): ck})
    return big, small, x


def _koszul_problem(rng, l, pairs, obstructed):
    """An MC element over A_1 for A = m/m^3 on Koszul pairs and (u:1, v:1).

    Pairs (s_k:0, r_k:1) with d s_k = r_k give L ⊗ I a differential, so the
    lift operator T is not zero.  x = Σ ρ_k ⊗ r_k + ℓ_u ⊗ u + ℓ_v ⊗ v is
    closed, hence MC over the square-zero A_1.  Its defect over A_2 is
    [ℓ_u, ℓ_v] ⊗ uv plus terms in r_k u, r_k v, r_j r_k, which are exact in I
    (d(s_k u) = r_k u, ...), while uv is not.  So x lifts iff [ℓ_u, ℓ_v] = 0.
    """
    big = koszul_truncation(pairs, 2, ("u", "v"))
    small = koszul_truncation(pairs, 1, ("u", "v"))
    deg0 = [i for i in range(l.dim) if l.degs[i] == 0]
    while True:
        p = _signed_element(rng, deg0)
        q = _signed_element(rng, deg0) if obstructed else _scaled(p, _sign(rng))
        if bool(l.mul(q, p)) == obstructed:
            break
    x = {}
    coefs = [_signed_element(rng, deg0) for _ in range(pairs)] + [q, p]
    for g, coef in zip([2 * k + 1 for k in range(pairs)] + [2 * pairs, 2 * pairs + 1],
                       coefs):
        pos = small.pos[small.gen_mono(g)]
        for i, c in coef.items():
            add_into(x, {(i, pos): c})
    return big, small, x


def _ce_model(lie, h1, order):
    """The Chevalley-Eilenberg truncation of L = lie ⊕ (h1 abelian classes in degree 1).

    Generators x_k (degree 1) dual to lie's basis with
    d x_k = -Σ_{i<j} c^k_ij x_i x_j, and y_m (degree 0) with d y_m = 0.
    ξ = Σ e_k ⊗ x_k + Σ a_m ⊗ y_m is exactly Maurer-Cartan.
    """
    l = direct_sum(lie, Struct([("b%d" % m, 1) for m in range(h1)])) if h1 else lie
    n = lie.dim
    gens = [("x%d" % k, 1) for k in range(n)] + [("y%d" % m, 0) for m in range(h1)]
    ng = len(gens)

    def mono(*gs):
        e = [0] * ng
        for g in gs:
            e[g] += 1
        return tuple(e)

    dgen = {}
    for (i, j), row in lie.table.items():
        if i < j:
            for k, c in row.items():
                dgen.setdefault(k, {})
                dgen[k][mono(i, j)] = dgen[k].get(mono(i, j), Fraction(0)) - c
    big = FreeTruncation(gens, order, dgen)
    small = FreeTruncation(gens, order - 1, dgen)
    xi = {}
    for g in range(ng):
        xi[(g, small.pos[mono(g)])] = Fraction(1)
    return l, big, small, xi


def lift(seed):
    rng = random.Random(seed)
    w = Workload()
    problems = []
    # Two problem pairs of the A_7 size, four jobs each of about one cost,
    # sit below the single costliest job and above all others, so that
    # job_tail_s lands on one size for any round count from 2 to 10.
    for lname, kind, size, tag in [("sl2", "A", 4, ""), ("sl2_odd", "A", 5, ""),
                                   ("sl2_odd", "A", 6, ""), ("sl2_odd", "A", 7, ""),
                                   ("sl2_odd", "A", 7, "-2"), ("sl2", "K", 2, ""),
                                   ("heis", "K", 2, ""), ("sl2_odd", "K", 2, "")]:
        for obstructed in (False, True):
            l = _lie(lname, rng)
            if kind == "A":
                big, small, x = _lift_problem(rng, l, size, obstructed)
            else:
                big, small, x = _koszul_problem(rng, l, size, obstructed)
            problems.append(("%s/%s%d%s%s" % (lname, kind, size, tag,
                                              "-obs" if obstructed else ""),
                             l, big, small, x, obstructed))
    for lname in ("sl2", "heis"):
        l, big, small, xi = _ce_model(_lie(lname, rng), 1, ORDER)
        problems.append(("%s+H1/R%d" % (lname, ORDER), l, big, small, xi, False))
    for label, l, big, small, x, obstructed in problems:
        a, b = big.struct, small.struct
        key = label.replace("/", "_")
        fl = w.add_doc("l_%s.dgla" % key, write_dgla(l))
        fe = w.add_doc("l_%s.ext" % key, write_small_extension(
            a, b, truncation_projection(big, small)))
        fx = w.add_doc("l_%s.mc" % key, write_mc(l, b, x))
        sz = sizes(l, a, big.order, l.nonzeros() + a.nonzeros())
        spec = {"kind": "lift", "l": l, "a": a, "x": x,
                "alpha": truncation_projection(big, small),
                "obstructed": obstructed, "exit": 1 if obstructed else 0}
        w.jobs.append(Job("mc-lift/" + label, "mc-lift", [fl, fe, fx], spec, sz))
        w.jobs.append(Job("obstruction/" + label, "obstruction", [fl, fe, fx],
                          dict(spec, kind="obstruction"), sz))
    # gauge on trivial-product algebras: decide is complete there
    for lname in ("sl2", "heis", "sl2_odd"):
        l = _lie(lname, rng)
        a, reps = _trivial_algebra(rng)
        for equivalent in (True, False):
            x = _closed_element(rng, l, a, reps)
            if equivalent:
                c = _degree_element(rng, l, a, 0)
                y = add_into(dict(x), tensor_d(l, a, c), -1)
            else:
                y = add_into(dict(x), _class_element(rng, l, a, reps))
            _add_gauge_job(w, "gauge/%s/trivial%s" % (lname, "" if equivalent else "-no"),
                           l, a, x, y, equivalent)
    # gauge on acyclic Koszul truncations: every pair is equivalent.  These
    # pairs are fixed (x = e^a·0 with a = Σ ±1 in a fixed pattern, y alike),
    # because the bit-length of the witness moves with the signs of a seeded
    # pair and out_bits_max must not depend on the seed.
    for lname, pairs, n in [("sl2", 1, 4), ("heis", 2, 3), ("sl2_odd", 1, 3)]:
        l = {"sl2": sl2, "heis": heisenberg, "sl2_odd": sl2_odd}[lname]()
        a = koszul_truncation(pairs, n).struct
        deg0 = [(i, p) for i in range(l.dim) for p in range(a.dim)
                if l.degs[i] + a.degs[p] == 0]
        x = gauge_act(l, a, {k: Fraction(1) for k in deg0}, {})
        y = gauge_act(l, a, {k: Fraction((-1) ** t) for t, k in enumerate(deg0)}, {})
        _add_gauge_job(w, "gauge/%s/koszul%d" % (lname, pairs), l, a, x, y, True)
    return w


def _trivial_algebra(rng):
    """A nilpotent dg-algebra with zero product, and cocycles for its three classes."""
    return abelian(rng, [1, 0, 1], [0, 1, 0], prefix="c")


def _degree_element(rng, l, a, deg):
    return _signed_element(rng, [(i, p) for i in range(l.dim) for p in range(a.dim)
                                 if l.degs[i] + a.degs[p] == deg])


def _closed_element(rng, l, a, reps):
    """A degree-1 cocycle of L ⊗ A: classes plus a boundary."""
    x = _class_element(rng, l, a, reps)
    return add_into(x, tensor_d(l, a, _degree_element(rng, l, a, 0)))


def _class_element(rng, l, a, reps):
    """ℓ ⊗ r for cocycles r of A, of total degree 1, with some ℓ ≠ 0."""
    out = {}
    for r in reps:
        deg = a.degs[next(iter(r))]
        for i in range(l.dim):
            if l.degs[i] + deg == 1:
                c = _sign(rng)
                for p, cp in r.items():
                    add_into(out, {(i, p): cp}, c)
    return out


def _add_gauge_job(w, label, l, a, x, y, equivalent):
    key = label.replace("/", "_")
    fl = w.add_doc("g_%s.dgla" % key, write_dgla(l))
    fa = w.add_doc("g_%s.alg" % key, write_algebra(a))
    fx = w.add_doc("g_%s_x.mc" % key, write_mc(l, a, x))
    fy = w.add_doc("g_%s_y.mc" % key, write_mc(l, a, y))
    w.jobs.append(Job(label, "gauge", [fl, fa, fx, fy],
                      {"kind": "gauge", "l": l, "a": a, "x": x, "y": y,
                       "equivalent": equivalent, "exit": 0 if equivalent else 1},
                      sizes(l, a, 0, l.nonzeros() + a.nonzeros())))


# ---------------------------------------------------------------------------
# validate: validate and linfty-check, half of them perturbed

def _perturb(rng, s, symmetric=False):
    """Change one structure constant; returns a new Struct.

    Without ``symmetric`` only the (i, j) entry moves, so graded
    (anti)commutativity fails for sure.  With it the (j, i) partner moves
    too and the caller checks that Jacobi fails.  With ``rng`` None the
    first entry moves by +1.
    """
    keys = sorted(k for k in s.table if k[0] != k[1])
    i, j = keys[rng.randrange(len(keys))] if rng else keys[0]
    row = dict(s.table[(i, j)])
    k = sorted(row)[rng.randrange(len(row))] if rng else min(row)
    delta = _sign(rng) if rng else Fraction(1)
    if row[k] + delta == 0:
        delta = 2 * delta
    table = {key: dict(v) for key, v in s.table.items()}
    table[(i, j)][k] = row[k] + delta
    if symmetric:
        sgn = -1 if (s.degs[i] % 2 and s.degs[j] % 2) else 1
        partner = table.setdefault((j, i), {})
        partner[k] = partner.get(k, Fraction(0)) - sgn * delta
    return Struct(s.basis, s.d, table)


def validate(seed):
    rng = random.Random(seed)
    w = Workload()
    tuv = [("t", 0), ("u", 1), ("v", 1)]
    algebras = [("A3", FreeTruncation(tuv, 3).struct),
                ("A4", FreeTruncation(tuv, 4).struct),
                ("K2", koszul_truncation(2, 3).struct),
                ("A6", FreeTruncation(tuv, 6).struct)]
    small = {"uv2": FreeTruncation([("u", 1), ("v", 1)], 2).struct,
             "s3": koszul_truncation(1, 3).struct,
             "t3": FreeTruncation([("t", 0)], 3).struct}
    # one shape comes six times, in three bases, valid and perturbed, just
    # below A6 and above all others, so that job_tail_s lands on one size
    # for any round count from 2 to 10
    tensors = [("sl2*s3-%d" % b, "sl2", "s3") for b in (1, 1, 2, 2, 3, 3)]
    tensors += [("sl2_odd*uv2", "sl2_odd", "uv2")]
    for t, (label, a) in enumerate(algebras):
        # the nilpotency check inside validate() costs what the perturbed
        # products make it cost, so the perturbation is fixed and the seed
        # only flips signs of basis vectors, which keeps the work the same
        bad = t % 2 == 1
        b = signed_basis(_perturb(None, a) if bad else a, rng)[0]
        fname = w.add_doc("v_%s.alg" % label, write_algebra(b))
        w.jobs.append(Job("validate/alg-%s%s" % (label, "-bad" if bad else ""),
                          "validate", [fname],
                          {"kind": "validate", "doc_kind": "nilpotent_dg_algebra",
                           "valid": not bad, "exit": 1 if bad else 0},
                          sizes(None, b, 0, b.nonzeros())))
    for t, (label, lname, aname) in enumerate(tensors):
        bad = t % 2 == 0
        l = _lie(lname, rng)
        ts = tensor_struct(l, small[aname])
        if bad:
            ts = _perturb(rng, ts)
        label += "-bad" if bad else ""
        fname = w.add_doc("v_%s.dgla" % label.replace("*", "x"), write_dgla(ts))
        w.jobs.append(Job("validate/dgla-" + label,
                          "validate", [fname],
                          {"kind": "validate", "doc_kind": "dgla", "valid": not bad,
                           "exit": 1 if bad else 0},
                          sizes(l, small[aname], 0, ts.nonzeros())))
    linf = [("heis", _lie("heis", rng)), ("sl2", _lie("sl2", rng)),
            ("sl2_odd", sl2_odd()),
            ("sl2*t3", tensor_struct(_lie("sl2", rng), small["t3"]))]
    for t, (label, l) in enumerate(linf):
        bad = t % 2 == 1
        if bad:
            # perturb until Jacobi breaks; a single change can keep a Lie algebra
            for _ in range(64):
                l = _perturb(rng, l, symmetric=True)
                if jacobiator_nonzero(l):
                    break
            else:
                raise RuntimeError("no Jacobi-breaking perturbation of " + label)
        fname = w.add_doc("v_%s.linf" % label.replace("*", "x"), write_linfty(l, ORDER))
        w.jobs.append(Job("linfty-check/%s%s" % (label, "-bad" if bad else ""),
                          "linfty-check", [fname],
                          {"kind": "linfty-check", "valid": not bad,
                           "exit": 1 if bad else 0},
                          sizes(l, None, ORDER, l.nonzeros())))
    return w


WORKLOADS = {"kuranishi": kuranishi, "lift": lift, "validate": validate}
