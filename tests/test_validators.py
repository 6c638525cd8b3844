"""The structure-constant validators against the dense reference loops.

Each input is checked as given, with one structure constant perturbed and
with one differential entry perturbed; the error lists must agree with the
dense n³ loops of ``conftest.dense_algebra_report``/``dense_dgla_report``
entry for entry, order included, and every kind of error must occur.
"""

from fractions import Fraction

from defalg.algebras import NilpotentDgAlgebra, de_rham_truncation
from defalg.dgla import Dgla, derivations_dgla, tensor_dgla
from defalg.graded import GradedMap, GradedSpace
from conftest import (entries, counterexample_algebras, dense_algebra_report,
                      dense_dgla_report, make_rng, random_algebra, random_dgla,
                      random_pair_truncation)

F = Fraction

ALGEBRA_KINDS = {"graded commutativity", "associativity", "d∘d", "Leibniz",
                 "not nilpotent"}
DGLA_KINDS = {"graded antisymmetry", "graded Jacobi", "Leibniz", "d∘d"}


def _kind(err):
    return err.split(" fails on ")[0].split(" != ")[0]


def _perturbed_constant(space, table, rng):
    """The table with one structure constant of admissible degree changed."""
    slots = [(i, j, k) for i in range(space.dim) for j in range(space.dim)
             for k in range(space.dim)
             if space.degrees[k] == space.degrees[i] + space.degrees[j]]
    if not slots:
        return None
    i, j, k = rng.choice(slots)
    out = {key: dict(row) for key, row in table.items()}
    row = out.setdefault((i, j), {})
    row[k] = row.get(k, F(0)) + rng.choice([1, -1, 2])
    return out


def _perturbed_differential(space, d, rng):
    """d with one entry of degree +1 changed."""
    slots = [(j, i) for j in range(space.dim) for i in range(space.dim)
             if space.degrees[j] == space.degrees[i] + 1]
    if not slots:
        return None
    j, i = rng.choice(slots)
    out = GradedMap(space, space, 1, dict(entries(d)))
    out.set_entry(j, i, entries(out).get((j, i), F(0)) + rng.choice([1, -1, 2]))
    return out


def _variants(space, table, d, rng):
    yield table, d
    t = _perturbed_constant(space, table, rng)
    if t is not None:
        yield t, d
    d2 = _perturbed_differential(space, d, rng)
    if d2 is not None:
        yield table, d2


def _algebras(rng):
    for _ in range(40):
        yield random_algebra(rng)
    for _ in range(4):
        a = random_pair_truncation(rng)
        if a.dim <= 8:
            yield de_rham_truncation(a, 1).algebra
    # e² = e: the powers of the ideal never descend
    sp = GradedSpace([("e", 0), ("x", 1)])
    yield NilpotentDgAlgebra(sp, {(0, 0): {0: F(1)}}, GradedMap(sp, sp, 1))


def _dglas(rng):
    for _ in range(30):
        yield random_dgla(rng)
    made = 0
    while made < 6:
        t = tensor_dgla(random_dgla(rng), random_algebra(rng))
        if t.table and t.dim <= 16:
            made += 1
            yield t
    a, _ = counterexample_algebras()
    yield derivations_dgla(a)[0]


def test_algebra_validate_matches_dense_reference():
    rng = make_rng(71)
    kinds = set()
    for a in _algebras(rng):
        for table, d in _variants(a.space, a.table, a.d, rng):
            b = NilpotentDgAlgebra(a.space, table, d)
            got, want = b.validate(), dense_algebra_report(b)
            assert got.errors == want.errors
            assert got.nilpotency_index == want.nilpotency_index
            kinds.update(_kind(err) for err in got.errors)
    assert kinds == ALGEBRA_KINDS


def test_dgla_validate_matches_dense_reference():
    rng = make_rng(72)
    kinds = set()
    for l in _dglas(rng):
        for table, d in _variants(l.space, l.table, l.d, rng):
            m = Dgla(l.space, table, d)
            got = m.validate()
            assert got.errors == dense_dgla_report(m).errors
            kinds.update(_kind(err) for err in got.errors)
    assert kinds == DGLA_KINDS
