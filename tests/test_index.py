"""The integer structure-constant index against the Fraction walks.

Every walk over the structure constants of an algebra or a DGLA (products,
brackets, the axiom checks of ``validate()``, the morphism check, the
square-zero and strictness checks of a small extension, power ideals,
annihilators and A[t,dt]) reads one index of Python-int numerators over one
denominator.  The Fraction walks are kept in ``conftest`` as oracles; the
inputs here are random structures rewritten in a basis with fractional
scales whose numerators and denominators reach 2**70, some with one
structure constant perturbed.  The index is the only stored form of the
constants, so the constructor is checked against its input too: with
plain int entries, zeros and zero rows, given as a dict or streamed.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from defalg.algebras import (DgAlgebraMorphism, de_rham_truncation, kernel_extension,
                             quotient_algebra)
from defalg.dgla import Dgla
from defalg.graded import GradedMap
from conftest import (entries, dense_de_rham, fraction_annihilator_basis, fraction_axiom_errors,
                      fraction_bilinear, fraction_extension_checks,
                      fraction_power_ideal_bases, fraction_sparse_product,
                      fraction_violations, make_rng, random_algebra, random_dgla,
                      random_invertible_degree0, rescaled, sparse, transported)

F = Fraction

big = st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))
nonzero = st.one_of(st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3)]),
                    st.builds(lambda n, d, neg: F(-n if neg else n, d), st.integers(1, 2 ** 70),
                              st.integers(1, 2 ** 70), st.booleans()))


@st.composite
def structures(draw, kind, perturb=True):
    """A random algebra or DGLA in a basis e'_i = s_i e_i; with ``perturb``,
    one of its structure constants, or one entry of d, may be moved by a
    nonzero amount."""
    rng = make_rng(draw(st.integers(0, 10 ** 6)))
    base = random_algebra(rng) if kind == "algebra" else random_dgla(rng)
    s = rescaled(base, [draw(nonzero) for _ in range(base.dim)])
    if not perturb:
        return s
    table = {pair: dict(row) for pair, row in s.table.items()}
    d = GradedMap(s.space, s.space, 1, dict(entries(s.d)))
    where = draw(st.sampled_from(["none", "table", "d"]))
    if where == "table" and table:
        row = table[draw(st.sampled_from(sorted(table)))]
        row[draw(st.sampled_from(sorted(row)))] += draw(nonzero)
    elif where == "d" and s.dim:
        i = draw(st.integers(0, s.dim - 1))
        js = s.space.degree_indices(s.space.degrees[i] + 1)
        if js:
            j = draw(st.sampled_from(js))
            d.set_entry(j, i, entries(d).get((j, i), F(0)) + draw(nonzero))
    return type(s)(s.space, table, d)


any_structure = st.sampled_from(["algebra", "dgla"]).flatmap(structures)


def fraction_report(s):
    """The errors and nilpotency index validate() gives, from the oracles."""
    sym, triples, leibniz, dd = fraction_axiom_errors(s)
    if isinstance(s, Dgla):
        return sym + triples + leibniz + dd, None
    powers = fraction_power_ideal_bases(s)
    idx = None if powers[-1] else len(powers)
    return sym + triples + dd + leibniz + (["not nilpotent"] if idx is None else []), idx


@given(any_structure, st.data())
@settings(max_examples=150, deadline=None)
def test_validate_matches_the_fraction_walks(s, data):
    report = s.validate()
    assert (report.errors, report.nilpotency_index) == fraction_report(s)
    # the same constants given again with plain ints for integral entries,
    # zero entries and zero rows mixed in, as a dict or as its items: the
    # index keeps the nonzero entries over the lcm of all denominators
    table, degs = {}, s.space.degrees
    for pair, row in s.table.items():
        row = {k: int(c) if c.denominator == 1 and data.draw(st.booleans()) else c
               for k, c in row.items()}
        if data.draw(st.booleans()):
            row.setdefault(data.draw(st.integers(0, s.dim - 1)), 0)
        table[pair] = row
    if s.dim and data.draw(st.booleans()):
        table.setdefault((data.draw(st.integers(0, s.dim - 1)), 0), {0: F(0)})
    d = GradedMap(s.space, s.space, 1, dict(entries(s.d)))
    given_as = table if data.draw(st.booleans()) else iter(list(table.items()))
    t = type(s)(s.space, given_as, d)
    assert t.table == {pair: {k: c for k, c in row.items() if c}
                       for pair, row in table.items() if any(row.values())}
    assert t.den == lcm(*(F(c).denominator for row in table.values() for c in row.values()))
    assert (t.validate().errors, t.validate().nilpotency_index) == fraction_report(s)
    wrong = [(i, j, k) for i in range(s.dim) for j in range(s.dim) for k in range(s.dim)
             if degs[k] != degs[i] + degs[j]]
    if wrong:
        i, j, k = data.draw(st.sampled_from(wrong))
        table.setdefault((i, j), {})[k] = data.draw(nonzero)
        with pytest.raises(ValueError, match="wrong degree"):
            type(s)(s.space, table, d)


@given(any_structure, st.data())
@settings(max_examples=150, deadline=None)
def test_products_and_brackets_match_the_fraction_walk(s, data):
    vec = st.lists(st.one_of(st.just(F(0)), big, nonzero), min_size=s.dim, max_size=s.dim)
    u, v = data.draw(vec), data.draw(vec)
    for x, y in ((u, v), (u, u), (v, u)):
        want = sparse(fraction_bilinear(s, x, y))
        sx = sparse(x)
        sy = sx if y is x else sparse(y)
        if isinstance(s, Dgla):
            assert s.bracket_vec(sx, sy) == want
            assert s._bracket_over(sx, sy, 2) == {k: c / 2 for k, c in want.items()}
        else:
            assert s.product(sx, sy) == want
        assert want == fraction_sparse_product(s, sx, sy)


@given(structures("algebra"))
@settings(max_examples=150, deadline=None)
def test_power_ideals_and_annihilator_match_the_fraction_walks(a):
    assert a.power_ideal_bases() == fraction_power_ideal_bases(a)
    assert a.annihilator_basis() == fraction_annihilator_basis(a)


@given(structures("algebra"), st.data())
@settings(max_examples=150, deadline=None)
def test_violations_match_the_fraction_walk(a, data):
    # f: e_i -> e'_i / s_i is an isomorphism onto the rescaled copy; moving
    # one entry of f, or adding one of degree 0, breaks it
    scales = [data.draw(nonzero) for _ in range(a.dim)]
    b = rescaled(a, scales)
    iso = {(i, i): 1 / c for i, c in enumerate(scales)}
    m = DgAlgebraMorphism(a, b, GradedMap(a.space, b.space, 0, iso), check=False)
    assert m.violations() == fraction_violations(m) == []
    if a.dim:
        entries = dict(iso)
        i = data.draw(st.integers(0, a.dim - 1))
        j = data.draw(st.sampled_from(a.space.degree_indices(a.space.degrees[i])))
        entries[(j, i)] = entries.get((j, i), F(0)) + data.draw(nonzero)
        m = DgAlgebraMorphism(a, b, GradedMap(a.space, b.space, 0, entries), check=False)
        assert m.violations() == fraction_violations(m)


@given(structures("algebra", perturb=False))
@settings(max_examples=100, deadline=None)
def test_extension_checks_match_the_fraction_walks(a):
    # quotients by Ann(A) (strictly small), by A² and by A itself (I² = 0
    # only when A² = 0)
    powers = a.power_ideal_bases()
    for ideal in (a.annihilator_basis(), powers[1] if len(powers) > 1 else [], powers[0]):
        if not ideal:
            continue
        _, proj = quotient_algebra(a, ideal)
        e = kernel_extension(proj)
        strict, not_square_zero = fraction_extension_checks(e)
        assert e.is_strictly_small() == strict
        assert e.validate().count("kernel is not square-zero") == not_square_zero


@given(structures("algebra", perturb=False), st.sampled_from([F(1), F(1, 2), F(2, 3)]),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_de_rham_on_a_rescaled_algebra_matches_the_dense_oracle(a, eps, seed):
    # also in a basis changed within each degree, where the power bases
    # are not made of multiples of basis vectors
    g = random_invertible_degree0(make_rng(seed), a.space)
    for b in (a, transported(a, g)):
        dr = de_rham_truncation(b, eps)
        elems, mult, d = dense_de_rham(b, eps)
        assert dr._elems == elems
        assert list(dr.algebra.table.items()) == list(mult.items())
        assert list(entries(dr.algebra.d).items()) == list(d.items())
        # each basis element is its own coordinate vector, and e_s sends
        # v ⊗ tⁿ to sⁿ·v and the dt elements to 0
        assert all(dr.element(n, dt, v) == {i: F(1)} for i, (n, dt, v) in enumerate(elems))
        for s in (F(0), F(1), F(-2, 3)):
            assert entries(dr.evaluate(s).map) == {
                (j, i): s ** n * x for i, (n, dt, v) in enumerate(elems) if not dt
                for j, x in v.items() if s ** n * x}
