"""Laurent ring: construction, arithmetic, ordering, exact division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compdet import laurent
from compdet._backend import add_terms, mul_terms, muladd_terms
from compdet.errors import DomainError, InexactDivisionError, UsageError
from compdet.laurent import (
    EXP_MAX,
    EXP_MIN,
    LaurentPoly,
    pack_exponents,
    unit_key,
    unpack_key,
)
from compdet.pmatrix import det, symbolic
from oracles import canonical_reference, evaluate, sqrt_fraction, substitute_reference


def poly_of(num_vars, mapping):
    """The polynomial with the terms of {stored-exponent tuple: coefficient}."""
    return sum(
        (LaurentPoly.monomial(num_vars, c, exps2) for exps2, c in mapping.items()),
        LaurentPoly.zero(num_vars),
    )


def poly3(mapping):
    return poly_of(3, mapping)


def mixed_sign_cubic():
    # 4*x1*x2^2*x3 + 4*x3^2 - 5*x1^3*x2 + 7*x1^2*x3^2
    return poly3(
        {
            (2, 4, 2): 4,
            (0, 0, 4): 4,
            (6, 2, 0): -5,
            (4, 0, 4): 7,
        }
    )


def test_leading_term_prefers_heavier_early_variables():
    exps, coeff = mixed_sign_cubic().leading_term()
    assert exps == (6, 2, 0)
    assert coeff == -5


def test_canonical_golden_string():
    f = mixed_sign_cubic()
    assert f.canonical() == "-5*x1^3*x2 + 7*x1^2*x3^2 + 4*x1*x2^2*x3 + 4*x3^2"


def test_canonical_rendering_corner_cases():
    assert LaurentPoly.zero(2).canonical() == "0"
    assert LaurentPoly.const(2, Fraction(-3, 7)).canonical() == "-3/7"
    assert LaurentPoly.variable(2, 1).canonical() == "x1"
    assert LaurentPoly.variable(2, 2, 1).canonical() == "x2^(1/2)"
    assert LaurentPoly.variable(2, 2, -1).canonical() == "x2^(-1/2)"
    assert LaurentPoly.variable(2, 1, -4).canonical() == "x1^-2"
    assert (LaurentPoly.variable(2, 1) - LaurentPoly.variable(2, 2)).canonical() == "x1 - x2"
    assert LaurentPoly.monomial(2, -1, (2, 2)).canonical() == "-x1*x2"


def test_canonical_coefficients_stored_as_fractions():
    # products of Fraction coefficients may leave an integral Fraction
    x1 = pack_exponents((2, 0, 0, 0, 0))
    const = unit_key(5)
    poly = LaurentPoly(5, {x1: Fraction(2, 1), const: Fraction(-1, 1)})
    assert poly.canonical() == canonical_reference(poly) == "2*x1 - 1"
    poly = LaurentPoly(5, {x1: Fraction(-1, 1), const: Fraction(1, 1)})
    assert poly.canonical() == canonical_reference(poly) == "-x1 + 1"


# Stored exponents for the renderer tests: zero (the skipped factor), 2 (a
# bare x_i), -1 (x_i^(-1/2)), other odd and even values, and the two ends
# of a field's packable range.
render_exponents = st.one_of(
    st.just(0),
    st.sampled_from((2, -1, 1, -2)),
    st.integers(min_value=-9, max_value=9),
    st.sampled_from((EXP_MIN, EXP_MAX)),
)
render_coeffs = st.one_of(
    st.sampled_from((1, -1)),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def render_polys(draw):
    """Polynomials in 0 to 70 variables whose terms have at most six nonzero
    exponents, so the 64-variable ring of main (1,8) and key spans halved
    six or seven times are reached, as well as small dense rings."""
    nv = draw(st.integers(min_value=0, max_value=70))
    supports = st.dictionaries(
        st.integers(min_value=0, max_value=max(nv - 1, 0)),
        render_exponents,
        max_size=min(nv, 6),
    )
    mapping = {
        tuple(support.get(i, 0) for i in range(nv)): c
        for support, c in draw(st.lists(st.tuples(supports, render_coeffs), max_size=8))
    }
    poly = poly_of(nv, mapping)
    return poly + draw(render_coeffs)


@settings(deadline=None, max_examples=300)
@given(render_polys())
def test_canonical_matches_reference_renderer(poly):
    assert poly.canonical() == canonical_reference(poly)


def test_canonical_formats_each_factor_once_per_call(monkeypatch):
    # det of the 8x8 symbolic matrix: 64 variables, 8! terms, and each x_i
    # only at exponent 0 or 1, so one call has 64 distinct factors to format
    poly = det(symbolic(8, 8))
    assert poly.num_vars == 64 and len(poly._terms) == 40320
    calls = []
    factor_text = laurent._factor_text

    def counted(i, e2):
        calls.append((i, e2))
        return factor_text(i, e2)

    monkeypatch.setattr(laurent, "_factor_text", counted)
    assert poly.canonical() == canonical_reference(poly)
    assert len(calls) <= 64


def test_pack_exponents_accepts_exactly_the_named_range():
    for e in (EXP_MIN, EXP_MIN + 1, -1, 0, 1, EXP_MAX - 1, EXP_MAX):
        for exps2 in [(e,), (e, 0, 0), (0, 0, e), (e, -e - 1, e)]:
            assert unpack_key(pack_exponents(exps2), len(exps2)) == exps2
    for e in (EXP_MIN - 1, EXP_MAX + 1):
        for exps2 in [(e,), (e, 0, 0), (0, 0, e)]:
            with pytest.raises(DomainError):
                pack_exponents(exps2)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_products_past_either_end_raise(i):
    # in the first variable's field, a middle one and the last, where an
    # unchecked carry or borrow would land in the neighbouring variable
    def x(e2):
        return LaurentPoly.variable(3, i, e2)

    assert x(EXP_MAX - 2) * x(2) == x(EXP_MAX)
    assert x(EXP_MIN + 2) * x(-2) == x(EXP_MIN)
    assert x(EXP_MAX) * x(EXP_MIN) == x(-1)
    with pytest.raises(DomainError):
        x(EXP_MAX) * x(2)
    with pytest.raises(DomainError):
        x(EXP_MIN) * x(-2)
    with pytest.raises(DomainError):
        x(EXP_MAX) * x(1)
    with pytest.raises(DomainError):
        x(EXP_MIN) * x(EXP_MIN)
    # a product past the end inside a longer sum, beside in-range products
    other = LaurentPoly.variable(3, 3 if i == 1 else 1)
    with pytest.raises(DomainError):
        (other + x(EXP_MAX)) * (other + x(2))
    with pytest.raises(DomainError):
        (x(EXP_MIN) + other) ** 2


def test_constructors_and_queries():
    f = poly3({(2, 0, 0): 1, (0, 0, 0): Fraction(1, 2)})
    assert f.coefficient((0, 0, 0)) == Fraction(1, 2)
    assert f.coefficient((2, 0, 0)) == 1
    assert f.coefficient((0, 2, 0)) == 0
    with pytest.raises(UsageError):
        LaurentPoly.variable(3, 4)
    with pytest.raises(DomainError):
        LaurentPoly.zero(3).leading_term()


def test_scalar_coercion_in_ring_ops():
    x = LaurentPoly.variable(1, 1)
    assert (x + 1) - 1 == x
    assert 2 * x == x + x
    assert (1 - x) == -(x - 1)
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_pow_matches_repeated_product():
    x = LaurentPoly.variable(2, 1)
    y = LaurentPoly.variable(2, 2)
    f = x + 2 * y - 1
    assert f**0 == 1
    assert f**3 == f * f * f
    with pytest.raises(UsageError):
        f ** (-1)


def test_mixed_ring_sizes_rejected():
    with pytest.raises(UsageError):
        LaurentPoly.variable(2, 1) + LaurentPoly.variable(3, 1)


def test_eval_exact_including_half_powers():
    x = LaurentPoly.variable(2, 1)
    half = LaurentPoly.variable(2, 1, 1)
    inv_half = LaurentPoly.variable(2, 1, -1)
    point = (Fraction(9, 4), Fraction(5, 1))
    assert evaluate(x, point) == Fraction(9, 4)
    assert evaluate(half, point) == Fraction(3, 2)
    assert evaluate(inv_half, point) == Fraction(2, 3)
    f = x * LaurentPoly.variable(2, 2) + 3
    assert evaluate(f, point) == Fraction(9, 4) * 5 + 3


def test_sqrt_and_eval_powers():
    assert sqrt_fraction(Fraction(49, 9)) == Fraction(7, 3)
    with pytest.raises(DomainError):
        sqrt_fraction(Fraction(2))
    x = lambda e2: LaurentPoly.variable(1, 1, e2)
    assert evaluate(x(3), [Fraction(4)]) == 8
    assert evaluate(x(-2), [Fraction(4)]) == Fraction(1, 4)
    assert evaluate(x(4), [Fraction(0)]) == 0
    assert evaluate(x(1), [Fraction(0)]) == 0
    with pytest.raises(DomainError):
        evaluate(x(-2), [Fraction(0)])
    with pytest.raises(DomainError):
        evaluate(x(-1), [Fraction(0)])
    with pytest.raises(DomainError):
        evaluate(x(1), [Fraction(2)])
    with pytest.raises(DomainError):
        evaluate(x(1), [Fraction(-4)])


coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda m: poly_of(2, m)
)


@settings(deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + LaurentPoly.zero(2) == f
    assert f * LaurentPoly.const(2, 1) == f


@settings(deadline=None)
@given(polys, polys)
def test_exact_division_roundtrip(f, g):
    if not g:
        with pytest.raises(ZeroDivisionError):
            (f * g).exquo(g)
        return
    assert (f * g).exquo(g) == f


def test_exquo_detects_remainders():
    x = LaurentPoly.variable(2, 1)
    y = LaurentPoly.variable(2, 2)
    with pytest.raises(InexactDivisionError):
        (x * x + 1).exquo(x + 1)
    with pytest.raises(InexactDivisionError):
        (x + 1).exquo(y + 1)
    # dividing by a single monomial is always exact in a Laurent ring
    assert (x * y + 1).exquo(x) == y + LaurentPoly.variable(2, 1, -2)


def test_exquo_with_laurent_operands():
    x = LaurentPoly.variable(2, 1)
    y = LaurentPoly.variable(2, 2)
    xinv = LaurentPoly.variable(2, 1, -2)
    f = (x - xinv) * (y + 1)
    assert f.exquo(x - xinv) == y + 1
    assert f.exquo(y + 1) == x - xinv


# The term kernel, called directly on packed term dicts in two variables.
UNIT2 = unit_key(2)


def terms2(mapping):
    return {pack_exponents(e): c for e, c in mapping.items()}


def test_kernel_cancellation_removes_keys():
    acc = terms2({(2, 0): 3, (0, 2): 1})
    add_terms(acc, terms2({(2, 0): 1}), -3)
    assert acc == terms2({(0, 2): 1})
    # (x + y)(x - y): the two x*y products cancel inside one call
    plus = terms2({(2, 0): 1, (0, 2): 1})
    minus = terms2({(2, 0): 1, (0, 2): -1})
    prod = mul_terms(plus, minus, UNIT2)
    assert prod == terms2({(4, 0): 1, (0, 4): -1})
    # a product that cancels what the accumulator already holds
    acc = terms2({(2, 2): 6, (0, 0): 1})
    muladd_terms(acc, terms2({(2, 0): 2}), terms2({(0, 2): 3}), UNIT2, -1)
    assert acc == terms2({(0, 0): 1})
    assert all(acc.values()) and all(prod.values())


def test_kernel_zero_coeff_and_empty_operand_leave_acc_unchanged():
    a = terms2({(2, 0): 1, (0, -2): Fraction(1, 2)})
    b = terms2({(1, 1): -4})
    acc = terms2({(0, 0): 7})
    before = dict(acc)
    add_terms(acc, a, 0)
    add_terms(acc, {}, 5)
    muladd_terms(acc, a, b, UNIT2, 0)
    muladd_terms(acc, {}, b, UNIT2, 3)
    muladd_terms(acc, a, {}, UNIT2, 3)
    assert acc == before
    assert mul_terms(a, {}, UNIT2) == {} and mul_terms({}, b, UNIT2) == {}


def test_kernel_result_independent_of_operand_order():
    long = terms2({(2, 0): 1, (0, 2): -2, (-2, 4): 3})
    short = terms2({(1, -1): 5})
    expected = terms2({(3, -1): 5, (1, 1): -10, (-1, 3): 15})
    assert mul_terms(long, short, UNIT2) == mul_terms(short, long, UNIT2) == expected
    left, right = terms2({(0, 0): 1}), terms2({(0, 0): 1})
    muladd_terms(left, long, short, UNIT2, -2)
    muladd_terms(right, short, long, UNIT2, -2)
    assert left == right


def test_kernel_mixes_int_and_fraction_coefficients():
    acc = terms2({(0, 0): 1, (2, 0): Fraction(1, 3)})
    add_terms(acc, terms2({(0, 0): Fraction(1, 2), (2, 0): 1}), -2)
    assert acc == terms2({(2, 0): Fraction(-5, 3)})
    acc = terms2({(4, 0): 1})
    a, b = terms2({(2, 0): Fraction(2, 3)}), terms2({(2, 0): 3})
    muladd_terms(acc, a, b, UNIT2, Fraction(-1, 2))
    assert acc == {}
    prod = mul_terms(terms2({(0, 0): Fraction(3, 2)}), terms2({(2, 0): 4}), UNIT2)
    assert prod == terms2({(2, 0): 6})


def naive_muladd(acc, a, b, coeff):
    """acc + coeff*a*b summed over exponent tuples, zero entries dropped."""
    out = {unpack_key(k, 2): c for k, c in acc.items()}
    for ka, ca in a.items():
        for kb, cb in b.items():
            e = tuple(x + y for x, y in zip(unpack_key(ka, 2), unpack_key(kb, 2)))
            out[e] = out.get(e, 0) + coeff * ca * cb
    return {pack_exponents(e): c for e, c in out.items() if c}


kernel_coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
term_dicts = st.dictionaries(
    exponents.map(pack_exponents), kernel_coeffs.filter(bool), max_size=5
)


@settings(deadline=None)
@given(term_dicts, term_dicts, term_dicts, kernel_coeffs)
def test_kernel_matches_naive_reference(acc, a, b, coeff):
    expected = naive_muladd(acc, a, b, coeff)
    got = dict(acc)
    muladd_terms(got, a, b, UNIT2, coeff)
    assert got == expected
    assert all(got.values())
    assert mul_terms(a, b, UNIT2) == mul_terms(b, a, UNIT2) == naive_muladd({}, a, b, 1)
    summed = dict(acc)
    add_terms(summed, a, coeff)
    assert summed == naive_muladd(acc, a, {UNIT2: 1}, coeff)


def test_substitute_power_by_itself_is_identity():
    f = mixed_sign_cubic() + LaurentPoly.variable(3, 2, -3)
    for i in (1, 2, 3):
        assert f.substitute(i, lambda e2: LaurentPoly.variable(3, i, e2)) == f
    with pytest.raises(UsageError):
        f.substitute(4, lambda e2: f)
    with pytest.raises(UsageError):
        f.substitute(1, lambda e2: LaurentPoly.variable(2, 1))


half_exponents = st.integers(min_value=-5, max_value=5)


@st.composite
def substitutions(draw):
    """A polynomial in 1 to 3 variables with half-unit exponents, a
    variable index, and an image for every stored exponent: a drawn
    polynomial per exponent, or a default one."""
    nv = draw(st.integers(min_value=1, max_value=3))
    small = st.dictionaries(
        st.tuples(*[half_exponents] * nv), coeffs, max_size=4
    ).map(lambda m: poly_of(nv, m))
    poly = draw(small)
    i = draw(st.integers(min_value=1, max_value=nv))
    images = draw(st.dictionaries(half_exponents, small, max_size=4))
    default = draw(small)
    return poly, i, lambda e2: images.get(e2, default)


@settings(deadline=None, max_examples=200)
@given(substitutions())
def test_substitute_matches_reference(case):
    poly, i, image = case
    assert poly.substitute(i, image) == substitute_reference(poly, i, image)
