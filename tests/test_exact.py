"""Exact arithmetic: root values, enclosures, comparisons, parsing, JSON."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kklab.exact
from kklab import (
    Root,
    cmp_with_e_power,
    decimal_enclosure,
    format_fraction,
    make_value,
    parse_exact,
    parse_rational,
    value_cmp,
    value_div,
    value_float,
    value_mul,
    value_pow,
    value_root,
    value_to_json,
)
from kklab.exact import exact_nth_root

fractions = st.fractions(
    min_value=Fraction(1, 10_000), max_value=Fraction(10_000)
)
small_exps = st.integers(min_value=1, max_value=6)


class TestConstruction:
    def test_perfect_power_collapses_to_rational(self):
        assert make_value(Fraction(1, 8), 3) == Fraction(1, 2)
        assert make_value(Fraction(9, 4), 2) == Fraction(3, 2)

    def test_irrational_stays_a_root(self):
        v = make_value(Fraction(1, 120), 3)
        assert isinstance(v, Root)

    def test_exponent_one_is_rational(self):
        assert make_value(Fraction(7, 3), 1) == Fraction(7, 3)

    @given(fractions, small_exps)
    def test_root_of_power_round_trips(self, x, k):
        assert value_root(value_pow(x, k), k) == x


def reference_normal_form(base, exp):
    """Root's normal form by the divisor loop Root once ran: on each pass,
    take the largest divisor g > 1 of exp at which the base is an exact g-th
    power, until a pass finds none."""
    changed = True
    while changed and exp > 1:
        changed = False
        for g in sorted((d for d in range(2, exp + 1) if exp % d == 0), reverse=True):
            rn = exact_nth_root(base.numerator, g)
            if rn is None:
                continue
            rd = exact_nth_root(base.denominator, g)
            if rd is None:
                continue
            base = Fraction(rn, rd)
            exp //= g
            changed = True
            break
    return base, exp


POWER_PARTS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27, 32, 64, 81, 2**12, 3**8, 6**6, 2**24, 10**6)


class TestNormalForm:
    def test_matches_the_divisor_loop(self):
        for num in POWER_PARTS:
            for den in POWER_PARTS:
                base = Fraction(num, den)
                for exp in range(1, 25):
                    r = Root(base, exp)
                    assert (r.base, r.exp) == reference_normal_form(base, exp), (base, exp)

    @given(fractions, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=24))
    def test_powers_match_the_divisor_loop(self, x, k, exp):
        base = x**k
        r = Root(base, exp)
        assert (r.base, r.exp) == reference_normal_form(base, exp)


class TestComparison:
    def test_root_vs_rational(self):
        qmin = make_value(Fraction(1, 120), 3)
        assert value_cmp(qmin, Fraction(1, 5)) > 0
        assert value_cmp(qmin, Fraction(21, 100)) < 0
        assert value_cmp(qmin, qmin) == 0

    def test_root_vs_root_different_exponents(self):
        a = make_value(Fraction(1, 2), 2)
        b = make_value(Fraction(1, 3), 3)
        # 2^(-1/2) = 0.7071 vs 3^(-1/3) = 0.6934
        assert value_cmp(a, b) > 0

    @given(fractions, fractions, small_exps)
    def test_cmp_matches_rational_order_under_roots(self, x, y, k):
        got = value_cmp(make_value(x, k), make_value(y, k))
        want = (x > y) - (x < y)
        assert got == want

    def test_e_power_enclosure(self):
        # (5/e)^3 < 60 rearranges to 125/60 < e^3
        assert cmp_with_e_power(Fraction(125, 60), 3) < 0
        assert cmp_with_e_power(Fraction(3), 1) > 0
        assert cmp_with_e_power(Fraction(2), 1) < 0
        assert cmp_with_e_power(make_value(Fraction(55, 7), 2), 1) > 0


def cross_multiplied_sign(factors) -> int:
    """Sign of prod x**p - 1 over (x, p) pairs by integer cross-multiplication:
    each factor (a/b)**(p/k) is raised to the lcm L of the k, and a**m goes
    to the side its exponent's sign picks."""
    parts = []
    for x, p in factors:
        base, k = (x.base, x.exp) if isinstance(x, Root) else (Fraction(x), 1)
        parts.append((base.numerator, base.denominator, p, k))
    lcm = math.lcm(*(k for *_, k in parts))
    lhs = rhs = 1
    for a, b, p, k in parts:
        m = p * lcm // k
        if m >= 0:
            lhs, rhs = lhs * a**m, rhs * b**m
        else:
            lhs, rhs = lhs * b**-m, rhs * a**-m
    return (lhs > rhs) - (lhs < rhs)


q_k3 = make_value(Fraction(1, 120), 3)  # q_min(K3, 10)

TIES = [
    # n^t * q^e at the five ties of the verifier's power test
    ((125, 2), (Fraction(1, 25), 3)),
    ((128, 3), (Fraction(1, 8), 7)),
    ((16, 1), (Fraction(1, 2), 4)),
    ((8, 8), (Fraction(1, 2), 24)),
    ((2, 1), (make_value(Fraction(1, 2), 2), 2)),
    # K3's binding class at q_min(K3, 10): (10)_3/6 * q^3 = 1
    ((720, 1), (6, -1), (q_k3, 3)),
    # the same class against the threshold itself, and 2^(1/2 + 1/3 - 5/6)
    ((q_k3, 1), (make_value(Fraction(1, 120), 3), -1)),
    ((make_value(2, 2), 1), (make_value(2, 3), 1), (make_value(2, 6), -5)),
]

positive_values = st.builds(
    make_value,
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
    st.integers(min_value=1, max_value=4),
)
factor_lists = st.lists(
    st.tuples(positive_values, st.integers(min_value=-6, max_value=6)), max_size=4
)


class TestPowerSign:
    """The one sign test of prod x**p against 1, against cross-multiplication."""

    @pytest.mark.parametrize("factors", TIES)
    def test_ties_are_zero(self, factors, monkeypatch):
        exact_calls = []
        real = kklab.exact._exact_power_sign

        def spy(terms):
            exact_calls.append(terms)
            return real(terms)

        monkeypatch.setattr(kklab.exact, "_exact_power_sign", spy)
        assert cross_multiplied_sign(factors) == 0
        assert kklab.exact._power_sign(factors) == 0
        # a tie sits inside the float band, so the integer powers decided it
        assert len(exact_calls) == 1

    @settings(derandomize=True)
    @given(factor_lists)
    def test_small_random_terms(self, factors):
        assert kklab.exact._power_sign(factors) == cross_multiplied_sign(factors)
        # with every factor cancelled the product is exactly 1
        cancelled = factors + [(x, -p) for x, p in factors]
        assert kklab.exact._power_sign(cancelled) == cross_multiplied_sign(cancelled) == 0

    @pytest.mark.parametrize("factors", TIES[:2])
    def test_zero_slack_mutant_gets_the_close_ties_wrong(self, factors, monkeypatch):
        # the float gap of these two ties is 1.8e-15 before scaling: only the
        # slack sends them to the exact powers
        monkeypatch.setattr(kklab.exact, "_LOG_SLACK", 0.0)
        assert kklab.exact._power_sign(factors) != cross_multiplied_sign(factors) == 0

    def test_kk3_thresholds_at_k_300_in_under_a_second(self):
        # kK3's threshold at n = 10^6 is a root of degree 3k
        n, k = 10**6, 300
        start = time.perf_counter()
        lower = make_value(Fraction(6**k * math.factorial(k), math.perm(n, 3 * k)), 3 * k)
        upper = make_value(
            Fraction(6 ** (k + 1) * math.factorial(k + 1), math.perm(n, 3 * k + 3)), 3 * k + 3
        )
        assert value_cmp(lower, upper) == -1
        assert time.perf_counter() - start < 1.0


class TestArithmetic:
    @given(fractions, fractions, small_exps)
    def test_mul_of_common_roots(self, x, y, k):
        got = value_mul(make_value(x, k), make_value(y, k))
        assert value_cmp(got, make_value(x * y, k)) == 0

    @given(fractions, fractions, small_exps)
    def test_div_inverts_mul(self, x, y, k):
        prod = value_mul(make_value(x, k), y)
        assert value_cmp(value_div(prod, y), make_value(x, k)) == 0

    def test_zero_numerator(self):
        assert value_div(Fraction(0), make_value(Fraction(1, 2), 2)) == 0

    def test_zero_over_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            value_div(Fraction(0), Fraction(0))

    @given(fractions, small_exps, st.integers(min_value=0, max_value=5))
    def test_pow_repeats_mul(self, x, k, m):
        v = make_value(x, k)
        acc = Fraction(1)
        for _ in range(m):
            acc = value_mul(acc, v)
        assert value_cmp(value_pow(v, m), acc) == 0


class TestEnclosures:
    def test_sqrt_two_digits(self):
        lo, hi = decimal_enclosure(make_value(Fraction(2), 2), 12)
        assert lo == "1.414213562373"
        assert hi == "1.414213562374"

    def test_rational_enclosure_is_tight(self):
        lo, hi = decimal_enclosure(Fraction(1, 4), 6)
        assert lo == "0.250000" and hi == "0.250000"

    @given(fractions, small_exps, st.integers(min_value=4, max_value=15))
    def test_enclosure_brackets_the_float(self, x, k, digits):
        v = make_value(x, k)
        lo, hi = decimal_enclosure(v, digits)
        assert Fraction(lo) <= Fraction(value_float(v)).limit_denominator(10**18) or float(lo) <= value_float(v) * (1 + 1e-12)
        assert float(lo) <= float(hi)
        # the bracket is one ulp wide at the requested precision
        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 10**digits)


class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("0.25") == Fraction(1, 4)

    def test_root_token(self):
        v = parse_exact("root:120:3")
        assert value_cmp(v, make_value(Fraction(1, 120), 3)) == 0

    def test_root_token_perfect_power(self):
        assert parse_exact("root:8:3") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["root:120", "root:0:3", "root:x:3", "1/0", "abc"])
    def test_malformed_inputs(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_exact(bad)


class TestJson:
    def test_rational_is_a_string(self):
        assert value_to_json(Fraction(3, 4)) == "3/4"
        assert value_to_json(Fraction(5)) == "5"

    def test_root_record(self):
        doc = value_to_json(make_value(Fraction(1, 120), 3), 6)
        assert doc["kind"] == "root"
        assert doc["base"] == "1/120"
        assert doc["exp"] == 3
        assert doc["decimal_lo"].startswith("0.2027")

    def test_format_fraction(self):
        assert format_fraction(Fraction(1, 3)) == "1/3"
        assert format_fraction(Fraction(4, 2)) == "2"


# -- an oracle for the algebra -------------------------------------------------
#
# Every value_* function on a seeded grid of ints, Fractions and Roots,
# against a reference on integer cross-multiplication.  A value is viewed as
# (num, den, exp, is_root) for (num/den)^(1/exp), den > 0; a reference result
# is a Fraction, a (base, exp) pair for a Root in normal form, or the
# exception type the call raises.


def _view(x):
    if isinstance(x, Root):
        return x.base.numerator, x.base.denominator, x.exp, True
    f = Fraction(x)
    return f.numerator, f.denominator, 1, False


def _exact_root(x: int, k: int):
    """r with r**k == x for x >= 0 by bisection, else None."""
    lo, hi = 0, 1
    while hi**k < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == x else None


def _normal(num: int, den: int, exp: int):
    """(num/den)^(1/exp) for positive num, den at the least e with value^e
    rational: the Fraction itself at e = 1, else the pair (value^e, e)."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    for e in range(1, exp + 1):
        if exp % e:
            continue
        rn, rd = _exact_root(num, exp // e), _exact_root(den, exp // e)
        if rn is not None and rd is not None:
            return Fraction(rn, rd) if e == 1 else (Fraction(rn, rd), e)


def _ref_mul(x, y):
    a, b, k, x_root = x
    c, d, l, y_root = y
    if not (x_root or y_root):
        return Fraction(a * c, b * d)
    if a <= 0 or c <= 0:
        return ValueError
    m = k * l // math.gcd(k, l)
    return _normal(a ** (m // k) * c ** (m // l), b ** (m // k) * d ** (m // l), m)


def _ref_div(x, y):
    a, b, k, x_root = x
    c, d, l, y_root = y
    if a == 0:
        return ZeroDivisionError if c == 0 else Fraction(0)
    if c == 0:
        return ZeroDivisionError
    # 1/y is (d/c)^(1/l) with the sign moved to the numerator
    return _ref_mul(x, (d if c > 0 else -d, abs(c), l, y_root))


def _ref_pow(x, j):
    a, b, k, _ = x
    if a == 0 and j < 0:
        return ZeroDivisionError
    num, den = (a**j, b**j) if j >= 0 else (b**-j, a**-j)
    if k == 1:
        return Fraction(num, den)
    return _normal(num, den, k)


def _ref_root(x, j):
    a, b, k, _ = x
    if j < 1 or a <= 0:
        return ValueError
    return _normal(a, b, k * j)


def _ref_cmp(x, y):
    a, b, k, _ = x
    c, d, l, _ = y
    if a <= 0 or c <= 0:
        # a non-positive value is rational; a/b and x have the same sign
        lhs, rhs = a * d, c * b
    else:
        m = k * l // math.gcd(k, l)
        lhs, rhs = a ** (m // k) * d ** (m // l), c ** (m // l) * b ** (m // k)
    return (lhs > rhs) - (lhs < rhs)


def _outcome(fn, *args):
    """fn's result in the reference's terms: the exception type raised, or
    the value, with a Root above exp 1 as its (base, exp) pair."""
    try:
        out = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(out, Root) and out.exp > 1:
        return out.base, out.exp
    return out  # a Root at exp 1 matches no reference result


def _algebra_grid():
    rng = random.Random(33)
    ints = [0, 1, -1, 2, -3, 12]
    fracs = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(9, 4), Fraction(5, 7)]
    roots = [
        Root(Fraction(2), 2),
        Root(Fraction(1, 3), 3),
        Root(Fraction(4), 6),  # 2^(1/3)
        Root(Fraction(27, 8), 6),  # (3/2)^(1/2)
        Root(Fraction(5), 5),
        Root(Fraction(7, 2), 4),
        Root(Fraction(8, 27), 3),  # 2/3: the exponent collapses to 1
    ]
    for _ in range(6):
        base = Fraction(rng.randint(1, 12), rng.randint(1, 12)) ** rng.choice([1, 1, 2, 3])
        roots.append(Root(base, rng.randint(1, 6)))
    fracs += [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3)]
    return ints + fracs + roots


ALGEBRA_GRID = _algebra_grid()


class TestAlgebraOracle:
    """value_* on the grid give the reference's value, in the reference's
    shape (a Fraction when rational, a Root in normal form otherwise), or
    raise the exception type the reference names."""

    def test_the_grid_covers_each_case(self):
        views = [_view(x) for x in ALGEBRA_GRID]
        assert {k for _, _, k, _ in views} >= set(range(1, 7))
        assert any(root and k == 1 for _, _, k, root in views)
        assert any(a == 0 for a, *_ in views) and any(a < 0 for a, *_ in views)

    @pytest.mark.parametrize(
        "name, fn, ref",
        [("mul", value_mul, _ref_mul), ("div", value_div, _ref_div), ("cmp", value_cmp, _ref_cmp)],
    )
    def test_binary(self, name, fn, ref):
        bad = []
        for x in ALGEBRA_GRID:
            for y in ALGEBRA_GRID:
                got, want = _outcome(fn, x, y), ref(_view(x), _view(y))
                if got != want or type(got) is not type(want):
                    bad.append((x, y, got, want))
        assert not bad, bad[:5]

    @pytest.mark.parametrize(
        "name, fn, ref, exponents",
        [
            ("pow", value_pow, _ref_pow, range(-3, 5)),
            ("root", value_root, _ref_root, range(0, 5)),
        ],
    )
    def test_unary(self, name, fn, ref, exponents):
        bad = []
        for x in ALGEBRA_GRID:
            for j in exponents:
                got, want = _outcome(fn, x, j), ref(_view(x), j)
                if got != want or type(got) is not type(want):
                    bad.append((x, j, got, want))
        assert not bad, bad[:5]
