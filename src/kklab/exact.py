"""Exact arithmetic beyond the rationals: k-th roots and interval output.

Threshold quantities in this package (minimal sparse q, expectation
thresholds, required scale factors) are k-th roots of explicit positive
rationals.  ``Root`` keeps them in the symbolic form ``base ** (1/exp)``;
a comparison is the sign of a product of rational powers against 1, which
``_power_sign`` decides by float logs outside a proven error band and by
exact integer powers inside it.  The normal form takes exact roots prime
by prime: for each prime p of exp, while the base is an exact p-th power,
it becomes its p-th root and exp loses a factor p.  A base that is at most
an m-th power ends at exp / gcd(exp, m), the base 1 at exp 1, so the form
is unique.  Decimal digits appear only on output, as an enclosing interval
at a requested precision (default 12 digits).

Comparisons against multiples of Euler's number (needed by a couple of
verified inequalities) use adaptively refined rational enclosures of e; the
quantities compared are never exactly equal to such multiples, so the
refinement always terminates with a strict verdict.
"""

import math
from fractions import Fraction

from .util import DEFAULT_DIGITS  # re-exported from its old home

Rat = int | Fraction


def integer_nth_root(x: int, n: int) -> int:
    """Largest r with r**n <= x, for x >= 0, n >= 1."""
    if x < 0 or n < 1:
        raise ValueError("integer_nth_root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // n)  # upper seed: 2**ceil(bits/n) >= x**(1/n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def exact_nth_root(x: int, n: int):
    """Return r if r**n == x exactly, else None."""
    r = integer_nth_root(x, n)
    return r if r ** n == x else None


def ceil_root(value: Fraction, n: int) -> int:
    """Smallest integer m with m**n >= value (value >= 0)."""
    if value < 0:
        raise ValueError("ceil_root needs a nonnegative value")
    num, den = value.numerator, value.denominator
    m = integer_nth_root(num // den, n)
    while Fraction(m ** n) < value:
        m += 1
    return m


class Root:
    """The positive real ``base ** (1/exp)`` with rational base > 0.

    Normalization extracts exact k-th roots, so ``Root(Fraction(8), 3)``
    compares equal to the rational 2 and reports itself rational.  Ordering
    against rationals and other roots is exact (``_power_sign``).
    """

    __slots__ = ("base", "exp")

    def __init__(self, base, exp: int):
        base = Fraction(base)
        if base <= 0:
            raise ValueError("Root base must be positive")
        if exp < 1:
            raise ValueError("Root exponent must be >= 1")
        # pull out perfect-power content one prime factor p of exp at a time
        rest, p = exp, 2
        while rest > 1:
            if p * p > rest:
                p = rest  # what is left of exp is prime
            while rest % p == 0:
                rest //= p
                rn = exact_nth_root(base.numerator, p)
                rd = None if rn is None else exact_nth_root(base.denominator, p)
                if rd is not None:
                    base = Fraction(rn, rd)
                    exp //= p
            p += 1
        self.base = base
        self.exp = exp

    # -- value inspection ------------------------------------------------

    def is_rational(self) -> bool:
        return self.exp == 1

    def as_fraction(self) -> Fraction | None:
        return self.base if self.exp == 1 else None

    def __float__(self) -> float:
        b = self.base
        ln = math.log(b.numerator) - math.log(b.denominator)
        return math.exp(ln / self.exp)

    # -- arithmetic (only what threshold algebra needs) -------------------

    def pow(self, k: int):
        """Exact value ** k as Fraction or Root."""
        if k == 0:
            return Fraction(1)
        if k < 0:
            inv = self.pow(-k)
            return 1 / inv if isinstance(inv, Fraction) else Root(1 / inv.base, inv.exp)
        g = math.gcd(k, self.exp)
        out = Root(self.base ** (k // g), self.exp // g)
        return out.as_fraction() if out.is_rational() else out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other <= 0:
                raise ValueError("Root supports positive scalars only")
            out = Root(self.base * Fraction(other) ** self.exp, self.exp)
        elif isinstance(other, Root):
            l = self.exp * other.exp // math.gcd(self.exp, other.exp)
            out = Root(
                self.base ** (l // self.exp) * other.base ** (l // other.exp), l
            )
        else:
            return NotImplemented
        return out.as_fraction() if out.is_rational() else out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(1 / Fraction(other))
        if isinstance(other, Root):
            return self * Root(1 / other.base, other.exp)
        return NotImplemented

    def __rtruediv__(self, other):
        inv = Root(1 / self.base, self.exp)
        return inv * other if not isinstance(other, Root) else NotImplemented

    # -- exact ordering ----------------------------------------------------

    def _cmp(self, other) -> int:
        if not isinstance(other, (int, Fraction, Root)):
            raise TypeError(f"cannot compare Root with {type(other)!r}")
        if isinstance(other, Root) or other > 0:
            return _power_sign(((self, 1), (other, -1)))
        return 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Root)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.exp == 1:
            return hash(self.base)
        return hash((self.base, self.exp))

    def __repr__(self):
        if self.exp == 1:
            return f"Root({self.base})"
        return f"Root({self.base}, 1/{self.exp})"

    # -- decimal output ----------------------------------------------------

    def enclosure(self, digits: int = DEFAULT_DIGITS) -> tuple[Fraction, Fraction]:
        """Rational interval [lo, hi] containing the value, width <= 2/10**digits."""
        num, den = self.base.numerator, self.base.denominator
        scale = 10 ** (digits * self.exp)
        lo_i = integer_nth_root((num * scale) // den, self.exp)
        hi_i = integer_nth_root(-(-(num * scale) // den), self.exp) + 1
        unit = Fraction(1, 10 ** digits)
        return lo_i * unit, hi_i * unit


ExactValue = Fraction | Root


# _power_sign divides each exponent p/k by a power of two 2^shift to r, with
# 1/4 < max |r| < 1: no r overflows, an integer p below 2^53 scales exactly,
# and S = sum |r|*(ln a + ln b) > ln(2)/4.  With u = 2^-53, the gap
# G = sum r*(ln a - ln b) of m terms is off by under (m + 6)u*S: math.log of
# an integer x >= 2 is within 4u*ln(x) of ln x (int-to-float rounding under
# 1.5u*ln(x), log one ulp), r, the difference and the product add u each to
# a term's share of S, and each of the m - 1 additions u*S; so the slack 32u
# covers up to m = 20 terms
_LOG_SLACK = 2.0**-48


def _power_sign(factors) -> int:
    """Sign of prod x**p - 1 over pairs (x, p), x a positive int, Fraction or
    Root and p an int: float logs outside the band, exact powers inside."""
    terms = []
    for x, p in factors:
        base, k = (x.base, x.exp) if isinstance(x, Root) else (x, 1)
        a, b = base.numerator, base.denominator
        if p and a != b:
            terms.append((a, b, p, k))
    # 2^(bits(p) - bits(k) + 1) > |p/k| > 2^(bits(p) - bits(k) - 1)
    shift = max((abs(p).bit_length() - k.bit_length() + 1 for *_, p, k in terms), default=0)
    gap = size = 0.0
    for a, b, p, k in terms:
        r = p / (k << shift) if shift >= 0 else (p << -shift) / k
        log_a, log_b = math.log(a), math.log(b)
        gap += r * (log_a - log_b)
        size += abs(r) * (log_a + log_b)
    if abs(gap) > _LOG_SLACK * size:
        return 1 if gap > 0 else -1
    lcm = math.lcm(*(k for *_, k in terms))
    return _exact_power_sign([(a, b, p * (lcm // k)) for a, b, p, k in terms])


def _exact_power_sign(terms) -> int:
    """Sign of prod (a/b)**m - 1 over integer triples (a, b, m), a, b >= 1."""
    num = math.prod(a**m if m > 0 else b**-m for a, b, m in terms)
    den = math.prod(b**m if m > 0 else a**-m for a, b, m in terms)
    return (num > den) - (num < den)


def make_value(base, exp: int = 1) -> ExactValue:
    """Fraction when the root collapses, Root otherwise."""
    r = Root(base, exp)
    frac = r.as_fraction()
    return frac if frac is not None else r


def value_pow(x: ExactValue, k: int) -> ExactValue:
    if isinstance(x, Root):
        return x.pow(k)
    return Fraction(x) ** k


def value_mul(x: ExactValue, y: ExactValue) -> ExactValue:
    if isinstance(x, Root):
        return x * y
    if isinstance(y, Root):
        return y * x
    return Fraction(x) * Fraction(y)


def value_div(x: ExactValue, y: ExactValue) -> ExactValue:
    if not isinstance(x, Root) and Fraction(x) == 0:
        # Root denominators are positive by construction
        if not isinstance(y, Root) and Fraction(y) == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(0)
    if isinstance(x, Root) or isinstance(y, Root):
        if not isinstance(x, Root):
            x = Root(Fraction(x), 1)
        return x / y
    return Fraction(x) / Fraction(y)


def value_root(x: ExactValue, k: int) -> ExactValue:
    """Exact k-th root of a positive value."""
    if k < 1:
        raise ValueError("root index must be >= 1")
    if isinstance(x, Root):
        return make_value(x.base, x.exp * k)
    return make_value(Fraction(x), k)


def value_cmp(x, y) -> int:
    """Exact three-way comparison of rationals and roots."""
    if isinstance(x, Root):
        return x._cmp(y)
    if isinstance(y, Root):
        return -y._cmp(x)
    xf, yf = Fraction(x), Fraction(y)
    return (xf > yf) - (xf < yf)


def value_float(x: ExactValue) -> float:
    if isinstance(x, Root):
        return float(x)
    x = Fraction(x)
    if abs(x.numerator) < 1 << 52 and x.denominator < 1 << 52:
        return x.numerator / x.denominator
    sign = -1.0 if x < 0 else 1.0
    return sign * math.exp(math.log(abs(x.numerator)) - math.log(x.denominator))


# -- enclosures of e ------------------------------------------------------


def e_enclosure(terms: int = 18) -> tuple[Fraction, Fraction]:
    """Rational [lo, hi] with lo < e < hi from the factorial series."""
    total = Fraction(0)
    fact = 1
    for k in range(terms + 1):
        if k:
            fact *= k
        total += Fraction(1, fact)
    # series tail after K terms is below 1/(K! * K)
    return total, total + Fraction(1, fact * terms)


def cmp_with_e_power(x, k: int = 1) -> int:
    """Sign of (x - e**k) for rational or Root x, decided exactly.

    e**k is irrational for integer k >= 1 while x is an algebraic number of
    the handled shapes, so equality cannot occur and refinement terminates.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    terms = 16
    while True:
        lo, hi = e_enclosure(terms)
        lo_k, hi_k = lo ** k, hi ** k
        if value_cmp(x, lo_k) < 0:
            return -1
        if value_cmp(x, hi_k) > 0:
            return 1
        terms += 12
        if terms > 400:  # ~ hundreds of digits; unreachable in practice
            raise RuntimeError("enclosure of e failed to separate the comparison")


# -- decimal rendering -----------------------------------------------------


def _format_scaled(value: int, digits: int) -> str:
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, frac = divmod(value, 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


def decimal_enclosure(x: ExactValue, digits: int = DEFAULT_DIGITS) -> tuple[str, str]:
    """Decimal strings (lo, hi) bracketing the exact value at ``digits`` places."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    if isinstance(x, Root) and not x.is_rational():
        lo, hi = x.enclosure(digits)
        lo_i = lo.numerator * 10 ** digits // lo.denominator
        hi_i = -(-hi.numerator * 10 ** digits // hi.denominator)
        return _format_scaled(lo_i, digits), _format_scaled(hi_i, digits)
    f = x.as_fraction() if isinstance(x, Root) else Fraction(x)
    scaled = f * 10 ** digits
    lo_i = scaled.numerator // scaled.denominator
    hi_i = -(-scaled.numerator // scaled.denominator)
    return _format_scaled(lo_i, digits), _format_scaled(hi_i, digits)


def format_fraction(f: Fraction) -> str:
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def value_to_json(x: ExactValue, digits: int = DEFAULT_DIGITS):
    """JSON-ready form: exact string for rationals, base/exp object for roots."""
    if isinstance(x, Root) and not x.is_rational():
        lo, hi = decimal_enclosure(x, digits)
        return {
            "kind": "root",
            "base": format_fraction(x.base),
            "exp": x.exp,
            "decimal_lo": lo,
            "decimal_hi": hi,
        }
    f = x.as_fraction() if isinstance(x, Root) else Fraction(x)
    return format_fraction(f)


# -- parsing ---------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or a plain decimal, exactly."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in s or "e" in s.lower():
            return Fraction(s)  # Fraction parses decimal strings exactly
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"not a rational: {text!r}") from err


def parse_exact(text: str) -> ExactValue:
    """Parse a rational or a "root:VALUE:K" token meaning VALUE ** (-1/K).

    The token shape matches how threshold reports print their exact value
    (a copy count N and an edge count e encode the threshold N**(-1/e)), so
    reported thresholds can be passed back on the command line unchanged.
    """
    s = text.strip()
    if s.startswith("root:"):
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed root token: {text!r}")
        base = parse_rational(parts[1])
        exp = int(parts[2])
        if base <= 0 or exp < 1:
            raise ValueError(f"root token out of range: {text!r}")
        return make_value(1 / base, exp)
    return parse_rational(s)
