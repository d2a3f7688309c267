"""The boxed value layer, the slow reference for the int-pair value layer's differential tests.

It keeps the earlier `GaussianInt`-only code: the rotation loop of
`canonical_associate`, the `GaussianRational` normal form (a full gcd, two
exact divisions and a rotation) with `+ - * /` on the full cross products,
the convergent recurrence and back-substitution on boxed values, the
base-b digit loop with one `exact_div` per digit, and the `encode_fractional`
loop that multiplies by the base until the value is integral.  A fraction is a
(num, den) pair of `GaussianInt`s in normal form.  The gcd is the plain
Euclidean loop on `GaussianInt.__divmod__`, independent of
`gaussian._gauss_map`.
"""

from __future__ import annotations

from fractions import Fraction

from hurwitzcf.cf import CfUndefinedError
from hurwitzcf.gaussian import GaussianInt

ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)
UNITS = (ONE, I, -ONE, -I)


def canonical_associate(z: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """(a, u) with a = z*u, u a unit, and a in {re > 0, im >= 0} or a = 0, by rotating up to three times."""
    u = ONE
    for _ in range(3):
        if z.is_zero() or (z.re > 0 and z.im >= 0):
            return z, u
        z, u = z * I, u * I
    return z, u


def gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """The canonical gcd by the nearest-integer Euclidean algorithm."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return canonical_associate(a)[0]


def exact_div(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    if b.is_zero():
        raise ZeroDivisionError("division by zero Gaussian integer")
    n = b.norm
    t = a * b.conj()
    if t.re % n or t.im % n:
        raise ValueError(f"{b} does not divide {a} in Z[i]")
    return GaussianInt(t.re // n, t.im // n)


def normal_form(num: GaussianInt, den: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """The reduced fraction num/den with the canonical denominator; zero is 0/1."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Gaussian rational")
    if num.is_zero():
        return ZERO, ONE
    g = gcd(num, den)
    if not g.is_unit():
        num, den = exact_div(num, g), exact_div(den, g)
    den, u = canonical_associate(den)
    return num * u, den


def add(x, y):
    return normal_form(x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def sub(x, y):
    return normal_form(x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def mul(x, y):
    return normal_form(x[0] * y[0], x[1] * y[1])


def div(x, y):
    return normal_form(x[0] * y[1], x[1] * y[0])


def components(x) -> tuple[Fraction, Fraction]:
    """Exact real and imaginary parts of the fraction x."""
    t = x[0] * x[1].conj()
    return Fraction(t.re, x[1].norm), Fraction(t.im, x[1].norm)


def nearest_gaussian(x) -> GaussianInt:
    re, im = components(x)
    return GaussianInt((2 * re.numerator + re.denominator) // (2 * re.denominator),
                       (2 * im.numerator + im.denominator) // (2 * im.denominator))


def in_fundamental_domain(x) -> bool:
    half = Fraction(1, 2)
    re, im = components(x)
    return -half <= re < half and -half <= im < half


def associate_unit(z: GaussianInt, w: GaussianInt) -> GaussianInt | None:
    for u in UNITS:
        if z == u * w:
            return u
    return None


def convergents(head: GaussianInt, tail) -> tuple[tuple[GaussianInt, ...], tuple[GaussianInt, ...]]:
    """(p_-1, ..., p_N), (q_-1, ..., q_N) by the boxed recurrence."""
    ps = [ONE, head]
    qs = [ZERO, ONE]
    for a in tail:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    return tuple(ps), tuple(qs)


def evaluate(head: GaussianInt, tail) -> tuple[GaussianInt, GaussianInt]:
    """The value of [head; tail] in normal form by boxed back-substitution."""
    num, den = None, None
    for j in range(len(tail), 0, -1):
        a = tail[j - 1]
        if num is None:
            num, den = a, ONE
        else:
            if num.is_zero():
                raise CfUndefinedError(
                    f"undefined finite continued fraction: suffix starting at digit {j + 1} "
                    "evaluates to zero"
                )
            num, den = a * num + den, num
    if num is None:
        return head, ONE
    if num.is_zero():
        raise CfUndefinedError(
            "undefined finite continued fraction: suffix starting at digit 1 evaluates to zero"
        )
    # the back-substituted fraction is reduced (det = +-1): only the unit is fixed
    value = head * num + den
    if value.is_zero():
        return ZERO, ONE
    den, u = canonical_associate(num)
    return value * u, den


def encode_base_b(z: GaussianInt, base: GaussianInt) -> tuple[int, ...]:
    """Digits of z in base -A+i or -A-i, least significant first, one exact_div per digit."""
    a, norm = -base.re, base.norm
    digits = []
    while z != ZERO:
        d = (z.re + a * z.im) % norm if base.im > 0 else (z.re - a * z.im) % norm
        digits.append(d)
        z = exact_div(z - GaussianInt(d, 0), base)
    return tuple(digits)


def decode_base_b(digits, base: GaussianInt) -> GaussianInt:
    value = ZERO
    for d in reversed(digits):
        value = value * base + GaussianInt(d, 0)
    return value


def encode_fractional(num: GaussianInt, den: GaussianInt, base: GaussianInt) -> tuple[tuple[int, ...], int]:
    """Digits of num/den times base**k and the shift k, multiplying by the base until the value is integral."""
    value = normal_form(num, den)
    shift = 0
    bound = value[1].norm.bit_length() + 1
    while value[1] != ONE:
        value = mul(value, (base, ONE))
        shift += 1
        if shift > bound:
            raise ValueError("denominator is not a power of the base")
    return encode_base_b(value[0], base), shift

