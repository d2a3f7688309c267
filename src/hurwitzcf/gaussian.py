"""Exact arithmetic over the Gaussian integers Z[i] and their field of fractions."""

from __future__ import annotations

import re as _re
from fractions import Fraction


class GaussianInt:
    """An immutable Gaussian integer re + im*i with exact int components."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        if type(re) is not int or type(im) is not int:
            _check_components(re, im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianInt is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GaussianInt is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_any(cls, value: int | GaussianInt) -> GaussianInt:
        """Coerce an int or GaussianInt to GaussianInt."""
        if isinstance(value, GaussianInt):
            return value
        if isinstance(value, int):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianInt")

    # -- ring structure -----------------------------------------------

    def __add__(self, other: int | GaussianInt) -> GaussianInt:
        if isinstance(other, int):
            return _box(self.re + other, self.im)
        if isinstance(other, GaussianInt):
            return _box(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: int | GaussianInt) -> GaussianInt:
        if isinstance(other, int):
            return _box(self.re - other, self.im)
        if isinstance(other, GaussianInt):
            return _box(self.re - other.re, self.im - other.im)
        return NotImplemented

    def __rsub__(self, other: int | GaussianInt) -> GaussianInt:
        return (-self).__add__(other)

    def __mul__(self, other: int | GaussianInt) -> GaussianInt:
        if isinstance(other, int):
            return _box(self.re * other, self.im * other)
        if isinstance(other, GaussianInt):
            return _box(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> GaussianInt:
        return _box(-self.re, -self.im)

    def __pos__(self) -> GaussianInt:
        return self

    def __pow__(self, exponent: int) -> GaussianInt:
        if isinstance(exponent, bool):
            raise TypeError("GaussianInt powers must have an int exponent, not bool")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("GaussianInt powers must have a nonnegative int exponent")
        if not exponent:
            return _box(1, 0)
        # Left to right (Knuth, TAOCP vol. 2, 4.6.3): square the running result
        # in two int products, then multiply by the base itself at each set bit,
        # so no product has two big factors unless the base is big.
        bre, bim = re, im = self.re, self.im
        for bit in bin(exponent)[3:]:
            re, im = (re + im) * (re - im), (re * im) << 1
            if bit == "1":
                re, im = re * bre - im * bim, re * bim + im * bre
        return _box(re, im)

    def conj(self) -> GaussianInt:
        """Complex conjugate."""
        return _box(self.re, -self.im)

    @property
    def norm(self) -> int:
        """The field norm re**2 + im**2."""
        return self.re * self.re + self.im * self.im

    # -- Euclidean structure ------------------------------------------

    def __divmod__(self, other: int | GaussianInt) -> tuple[GaussianInt, GaussianInt]:
        """Nearest-integer quotient and remainder; norm(r) <= norm(other)/2."""
        other = GaussianInt.from_any(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Gaussian integer")
        n = other.norm
        t = self * other.conj()
        q = _box(_round_half_up(t.re, n), _round_half_up(t.im, n))
        return q, self - q * other

    def __floordiv__(self, other: int | GaussianInt) -> GaussianInt:
        return divmod(self, other)[0]

    def __mod__(self, other: int | GaussianInt) -> GaussianInt:
        return divmod(self, other)[1]

    # -- predicates and normal forms ----------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm == 1

    def canonical_associate(self) -> tuple[GaussianInt, GaussianInt]:
        """Return (a, u) with a = self*u, u a unit, and a in {re > 0, im >= 0} or a = 0."""
        are, aim, ure, uim = _canonical(self.re, self.im, 1, 0)
        return _box(are, aim), _box(ure, uim)

    # -- hashing / display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self) -> int:
        # Real values equal ints, so they must hash like them.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"

    def __str__(self) -> str:
        return format_gaussian_int(self)

    def key(self) -> tuple[int, int]:
        """A deterministic sort key (re, im)."""
        return (self.re, self.im)


_new = object.__new__
_set_re = GaussianInt.re.__set__
_set_im = GaussianInt.im.__set__


def _box(re: int, im: int) -> GaussianInt:
    """GaussianInt(re, im) through the slot descriptors, without the type check.

    Only for ints the library computed from components it holds; user input
    goes through the constructor, which refuses bool and non-int components.
    """
    z = _new(GaussianInt)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _canonical(re: int, im: int, xre: int, xim: int) -> tuple[int, int, int, int]:
    """Multiply re + im i and xre + xim i by the unit u that puts the first in {re > 0, im >= 0}.

    The four cases are u = 1, i, -1, -i; zero is left as it is (u = 1).
    Returns both products as int pairs.
    """
    if re > 0:
        if im >= 0:
            return re, im, xre, xim
        return -im, re, -xim, xre
    if im > 0:
        return im, -re, xim, -xre
    if re:
        return -re, -im, -xre, -xim
    if im:
        return -im, re, -xim, xre
    return re, im, xre, xim


def _mul3(z: GaussianInt, w: GaussianInt) -> GaussianInt:
    """z * w in three int products (Gauss; Knuth, TAOCP vol. 2, 4.6.4).

    For z = a + bi and w = c + di, k = c(a + b) gives ac - bd = k - b(c + d)
    and ad + bc = k + a(d - c).  Three products and five additions beat
    __mul__'s four products once the components are big; the xi builder's
    big products call it, and __mul__ keeps the small path free of a size test.
    """
    a, b, c, d = z.re, z.im, w.re, w.im
    k = c * (a + b)
    return _box(k - b * (c + d), k + a * (d - c))


def _check_components(re: object, im: object) -> None:
    """Slow path of the constructor: int subclasses pass, bool and the rest do not."""
    for part in (re, im):
        if not isinstance(part, int) or isinstance(part, bool):
            raise TypeError(f"GaussianInt components must be int, not {type(part).__name__}")


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)
UNITS = (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1))


def _associate_unit(z: GaussianInt, w: GaussianInt) -> GaussianInt | None:
    """The unit u with z == u * w, or None: O(n) work, no division or product."""
    zre, zim, wre, wim = z.re, z.im, w.re, w.im
    for u, (ure, uim) in zip(UNITS, ((wre, wim), (-wim, wre), (-wre, -wim), (wim, -wre))):
        if zre == ure and zim == uim:
            return u
    return None


class BudgetError(ValueError):
    """A request whose exact arithmetic would exceed the work budget."""


def _power_bits(base: GaussianInt, v: int) -> int:
    """Upper estimate of the component bit length of base**v, found without the power.

    |base**v| = N**(v/2) and 16 log2(N) < (N**16).bit_length(), so the
    estimate overshoots by less than v/32 + 1 bits.
    """
    return v * (base.norm ** 16).bit_length() // 32 + 1


def _brief(n: int) -> str:
    return str(n) if n < 10**12 else f"~2^{n.bit_length() - 1}"


def _check_power_budget(base: GaussianInt, v: int, limit: int, name: str = "v") -> None:
    """Raise BudgetError when the components of base**v would pass limit bits."""
    bits = _power_bits(base, v)
    if bits > limit:
        raise BudgetError(
            f"base**{name} for {name} = {_brief(v)} exceeds the work budget of {limit} bits "
            f"per component (estimated {_brief(bits)} bits)"
        )


def _round_half_up(numerator: int, denominator: int) -> int:
    """Nearest integer to numerator/denominator (denominator > 0), ties toward +inf."""
    return (2 * numerator + denominator) // (2 * denominator)


def exact_div(a: int | GaussianInt, b: int | GaussianInt) -> GaussianInt:
    """Exact quotient a/b in Z[i]; raises if b does not divide a."""
    a = GaussianInt.from_any(a)
    b = GaussianInt.from_any(b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero Gaussian integer")
    return _box(*_exact_quo(a.re, a.im, b.re, b.im, b.norm))


def _exact_quo(are: int, aim: int, bre: int, bim: int, n: int) -> tuple[int, int]:
    """(are + aim i)/(bre + bim i) for n = |b|^2 > 0, as an int pair; raises if b does not divide a."""
    qre, rre = divmod(are * bre + aim * bim, n)
    qim, rim = divmod(aim * bre - are * bim, n)
    if rre or rim:
        raise ValueError(f"{_box(bre, bim)} does not divide {_box(are, aim)} in Z[i]")
    return qre, qim


def _gauss_map(
    nre: int, nim: int, dre: int, dim: int
) -> tuple[tuple[int, int], list[tuple[int, int]], tuple[int, int]]:
    """Run the nearest-integer Gauss map on the unreduced fraction num/den.

    Returns (head, digits, last) as int pairs: head = [num/den], digits the
    canonical expansion of num/den - head, and last the last nonzero
    remainder, which is gcd(num, den) up to a unit.  The value lies in
    F = [-1/2, 1/2)^2 exactly when head is (0, 0).

    Between steps x/y = num/den - head (x, y the current remainders) is
    carried as P = x * conj(y), |x|^2 and |y|^2.  The digit d = [conj(P)/|x|^2]
    and the next state follow from small-by-big products only:
    P' = conj(P) - d |x|^2, |x'|^2 = |y|^2 - 2 Re(d P) + |d|^2 |x|^2, |y'|^2 = |x|^2.
    So a step costs O(n) on n-bit operands, and every check below is exact.
    """
    ny = dre * dre + dim * dim
    if not ny:
        raise ZeroDivisionError("division by zero Gaussian integer")
    pre = nre * dre + nim * dim
    pim = nim * dre - nre * dim
    hre = (2 * pre + ny) // (2 * ny)
    him = (2 * pim + ny) // (2 * ny)
    if hre or him:
        nre, nim = nre - (hre * dre - him * dim), nim - (hre * dim + him * dre)
        pre -= hre * ny
        pim -= him * ny
    nx = nre * nre + nim * nim
    digits: list[tuple[int, int]] = []
    guard = ny.bit_length() + 8
    while nx:
        tre, tim = 2 * pre, 2 * pim
        if not (-ny <= tre < ny and -ny <= tim < ny):
            raise AssertionError("intermediate orbit left the fundamental domain")
        two_nx = 2 * nx
        are = (tre + nx) // two_nx
        aim = (nx - tim) // two_nx
        dn = are * are + aim * aim
        if dn < 2:
            raise AssertionError("Gauss map produced a non-alphabet digit")
        digits.append((are, aim))
        nx, ny = ny - 2 * (are * pre - aim * pim) + dn * nx, nx
        pre, pim = pre - are * ny, -pim - aim * ny
        nre, nim, dre, dim = dre - (are * nre - aim * nim), dim - (are * nim + aim * nre), nre, nim
        guard -= 1
        if guard < 0:
            raise AssertionError("expansion failed to terminate: denominator norms not shrinking")
    if nre or nim or dre * dre + dim * dim != ny:
        raise AssertionError("carried norms disagree with the remainders")
    return (hre, him), digits, (dre, dim)


def gauss_gcd(a: int | GaussianInt, b: int | GaussianInt) -> GaussianInt:
    """Greatest common divisor in Z[i], returned as the canonical associate."""
    a = GaussianInt.from_any(a)
    b = GaussianInt.from_any(b)
    if b.is_zero():
        if a.is_zero():
            raise ValueError("gcd(0, 0) is undefined")
        gre, gim = a.re, a.im
    else:
        gre, gim, _ = _gcd(a.re, a.im, b.re, b.im)
    gre, gim, _, _ = _canonical(gre, gim, 0, 0)
    return _box(gre, gim)


def nearest_gaussian(z: GaussianRational | GaussianInt | int) -> GaussianInt:
    """The nearest Gaussian integer [z], components rounded by floor(x + 1/2)."""
    if isinstance(z, int):
        return GaussianInt(z, 0)
    if isinstance(z, GaussianInt):
        return z
    tre, tim, n = _times_conj_den(z)
    return _box(_round_half_up(tre, n), _round_half_up(tim, n))


def _times_conj_den(z: GaussianRational) -> tuple[int, int, int]:
    """(t.re, t.im, n) with t = num * conj(den) and n = |den|^2, so z = t/n."""
    nre, nim, dre, dim = z.num.re, z.num.im, z.den.re, z.den.im
    return nre * dre + nim * dim, nim * dre - nre * dim, dre * dre + dim * dim


# Below this many bits per component of b, _gcd's plain loop beats _gauss_map:
# 0.65x its time at 17 bits, 0.9x at 256, 1.2x at 512 and 1.7x at 1024.
_EUCLID_BITS = 256


def _gcd(are: int, aim: int, bre: int, bim: int) -> tuple[int, int, int]:
    """gcd(a, b) for b != 0, up to a unit, as (re, im, norm): _gauss_map's last remainder.

    For small b the nearest-integer Euclid loop (a, b) -> (b, a - [a/b] b), with
    _gauss_map's rounding, visits the same remainders without carrying its state.
    """
    if (abs(bre) | abs(bim)).bit_length() > _EUCLID_BITS:
        gre, gim = _gauss_map(are, aim, bre, bim)[2]
        return gre, gim, gre * gre + gim * gim
    while True:
        n = bre * bre + bim * bim
        two_n = 2 * n
        qre = (2 * (are * bre + aim * bim) + n) // two_n
        qim = (2 * (aim * bre - are * bim) + n) // two_n
        are, aim, bre, bim = bre, bim, are - (qre * bre - qim * bim), aim - (qre * bim + qim * bre)
        if not (bre or bim):
            return are, aim, n


def _cancel(are: int, aim: int, bre: int, bim: int) -> tuple[int, int, int, int]:
    """a/g and b/g for g = gcd(a, b), b != 0, as int pairs."""
    gre, gim, gn = _gcd(are, aim, bre, bim)
    if gn == 1:
        return are, aim, bre, bim
    return *_exact_quo(are, aim, gre, gim, gn), *_exact_quo(bre, bim, gre, gim, gn)


def _fill(self: GaussianRational, nre: int, nim: int, dre: int, dim: int) -> GaussianRational:
    """Store the reduced fraction num/den (den != 0) in self, den turned canonical; 0 as 0/1."""
    if nre or nim:
        dre, dim, nre, nim = _canonical(dre, dim, nre, nim)
        _set_num(self, _box(nre, nim))
        _set_den(self, _box(dre, dim))
    else:
        _set_num(self, ZERO)
        _set_den(self, ONE)
    return self


def _rational(nre: int, nim: int, dre: int, dim: int) -> GaussianRational:
    """The GaussianRational of a fraction already known to be reduced, den != 0."""
    return _fill(_new(GaussianRational), nre, nim, dre, dim)


def _add(nre: int, nim: int, bre: int, bim: int, mre: int, mim: int, dre: int, dim: int) -> GaussianRational:
    """n/b + m/d for reduced fractions, by gcd splitting (Henrici; Knuth, TAOCP vol. 2, 4.5.1).

    With g = gcd(b, d), s = b/g and t = n (d/g) + m s, t is prime to s and
    to d/g, so t/(s d) reduces by gcd(t, g) alone.
    """
    gre, gim, gn = _gcd(bre, bim, dre, dim)
    if gn == 1:
        return _rational(nre * dre - nim * dim + mre * bre - mim * bim,
                         nre * dim + nim * dre + mre * bim + mim * bre,
                         bre * dre - bim * dim, bre * dim + bim * dre)
    sre, sim = _exact_quo(bre, bim, gre, gim, gn)
    ere, eim = _exact_quo(dre, dim, gre, gim, gn)
    tre = nre * ere - nim * eim + mre * sre - mim * sim
    tim = nre * eim + nim * ere + mre * sim + mim * sre
    hre, him, hn = _gcd(tre, tim, gre, gim)
    if hn != 1:
        tre, tim = _exact_quo(tre, tim, hre, him, hn)
        dre, dim = _exact_quo(dre, dim, hre, him, hn)
    return _rational(tre, tim, sre * dre - sim * dim, sre * dim + sim * dre)


def _mul(nre: int, nim: int, bre: int, bim: int, mre: int, mim: int, dre: int, dim: int) -> GaussianRational:
    """(n/b) (m/d) for reduced fractions, b, d != 0: cancel gcd(n, d) and gcd(m, b) first."""
    nre, nim, dre, dim = _cancel(nre, nim, dre, dim)
    mre, mim, bre, bim = _cancel(mre, mim, bre, bim)
    return _rational(nre * mre - nim * mim, nre * mim + nim * mre,
                     bre * dre - bim * dim, bre * dim + bim * dre)


class GaussianRational:
    """An exact fraction of Gaussian integers, kept reduced with canonical denominator."""

    __slots__ = ("num", "den")

    def __init__(
        self,
        num: int | GaussianInt = 0,
        den: int | GaussianInt = 1,
    ) -> None:
        num = GaussianInt.from_any(num)
        den = GaussianInt.from_any(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Gaussian rational")
        _fill(self, *_cancel(num.re, num.im, den.re, den.im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _raw(cls, num: GaussianInt, den: GaussianInt) -> GaussianRational:
        """Build from a fraction already known to be reduced (skips the gcd)."""
        return _rational(num.re, num.im, den.re, den.im)

    # -- exact components ---------------------------------------------

    @property
    def real(self) -> Fraction:
        tre, _, n = _times_conj_den(self)
        return Fraction(tre, n)

    @property
    def imag(self) -> Fraction:
        _, tim, n = _times_conj_den(self)
        return Fraction(tim, n)

    def norm(self) -> Fraction:
        """The exact squared modulus |self|^2."""
        return Fraction(self.num.norm, self.den.norm)

    # -- field structure ----------------------------------------------

    def _coerce(self, other: object) -> GaussianRational | None:
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, GaussianInt)):
            return GaussianRational._raw(GaussianInt.from_any(other), ONE)
        return None

    def __add__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n, b, m, d = self.num, self.den, w.num, w.den
        return _add(n.re, n.im, b.re, b.im, m.re, m.im, d.re, d.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n, b, m, d = self.num, self.den, w.num, w.den
        return _add(n.re, n.im, b.re, b.im, -m.re, -m.im, d.re, d.im)

    def __rsub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        n, b, m, d = self.num, self.den, w.num, w.den
        return _mul(n.re, n.im, b.re, b.im, m.re, m.im, d.re, d.im)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        if w.num.is_zero():
            raise ZeroDivisionError("zero denominator in Gaussian rational")
        n, b, m, d = self.num, self.den, w.den, w.num
        return _mul(n.re, n.im, b.re, b.im, m.re, m.im, d.re, d.im)

    def __rtruediv__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w / self

    def __neg__(self) -> GaussianRational:
        return GaussianRational._raw(-self.num, self.den)

    def reciprocal(self) -> GaussianRational:
        """1/self; exact, stays reduced."""
        if self.num.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return GaussianRational._raw(self.den, self.num)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_gaussian_int(self) -> bool:
        return self.den == ONE

    def in_fundamental_domain(self) -> bool:
        """Exact membership in F = [-1/2, 1/2) x [-1/2, 1/2)."""
        tre, tim, n = _times_conj_den(self)
        return -n <= 2 * tre < n and -n <= 2 * tim < n

    # -- hashing / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self.num == w.num and self.den == w.den

    def __hash__(self) -> int:
        # Integral values equal their numerator, so they must hash like it.
        den = self.den
        if den.re == 1 and den.im == 0:
            return hash(self.num)
        return hash((self.num, den))

    def __repr__(self) -> str:
        return f"GaussianRational({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return format_gaussian_rational(self)


_set_num = GaussianRational.num.__set__
_set_den = GaussianRational.den.__set__


def format_gaussian_int(z: GaussianInt) -> str:
    """Canonical text form: '0', '-3', 'i', '2-3i', ... (no spaces)."""
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{im}i"
    if re == 0:
        return imag
    sign = "+" if im > 0 else ""
    return f"{re}{sign}{imag}"


def format_gaussian_rational(z: GaussianRational) -> str:
    """Canonical text form 'a+bi / c+di'; integer values print without a denominator."""
    if z.den == ONE:
        return format_gaussian_int(z.num)
    return f"{format_gaussian_int(z.num)} / {format_gaussian_int(z.den)}"


_REAL_RE = _re.compile(r"[+-]?\d+\Z")
_IMAG_RE = _re.compile(r"([+-]?)(\d*)i\Z")
_BOTH_RE = _re.compile(r"([+-]?\d+)([+-])(\d*)i\Z")


def _quoted(text: str) -> str:
    """text quoted for an error message, or only its length once it is too long to echo."""
    return repr(text) if len(text) <= 80 else f"a text of {len(text)} characters"


def parse_gaussian_int(text: str) -> GaussianInt:
    """Parse 'a+bi' forms: '0', '-3', 'i', '-i', '4i', '2-3i', '-2+i'."""
    s = text.strip().replace(" ", "")
    if _REAL_RE.fullmatch(s):
        return GaussianInt(int(s), 0)
    m = _IMAG_RE.fullmatch(s)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        return GaussianInt(0, sign * mag)
    m = _BOTH_RE.fullmatch(s)
    if m:
        re_part = int(m.group(1))
        sign = -1 if m.group(2) == "-" else 1
        mag = int(m.group(3)) if m.group(3) else 1
        return GaussianInt(re_part, sign * mag)
    raise ValueError(f"cannot parse Gaussian integer: {_quoted(text)}")


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse 'a+bi / c+di' (spaces optional) or a plain Gaussian integer."""
    parts = text.split("/")
    if len(parts) == 1:
        return GaussianRational(parse_gaussian_int(parts[0]), ONE)
    if len(parts) == 2:
        return GaussianRational(parse_gaussian_int(parts[0]), parse_gaussian_int(parts[1]))
    raise ValueError(f"cannot parse Gaussian rational: {_quoted(text)}")
