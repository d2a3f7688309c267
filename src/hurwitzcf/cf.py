"""Finite complex continued fractions: convergents, exact evaluation, folding."""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import ONE, ZERO, GaussianInt, GaussianRational, _box, _rational, parse_gaussian_int


class CfUndefinedError(ArithmeticError):
    """Raised when a finite continued fraction hits a zero intermediate value."""


@dataclass(frozen=True)
class CfSequence:
    """A finite continued fraction head + 1/(a_1 + 1/(a_2 + ...))."""

    head: GaussianInt
    tail: tuple[GaussianInt, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", GaussianInt.from_any(self.head))
        object.__setattr__(self, "tail", tuple(GaussianInt.from_any(a) for a in self.tail))

    @classmethod
    def _raw(cls, head: GaussianInt, tail: tuple[GaussianInt, ...]) -> CfSequence:
        """Build from digits already held as GaussianInts in a tuple (skips the coercion)."""
        cf = object.__new__(cls)
        object.__setattr__(cf, "head", head)
        object.__setattr__(cf, "tail", tail)
        return cf

    def __str__(self) -> str:
        return format_cf(self)

    def digit(self, n: int) -> GaussianInt:
        """a_n with a_0 = head and a_1.. = tail."""
        if n < 0:
            raise IndexError(f"digit index {n} is negative")
        return self.head if n == 0 else self.tail[n - 1]


@dataclass(frozen=True)
class ConvergentTable:
    """Numerators and denominators p_n, q_n for n = -1, 0, ..., N."""

    ps: tuple[GaussianInt, ...]
    qs: tuple[GaussianInt, ...]

    def p(self, n: int) -> GaussianInt:
        return self.ps[self._slot(n)]

    def q(self, n: int) -> GaussianInt:
        return self.qs[self._slot(n)]

    def _slot(self, n: int) -> int:
        if n < -1:
            raise IndexError(f"convergent index {n} is below -1")
        return n + 1

    @property
    def last_index(self) -> int:
        return len(self.ps) - 2

    def value(self, n: int) -> GaussianRational:
        return GaussianRational._raw(self.p(n), self.q(n))


def convergents(cf: CfSequence) -> ConvergentTable:
    """Run p_n = a_n p_(n-1) + p_(n-2), q_n likewise, from p_(-1) = 1, q_(-1) = 0."""
    ps = [ONE, cf.head]
    qs = [ZERO, ONE]
    pre, pim, p1re, p1im = cf.head.re, cf.head.im, 1, 0
    qre, qim, q1re, q1im = 1, 0, 0, 0
    for a in cf.tail:
        are, aim = a.re, a.im
        pre, pim, p1re, p1im = are * pre - aim * pim + p1re, are * pim + aim * pre + p1im, pre, pim
        qre, qim, q1re, q1im = are * qre - aim * qim + q1re, are * qim + aim * qre + q1im, qre, qim
        ps.append(_box(pre, pim))
        qs.append(_box(qre, qim))
    return ConvergentTable(tuple(ps), tuple(qs))


def evaluate(cf: CfSequence) -> GaussianRational:
    """Exact value by back-substitution; raises CfUndefinedError on a zero suffix."""
    tail = cf.tail
    head = cf.head
    if not tail:
        return _rational(head.re, head.im, 1, 0)
    # The suffix [a_j; a_(j+1), ...] is nre + nim i over dre + dim i.
    nre, nim, dre, dim = tail[-1].re, tail[-1].im, 1, 0
    for j in range(len(tail) - 1, 0, -1):
        if not (nre or nim):
            raise CfUndefinedError(
                f"undefined finite continued fraction: suffix starting at digit {j + 1} "
                "evaluates to zero"
            )
        a = tail[j - 1]
        are, aim = a.re, a.im
        nre, nim, dre, dim = are * nre - aim * nim + dre, are * nim + aim * nre + dim, nre, nim
    if not (nre or nim):
        raise CfUndefinedError(
            "undefined finite continued fraction: suffix starting at digit 1 evaluates to zero"
        )
    hre, him = head.re, head.im
    return _rational(hre * nre - him * nim + dre, hre * nim + him * nre + dim, nre, nim)


def mirror(digits: tuple[GaussianInt, ...]) -> tuple[GaussianInt, ...]:
    """Reverse a digit tuple."""
    return tuple(reversed(digits))


def mirror_negate(digits: tuple[GaussianInt, ...]) -> tuple[GaussianInt, ...]:
    """Reverse and negate a digit tuple."""
    return tuple(-d for d in reversed(digits))


def fold(cf: CfSequence, x: GaussianInt | int) -> CfSequence:
    """Append x then the negated mirror of the tail: value rises by (-1)^n/(x*q_n^2)."""
    x = GaussianInt.from_any(x)
    if x.is_zero():
        raise ValueError("fold requires a nonzero middle digit")
    if not cf.tail:
        raise ValueError("fold requires a nonempty tail")
    return CfSequence._raw(cf.head, cf.tail + (x,) + mirror_negate(cf.tail))


def fold_unit(cf: CfSequence) -> CfSequence:
    """The x = +1 fold with the unit absorbed: pivot splits into a_n+1, a_n-1."""
    if not cf.tail:
        raise ValueError("fold_unit requires a nonempty tail")
    body, last = cf.tail[:-1], cf.tail[-1]
    return CfSequence._raw(cf.head, body + (last + 1, last - 1) + mirror(body))


def fold_unit_neg(cf: CfSequence) -> CfSequence:
    """The x = -1 fold with the unit absorbed: pivot splits into a_n-1, a_n+1."""
    if not cf.tail:
        raise ValueError("fold_unit_neg requires a nonempty tail")
    body, last = cf.tail[:-1], cf.tail[-1]
    return CfSequence._raw(cf.head, body + (last - 1, last + 1) + mirror(body))


def _fold_series(
    word: tuple[GaussianInt, ...], unit: GaussianInt, middle: GaussianInt, sign: int
) -> tuple[GaussianInt, ...]:
    """The Folding Lemma on its series side: the tail of a fold of [0; word].

    For [0; word] with last convergent (u B, u c), u a unit and n = len(word),
    this is the fold by x = sign (-1)^n u^2 middle: fold_unit / fold_unit_neg
    for x = +-1, else fold.  Its value is c/B + (-1)^n/(x u^2 B^2), and
    u^4 = 1 makes that (c middle B + sign)/(middle B^2), so the caller's
    series side is the numerator c middle B + sign over middle B^2.
    """
    cf = CfSequence._raw(ZERO, word)
    if sign * fold_sign(len(word)) * (unit * unit).re < 0:
        middle = -middle
    if middle == ONE:
        return fold_unit(cf).tail
    if middle == -ONE:
        return fold_unit_neg(cf).tail
    return fold(cf, middle).tail


def fold_sign(n: int) -> int:
    """(-1)^n, the sign of the folding correction for a length-n tail."""
    return -1 if n & 1 else 1


def format_cf(cf: CfSequence) -> str:
    """Text form '[a0; a1, a2, ...]'; an empty tail prints as '[a0;]'."""
    inside = ", ".join(str(a) for a in cf.tail)
    if inside:
        return f"[{cf.head}; {inside}]"
    return f"[{cf.head};]"


def parse_cf(text: str) -> CfSequence:
    """Parse '[a0; a1, a2, ...]' (spaces optional; '[a0]' and '[a0;]' allowed)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"cannot parse continued fraction: {text!r}")
    s = s[1:-1]
    head_text, _, tail_text = s.partition(";")
    head = parse_gaussian_int(head_text)
    tail_text = tail_text.strip()
    if not tail_text:
        return CfSequence(head, ())
    tail = tuple(parse_gaussian_int(tok) for tok in tail_text.split(","))
    return CfSequence(head, tail)
