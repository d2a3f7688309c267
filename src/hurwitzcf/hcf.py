"""Hurwitz continued fractions: canonical expansion, successor rules, error bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap

from .cf import CfSequence, ConvergentTable, convergents, evaluate
from .exactreal import sign_sqrt, sign_two_sqrt
from .gaussian import GaussianInt, GaussianRational, _box, _gauss_map


@dataclass(frozen=True)
class HcfExpansion:
    """The canonical expansion z = [a_0; a_1, ..., a_N] produced by the Gauss map."""

    integer_part: GaussianInt
    digits: tuple[GaussianInt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "integer_part", GaussianInt.from_any(self.integer_part))
        object.__setattr__(self, "digits", tuple(GaussianInt.from_any(d) for d in self.digits))

    @classmethod
    def _raw(cls, integer_part: GaussianInt, digits: tuple[GaussianInt, ...]) -> HcfExpansion:
        """Build from digits already held as GaussianInts in a tuple (skips the coercion)."""
        expansion = object.__new__(cls)
        object.__setattr__(expansion, "integer_part", integer_part)
        object.__setattr__(expansion, "digits", digits)
        return expansion

    def to_cf(self) -> CfSequence:
        return CfSequence._raw(self.integer_part, self.digits)

    def value(self) -> GaussianRational:
        return evaluate(self.to_cf())

    def __str__(self) -> str:
        return str(self.to_cf())


def digit_in_alphabet(d: GaussianInt) -> bool:
    """Membership in D = Z[i] minus {0, 1, -1, i, -i}."""
    return d.norm >= 2


def hcf_expand(z: GaussianRational | GaussianInt | int) -> HcfExpansion:
    """Expand a Gaussian rational with the nearest-integer Gauss map (exact)."""
    if isinstance(z, (int, GaussianInt)):
        return HcfExpansion(z, ())
    num, den = z.num, z.den
    (hre, him), digits, _ = _gauss_map(num.re, num.im, den.re, den.im)
    return HcfExpansion._raw(_box(hre, him), tuple(starmap(_box, digits)))


@dataclass(frozen=True)
class SuccessorRule:
    """Which digits may follow a given digit in a canonical expansion."""

    digit: GaussianInt
    kind: str  # "free" | "quadrant" | "half_plane" | "two_branch"
    two_branch: bool
    forbidden: GaussianInt | None  # fresh-branch excluded digit (norm-5 rows)
    decayed_digit: GaussianInt | None  # half-plane proxy for the decayed branch

    def _sign_law(self, anchor: GaussianInt, x: GaussianInt) -> bool:
        # Unified closed form: Re(anchor)*Re(x) >= 0 and Im(anchor)*Im(x) <= 0.
        return anchor.re * x.re >= 0 and anchor.im * x.im <= 0

    def fresh_allows(self, x: GaussianInt) -> bool:
        """Successor test in the state reached directly from the full state."""
        if not digit_in_alphabet(x):
            return False
        if self.kind == "free":
            return True
        if self.kind == "two_branch":
            return x != self.forbidden
        return self._sign_law(self.digit, x)

    def decayed_allows(self, x: GaussianInt) -> bool:
        """Successor test in the decayed state (norm-5 digit landing on a worn corner)."""
        if not self.two_branch:
            return self.fresh_allows(x)
        if not digit_in_alphabet(x):
            return False
        assert self.decayed_digit is not None
        return self._sign_law(self.decayed_digit, x)

    def allows(self, x: GaussianInt) -> bool:
        """Maximal predicate: the union of the branches."""
        return self.fresh_allows(x) or self.decayed_allows(x)


def allowed_successors(a: GaussianInt) -> SuccessorRule:
    """The successor rule for digit a: free, half-plane, closed quadrant, or two-branch."""
    if not digit_in_alphabet(a):
        raise ValueError(f"digit outside the Hurwitz alphabet: {a}")
    n = a.norm
    if max(abs(a.re), abs(a.im)) >= 3 or n == 8:
        return SuccessorRule(a, "free", False, None, None)
    if n == 2:
        return SuccessorRule(a, "quadrant", False, None, None)
    if n == 4:
        return SuccessorRule(a, "half_plane", False, None, None)
    assert n == 5
    corner = None
    for u in (GaussianInt(1, 0), GaussianInt(-1, 0), GaussianInt(0, 1), GaussianInt(0, -1)):
        if (u - a).norm == 2:
            corner = u - a
            break
    assert corner is not None
    if abs(a.re) == 2:
        decayed = GaussianInt(2 if a.re > 0 else -2, 0)
    else:
        decayed = GaussianInt(0, 2 if a.im > 0 else -2)
    return SuccessorRule(a, "two_branch", True, corner.conj(), decayed)


class SandwichBound:
    """One side of the approximation sandwich, compared exactly through its square.

    U^2 = (24 + 16*sqrt(2)) / (N |q|^4) and L^2 = (6 - 4*sqrt(2)) / (|q|^4 (N + 1/2 + sqrt(2N)))
    for N the norm of the next digit and q the convergent's denominator.
    """

    def __init__(self, side: str, digit_norm: int, q_norm: int) -> None:
        self.side = side  # "lower" | "upper"
        self.digit_norm = digit_norm
        self.q_norm = q_norm

    def cmp_sq(self, value_sq: Fraction) -> int:
        """Exact sign of (bound^2 - value_sq), from one surd sign decision.

        With v = value_sq and N the digit norm, clearing the positive denominator
        of each bound^2 leaves 24 - v*N*|q|^4 + 16*sqrt(2) for the upper
        bound and 6 - v*|q|^4*(N + 1/2) - 4*sqrt(2) - v*|q|^4*sqrt(2N) for the lower.
        """
        vq4 = value_sq * self.q_norm**2
        if self.side == "upper":
            return sign_sqrt(24 - vq4 * self.digit_norm, 16, 2)
        return sign_two_sqrt(6 - vq4 * (self.digit_norm + Fraction(1, 2)), -4, 2, -vq4, 2 * self.digit_norm)


def _sandwich_and_table(
    z: GaussianRational, n: int
) -> tuple[tuple[SandwichBound, SandwichBound], ConvergentTable]:
    exp = hcf_expand(z)
    if n < 0 or n + 1 > len(exp.digits):
        raise ValueError(f"no digit a_{n + 1}: expansion has {len(exp.digits)} digits")
    table = convergents(exp.to_cf())
    q = table.q(n)
    if q.is_zero():
        raise ValueError("q_n = 0: sandwich undefined")
    c_next = exp.digits[n]  # a_(n+1) in 1-based digit indexing
    bounds = (
        SandwichBound("lower", c_next.norm, q.norm),
        SandwichBound("upper", c_next.norm, q.norm),
    )
    return bounds, table


def error_sandwich(z: GaussianRational, n: int) -> tuple[SandwichBound, SandwichBound]:
    """Exact lower/upper bounds for |z - p_n/q_n| in terms of |q_n| and digit a_(n+1)."""
    return _sandwich_and_table(z, n)[0]


def check_error_sandwich(z: GaussianRational, n: int) -> bool:
    """Verify L <= |z - p_n/q_n| <= U with exact squared comparisons."""
    (lower, upper), table = _sandwich_and_table(z, n)
    err_sq = (z - table.value(n)).norm()
    return lower.cmp_sq(err_sq) <= 0 <= upper.cmp_sq(err_sq)
