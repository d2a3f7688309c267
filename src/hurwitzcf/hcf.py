"""Hurwitz continued fractions: canonical expansion, successor rules, error bounds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import CfSequence, ConvergentTable, convergents, evaluate
from .exactreal import sign_sqrt, sign_two_sqrt, sqrt_brackets
from .gaussian import ZERO, GaussianInt, GaussianRational, _gauss_map


@dataclass(frozen=True)
class HcfExpansion:
    """The canonical expansion z = [a_0; a_1, ..., a_N] produced by the Gauss map."""

    integer_part: GaussianInt
    digits: tuple[GaussianInt, ...]

    def to_cf(self) -> CfSequence:
        return CfSequence(self.integer_part, self.digits)

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
        return HcfExpansion(GaussianInt.from_any(z), ())
    num, den = z.num, z.den
    (hre, him), digits, _ = _gauss_map(num.re, num.im, den.re, den.im)
    return HcfExpansion(GaussianInt(hre, him), tuple(GaussianInt(re, im) for re, im in digits))


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


def successor_consistent(digits: tuple[GaussianInt, ...]) -> bool:
    """Every adjacent digit pair satisfies the maximal successor predicate."""
    for a, b in zip(digits, digits[1:]):
        if not allowed_successors(a).allows(b):
            return False
    return True


def is_reversible_real(digits: tuple[GaussianInt, ...] | list[GaussianInt]) -> bool:
    """Reversal validity for real-integer digit sequences: |a_k| = 2 needs a_(k-1)a_k > 0."""
    seq = [GaussianInt.from_any(d) for d in digits]
    for d in seq:
        if d.im != 0:
            raise ValueError("rule applies to real-integer sequences only")
        if abs(d.re) < 2:
            raise ValueError("real digits must have modulus at least 2")
    return all(
        seq[k - 1].re * seq[k].re > 0
        for k in range(1, len(seq))
        if abs(seq[k].re) == 2
    )


class SandwichBound:
    """One side of the approximation sandwich; exposes exact brackets of its square."""

    def __init__(self, side: str, digit_norm: int, q_norm: int) -> None:
        self.side = side  # "lower" | "upper"
        self.digit_norm = digit_norm
        self.q_norm = q_norm

    def sq_brackets(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational lo <= bound^2 <= hi."""
        q4 = Fraction(self.q_norm) ** 2
        s2_lo, s2_hi = sqrt_brackets(2, bits)
        if self.side == "upper":
            # U^2 = (24 + 16*sqrt(2)) / (N * |q|^4)
            den = self.digit_norm * q4
            return (24 + 16 * s2_lo) / den, (24 + 16 * s2_hi) / den
        # L^2 = (6 - 4*sqrt(2)) / (|q|^4 * (N + 1/2 + sqrt(2N)))
        r_lo, r_hi = sqrt_brackets(2 * self.digit_norm, bits)
        num_lo, num_hi = 6 - 4 * s2_hi, 6 - 4 * s2_lo
        den_lo = q4 * (self.digit_norm + Fraction(1, 2) + r_lo)
        den_hi = q4 * (self.digit_norm + Fraction(1, 2) + r_hi)
        return num_lo / den_hi, num_hi / den_lo

    def cmp_sq(self, value_sq: Fraction) -> int:
        """Exact sign of (bound^2 - value_sq), from one surd sign decision.

        With v = value_sq and N the digit norm, clearing the positive denominator
        of each bound^2 above leaves 24 - v*N*|q|^4 + 16*sqrt(2) for the upper
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


def convergent_detector(z: GaussianRational, candidate: GaussianRational) -> bool:
    """Whether candidate appears among the convergents of z; checks the 1/(4|q|^2) law."""
    exp = hcf_expand(z)
    table = convergents(exp.to_cf())
    values = {table.value(n) for n in range(0, table.last_index + 1)}
    found = candidate in values
    err_sq = (z - candidate).norm()
    hypothesis = err_sq * 16 * Fraction(candidate.den.norm) ** 2 < 1
    if hypothesis and not found:
        raise AssertionError(
            "convergent hypothesis violated: |z - p/q| < 1/(4|q|^2) but p/q is not a convergent"
        )
    return found


def classify_endpoint(digits: tuple[GaussianInt, ...]) -> str:
    """How the endpoint [0; digits] re-expands: exact, final-digit rewrite, or cascade."""
    value = evaluate(CfSequence(ZERO, tuple(digits)))
    exp = hcf_expand(value)
    if exp.integer_part == ZERO and exp.digits == tuple(digits):
        return "exact"
    n = len(digits)
    if (
        exp.integer_part == ZERO
        and n >= 1
        and len(exp.digits) in (n, n + 1)
        and exp.digits[: n - 1] == tuple(digits[: n - 1])
    ):
        return "final_digit_rewrite"
    return "boundary_cascade"
