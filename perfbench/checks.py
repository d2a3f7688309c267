"""Independent output checks for the benchmark's jobs.

Nothing here imports hurwitzcf: digits, convergents and folds are re-derived
on plain (re, im) int pairs, and gcds and coprimality come from sympy's ZZ_I.
Each check takes the job as generated and the job's output as plain data and
returns None when the output is right, or a one-line reason when it is not.

Verdicts of `is_valid` and optima of the oracle have no cheap independent
check.  They are held to the digests recorded for the default seed (see
digests.json) and, for verdicts, to one consistency rule: a word that is its
own canonical expansion is never Invalid.  No check assumes any particular
word is Invalid.
"""

from __future__ import annotations

from fractions import Fraction

ETA_SQ = {
    (-3, 1): 18,
    (-3, -1): 18,
    (-2, 1): 18,
    (-2, -1): 18,
    (2, 0): 64,
    (3, 0): 64,
    (5, 0): 49,
}


# ------------------------------------------------------------ int-pair ring

def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def norm(a):
    return a[0] * a[0] + a[1] * a[1]


def power(a, k):
    out, base = (1, 0), a
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def divides(d, a):
    """Whether d divides a in Z[i]."""
    n = norm(d)
    t = mul(a, (d[0], -d[1]))
    return t[0] % n == 0 and t[1] % n == 0


def _round(n: int, d: int) -> int:
    """floor(n/d + 1/2) for d > 0: the half-open box [-1/2, 1/2) convention."""
    return (2 * n + d) // (2 * d)


def nearest(num, den):
    """The nearest Gaussian integer to num/den, components rounded half up."""
    n = norm(den)
    t = mul(num, (den[0], -den[1]))
    return (_round(t[0], n), _round(t[1], n))


def gauss_expand(num, den):
    """Canonical nearest-integer expansion of num/den: (head, digits)."""
    head = nearest(num, den)
    num = sub(num, mul(head, den))
    digits = []
    while num != (0, 0):
        d = nearest(den, num)
        digits.append(d)
        num, den = sub(den, mul(d, num)), num
    return head, tuple(digits)


def convergents(head, digits):
    """p_n, q_n for n = -1 .. N by the three-term recurrence."""
    ps, qs = [(1, 0), head], [(0, 0), (1, 0)]
    for a in digits:
        ps.append(add(mul(a, ps[-1]), ps[-2]))
        qs.append(add(mul(a, qs[-1]), qs[-2]))
    return ps, qs


def last_convergent(head, digits):
    p_prev, p, q_prev, q = (1, 0), head, (0, 0), (1, 0)
    for a in digits:
        p_prev, p = p, add(mul(a, p), p_prev)
        q_prev, q = q, add(mul(a, q), q_prev)
    return p, q


def same_value(p, q, r, s):
    """p/q == r/s by cross-multiplication."""
    return mul(p, s) == mul(r, q)


def in_box(num, den):
    """num/den lies in the half-open box [-1/2, 1/2)^2."""
    n = norm(den)
    t = mul(num, (den[0], -den[1]))
    return -n <= 2 * t[0] < n and -n <= 2 * t[1] < n


def suffix_zero(digits) -> bool:
    """Whether some suffix [a_j; a_j+1, ...] of the word evaluates to zero."""
    num, den = None, (1, 0)
    for a in reversed(digits):
        if num is None:
            num = a
        else:
            if num == (0, 0):
                return True
            num, den = add(mul(a, num), den), num
        if num == (0, 0):
            return True
    return False


def fold_words(digits, x):
    """The three folding moves on a tail: by x, by +1 with the unit absorbed, by -1."""
    neg_mirror = tuple((-a[0], -a[1]) for a in reversed(digits))
    body, last = digits[:-1], digits[-1]
    mirror = tuple(reversed(body))
    return (
        digits + (x,) + neg_mirror,
        body + ((last[0] + 1, last[1]), (last[0] - 1, last[1])) + mirror,
        body + ((last[0] - 1, last[1]), (last[0] + 1, last[1])) + mirror,
    )


# ------------------------------------------------------------- sympy ZZ_I

def _zzi():
    from sympy.polys.domains import ZZ_I

    return ZZ_I


def is_gcd(g, a, b) -> bool:
    """g is the canonical associate of gcd(a, b), judged against sympy."""
    zzi = _zzi()
    ref = zzi.gcd(zzi(*a), zzi(*b))
    canonical = g == (0, 0) or (g[0] > 0 and g[1] >= 0)
    return canonical and norm(g) == norm((int(ref.x), int(ref.y))) and divides(g, a) and divides(g, b)


def coprime(a, b) -> bool:
    zzi = _zzi()
    g = zzi.gcd(zzi(*a), zzi(*b))
    return norm((int(g.x), int(g.y))) == 1


# ------------------------------------------------------------ per-job checks

def check_certify(job, out):
    base, k = tuple(job["base"]), job["power"]
    numerator, digits = out["numerator"], out["digits"]
    if out["power"] != k or tuple(out["base"]) != base:
        return "certificate for another denominator"
    head, expected = gauss_expand(numerator, power(base, k))
    if head != (0, 0) or expected != digits:
        return "digits do not re-expand numerator/base**k"
    if max(norm(d) for d in digits) > ETA_SQ[base]:
        return "digit norm above eta^2"
    # Every prime factor of base**k divides base, so coprimality to base suffices.
    if not coprime(numerator, base):
        return "numerator shares a factor with the base"
    return None


def check_expand(job, out):
    a, b = tuple(job["num"]), tuple(job["den"])
    num, den = out["num"], out["den"]
    if not same_value(num, den, a, b):
        return "reduced fraction changed value"
    if not coprime(num, den):
        return "fraction not reduced"
    if not is_gcd(out["gcd"], a, b):
        return "gcd disagrees with sympy"
    head, digits = gauss_expand(a, b)
    if (head, digits) != (out["head"], out["digits"]):
        return "digits disagree with the int-pair Gauss map"
    ps, qs = convergents(head, digits)
    if (tuple(ps), tuple(qs)) != (out["ps"], out["qs"]):
        return "convergents disagree with the recurrence"
    if not same_value(ps[-1], qs[-1], a, b):
        return "last convergent is not the value"
    return None


def check_fold(job, out):
    digits, x = job["digits"], tuple(job["x"])
    words = fold_words(digits, x)
    if out["words"] != words:
        return "folded words disagree"
    for word, (p, q) in zip(words, out["values"]):
        if not same_value(p, q, *last_convergent((0, 0), word)):
            return "evaluate disagrees with the convergent recurrence"
    # fold by x moves the value by (-1)^n / (x q_n^2).
    p0, q0 = last_convergent((0, 0), digits)
    p1, q1 = out["values"][0]
    n = len(digits)
    sign = -1 if n % 2 else 1
    lhs = sub(mul(p1, q0), mul(p0, q1))
    rhs = mul(q1, (sign, 0))
    if mul(lhs, mul(x, mul(q0, q0))) != mul(rhs, q0):
        return "fold correction is not (-1)^n/(x q_n^2)"
    return None


def check_valid(job, out):
    verdict = out["verdict"]
    if verdict not in ("Valid", "ValidBoundaryOnly", "Invalid"):
        return "unknown verdict"
    digits = job["digits"]
    if verdict == "Invalid" and not suffix_zero(digits):
        head, canonical = gauss_expand(*last_convergent((0, 0), digits))
        if head == (0, 0) and canonical == digits:
            return "a canonical expansion was judged Invalid"
    return None


def check_encode(job, out):
    z, base = tuple(job["z"]), tuple(job["base"])
    digits = out["digits"]
    n = norm(base)
    if any(not 0 <= d < n for d in digits):
        return "digit out of range"
    value = (0, 0)
    for d in reversed(digits):
        value = add(mul(value, base), (d, 0))
    if value != z or tuple(out["decoded"]) != z:
        return "digits do not evaluate to the input"
    return None


def check_oracle(job, out):
    den = tuple(job["den"])
    numerator, k_sq, digits = out["numerator"], out["k_sq"], out["digits"]
    if numerator == (0, 0) or not in_box(numerator, den):
        return "numerator outside the fundamental domain"
    if not coprime(numerator, den):
        return "numerator not coprime to the denominator"
    head, expected = gauss_expand(numerator, den)
    if head != (0, 0) or expected != digits:
        return "digits do not re-expand the optimum"
    if max(norm(d) for d in digits) != k_sq:
        return "reported K^2 is not the largest digit norm"
    return None


def _is_fold(prev, digits) -> bool:
    """digits is prev folded by some middle digit, or by a unit with the unit absorbed."""
    n = len(prev)
    if len(digits) == 2 * n + 1:
        return digits[:n] == prev and digits[n + 1:] == tuple((-a[0], -a[1]) for a in reversed(prev))
    if len(digits) == 2 * n:
        body, last = prev[:-1], prev[-1]
        pivots = (((last[0] + 1, last[1]), (last[0] - 1, last[1])),
                  ((last[0] - 1, last[1]), (last[0] + 1, last[1])))
        return digits[:n - 1] == body and digits[n - 1:n + 1] in pivots and digits[n + 1:] == body[::-1]
    return False


def check_xi(job, out, seen):
    """Series recurrence, fold structure and stage-boundary convergent of every stage.

    `seen` holds stages already checked, since a stage sweep rebuilds the same
    prefix stages job after job.
    """
    base = tuple(job["base"])
    v, stages = out["v"], out["stages"]
    if len(stages) != job["stages"] + 1:
        return "wrong stage count"
    for m, (numerator, digits) in enumerate(stages):
        key = (base, v[m], numerator, digits)
        if key in seen:
            continue
        if m:
            prev_numerator, prev_digits = stages[m - 1]
            step = sub(numerator, mul(prev_numerator, power(base, v[m] - v[m - 1])))
            if step not in ((1, 0), (-1, 0)):
                return f"stage {m} breaks the series recurrence"
            if not _is_fold(prev_digits, digits):
                return f"stage {m} stream is not a fold of stage {m - 1}"
        if not same_value(*last_convergent((0, 0), digits), numerator, power(base, v[m])):
            return f"stage {m} partial is not its stream's convergent"
        seen.add(key)
    top = len(stages) - 1
    n_base = norm(base)
    for m, ok in out["sandwich"]:
        gap = sub(stages[top][0], mul(stages[m][0], power(base, v[top] - v[m])))
        scale = n_base ** (v[top] - v[m + 1])
        if ok != (scale <= 4 * norm(gap) <= 9 * scale):
            return f"sandwich verdict at m={m} is wrong"
    if len(out["sandwich"]) != max(0, top - 2):
        return "sandwich not checked at every m"
    for m, (lo, hi) in enumerate(out["exponent"]):
        ratio = Fraction(v[m + 1], v[m])
        if not Fraction(*lo) < ratio < Fraction(*hi):
            return f"exponent bracket at m={m} misses v_(m+1)/v_m"
    return None


CHECKS = {
    "certify": check_certify,
    "expand": check_expand,
    "fold": check_fold,
    "valid": check_valid,
    "encode": check_encode,
    "oracle": check_oracle,
}


def check(job, out, seen: set):
    """Reason the output is wrong, or None; `seen` is shared by one run's checks."""
    if job["kind"] == "xi":
        return check_xi(job, out, seen)
    return CHECKS[job["kind"]](job, out)
