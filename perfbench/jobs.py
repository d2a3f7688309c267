"""Run one generated job through hurwitzcf's public API.

`run(job)` is the timed call.  `plain(job, result)` turns its result into
plain tuples and ints for the checks and the digests, outside the timed
region.  Every library name is looked up on the package at call time, so a
traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import hurwitzcf as H


def _g(pair) -> H.GaussianInt:
    return H.GaussianInt(*pair)


def _p(z) -> tuple[int, int]:
    return (z.re, z.im)


def _ps(zs) -> tuple[tuple[int, int], ...]:
    return tuple((z.re, z.im) for z in zs)


def _certify(job):
    return H.certify(_g(job["base"]), job["power"])


def _expand(job):
    a, b = _g(job["num"]), _g(job["den"])
    z = H.GaussianRational(a, b)
    expansion = H.hcf_expand(z)
    return z, H.gauss_gcd(a, b), expansion, H.convergents(expansion.to_cf())


def _fold(job):
    word = H.CfSequence(H.GaussianInt(0, 0), tuple(_g(d) for d in job["digits"]))
    folded = (H.fold(word, _g(job["x"])), H.fold_unit(word), H.fold_unit_neg(word))
    return folded, tuple(H.evaluate(cf) for cf in folded)


def _valid(job):
    return H.is_valid(tuple(_g(d) for d in job["digits"]))


def _encode(job):
    expansion = H.encode_base_b(_g(job["z"]), _g(job["base"]))
    return expansion, H.decode_base_b(expansion)


def _oracle(job):
    return H.brute_force_min_K(_g(job["den"]))


def _xi(job):
    """The CLI `xi` job: schedule, build, exponent brackets, and every tail sandwich."""
    base, stages = _g(job["base"]), job["stages"]
    schedule = H.schedule_from_tau(Fraction(job["tau"]), Fraction(job["lam"]), base, stages + 1)
    xi = H.build_xi(H.unit_seed(base, schedule.v0), schedule, base, stages=stages)
    brackets = H.estimate_exponent(xi, stages + 1)
    sandwich = tuple((m, H.check_tail_sandwich(xi, m)) for m in range(stages - 2))
    return schedule, xi, brackets, sandwich


RUNNERS = {
    "certify": _certify,
    "expand": _expand,
    "fold": _fold,
    "valid": _valid,
    "encode": _encode,
    "oracle": _oracle,
    "xi": _xi,
}


def run(job):
    return RUNNERS[job["kind"]](job)


def plain(job, result) -> dict:
    """The job's output as plain data."""
    kind = job["kind"]
    if kind == "certify":
        return {"base": _p(result.base), "power": result.power,
                "numerator": _p(result.numerator), "digits": _ps(result.digits)}
    if kind == "expand":
        z, gcd, expansion, table = result
        return {"num": _p(z.num), "den": _p(z.den), "gcd": _p(gcd),
                "head": _p(expansion.integer_part), "digits": _ps(expansion.digits),
                "ps": _ps(table.ps), "qs": _ps(table.qs)}
    if kind == "fold":
        folded, values = result
        return {"words": tuple(_ps(cf.tail) for cf in folded),
                "values": tuple((_p(v.num), _p(v.den)) for v in values)}
    if kind == "valid":
        return {"verdict": result.value}
    if kind == "encode":
        expansion, decoded = result
        return {"digits": tuple(expansion.digits), "decoded": _p(decoded)}
    if kind == "oracle":
        return {"numerator": _p(result.numerator), "k_sq": result.k_sq, "digits": _ps(result.digits)}
    if kind == "xi":
        schedule, xi, brackets, sandwich = result
        return {"v": schedule.v(),
                "stages": tuple((_p(s.numerator), _ps(s.digits)) for s in xi.stages),
                "exponent": tuple(((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
                                  for lo, hi in brackets),
                "sandwich": sandwich}
    raise ValueError(f"unknown job kind {kind!r}")


def _feed(h, obj) -> None:
    if isinstance(obj, bool) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, int):
        h.update(b"i" + format(obj, "x").encode() + b";")
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b";")
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """A stable hash of plain data (ints in hex, so size is no limit)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]
