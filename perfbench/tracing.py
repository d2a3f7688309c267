"""Spans and counts around hurwitzcf's public functions, from outside the library.

`Tracer.install()` rebinds every name, in every loaded hurwitzcf module, that
holds one of the functions in TARGETS, so calls between modules are caught
too.  A span is (name, start, end, parent span, job id); spans stay in
memory in flat arrays and are written out once, by `Tracer.save`.  Caches are
only read: hit ratios come from call counts and the growth of len() of the
module caches.
"""

from __future__ import annotations

import array
import json
import sys
from math import isqrt
from time import perf_counter

from workloads import cheap_mode


def _bits(*zs) -> int:
    out = 0
    for z in zs:
        if isinstance(z, int):
            out = max(out, abs(z).bit_length())
        elif hasattr(z, "num"):
            out = max(out, _bits(z.num, z.den))
        else:
            out = max(out, abs(z.re).bit_length(), abs(z.im).bit_length())
    return out


def _count_gcd(c, args, result):
    c["gaussian.gcd_max_bits"] = max(c["gaussian.gcd_max_bits"], _bits(*args[:2]))


def _count_expand(c, args, result):
    c["hcf.gauss_steps"] += len(result.digits)
    c["hcf.expand_max_bits"] = max(c["hcf.expand_max_bits"], _bits(args[0]))


def _count_convergents(c, args, result):
    c["cf.convergent_digits"] += len(args[0].tail)


def _count_evaluate(c, args, result):
    c["cf.evaluate_digits"] += len(args[0].tail)


def _count_oracle(c, args, result):
    den = args[0]
    bound = isqrt(den.norm // 2) + 2
    c["zaremba.oracle_points"] += (2 * bound + 1) ** 2
    c["zaremba.oracle_general"] += not cheap_mode((den.re, den.im))


def _count_xi(c, args, result):
    c["spectrum.stream_digits"] += len(result.stages[-1].digits)


# (module, function, span name, counter hook)
TARGETS = (
    ("gaussian", "gauss_gcd", "gaussian.gcd", _count_gcd),
    ("gaussian", "exact_div", "gaussian.exact_div", None),
    ("hcf", "hcf_expand", "hcf.expand", _count_expand),
    ("cf", "convergents", "cf.convergents", _count_convergents),
    ("cf", "evaluate", "cf.evaluate", _count_evaluate),
    ("cf", "fold", "cf.fold", None),
    ("cf", "fold_unit", "cf.fold", None),
    ("cf", "fold_unit_neg", "cf.fold", None),
    ("geometry", "is_valid", "geometry.is_valid", None),
    ("geometry", "closed_cylinder_nonempty", "geometry.exact_path", None),
    ("geometry", "is_empty", "geometry.is_empty", None),
    ("geometry", "canonicalize", "geometry.canonicalize", None),
    ("exactreal", "ln_brackets", "exactreal.ln_brackets", None),
    ("exactreal", "sign_sqrt", "exactreal.sign_sqrt", None),
    ("zaremba", "certify", "zaremba.certify", None),
    ("zaremba", "verify_certificate", "zaremba.verify", None),
    ("zaremba", "brute_force_min_K", "zaremba.oracle", _count_oracle),
    ("spectrum", "schedule_from_tau", "spectrum.schedule", None),
    ("spectrum", "unit_seed", "spectrum.unit_seed", None),
    ("spectrum", "build_xi", "spectrum.build_xi", _count_xi),
    ("spectrum", "check_tail_sandwich", "spectrum.sandwich", None),
    ("spectrum", "estimate_exponent", "spectrum.exponent", None),
    ("spectrum", "encode_base_b", "spectrum.encode", None),
    ("spectrum", "decode_base_b", "spectrum.decode", None),
)

# spans reported as <span>_calls and <span>_self_s
REPORTED = (
    "gaussian.gcd", "gaussian.exact_div", "hcf.expand", "cf.convergents", "cf.evaluate", "cf.fold",
    "geometry.is_valid", "geometry.exact_path", "geometry.is_empty", "geometry.canonicalize",
    "exactreal.ln_brackets", "exactreal.sign_sqrt", "zaremba.certify", "zaremba.verify",
    "zaremba.oracle", "spectrum.build_xi", "spectrum.sandwich", "spectrum.exponent",
    "spectrum.schedule", "spectrum.encode",
)
COUNTERS = ("gaussian.gcd_max_bits", "hcf.gauss_steps", "hcf.expand_max_bits", "cf.convergent_digits",
            "cf.evaluate_digits", "zaremba.oracle_points", "spectrum.stream_digits")


class Tracer:
    """In-memory span recorder; one per traced child process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.job_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, func, name: str, hook):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        calls = name + "_calls"
        self.counts.setdefault(calls, 0)
        stack, counts = self._stack, self.counts
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, jobs = self.parent, self.job

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind each target name in every loaded hurwitzcf module."""
        for key in COUNTERS + ("zaremba.oracle_general",):
            self.counts[key] = 0
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hurwitzcf" or n.startswith("hurwitzcf."))]
        for mod_name, func_name, span, hook in TARGETS:
            original = getattr(sys.modules["hurwitzcf." + mod_name], func_name)
            wrapped = self._wrap(original, span, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the child spans' durations."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: 0.0 for name in self.names}
        names, ids = self.names, self.name_id
        for i in range(n):
            out[names[ids[i]]] += ends[i] - starts[i] - child[i]
        return out

    def root_time(self) -> float:
        """Time inside spans with no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def metrics(self, cache_growth: dict[str, int]) -> dict[str, float]:
        """Per-layer counts and self times (seconds) named by module."""
        selfs = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for span in REPORTED:
            out[span + "_calls"] = c[span + "_calls"]
            out[span + "_self_s"] = selfs[span]
        for key in COUNTERS:
            out[key] = c[key]
        oracle_calls = c["zaremba.oracle_calls"]
        out["zaremba.oracle_general_share"] = c["zaremba.oracle_general"] / oracle_calls if oracle_calls else 0.0
        out["zaremba.certify_cache_hit_ratio"] = _hit_ratio(c["zaremba.certify_calls"], cache_growth["certify"])
        out["geometry.is_empty_memo_hit_ratio"] = _hit_ratio(c["geometry.is_empty_calls"], cache_growth["is_empty"])
        return out

    def save(self, path: str) -> None:
        """Write every span as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.end[i],
                                     self.parent[i], self.job[i]]) + "\n")


def _hit_ratio(calls: int, growth: int) -> float:
    return (calls - growth) / calls if calls else 0.0
