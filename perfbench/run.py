"""The hurwitzcf benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload certify-ladder --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from ./src.  Each
repetition is a fresh child interpreter (see child.py) that runs the whole
job list one job at a time, so caches start cold and warm within it.  The
parent repeats until --seconds have passed (at least MIN_REPS times), checks
every output outside the timed region, and prints three JSON lines:
provenance, a summary, and the result line (its last line).

Job times are reported at a fixed reference speed.  The host's speed swings
by up to 2x, often within a second, so each child also times a fixed
computation (reference.py) between jobs, and each job's time is scaled by
REF_S over the reference times measured next to it.  A job's latency is
the median of its scaled times over the repetitions.  The summary line keeps
the raw times.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, the traced runs' span
coverage and the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import KIND  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402

MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_TRACED_REPS = 1     # traced and untraced repetitions each, per --trace 1 run
SETUP_SAMPLES = 3       # set-up-only children per run; each repetition adds one more sample
CHILD_TIMEOUT_S = 60.0  # a repetition over this is killed and its unfinished jobs fail
HARD_LIMIT_S = 150.0    # no new child after this; the run must end within 180 s
REF_S = 0.01            # nominal reference time: scaled times are at the speed where it takes 10 ms
TAIL_BEYOND = 10        # job_tail_ms: the highest percentile with this many jobs beyond it
OUT_DIR = ROOT / ".perfbench"


def provenance() -> dict:
    """What was measured on what; runs whose blocks differ are not compared."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(spec: dict, timeout: float, argv: list[str] | None = None) -> tuple[list[dict], bool]:
    """Run one child to completion or kill it at `timeout`; return its messages and whether it was killed."""
    if argv is None:
        argv = [sys.executable, str(HERE / "child.py"), str(ROOT / "src")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    killed = False
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    if proc.returncode != 0 and not killed:
        sys.stderr.write(err)
    messages = []
    for line in out.splitlines():
        try:
            messages.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut off by the kill
            pass
    return messages, killed


class Rep:
    """What one child reported.

    `ms` holds the jobs' raw times; `scaled_ms` holds them scaled to the
    reference speed, each by the mean of the reference times measured just
    before and just after the job.  The set-up time is scaled by the first
    reference time, measured right after it.
    """

    def __init__(self, n_jobs: int, messages: list[dict], killed: bool, traced: bool) -> None:
        self.traced = traced
        self.killed = killed
        self.ms: list[float | None] = [None] * n_jobs
        self.scaled_ms: list[float | None] = [None] * n_jobs
        self.digest: list[str | None] = [None] * n_jobs
        self.check: dict[int, str | None] = {}
        self.refs: list[float] = []
        self.setup = self.done = self.record = None
        after_ref: list[int] = []  # jobs waiting for the next reference time
        for msg in messages:
            if "setup" in msg:
                self.setup = msg["setup"]
            elif "ref_s" in msg:
                if not self.refs and self.setup is not None:
                    self.setup["scaled_s"] = self.setup["setup_s"] * REF_S / msg["ref_s"]
                for i in after_ref:
                    self.scaled_ms[i] = self.ms[i] * 2 * REF_S / (self.refs[-1] + msg["ref_s"])
                after_ref = []
                self.refs.append(msg["ref_s"])
            elif "job" in msg and "ms" in msg:
                self.ms[msg["job"]] = msg["ms"]
                self.digest[msg["job"]] = msg["digest"]
                after_ref.append(msg["job"])
            elif "check" in msg:
                self.check[msg["check"]] = msg["error"]
            elif "done" in msg:
                self.done = msg["done"]
            elif "record" in msg:
                self.record = msg["record"]
        for i in after_ref:  # killed before the next reference time
            self.scaled_ms[i] = self.ms[i] * REF_S / self.refs[-1]


def _recorded(workload: str) -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload, {}) if path.is_file() else {}


def judge(jobs: list[dict], reps: list[Rep], workload: str, seed: int) -> tuple[list[bool], list[str]]:
    """Whether each job's reference output is right: checked in the first repetition, and
    for verdicts and oracle optima at the default seed, equal to the recorded digests."""
    first = reps[0]
    ok = [first.check.get(i, "not checked") is None for i in range(len(jobs))]
    problems = sorted({f"job {i} ({jobs[i]['kind']}): {first.check.get(i, 'not checked')}"
                       for i in range(len(jobs)) if not ok[i]})[:5]
    if seed == DEFAULT_SEED:
        for kind, want in _recorded(workload).items():
            got = (first.record or {}).get(kind)
            if got != want:
                problems.append(f"{kind} digest {got} != recorded {want}")
                for i, job in enumerate(jobs):
                    if job["kind"] == kind:
                        ok[i] = False
    return ok, problems


def count_failures(reference_ok: list[bool], reps: list[Rep]) -> int:
    """A job fails in a repetition if it did not finish, or its output differs from the
    first repetition's checked output, or that output failed its check."""
    first = reps[0]
    failed = 0
    for rep in reps:
        for i, ms in enumerate(rep.ms):
            if ms is None or not reference_ok[i] or rep.digest[i] != first.digest[i]:
                failed += 1
    return failed


def per_job_ms(reps: list[Rep]) -> list[float]:
    """Each job's scaled latency, the median over the repetitions in which it finished."""
    n = len(reps[0].ms)
    out = []
    for i in range(n):
        times = [rep.scaled_ms[i] for rep in reps if rep.scaled_ms[i] is not None]
        if times:
            out.append(median(times))
    return out


def tail_rank(n_jobs: int) -> tuple[int, float]:
    """Index into ascending latencies, and the percentile, with TAIL_BEYOND jobs beyond it."""
    index = max(0, n_jobs - TAIL_BEYOND - 1)
    return index, 100.0 * (index + 1) / n_jobs


def measure(jobs: list[dict], workload: str, seed: int, seconds: float, trace: bool,
            timeout: float = CHILD_TIMEOUT_S, argv: list[str] | None = None) -> dict:
    """Set-up samples, then repetitions until `seconds` have passed."""
    start = time.perf_counter()
    setups = []
    kind = KIND.get(workload, "gauss")
    run_child({"setup_only": True, "reference": kind}, timeout, argv)  # compiles the byte code; not counted
    for _ in range(SETUP_SAMPLES):
        messages, killed = run_child({"setup_only": True, "reference": kind}, timeout, argv)
        setup = Rep(0, messages, killed, False).setup
        if setup is not None:
            setups.append(setup)
    reps: list[Rep] = []
    last = 0.0
    trace_path = str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    while True:
        untraced = sum(not r.traced for r in reps)
        traced = len(reps) - untraced
        enough = (untraced >= MIN_TRACED_REPS and traced >= MIN_TRACED_REPS) if trace else untraced >= MIN_REPS
        elapsed = time.perf_counter() - start
        if (enough and elapsed + last > seconds) or elapsed > HARD_LIMIT_S:
            break
        traced_now = trace and len(reps) % 2 == 1
        spec = {"jobs": jobs, "trace": traced_now, "check": not reps, "reference": kind,
                "trace_path": trace_path if traced_now else None}
        t0 = time.perf_counter()
        messages, killed = run_child(spec, min(timeout, max(1.0, HARD_LIMIT_S + 20 - elapsed)), argv)
        rep = Rep(len(jobs), messages, killed, traced_now)
        if rep.setup is not None:
            setups.append(rep.setup)
        last = time.perf_counter() - t0
        reps.append(rep)
    reference_ok, problems = judge(jobs, reps, workload, seed)
    attempted = len(jobs) * len(reps)
    failed = count_failures(reference_ok, reps)
    return {"reps": reps, "setups": setups, "reference": kind, "attempted": attempted,
            "failed": failed, "problems": problems, "trace_path": trace_path if trace else None}


def end_to_end(m: dict) -> tuple[dict, dict]:
    plain = [r for r in m["reps"] if not r.traced]
    lat = sorted(per_job_ms(plain))
    index, pct = tail_rank(len(lat))
    done = [r.done for r in plain if r.done]
    metrics = {
        "setup_s": (median(s["scaled_s"] for s in m["setups"] if "scaled_s" in s), "s"),
        "wall_s": (sum(lat) / 1000.0, "s"),
        "job_p50_ms": (median(lat), "ms"),
        "job_tail_ms": (lat[index], "ms"),
        "peak_rss_mb": (median(d["rss_mb"] for d in done), "MB"),
    }
    finished = [sorted(r.ms) for r in plain if None not in r.ms]
    extra = {"tail_percentile": round(pct, 2), "jobs": len(lat), "reps": len(plain),
             "raw_setup_s": [round(s["setup_s"], 4) for s in m["setups"]],
             "rep_busy_s": [round(d["busy_s"], 3) for d in done],
             "rep_p50_ms": [round(median(ms), 3) for ms in finished],
             "rep_tail_ms": [round(ms[index], 3) for ms in finished],
             "rep_ref_ms": [round(1000 * median(r.refs), 3) for r in plain if r.refs]}
    return metrics, extra


def _scaled_busy_s(rep: Rep) -> float:
    """A repetition's job time at the reference speed, as wall_s counts it."""
    return sum(ms for ms in rep.scaled_ms if ms is not None) / 1000.0


def per_layer(m: dict) -> tuple[dict, dict]:
    plain = [r for r in m["reps"] if not r.traced]
    traced = [r for r in m["reps"] if r.traced and r.done]
    layer = [r.done["trace"] for r in traced]
    metrics = {
        "setup.import_s": (median(s["import_s"] for s in m["setups"]), "s"),
        "geometry.automaton_build_s": (median(s["automaton_s"] for s in m["setups"]), "s"),
        "geometry.states_built": (traced[0].done["states"], "count"),
    }
    for name in layer[0]:
        values = [x[name] for x in layer]
        unit = ("s" if name.endswith("_s") else "bits" if name.endswith("_bits")
                else "ratio" if name.endswith(("_ratio", "_share")) else "count")
        metrics[name] = (median(values), unit)
    metrics["zaremba.oracle_points"] = (metrics["zaremba.oracle_points"][0], "count_computed")
    metrics["trace.coverage"] = (median(r.done["coverage"] for r in traced), "ratio")
    metrics["trace.overhead_s"] = (median(_scaled_busy_s(r) for r in traced)
                                   - median(_scaled_busy_s(r) for r in plain if r.done), "s")
    extra = {"spans": [r.done["spans"] for r in traced], "reps": len(plain),
             "traced_reps": len(traced), "trace_file": m["trace_path"]}
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hurwitzcf" / "__init__.py").is_file():
        print(f"perfbench: no hurwitzcf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    m = measure(jobs, args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in m["reps"] if not r.traced]
    if not any(r.done for r in plain) or (args.trace and not any(r.traced and r.done for r in m["reps"])):
        print("perfbench: no repetition finished; see the errors above", file=sys.stderr)
        return 1
    metrics, extra = (per_layer if args.trace else end_to_end)(m)
    prov = provenance()
    prov["oracle_kernel"] = m["setups"][0]["oracle_kernel"] if m["setups"] else None
    summary = {"workload": args.workload, "seed": args.seed, "attempted": m["attempted"],
               "failed": m["failed"], "failed_share": m["failed"] / m["attempted"],
               "problems": m["problems"], "reference": m["reference"], **extra}
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": m["failed"] == 0 and not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
