"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py SRC_DIR, with a JSON spec on stdin:
{"jobs": [...], "setup_only": bool, "trace": bool, "check": bool, "trace_path": str | null,
 "reference": "gauss" | "scan"}

It times `import hurwitzcf` plus `get_automaton()` before anything else is
imported, runs the jobs one at a time, and prints one JSON object per line as
it goes, so that a parent that kills it still sees the jobs that finished:

  {"setup": {...}}                       once, first
  {"ref_s": ...}                         the reference time (reference.py), right after set-up,
                                         about every REF_EVERY_S of job time, and at the end
  {"job": i, "ms": ..., "digest": ...}   per finished job ({"job": i, "error": ...} if it raised)
  {"done": {...}}                        after the last job
  {"check": i, "error": reason | null}   per job, only when the spec asks for checks
  {"record": {...}}                      digests of verdicts and oracle optima, with the checks
"""

import sys
import time


def _setup(src: str) -> dict:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hurwitzcf

    t1 = time.perf_counter()
    automaton = hurwitzcf.get_automaton()
    t2 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "automaton_s": t2 - t1,
        "setup_s": t2 - t0,
        "states": automaton.state_count,
        "oracle_kernel": "python" if hurwitzcf.zaremba._brute_scan_fast is None else "numba",
    }


def _freeze(obj):
    if isinstance(obj, list):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _freeze(v) for k, v in obj.items()}
    return obj


def _emit(obj) -> None:
    import json  # not at the top: json imports re, which set-up timing must pay itself

    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    setup = _setup(sys.argv[1])
    import json
    import resource

    spec = json.load(sys.stdin)
    _emit({"setup": setup})
    from reference import REF_EVERY_S, reference_s

    kind = spec.get("reference", "gauss")
    if spec.get("setup_only"):
        _emit({"ref_s": reference_s(kind)})
        return 0

    import hurwitzcf
    import jobs as J

    jobs = [_freeze(job) for job in spec["jobs"]]
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sizes = (len(hurwitzcf.zaremba._CACHE), len(hurwitzcf.geometry._EMPTY_MEMO))
    keep = spec.get("check")
    outputs = []
    busy = 0.0
    _emit({"ref_s": reference_s(kind)})
    since_ref = 0.0
    for i, job in enumerate(jobs):
        if since_ref >= REF_EVERY_S:
            _emit({"ref_s": reference_s(kind)})
            since_ref = 0.0
        if tracer is not None:
            tracer.job_id = i
        try:
            t0 = time.perf_counter()
            result = J.run(job)
            ms = (time.perf_counter() - t0) * 1000.0
        except Exception as exc:  # a failing job is data; the loop must go on
            _emit({"job": i, "error": f"{type(exc).__name__}: {exc}"})
            outputs.append(None)
            continue
        busy += ms / 1000.0
        since_ref += ms / 1000.0
        out = J.plain(job, result)
        del result
        outputs.append(out if keep else None)
        _emit({"job": i, "ms": ms, "digest": J.digest(out)})
    _emit({"ref_s": reference_s(kind)})
    done = {
        "busy_s": busy,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "states": hurwitzcf.geometry.get_automaton().state_count,
    }
    if tracer is not None:
        tracer.uninstall()
        growth = {
            "certify": len(hurwitzcf.zaremba._CACHE) - sizes[0],
            "is_empty": len(hurwitzcf.geometry._EMPTY_MEMO) - sizes[1],
        }
        done["trace"] = tracer.metrics(growth)
        done["coverage"] = tracer.root_time() / busy if busy else 0.0
        done["spans"] = len(tracer.start)
        if spec.get("trace_path"):
            tracer.save(spec["trace_path"])
    _emit({"done": done})
    if keep:
        from checks import check

        record = {"valid": [], "oracle": []}
        seen = set()
        for i, (job, out) in enumerate(zip(jobs, outputs)):
            if out is None:
                continue
            _emit({"check": i, "error": check(job, out, seen)})
            if job["kind"] in record:
                record[job["kind"]].append(out)
        _emit({"record": {kind: J.digest(outs) for kind, outs in record.items() if outs}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
