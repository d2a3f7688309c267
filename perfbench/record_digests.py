"""Record the digests of is_valid verdicts and oracle optima for the default seed.

    python3 perfbench/record_digests.py

These outputs have no cheap independent check, so run.py holds runs of the
default seed to the digests in digests.json.  Record them only from a commit
whose verdicts and optima are trusted, and only when the job lists change.
"""

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        jobs = make_jobs(workload, DEFAULT_SEED)
        if not any(job["kind"] in ("valid", "oracle") for job in jobs):
            continue
        messages, killed = run.run_child({"jobs": jobs, "check": True}, run.HARD_LIMIT_S)
        rep = run.Rep(len(jobs), messages, killed, False)
        errors = [error for error in rep.check.values() if error]
        if killed or len(rep.check) != len(jobs) or errors:
            print(f"{workload}: outputs failed their checks: {errors[:3]}", file=sys.stderr)
            return 1
        recorded[workload] = rep.record
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
