"""child.py with one more job kind, "sleep", for the timeout test."""

import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import child  # noqa: E402
import jobs  # noqa: E402

_plain = jobs.plain
jobs.RUNNERS["sleep"] = lambda job: time.sleep(job["s"])
jobs.plain = lambda job, result: {} if job["kind"] == "sleep" else _plain(job, result)

sys.exit(child.main())
