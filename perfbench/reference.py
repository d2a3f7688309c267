"""Fixed computations that measure the host's speed next to the jobs.

The host's speed swings by up to 2x, often within a second, so raw job
times from two runs differ by more than any change worth finding.  Each
child therefore times a reference computation right after set-up, after
about every REF_EVERY_S of job time and at the end, and run.py scales each
job's time by the reference times measured just before and after it.

A slow phase does not slow every kind of work alike, so each workload is
scaled by the computation most like its own jobs (KIND):

  gauss  int-pair Gauss expansions and convergents, from 48 to 600 bits:
         the big- and small-integer work of expansions and certificates;
  scan   a lattice of small Gaussian integers, each tested for coprimality
         to a fixed denominator by the nearest-integer Euclidean algorithm:
         the loop of the exhaustive oracle.

Both are pure Python on inputs fixed here and never touch hurwitzcf, so a
change to the library cannot move them.
"""

from __future__ import annotations

import gc
import random
import time

from checks import convergents, gauss_expand
from workloads import _gint

REF_EVERY_S = 0.05
KIND = {"oracle-scan": "scan"}  # every other workload: "gauss"


def _pairs() -> tuple:
    rng = random.Random("perfbench-reference")
    return tuple((_gint(rng, bits), _gint(rng, bits)) for bits in (48,) * 24 + (600,) * 2)


_PAIRS = _pairs()


def _gauss() -> None:
    for num, den in _PAIRS:
        convergents(*gauss_expand(num, den))


def _unit_gcd(xre: int, xim: int, yre: int, yim: int) -> bool:
    while yre or yim:
        yn = yre * yre + yim * yim
        tr = xre * yre + xim * yim
        ti = xim * yre - xre * yim
        qre = (2 * tr + yn) // (2 * yn)
        qim = (2 * ti + yn) // (2 * yn)
        xre, xim, yre, yim = yre, yim, xre - (qre * yre - qim * yim), xim - (qre * yim + qim * yre)
    return xre * xre + xim * xim == 1


def _scan() -> None:
    for re in range(-27, 28):
        for im in range(-27, 28):
            _unit_gcd(re, im, 37, 22)


_KERNELS = {"gauss": _gauss, "scan": _scan}


def reference_s(kind: str) -> float:
    """Seconds the reference computation `kind` takes now.

    The garbage collector is off while it runs, so that the size of the
    library's heap cannot move it.
    """
    kernel = _KERNELS[kind]
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()
