"""Tests of the benchmark itself: determinism, tracing, failure counting, timeouts.

    python3 -m pytest perfbench/tests -q

Each test runs small job lists in real child interpreters, so the suite takes
about a minute.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs as J  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def _small_jobs():
    """A few cheap jobs of every kind, drawn from the real generators."""
    desk = make_jobs("desk-mix", 7)
    picked = []
    for kind in ("expand", "fold", "encode", "oracle"):
        picked += [job for job in desk if job["kind"] == kind][:3]
    picked += [job for job in desk if job["kind"] == "valid"][:2]
    picked += [{"kind": "certify", "base": (-2, 1), "power": 40},
               {"kind": "certify", "base": (3, 0), "power": 33},
               {"kind": "xi", "base": (-3, 1), "tau": "5/2", "lam": "1", "stages": 4},
               {"kind": "xi", "base": (-2, -1), "tau": "2", "lam": "1", "stages": 5},
               {"kind": "oracle", "den": (5, 12)}]
    return picked


def _rep(jobs, **spec):
    messages, killed = run.run_child({"jobs": jobs, **spec}, 120)
    assert not killed
    return run.Rep(len(jobs), messages, killed, bool(spec.get("trace")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert make_jobs(workload, 3) == make_jobs(workload, 3)
    assert json.dumps(make_jobs(workload, 3)) != json.dumps(make_jobs(workload, 4))


def test_same_seed_same_digests_and_checks_pass():
    jobs = _small_jobs()
    first = _rep(jobs, check=True)
    second = _rep(jobs)
    assert None not in first.digest
    assert first.digest == second.digest
    assert first.check == {i: None for i in range(len(jobs))}
    ok, problems = run.judge(jobs, [first, second], "test", seed=-1)
    assert all(ok) and not problems
    assert run.count_failures(ok, [first, second]) == 0


def test_traced_outputs_equal_untraced():
    jobs = _small_jobs()
    plain = _rep(jobs)
    traced = _rep(jobs, trace=True)
    assert traced.digest == plain.digest
    layer = traced.done["trace"]
    assert layer["zaremba.certify_calls"] >= 2
    assert layer["hcf.expand_calls"] > 0 and layer["spectrum.build_xi_calls"] == 2
    assert layer["zaremba.oracle_points"] > 0
    assert 0.0 <= layer["zaremba.certify_cache_hit_ratio"] < 1.0
    assert traced.done["coverage"] > 0.9


def test_tracer_restores_library():
    import hurwitzcf
    from tracing import Tracer

    original = hurwitzcf.hcf.hcf_expand
    tracer = Tracer()
    tracer.install()
    try:
        assert hurwitzcf.hcf_expand is not original
        assert hurwitzcf.geometry.hcf_expand is hurwitzcf.hcf_expand
        hurwitzcf.hcf_expand(hurwitzcf.GaussianRational(hurwitzcf.GaussianInt(10), hurwitzcf.GaussianInt(27)))
    finally:
        tracer.uninstall()
    assert hurwitzcf.hcf_expand is original and hurwitzcf.geometry.hcf_expand is original
    assert tracer.counts["hcf.expand_calls"] == 1 and tracer.counts["hcf.gauss_steps"] == 3


def test_flipped_digit_is_counted_as_failed():
    jobs = [{"kind": "certify", "base": (-2, 1), "power": 24},
            {"kind": "expand", "num": (12345678901, -5), "den": (3, 998877665)}]
    outputs = [J.plain(job, J.run(job)) for job in jobs]
    assert [checks.check(job, out, set()) for job, out in zip(jobs, outputs)] == [None, None]
    for job, out in zip(jobs, outputs):
        digits = list(out["digits"])
        digits[1] = (digits[1][0] + 1, digits[1][1])
        assert checks.check(job, dict(out, digits=tuple(digits)), set()) is not None

    first = _rep(jobs, check=True)
    bad = dict(outputs[0], digits=((9, 9),) + outputs[0]["digits"][1:])
    first.check[0] = checks.check(jobs[0], bad, set())
    ok, problems = run.judge(jobs, [first], "test", seed=-1)
    assert run.count_failures(ok, [first]) == 1 and problems


def test_job_past_the_timeout_fails(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)
    monkeypatch.setattr(run, "MIN_REPS", 1)
    argv = [sys.executable, str(Path(__file__).with_name("sleepy_child.py")), str(HERE.parent / "src")]
    jobs = [{"kind": "certify", "base": (2, 0), "power": 5}, {"kind": "sleep", "s": 60}]
    m = run.measure(jobs, "test", -1, 0.0, False, timeout=3.0, argv=argv)
    assert m["reps"][0].killed
    assert m["reps"][0].ms[0] is not None and m["reps"][0].ms[1] is None
    assert m["failed"] >= 1 and m["failed"] / m["attempted"] > 0


def test_refuses_a_tree_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE)
    assert run.main(["--workload", "desk-mix", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_job_times_are_scaled_by_the_reference_times_around_them():
    messages = [{"setup": {"setup_s": 0.5}}, {"ref_s": 0.02},
                {"job": 0, "ms": 30.0, "digest": "a"}, {"job": 1, "ms": 10.0, "digest": "b"},
                {"ref_s": 0.03}, {"job": 2, "ms": 8.0, "digest": "c"}]
    rep = run.Rep(3, messages, True, False)
    assert rep.ms == [30.0, 10.0, 8.0]
    # jobs 0 and 1 ran between reference times of 20 and 30 ms; job 2 was cut off after 30 ms
    assert rep.scaled_ms == pytest.approx([30.0 * run.REF_S / 0.025, 10.0 * run.REF_S / 0.025,
                                           8.0 * run.REF_S / 0.03])
    assert rep.setup["scaled_s"] == pytest.approx(0.5 * run.REF_S / 0.02)
