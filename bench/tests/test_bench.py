"""Tests of the benchmark's tracer and result gate.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import copy
import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import gate  # noqa: E402
from tracer import METRICS, Metric, Tracer  # noqa: E402
from workloads import job_id  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """Package `fakepkg` with module `mod`: outer -> inner, plus a recursion."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        mod.inner()
        clock.now += 2

    def countdown(k):
        clock.now += 1
        if k:
            mod.countdown(k - 1)

    mod.inner, mod.outer, mod.countdown = inner, outer, countdown
    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # bound by name in a second module, as `from .mod import inner`
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return clock, mod, user


def test_self_time_of_nested_calls(fake_package):
    clock, mod, user = fake_package
    metrics = [
        Metric("outer_s", "s", "mod:outer", "total_s"),
        Metric("outer_self_s", "s", "mod:outer", "self_s"),
        Metric("inner_calls", "count", "mod:inner", "calls"),
        Metric("inner_self_s", "s", "mod:inner", "self_s"),
        Metric("countdown_s", "s", "mod:countdown", "total_s"),
        Metric("countdown_self_s", "s", "mod:countdown", "self_s"),
    ]
    tracer = Tracer(metrics, package="fakepkg", clock=clock)
    tracer.install()
    assert user.inner is mod.inner  # rebound in every module that binds it
    mod.outer()
    user.inner()
    mod.countdown(3)
    tracer.uninstall()
    assert tracer.values() == {
        "outer_s": 8,
        "outer_self_s": 3,
        "inner_calls": 2,
        "inner_self_s": 10,
        "countdown_s": 4,  # the outermost call only, not 4 + 3 + 2 + 1
        "countdown_self_s": 4,
    }
    assert not hasattr(mod.outer, "__wrapped__")


def test_missing_target_is_reported_not_zero(fake_package):
    clock, mod, _ = fake_package
    metrics = [
        Metric("inner_calls", "count", "mod:inner", "calls"),
        Metric("gone_calls", "count", "mod:deleted_function", "calls"),
        Metric("gone_module_s", "s", "deleted_module:f", "total_s"),
        Metric("gone_method_s", "s", "mod:NoClass.method", "self_s"),
    ]
    tracer = Tracer(metrics, package="fakepkg", clock=clock)
    tracer.install()
    mod.inner()
    tracer.uninstall()
    values = tracer.values()
    assert values["inner_calls"] == 1
    assert values["gone_calls"] is None
    assert values["gone_module_s"] is None
    assert values["gone_method_s"] is None
    assert set(tracer.missing) == {
        "mod:deleted_function",
        "deleted_module:f",
        "mod:NoClass.method",
    }


def test_every_tuttekit_target_exists_and_metric_names_are_valid():
    names = [m.name for m in METRICS] + ["trace.overhead_s"]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    traced = {m.name for m in METRICS} | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


JOB = ["compute", "--method", "bruteforce", "--system", "D:4:weight", "--output", "json"]


def fail_ratio(jobs, refs):
    runs = child.run_jobs(jobs)
    failed = [gate.check(job, code, out, refs) for job, (code, out, _) in zip(jobs, runs)]
    return sum(1 for f in failed if f) / len(jobs)


def test_corrupted_reference_raises_fail_ratio():
    refs = gate.load_references()
    assert fail_ratio([JOB], refs) == 0
    corrupted = copy.deepcopy(refs)
    term = corrupted[job_id(JOB)]["polynomial"]["terms"][0]
    term["coeff"] = str(int(term["coeff"]) + 1)
    assert fail_ratio([JOB], corrupted) == 1


def test_gate_ignores_new_fields_and_needs_a_cross_engine_pass():
    checks = [
        {"name": "genfun", "status": "pass", "detail": "taken as baseline", "elapsed_ms": 3},
        {"name": "coboundary-at-Y1", "status": "pass", "detail": "", "elapsed_ms": 1},
    ]
    job = ["verify", "--system", "B:2:integer", "--output", "json"]
    out = json.dumps({"system": "B:2:integer", "checks": checks})
    assert "no cross-engine" in gate.check(job, 0, out, {})
    checks.append({"name": "finite-field-p5", "status": "pass", "detail": "", "elapsed_ms": 9})
    assert gate.check(job, 0, json.dumps({"system": "B:2:integer", "checks": checks}), {}) is None
    checks.append({"name": "graph-dictionary-vs-baseline", "status": "fail", "detail": ""})
    assert "failed checks" in gate.check(job, 0, json.dumps({"checks": checks}), {})
    assert gate.check(job, 2, out, {}) == "exit code 2"
