"""Tests of the benchmark itself: quick runs, references, checks and tracer.

    python3 -m pytest -q bench/test_bench.py

The quick mode shrinks every workload (accumulation to 10^6, the desk scan
to 10^6, a 10^5-wide gap window above 10^12) but runs every check and the
tracer.  The check tests feed each check a real quick-run output with one
deliberate error and require the check to report it.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import reference
import run
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # gap-window runs and is checked, but BENCHMARK.json leaves it out (README)
    assert [w["name"] for w in spec["workloads"]] == ["accumulate", "desk-scan"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_quick_run_checks_every_workload(trace, names):
    proc = _bench("--workload", "all", "--quick", "--seconds", "0", "--trace", str(trace), "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == len(run.WORKLOADS)
    for res, workload in zip(results, run.WORKLOADS):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] == run.OPERATIONS[workload] * (2 if trace else 1)
        assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(names)
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())
    if trace:
        acc, desk, gap = (r["metrics"] for r in results)
        assert acc["sieve.checkpoint.lines"]["value"] >= 1
        assert acc["dyadic.scaled_sum.under_scan.calls"]["value"] == 0
        assert desk["dyadic.scaled_sum.under_scan.calls"]["value"] > 0
        assert desk["proofkit.shape_on_ray.calls"]["value"] > 0
        assert desk["verify.cells"]["value"] == run.DESK_CLAIMS * reference.PUBLISHED_PI[10**6]
        assert gap["dyadic.scaled_sum.under_accumulate.calls"]["value"] == 0
        assert gap["sieve.stride_loops"]["value"] > 0


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "accumulate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)


# -- checks against deliberately wrong outputs ----------------------------------


@pytest.fixture(scope="module")
def quick_outputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("ckpt"))
    env = run.child_env(ROOT)
    outs = {}
    for workload in run.WORKLOADS:
        inputs, ref = run.make_inputs(workload, 11, "quick")
        res = run.run_child(ROOT, env, workload, inputs, 0, tmp)
        assert "error" not in res, res.get("error")
        assert run.CHECKS[workload](res["output"], ref) == []
        outs[workload] = (res["output"], ref)
    return outs


def _fails(quick_outputs, workload, mutate):
    out, ref = quick_outputs[workload]
    bad = copy.deepcopy(out)
    mutate(bad)
    return run.CHECKS[workload](bad, ref)


def test_accumulate_check_catches_pi_off_by_one(quick_outputs):
    assert _fails(quick_outputs, "accumulate", lambda o: o.update(pi=o["pi"] + 1))


def test_accumulate_check_catches_shifted_theta(quick_outputs):
    def shift(o):  # move the enclosure up by one unit: log 2 alone is more
        num, den = o["theta_lo"]
        o["theta_lo"] = [num + den, den]
        num, den = o["theta_hi"]
        o["theta_hi"] = [num + den, den]
    assert _fails(quick_outputs, "accumulate", shift)


def test_accumulate_check_catches_checkpoint_mismatch(quick_outputs):
    assert _fails(quick_outputs, "accumulate", lambda o: o.update(checkpoint_matches=False))


def test_desk_scan_check_catches_dropped_cell(quick_outputs):
    assert _fails(quick_outputs, "desk-scan", lambda o: o["claims"][0].update(
        checked=o["claims"][0]["checked"] - 1))


def test_desk_scan_check_catches_failure_above_threshold(quick_outputs):
    def move(o):
        c = next(c for c in o["claims"] if c["largest_failing_x"] is not None)
        c["largest_failing_x"] = c["x0"] + 1
    assert _fails(quick_outputs, "desk-scan", move)


def test_desk_scan_check_catches_implied_threshold_change(quick_outputs):
    def move(o):
        c = next(c for c in o["claims"] if c["id"] == "prop3.10.lower")
        c["implied"] += 2
    assert _fails(quick_outputs, "desk-scan", move)


def test_desk_scan_check_catches_indeterminate(quick_outputs):
    assert _fails(quick_outputs, "desk-scan", lambda o: o["claims"][-1].update(indeterminates=1))


def test_gap_window_check_catches_dropped_cell_and_failure(quick_outputs):
    assert _fails(quick_outputs, "gap-window", lambda o: o["claims"][2].update(
        checked=o["claims"][2]["checked"] - 1))
    assert _fails(quick_outputs, "gap-window", lambda o: o["claims"][1].update(failures=1))


# -- references and inputs ------------------------------------------------------


def _trial_division_primes(lo, hi):
    divisors = np.arange(2, math.isqrt(hi) + 1, dtype=np.int64)
    return [n for n in range(max(lo, 2), hi + 1)
            if (n % divisors[: math.isqrt(n) - 1] != 0).all()]


@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 3), (3, 3), (4, 4), (2, 1000), (1000, 1100),
                                    (10**6, 10**6 + 3000), (2**31 - 100, 2**31 + 100),
                                    (10**12 + 10**6, 10**12 + 10**6 + 200)])
def test_window_primes_matches_trial_division(lo, hi):
    assert reference.window_primes(lo, hi).tolist() == _trial_division_primes(lo, hi)


def test_reference_counts_match_published_values():
    assert reference.count_primes(2, 10**6) == reference.PUBLISHED_PI[10**6]
    assert reference.first_prime_at_or_above(10**14) == 10**14 + 31


def test_theta_reference_contains_true_theta():
    mpmath = pytest.importorskip("mpmath")
    lo, hi = reference.theta_reference(10**5)
    with mpmath.workdps(40):
        theta = mpmath.fsum(mpmath.log(p) for p in reference.small_primes(10**5).tolist())
        assert mpmath.mpf(float(lo)) < theta < mpmath.mpf(float(hi))
    assert hi - lo < 1e-8


def test_stored_theta_reference_agrees_with_published_count():
    with open(reference.THETA_FILE) as fh:
        rec = json.load(fh)
    assert rec["x"] == 10**9 and rec["pi"] == reference.PUBLISHED_PI[10**9]
    lo, hi = reference.theta_reference(10**9)
    assert 0 < hi - lo < 1e-5 and abs(lo - 10**9) < 10**5


def test_gap_window_inputs_follow_the_seed():
    a, ref_a = run.make_inputs("gap-window", 5, "quick")
    b, _ = run.make_inputs("gap-window", 5, "quick")
    c, _ = run.make_inputs("gap-window", 6, "quick")
    assert a == b and a != c
    start = run.SIZES["quick"]["gap-window"]["start"]
    assert start <= a["lo"] < start + run.SIZES["quick"]["gap-window"]["shift"] + 1000
    assert reference.window_primes(a["lo"], a["lo"])[0] == a["lo"]
    assert ref_a["cells"] == reference.count_primes(a["lo"], a["hi"])


def test_child_env_drops_package_overrides(monkeypatch):
    monkeypatch.setenv("PRIMEBOUNDS_SEGMENT_ODDS", "1024")
    monkeypatch.setenv("PRIMEBOUNDS_CHECKPOINT_DIR", "/elsewhere")
    env = run.child_env(ROOT)
    assert not any(k.startswith("PRIMEBOUNDS_") for k in env)
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


# -- tracer ---------------------------------------------------------------------


def test_tracer_self_time_excludes_children():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: sum(range(n))
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    tr = Tracer()
    tr.wrap(mod, "inner", "m.inner", lambda n: n)
    tr.wrap(mod, "outer", "m.outer")
    assert mod.outer(10**5) == 2 * sum(range(10**5))
    (outer, inner1, inner2) = tr.spans
    assert [s[0] for s in tr.spans] == ["m.outer", "m.inner", "m.inner"]
    assert outer[3] == -1 and inner1[3] == 0 and inner2[3] == 0 and inner1[4] == 10**5
    own = tr.self_times()
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (inner1[2] - inner1[1])
                                   - (inner2[2] - inner2[1]))
    assert tr.ancestor(1, ("m.outer",)) == "m.outer" and tr.ancestor(0, ("m.outer",)) is None
