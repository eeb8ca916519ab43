"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracing
import workloads
from workloads import FLOW_STEPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# --- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, q", [(11, 9), (20, 50), (90, 88), (100, 90),
                                  (150, 93), (1000, 99)])
def test_tail_percentile_examples(n, q):
    assert stats.tail_percentile(n) == q
    t = stats.tail(list(range(n)))
    assert t["percentile"] == q and t["n"] == n and t["beyond"] >= 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_eleven_samples(n):
    assert stats.tail_percentile(n) is None
    assert stats.tail([1.0] * n)["value"] is None


def test_tail_is_highest_percentile_with_ten_beyond():
    for n in range(11, 600):
        xs = list(range(n))       # distinct values: rank == value + 1
        q = stats.tail_percentile(n)
        rank = math.ceil(q * n / 100)
        assert n - rank >= 10
        assert n - math.ceil((q + 1) * n / 100) < 10
        assert stats.tail(xs)["value"] == xs[max(rank, 1) - 1]


# --- fail_frac -------------------------------------------------------------

class FakeInvocation:
    def __init__(self, mode, ops, ok=True, run_s=1.0, setup_s=0.5):
        self.mode = mode
        self.op_durations = [0.01] * ops
        self.errors = [] if ok else ["boom"]
        self.run_s = run_s
        self.setup_s = setup_s
        self.result = {"maxrss_kb": 2048, "versions": {}}

    @property
    def ok(self):
        return not self.errors


def test_fail_frac_counts_operations_of_failed_invocations():
    w = WORKLOADS["flow-rect"]
    argvs = [["gradflow"]]
    full = [FakeInvocation("time", FLOW_STEPS),
            FakeInvocation("time", 3, ok=False)]   # died after three steps
    report = run.summarize(w, argvs, full, [], trace=False)
    assert report["attempted"] == 2 * FLOW_STEPS
    assert report["failed"] == FLOW_STEPS
    assert report["fail_frac"] == 0.5
    assert not report["correct"]


def test_fail_frac_zero_and_probes_count_one_operation():
    w = WORKLOADS["sweep-crossing"]
    full = [FakeInvocation("time", 48, run_s=13.0)]
    probes = [FakeInvocation("probe", 1, setup_s=1.0),
              FakeInvocation("probe", 1, setup_s=1.2)]
    report = run.summarize(w, [["crosstie-sweep"]], full, probes, trace=False)
    assert (report["attempted"], report["failed"]) == (50, 0)
    assert report["fail_frac"] == 0.0 and report["correct"]
    assert report["end_to_end"]["setup_s"] == 1.0     # median of 0.5, 1, 1.2
    assert report["end_to_end"]["run_s"] == 13.0
    assert report["end_to_end"]["peak_rss_mb"] == 2.0
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)


# --- correctness checks ------------------------------------------------------

def _fake_rect_flow(out: Path, final: float) -> list:
    nx, ny = 4, 4
    argv = ["gradflow", "--domain", "rect", "--nx", str(nx), "--ny", str(ny)]
    out.mkdir(parents=True)
    energies = np.linspace(final + 1.0, final, FLOW_STEPS + 1)
    energies[-1] = final
    with open(out / "energy_trace.csv", "w") as fh:
        fh.write("t,total,grad,potential,bulk_div\n")
        for k, e in enumerate(energies):
            fh.write(f"{k},{float(e)!r},0,0,0\n")
    (out / "flow.json").write_text(json.dumps(
        {"stop_reason": "max_time reached", "final_energy": final}))
    with open(out / "field.csv", "w") as fh:
        fh.write("x,y,u1,u2\n")
        for i in range(nx):
            for j in range(ny + 1):
                u1 = -1.0 if j == 0 else 1.0 if j == ny else 0.6
                u2 = 0.0 if j in (0, ny) else 0.8
                fh.write(f"{i},{j},{u1!r},{u2!r}\n")
    return argv


def test_flow_check_accepts_reference_and_rejects_perturbed(tmp_path):
    final = 0.6957529261275702
    argv = _fake_rect_flow(tmp_path / "art", final)
    assert workloads.check_flow(tmp_path / "art", argv, final) == []
    errors = workloads.check_flow(tmp_path / "art", argv, final * (1 + 1e-9))
    assert any("reference" in e for e in errors)


def test_flow_check_rejects_moved_dirichlet_row_and_energy_increase(tmp_path):
    final = 1.0
    argv = _fake_rect_flow(tmp_path / "art", final)
    field = tmp_path / "art" / "field.csv"
    lines = field.read_text().splitlines()
    lines[1] = "0,0,-0.99999999999999989,0.0"
    field.write_text("\n".join(lines) + "\n")
    trace = tmp_path / "art" / "energy_trace.csv"
    rows = trace.read_text().splitlines()
    rows[3], rows[4] = rows[4], rows[3]
    trace.write_text("\n".join(rows) + "\n")
    errors = workloads.check_flow(tmp_path / "art", argv, final)
    assert "Dirichlet rows changed" in errors
    assert "energy trace increases" in errors


def test_sweep_check_rejects_perturbed_crossing(tmp_path):
    art = tmp_path / "art"
    art.mkdir()
    with open(art / "sweep.csv", "w") as fh:
        fh.write("L_over_H,E_crosstie,E_1d,gap\n")
        for k in range(workloads.SWEEP_POINTS):
            fh.write(f"{1 + k},1,1,0\n")
    for shift, ok in ((0.0, True), (1e-6, True), (3e-6, False)):
        (art / "crossing.json").write_text(json.dumps(
            {"L0": workloads.SWEEP_L0 + shift, "L1": workloads.SWEEP_L1}))
        assert (workloads.check_sweep(tmp_path, []) == []) == ok


# --- workloads -----------------------------------------------------------------

def test_plans_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        assert w.plan(7) == w.plan(7)
    seeds = range(20)
    assert len({str(WORKLOADS["sweep-crossing"].plan(s)) for s in seeds}) > 1
    assert len({str(WORKLOADS["construct"].plan(s)) for s in seeds}) > 1


def test_every_plan_has_a_reference():
    for seed in range(40):
        argv = WORKLOADS["flow-rect"].plan(seed)[0]
        assert int(argv[argv.index("--seed") + 1]) in workloads.RECT_FINAL_ENERGY
        disc, ct = WORKLOADS["construct"].plan(seed)
        assert disc[disc.index("--L") + 1] in workloads.DISC_E0
        assert ct[ct.index("--L") + 1] in workloads.CROSSTIE_E0
        sweep = WORKLOADS["sweep-crossing"].plan(seed)[0]
        lmin = float(sweep[sweep.index("--lmin") + 1])
        lmax = float(sweep[sweep.index("--lmax") + 1])
        assert lmin < workloads.SWEEP_L0 and workloads.SWEEP_L1 < lmax


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


# --- worker: traced and untraced invocations -----------------------------------

SMALL = {
    "construct": [["disc-deg-minus-one", "--R", "0.6", "--L", "0.4",
                   "--nx", "12", "--ny", "24", "--out", "art/disc"],
                  ["crosstie", "--H", "1", "--L", "1.5", "--nx", "12",
                   "--ny", "16", "--out", "art/crosstie"]],
    "flow-rect": [["gradflow", "--domain", "rect", "--L", "0.25", "--H",
                   "0.5", "--eps", "0.05", "--nx", "16", "--ny", "16",
                   "--max-time", "0.06", "--out", "art"]],
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path, name):
    w = WORKLOADS[name]
    plain = run.Invocation(w, SMALL[name], "time", tmp_path / "time")
    traced = run.Invocation(w, SMALL[name], "trace", tmp_path / "trace")
    assert plain.ok and traced.ok, plain.errors + traced.errors
    a = run.artifact_digests(tmp_path / "time" / "art")
    b = run.artifact_digests(tmp_path / "trace" / "art")
    assert a and a == b
    assert "spans" not in plain.result and traced.result["spans"]
    summary = tracing.summarize(traced.result["spans"])
    metrics = tracing.layer_metrics(summary, traced.run_s, 0)
    assert set(metrics) == {m for m, _, _ in tracing.PER_LAYER} - {
        "trace.overhead_s"}
    if name == "flow-rect":
        assert metrics["gradflow.step.accept_ratio"] == 1.0
        assert metrics["gradflow.implicit_solve.cg_iters_mean"] >= 1
        assert summary["gradflow.FlowSolver.step"]["calls"] == \
            len(plain.op_durations)
    else:
        assert metrics["contours.marching_squares.cells"] > 0
        assert len(plain.op_durations) == w.ops
        assert metrics["crosstie.crosstie_field_sample.points"] == 12 * 17


def test_probe_stops_after_the_first_operation(tmp_path):
    w = WORKLOADS["construct"]
    probe = run.Invocation(w, SMALL["construct"], "probe", tmp_path / "p")
    assert probe.ok and len(probe.op_durations) == 1
    assert not (tmp_path / "p" / "art" / "crosstie").exists()
    assert 0 < probe.setup_s <= probe.run_s


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
