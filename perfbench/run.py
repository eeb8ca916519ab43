"""Benchmark of the nematic-walls CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Each invocation of the workload runs in
its own process (``worker.py``) with the thread pools pinned to one
thread.  Invocations repeat, with identical inputs, until the next one
would overrun ``--seconds``; set-up probes top up the set-up samples to
``MIN_SETUP_SAMPLES``.  Every invocation's artifacts are checked for
correctness and must be byte-identical across the run.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
plain and traced invocations and reports the per-module metrics and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric with its unit, and the full result, with the
environment, is written to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import stats
import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("NEMATIC_WALLS_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():   # the benchmark may run in a plain export
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "threads": {var: str(THREADS) for var in THREAD_VARS}}


def artifact_digests(art: Path) -> Dict[str, str]:
    return {str(p.relative_to(art)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(art.rglob("*")) if p.is_file()}


class Invocation:
    """One worker process and what came out of it."""

    def __init__(self, workload: Workload, argvs: List[List[str]],
                 mode: str, workdir: Path):
        self.mode = mode
        self.workdir = workdir
        workdir.mkdir(parents=True)
        result = workdir / "result.json"
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({
            "src": str(SRC), "argvs": argvs, "op": workload.op,
            "mode": mode, "result": str(result)}))
        self.t_spawn = tracing.now()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec)],
                cwd=workdir, env=child_env(), timeout=CHILD_TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            self.returncode = proc.returncode
            self.stderr = proc.stderr
        except subprocess.TimeoutExpired:
            self.returncode, self.stderr = None, "timed out"
        try:
            self.result = json.loads(result.read_text())
        except (OSError, ValueError):
            self.result = {}
        self.errors: List[str] = []
        if self.returncode != 0:
            self.errors.append(f"exit {self.returncode}: "
                               f"{self.stderr.strip()[-500:]}")
        if self.result.get("error"):
            self.errors.append(self.result["error"].strip()[-500:])
        ends = self.result.get("op_ends", [])
        self.op_durations = [e - s for s, e in
                             zip(self.result.get("op_starts", []), ends)]
        self.setup_s = ends[0] - self.t_spawn if ends else None
        self.run_s = (self.result["t_end"] - self.t_spawn
                      if "t_end" in self.result else None)
        if not ends:
            self.errors.append("no operation completed")

    @property
    def ok(self) -> bool:
        return not self.errors


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, scratch: Path) -> dict:
    argvs = workload.plan(seed)
    deadline = tracing.now() + seconds
    full: List[Invocation] = []
    probes: List[Invocation] = []
    first_digests = None
    estimate = 0.0
    # trace mode alternates plain and traced invocations, at least one each
    at_least = 2 if trace else 1
    while len(full) < at_least or tracing.now() + estimate <= deadline:
        mode = "trace" if trace and len(full) % 2 else "time"
        t0 = tracing.now()
        inv = Invocation(workload, argvs, mode, scratch / f"{len(full):03d}")
        full.append(inv)
        if inv.ok:
            try:
                inv.errors += workload.check(inv.workdir, argvs)
            except Exception as exc:  # unreadable output fails the check
                inv.errors.append(f"check failed: {exc!r}")
        if inv.ok:
            digests = artifact_digests(inv.workdir / "art")
            first_digests = first_digests or digests
            if digests != first_digests:
                inv.errors.append("artifacts differ from the run's first "
                                  "invocation")
        estimate = tracing.now() - t0
        if not inv.ok:
            break
    if not trace:
        while (all(inv.ok for inv in full + probes)
               and len(full) + len(probes) < MIN_SETUP_SAMPLES):
            probes.append(Invocation(workload, argvs, "probe",
                                     scratch / f"probe{len(probes):03d}"))
    return summarize(workload, argvs, full, probes, trace)


def summarize(workload: Workload, argvs, full: List[Invocation],
              probes: List[Invocation], trace: bool) -> dict:
    attempted = failed = 0
    for inv in full + probes:
        # a failed invocation counts every operation it was meant to do
        n = max(len(inv.op_durations), 1 if inv.mode == "probe"
                else workload.ops, 1)
        attempted += n
        if not inv.ok:
            failed += n
    timed = [inv for inv in full if inv.mode == "time" and inv.ok]
    traced = [inv for inv in full if inv.mode == "trace" and inv.ok]
    report = {
        "workload": workload.name, "argvs": argvs,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": stats.fail_frac(failed, attempted),
        "errors": [e for inv in full + probes for e in inv.errors],
        "invocations": [{"mode": inv.mode, "ok": inv.ok, "run_s": inv.run_s,
                         "setup_s": inv.setup_s, "ops": len(inv.op_durations)}
                        for inv in full + probes],
        "versions": next((inv.result.get("versions") for inv in full
                          if inv.result.get("versions")), None),
    }
    if not timed or (trace and not traced):
        return report
    setups = [inv.setup_s for inv in timed + probes]
    report["end_to_end"] = {
        "run_s": stats.median([inv.run_s for inv in timed]),
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median(
            [inv.result["maxrss_kb"] / 1024 for inv in timed]),
    }
    durations = [d for inv in timed for d in inv.op_durations]
    report["op"] = {"label": workload.op_label,
                    **stats.percentiles_ms(durations)}
    report["samples"] = {"run_s": len(timed), "setup_s": len(setups)}
    if trace:
        run_traced = [inv.run_s for inv in traced]
        per_inv = []
        for inv in traced:
            summary = tracing.summarize(inv.result["spans"])
            per_inv.append((summary, tracing.layer_metrics(
                summary, inv.run_s, workload.grid_points)))
        layer = {name: stats.median([m[name] for _, m in per_inv])
                 for name in per_inv[0][1]}
        layer["trace.overhead_s"] = (stats.median(run_traced)
                                     - report["end_to_end"]["run_s"])
        report["per_layer"] = layer
        report["traced_run_s"] = stats.median(run_traced)
        report["layers"] = per_inv[-1][0]
        report["spans"] = traced[-1].result["spans"]
    return report


def print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']}: {report['attempted']} operations, "
          f"{report['failed']} failed")
    for inv in report["invocations"]:
        print(f"  {inv['mode']:5s} ok={inv['ok']} run_s={inv['run_s']} "
              f"setup_s={inv['setup_s']} ops={inv['ops']}")
    for err in report["errors"]:
        print(f"  error: {err}")
    print(f"fail_frac {report['fail_frac']!r} ratio "
          f"({report['failed']}/{report['attempted']} operations)")
    if "end_to_end" not in report:
        return
    e2e = report["end_to_end"]
    print(f"run_s {e2e['run_s']!r} s (median of {report['samples']['run_s']})")
    print(f"setup_s {e2e['setup_s']!r} s "
          f"(median of {report['samples']['setup_s']})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']!r} MB")
    op = report["op"]
    label, t = op["label"], op["tail"]
    if label is not None and op["p50"] is not None:
        print(f"{label}_ms_p50 {op['p50']!r} ms (n={t['n']})")
        if t["value"] is not None:
            print(f"{label}_ms_tail {t['value']!r} ms (p{t['percentile']}, "
                  f"n={t['n']}, {t['beyond']} beyond)")
    if trace:
        print(f"traced run_s {report['traced_run_s']!r} s, tracing overhead "
              f"{report['per_layer']['trace.overhead_s']!r} s")
        for name, d in sorted(report["layers"].items()):
            print(f"  {name}: calls={d['calls']} s={d['s']:.6f} "
                  f"self_s={d['self_s']:.6f} ms_p50={d['ms_p50']:.4f} "
                  f"first_ms={d['first_ms']:.4f} size={d['size']}")
        for name, unit, _ in tracing.PER_LAYER:
            print(f"{name} {report['per_layer'][name]!r} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nematic_walls" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    try:
        report = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["environment"] = {**environment(),
                             "versions": report.pop("versions")}
    report["seed"] = args.seed
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(f"environment {json.dumps(report['environment'], sort_keys=True)}")
    print_report(report, bool(args.trace))
    metrics = {}
    if "end_to_end" in report:
        if args.trace:
            metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                       for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics = {name: {"value": report["end_to_end"][name],
                              "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
