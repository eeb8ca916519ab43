"""Alternating A/B runs of the benchmark between two commits.

    python tools/ab.py PARENT_REF CHANGE_REF --workload W --pairs N [--seed S]

Exports both refs with `git archive` into sibling directories whose names
have equal length (`parent`, `change`), because peak RSS moves with the
length of the checkout's path.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

once in each export, the parent first in even pairs and the change first
in odd ones.  Prints every run's metrics, then per end-to-end metric of
BENCHMARK.json each side's median and quartiles, the pairs the change won
(ties count for neither side), and whether that is a gain by the rule the
benchmark's claims follow: won in at least nine tenths of the pairs, with
the medians further apart than the parent's quartiles.  The exit status is
0 when every run was correct with no failed operation, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")  # export names: equal length
SECONDS = 40
WIN_SHARE = 0.9


def export(ref: str, dest: Path) -> None:
    """The tree of ref, as `git archive` writes it, in dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run in checkout: correct,
    attempted, failed and metrics {name: {value, unit}}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def quartiles(xs: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), inclusive quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: Sequence[Tuple[dict, dict]],
              metrics: Sequence[dict]) -> List[dict]:
    """Per metric ({name, unit, better}) of the pairs' (parent, change)
    metric values {name: value}: each side's quartiles, the pairs the
    change won and lost, and whether that is a gain."""
    rows = []
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        got = [(p[name], c[name]) for p, c in pairs
               if name in p and name in c]
        if not got:
            continue
        par = quartiles([p for p, _ in got])
        chg = quartiles([c for _, c in got])
        won = sum(sign * (c - p) < 0 for p, c in got)
        lost = sum(sign * (c - p) > 0 for p, c in got)
        gain = (won >= WIN_SHARE * len(got)
                and sign * (par[1] - chg[1]) > par[2] - par[0])
        rows.append({"name": name, "unit": m["unit"], "pairs": len(got),
                     "parent": par, "change": chg, "won": won, "lost": lost,
                     "gain": gain})
    return rows


def report(rows: Sequence[dict]) -> str:
    lines = []
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        lines.append(
            f"{r['name']} ({r['unit']}): parent {p2:.5g} [{p1:.5g}, "
            f"{p3:.5g}], change {c2:.5g} [{c1:.5g}, {c3:.5g}], "
            f"{(c2 - p2) / p2:+.2%}; change won {r['won']} of "
            f"{r['pairs']} pairs, lost {r['lost']}"
            + ("; gain" if r["gain"] else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_ref")
    ap.add_argument("change_ref")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="ab-"))
    ok = True
    try:
        dirs = dict(zip(SIDES, (work / s for s in SIDES)))
        for side, ref in zip(SIDES, (args.parent_ref, args.change_ref)):
            export(ref, dirs[side])
        pairs = []
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            out: Dict[str, dict] = {}
            for side in order:
                out[side] = run_once(dirs[side], args.workload, args.seed)
                res = out[side]
                ok &= bool(res["correct"]) and res["failed"] == 0
                values = {n: v["value"] for n, v in res["metrics"].items()}
                print(f"pair {k} {side}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"{json.dumps(values)}", flush=True)
            pairs.append(tuple({n: v["value"]
                                for n, v in out[s]["metrics"].items()}
                               for s in SIDES))
        print(report(summarize(pairs, metrics)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
