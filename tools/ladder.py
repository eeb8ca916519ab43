"""Byte-identity ladder: run a fixed set of CLI configurations and compare
two such runs file by file.

    python tools/ladder.py run DIR [--src SRC]
    python tools/ladder.py compare A B

`run` calls `nematic_walls.cli.main` in this process for every
configuration of `LADDER`, each writing into DIR/<name>, and writes
DIR/manifest.json: the relative path, size and sha256 of every artifact,
and each configuration's exit code.  SRC is the source directory the
package is imported from (default: this checkout's `src`), so one copy of
this script runs the ladder of any checkout.

`compare` names every file that differs between A and B, or exists in one
only.  For a CSV file it gives, per column that differs, the largest
absolute and relative difference, how many rows differ and how many of
those by at least a tenth of that largest absolute difference (over the
leading rows both files hold, with a note, when their row counts differ);
for a JSON file, per key
(nested keys joined with '/').  `out` and `field_csv` in config.json are
masked, as they name where a run wrote or read.  It also names every CSV
column and JSON key that holds a NaN or an infinity in A or B, whether or
not the two files differ, since equal non-finite values show nothing.  The
exit status is 0 when nothing is reported and 1 otherwise.

Artifact bytes depend on the numpy build, so no hashes are kept in the
repository: compare a parent and a change run on one machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = "manifest.json"
# config.json keys that name paths, not the computation
MASKED_CONFIG_KEYS = ("out", "field_csv")


def _flow(domain: str, *args: str) -> List[str]:
    return ["gradflow", "--domain", domain, *args]


# (name, argv without --out); a configuration may read an earlier one's
# artifacts through a path relative to DIR
LADDER: List[Tuple[str, List[str]]] = [
    *[(f"disc-deg-minus-one/L{L}",
       ["disc-deg-minus-one", "--R", "0.6", "--L", L, "--nx", "128",
        "--ny", "256"])
      for L in ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7")],
    *[(f"crosstie/LH{lh}",
       ["crosstie", "--H", "1", "--L", lh, "--nx", "96", "--ny", "128"])
      for lh in ("1.0", "1.125", "1.25", "1.375", "1.5", "1.625", "1.75",
                 "1.875", "2.0")],
    # a cross-tie off unit scale by a factor that is not a power of two, so
    # that mapping its unit build rounds; the degree -1 disc's unit build
    ("crosstie/H0.37-L0.45",
     ["crosstie", "--H", "0.37", "--L", "0.45", "--nx", "96", "--ny", "128"]),
    ("disc-deg-minus-one/R1-L0.5",
     ["disc-deg-minus-one", "--R", "1", "--L", "0.5", "--nx", "128",
      "--ny", "256"]),
    # both constructions far from unit scale
    ("crosstie/H1e-120",
     ["crosstie", "--H", "1e-120", "--L", "1.2e-120", "--nx", "8",
      "--ny", "8"]),
    ("crosstie/H1e110",
     ["crosstie", "--H", "1e110", "--L", "1.2e110", "--nx", "8", "--ny",
      "8"]),
    ("disc-deg-minus-one/R1e110",
     ["disc-deg-minus-one", "--R", "1e110", "--L", "5e109", "--nx", "8",
      "--ny", "8"]),
    ("crosstie-sweep",
     ["crosstie-sweep", "--H", "1", "--lmin", "1.0", "--lmax", "2.2",
      "--step", "0.3"]),
    # a window the steps do not end on: the scan adds lmax itself
    ("crosstie-sweep-ragged",
     ["crosstie-sweep", "--H", "1", "--lmin", "1.0", "--lmax", "1.5",
      "--step", "0.2"]),
    ("rect-1d", ["rect-1d", "--L", "1.2", "--H", "1",
                 "--eps-ladder", "0.1,0.05,0.02"]),
    ("disc-tangential", ["disc-tangential", "--R", "0.6", "--nx", "32",
                         "--ny", "64"]),
    ("disc-hedgehog", ["disc-hedgehog", "--L", "0.5", "--nx", "32",
                       "--ny", "64"]),
    ("annulus", ["annulus", "--R", "2", "--L", "0.5"]),
    # the flow-rect benchmark problem, 30 steps from init seed 7
    ("flow/rect-seed7",
     _flow("rect", "--L", "0.25", "--H", "0.5", "--eps", "0.015", "--nx",
           "175", "--ny", "224", "--max-time", repr(29.5 * 0.015 / 4),
           "--seed", "7")),
    ("flow/rect-cell",
     _flow("rect", "--L", "0.5", "--H", "0.5", "--T", "0.5", "--eps",
           "0.05", "--nx", "32", "--ny", "32", "--max-time", "0.2",
           "--seed", "3")),
    ("flow/rect-construction",
     _flow("rect", "--init", "construction", "--L", "0.6", "--H", "0.5",
           "--eps", "0.02", "--nx", "64", "--ny", "64", "--max-time",
           "0.1")),
    *[(f"flow/disc-{bc}",
       _flow("disc", "--bc", bc, "--R", "0.6", "--L", "0.5", "--eps",
             "0.05", "--nx", "24", "--ny", "48", "--max-time", "0.5",
             "--seed", "1"))
      for bc in ("tangential", "hedgehog", "degminusone")],
    ("flow/disc-construction",
     _flow("disc", "--init", "construction", "--R", "0.6", "--L", "0.5",
           "--eps", "0.05", "--nx", "24", "--ny", "48", "--max-time",
           "0.5")),
    ("flow/annulus",
     _flow("annulus", "--R", "2", "--L", "1", "--eps", "0.05", "--nx",
           "16", "--ny", "48", "--max-time", "0.5", "--seed", "2")),
    ("energy-eval/rect",
     ["energy-eval", "--domain", "rect", "--field-csv",
      "flow/rect-cell/field.csv", "--L", "0.5", "--H", "0.5", "--T", "0.5",
      "--eps", "0.05", "--nx", "32", "--ny", "32"]),
    ("energy-eval/disc",
     ["energy-eval", "--domain", "disc", "--field-csv",
      "flow/disc-degminusone/field.csv", "--R", "0.6", "--L", "0.5",
      "--eps", "0.05", "--nx", "24", "--ny", "48"]),
    ("energy-eval/annulus",
     ["energy-eval", "--domain", "annulus", "--field-csv",
      "flow/annulus/field.csv", "--R", "2", "--L", "1", "--eps", "0.05",
      "--nx", "16", "--ny", "48"]),
]


# --- run --------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _artifacts(d: Path) -> Dict[str, Path]:
    """The files under d by relative path, the manifest excluded."""
    return {p.relative_to(d).as_posix(): p for p in sorted(d.rglob("*"))
            if p.is_file() and p.relative_to(d).as_posix() != MANIFEST}


def run(out_dir, ladder: Sequence[Tuple[str, List[str]]] = LADDER,
        src: Optional[Path] = None) -> dict:
    """Run every configuration of ladder into out_dir/<name> and write the
    manifest, which is also returned."""
    src = str(Path(src) if src else ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from nematic_walls import cli
    loaded = Path(cli.__file__).resolve().parents[1]
    if loaded != Path(src).resolve():
        raise RuntimeError(f"nematic_walls is already imported from "
                           f"{loaded}, not from {src}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, argv in ladder:
            codes[name] = cli.main([*argv, "--out", name])
    finally:
        os.chdir(cwd)
    manifest = {
        "exit_codes": codes,
        "files": [{"path": rel, "size": p.stat().st_size,
                   "sha256": _sha256(p)}
                  for rel, p in _artifacts(out_dir).items()],
    }
    (out_dir / MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


# --- compare ----------------------------------------------------------------

def _diff(a: float, b: float) -> Tuple[float, float]:
    """Absolute and relative difference; equal values (NaN with NaN, and
    either zero with the other) give 0, other non-finite pairs inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))


def _csv_diffs(a: Path, b: Path):
    """Per differing column, the largest (absolute, relative) difference
    and (rows that differ, those within a decade of the largest absolute
    difference, rows compared), over the leading rows both files hold;
    and a note when the headers or row counts differ."""
    ra = list(csv.reader(io.StringIO(a.read_text())))
    rb = list(csv.reader(io.StringIO(b.read_text())))
    if not ra or not rb or ra[0] != rb[0]:
        return {}, {}, "headers differ"
    note = "" if len(ra) == len(rb) \
        else f"{len(ra) - 1} rows against {len(rb) - 1}"
    per_col: Dict[str, List[Tuple[float, float]]] = {}
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for col, x, y in zip(ra[0], row_a, row_b):
            if x != y:
                per_col.setdefault(col, []).append(_diff(float(x), float(y)))
    diffs, rows = {}, {}
    shared = min(len(ra), len(rb)) - 1
    for col, ds in per_col.items():
        diffs[col] = (max(d[0] for d in ds), max(d[1] for d in ds))
        near = sum(d[0] >= diffs[col][0] / 10 for d in ds)
        rows[col] = (len(ds), near, shared)
    return diffs, rows, note


def _nonfinite(path: Path) -> List[str]:
    """The CSV columns or JSON keys of path that hold a NaN or an
    infinity."""
    if path.suffix == ".json":
        values = _flatten(json.loads(path.read_text())).items()
    else:
        rows = list(csv.reader(io.StringIO(path.read_text())))
        values = ((col, x) for row in rows[1:] for col, x in zip(rows[0], row))
    bad = set()
    for key, x in values:
        try:
            if not math.isfinite(float(x)):
                bad.add(key)
        except (TypeError, ValueError):
            pass  # not a number
    return sorted(bad)


def _flatten(obj, prefix: str = "") -> Dict[str, object]:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    flat = {}
    for k, v in items:
        flat.update(_flatten(v, f"{prefix}/{k}" if prefix else str(k)))
    return flat


def _json_diffs(a: Path, b: Path, masked: Sequence[str] = ()):
    fa = _flatten(json.loads(a.read_text()))
    fb = _flatten(json.loads(b.read_text()))
    diffs = {}
    for key in sorted(set(fa) | set(fb)):
        if key in masked:
            continue
        x, y = fa.get(key), fb.get(key)
        if json.dumps(x) == json.dumps(y):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        diffs[key] = _diff(float(x), float(y)) if numbers \
            else (math.inf, math.inf)
    return diffs


def compare(a, b) -> List[dict]:
    """One record per file that differs or holds a non-finite value:
    {"path", "note", "diffs", "rows", "nonfinite"}, with diffs {column or
    key: (max absolute, max relative difference)}, for a CSV file rows
    {column: (rows that differ, those within a decade of the max absolute
    difference, rows compared)}, and nonfinite the CSV columns or JSON keys
    holding a NaN or an infinity in either file.  A column or key whose
    text differs while its values are equal (-0 against 0, say) is listed
    with differences of 0."""
    fa, fb = _artifacts(Path(a)), _artifacts(Path(b))
    records = []
    for rel in sorted(set(fa) | set(fb)):
        if rel not in fb or rel not in fa:
            records.append({"path": rel, "diffs": {}, "rows": {},
                            "note": f"only in {'A' if rel in fa else 'B'}",
                            "nonfinite": []})
            continue
        pa, pb = fa[rel], fb[rel]
        nonfinite = sorted(set(_nonfinite(pa)) | set(_nonfinite(pb))) \
            if pa.suffix in (".csv", ".json") else []
        if pa.read_bytes() == pb.read_bytes():
            if nonfinite:
                records.append({"path": rel, "diffs": {}, "rows": {},
                                "note": "same bytes", "nonfinite": nonfinite})
            continue
        rows = {}
        if rel.endswith(".csv"):
            diffs, rows, note = _csv_diffs(pa, pb)
        elif rel.endswith(".json"):
            masked = MASKED_CONFIG_KEYS if pa.name == "config.json" else ()
            diffs, note = _json_diffs(pa, pb, masked), ""
            if not diffs and masked and not nonfinite:
                continue  # only the masked paths differ
        else:
            diffs, note = {}, "bytes differ"
        records.append({"path": rel, "diffs": diffs, "rows": rows,
                        "note": note, "nonfinite": nonfinite})
    return records


def report(records: List[dict]) -> str:
    if not records:
        return "ladder identical"
    lines = [f"{len(records)} file(s) differ"]
    for r in records:
        lines.append(f"{r['path']}" + (f": {r['note']}" if r["note"] else ""))
        for key, (ab, rel) in r["diffs"].items():
            rows = r["rows"].get(key)
            lines.append(f"    {key}: max abs {ab:.3e}, max rel {rel:.3e}"
                         + (f", in {rows[0]} of {rows[2]} rows ({rows[1]} "
                            f"within a decade of the max)" if rows else ""))
        if r["nonfinite"]:
            lines.append("    non-finite values in "
                         + ", ".join(r["nonfinite"]))
        if not r["diffs"] and not r["note"]:
            lines.append("    bytes differ, values equal")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="run the ladder into DIR")
    r.add_argument("dir")
    r.add_argument("--src", default=None,
                   help="source directory to import nematic_walls from")
    c = sub.add_parser("compare", help="compare two ladder directories")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.mode == "run":
        manifest = run(args.dir, src=args.src)
        failed = {k: v for k, v in manifest["exit_codes"].items() if v}
        print(f"{len(manifest['files'])} files in {args.dir}"
              + (f"; nonzero exits: {failed}" if failed else ""))
        return 1 if failed else 0
    records = compare(args.a, args.b)
    print(report(records))
    return 1 if records else 0


if __name__ == "__main__":
    raise SystemExit(main())
