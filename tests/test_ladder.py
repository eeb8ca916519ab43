"""The byte-identity ladder of tools/ladder.py on a two-configuration
ladder: two runs compare identical, and one perturbed float is found with
its file, column and difference."""

import importlib.util
from pathlib import Path

import pytest

import nematic_walls

ROOT = Path(__file__).resolve().parents[1]
# the ladder runs the package these tests import
SRC = Path(nematic_walls.__file__).resolve().parents[1]

LADDER = [("rect-1d", ["rect-1d", "--L", "1.2", "--H", "1"]),
          ("annulus", ["annulus", "--R", "2", "--L", "0.5"])]


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location(
        "ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_compare_identical_then_one_float_differs(ladder,
                                                            tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    manifest = ladder.run(a, LADDER, SRC)
    ladder.run(b, LADDER, SRC)
    assert manifest["exit_codes"] == {"rect-1d": 0, "annulus": 0}
    paths = {f["path"] for f in manifest["files"]}
    assert {"rect-1d/profile.csv", "annulus/profiles.csv",
            "annulus/config.json"} <= paths
    assert ladder.compare(a, b) == []
    assert ladder.report([]) == "ladder identical"

    # one float of one column, rewritten 1e-9 relative away
    path = b / "annulus" / "profiles.csv"
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    col = lines[0].split(",").index("q")
    old = float(cells[col])
    new = old * (1 + 1e-9)
    cells[col] = repr(new)
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    records = ladder.compare(a, b)
    assert [r["path"] for r in records] == ["annulus/profiles.csv"]
    assert list(records[0]["diffs"]) == ["q"]
    ab, rel = records[0]["diffs"]["q"]
    assert ab == abs(new - old)
    assert rel == abs(new - old) / max(abs(old), abs(new))
    assert "annulus/profiles.csv" in ladder.report(records)


def test_config_paths_are_masked(ladder, tmp_path):
    """config.json differing in `out` alone compares identical; another
    key is named."""
    a, b = tmp_path / "a", tmp_path / "b"
    ladder.run(a, LADDER[:1], SRC)
    ladder.run(b, LADDER[:1], SRC)
    cfg = b / "rect-1d" / "config.json"
    cfg.write_text(cfg.read_text().replace('"out": "rect-1d"',
                                           '"out": "elsewhere"'))
    assert ladder.compare(a, b) == []
    cfg.write_text(cfg.read_text().replace('"L": 1.2', '"L": 1.25'))
    (record,) = ladder.compare(a, b)
    assert record["path"] == "rect-1d/config.json"
    assert list(record["diffs"]) == ["L"]


def test_rows_dropped_and_shared_row_perturbed(ladder, tmp_path):
    """A CSV that loses its last row and has a shared row moved reports
    both the row counts and the moved column."""
    a, b = tmp_path / "a", tmp_path / "b"
    ladder.run(a, LADDER[1:], SRC)
    ladder.run(b, LADDER[1:], SRC)
    path = b / "annulus" / "profiles.csv"
    lines = path.read_text().splitlines()
    n_rows = len(lines) - 1
    cells = lines[3].split(",")
    col = lines[0].split(",").index("p")
    old = float(cells[col])
    new = old + 2.0 ** -40
    cells[col] = repr(new)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines[:-1]) + "\n")

    (record,) = ladder.compare(a, b)
    assert record["path"] == "annulus/profiles.csv"
    assert record["note"] == f"{n_rows} rows against {n_rows - 1}"
    assert record["diffs"] == {"p": ladder._diff(old, new)}
    text = ladder.report([record])
    assert f"{n_rows} rows against {n_rows - 1}" in text
    assert "    p: max abs" in text


def test_rows_that_differ_are_counted(ladder, tmp_path):
    """A column with one large and one small difference reports two
    differing rows, one of them within a decade of the largest."""
    a, b = tmp_path / "a", tmp_path / "b"
    ladder.run(a, LADDER[1:], SRC)
    ladder.run(b, LADDER[1:], SRC)
    path = b / "annulus" / "profiles.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("q")
    for row, rel in ((5, 1e-12), (9, 1e-3)):
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * (1 + rel))
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    (record,) = ladder.compare(a, b)
    n_rows = len(lines) - 1
    assert record["rows"] == {"q": (2, 1, n_rows)}
    assert (f"in 2 of {n_rows} rows (1 within a decade of the max)"
            in ladder.report([record]))
