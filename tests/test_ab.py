"""The summary of tools/ab.py on synthetic pairs: quartiles per side, pairs
won with ties counting for neither side, and the gain rule."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
           {"name": "run_s", "unit": "s", "better": "lower"},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs():
    pairs = []
    for k in range(10):
        parent = {"peak_rss_mb": 39.5 + 0.01 * k, "run_s": 0.30,
                  "ops_per_s": 10.0}
        # peak RSS lower in 9 pairs and higher in one; run_s ties in 4 and
        # splits the rest; ops_per_s higher in every pair
        change = {"peak_rss_mb": 37.6 if k != 3 else 39.9,
                  "run_s": 0.30 + (0.0 if k < 4 else 0.01 * (-1) ** k),
                  "ops_per_s": 10.5}
        pairs.append((parent, change))
    return pairs


def test_quartiles_wins_and_gain(ab):
    rows = {r["name"]: r for r in ab.summarize(_pairs(), METRICS)}
    rss = rows["peak_rss_mb"]
    assert rss["pairs"] == 10 and (rss["won"], rss["lost"]) == (9, 1)
    assert rss["parent"] == pytest.approx((39.5225, 39.545, 39.5675))
    assert rss["change"] == pytest.approx((37.6, 37.6, 37.6))
    assert rss["gain"]
    run = rows["run_s"]
    assert (run["won"], run["lost"]) == (3, 3) and not run["gain"]
    ops = rows["ops_per_s"]
    assert (ops["won"], ops["lost"]) == (10, 0) and ops["gain"]


def test_no_gain_when_medians_lie_within_the_parent_spread(ab):
    """Winning every pair is not a gain when the medians differ by less
    than the parent's interquartile distance."""
    pairs = [({"run_s": 0.30 + 0.01 * k}, {"run_s": 0.30 + 0.01 * k - 0.001})
             for k in range(10)]
    (row,) = ab.summarize(pairs, METRICS)
    assert row["won"] == 10 and not row["gain"]


def test_report_names_each_metric(ab):
    text = ab.report(ab.summarize(_pairs(), METRICS))
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("peak_rss_mb (MB): parent 39.545 [39.523, "
                               "39.568], change 37.6 [37.6, 37.6], -4.92%;")
    assert "change won 9 of 10 pairs, lost 1; gain" in lines[0]
    assert lines[1].endswith("change won 3 of 10 pairs, lost 3")


def test_single_pair_quartiles(ab):
    (row,) = ab.summarize([({"run_s": 1.0}, {"run_s": 0.5})], METRICS)
    assert row["parent"] == (1.0, 1.0, 1.0) and row["won"] == 1
