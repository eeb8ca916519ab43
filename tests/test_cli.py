import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nematic_walls
from nematic_walls.cli import RunConfig, dispatch, main, validate
from nematic_walls.rect1d import solve_Ttilde

def _modules_after(code: str) -> set:
    """The names in sys.modules of a fresh interpreter that has run code."""
    src = str(Path(nematic_walls.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def _scipy_loaded_after(module: str) -> set:
    """The modules named scipy or scipy.* that a fresh interpreter holds
    after importing module."""
    return {m for m in _modules_after(f"import {module}")
            if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_scipy_submodule():
    """The package runs on numpy alone: neither the CLI nor the gradient
    flow loads SciPy or any part of it."""
    assert _scipy_loaded_after("nematic_walls.cli") == set()
    assert _scipy_loaded_after("nematic_walls.gradflow") == set()


def test_sweep_imports_only_what_it_runs(tmp_path):
    """A cross-tie sweep never imports the annulus or disc constructions or
    the gradient flow: the CLI imports each runner's modules inside it."""
    argv = ["crosstie-sweep", "--lmin", "1.3", "--lmax", "1.4", "--step",
            "0.1", "--out", str(tmp_path / "s")]
    loaded = _modules_after("from nematic_walls import cli\n"
                            f"assert cli.main({argv!r}) == 0")
    assert "nematic_walls.crosstie" in loaded
    for name in ("annulus", "disc", "gradflow"):
        assert f"nematic_walls.{name}" not in loaded


@pytest.mark.parametrize("argv", [
    ["disc-deg-minus-one", "--nx", "8", "--ny", "16"],
    ["crosstie", "--nx", "8", "--ny", "8"],
    ["crosstie-sweep", "--lmin", "1.3", "--lmax", "1.4", "--step", "0.1"],
], ids=["disc-deg-minus-one", "crosstie", "crosstie-sweep"])
def test_constructions_do_not_load_numpy_ma(tmp_path, argv):
    """No construction run imports numpy.ma (np.unique would) or
    numpy.polynomial (whose Gauss-Legendre rule calls LAPACK), imports
    every run would pay."""
    argv = argv + ["--out", str(tmp_path / "c")]
    loaded = _modules_after("from nematic_walls import cli\n"
                            f"assert cli.main({argv!r}) == 0")
    assert "numpy.ma" not in loaded
    assert "numpy.polynomial" not in loaded


def test_random_rect_flow_does_not_load_crosstie(tmp_path):
    """A rectangle flow from a random start takes its period from rect1d
    and never imports the cross-tie construction."""
    argv = ["gradflow", "--domain", "rect", "--nx", "8", "--ny", "8",
            "--max-time", "0.01", "--out", str(tmp_path / "g")]
    loaded = _modules_after("from nematic_walls import cli\n"
                            f"assert cli.main({argv!r}) == 0")
    assert "nematic_walls.gradflow" in loaded
    assert "nematic_walls.crosstie" not in loaded


def test_rect1d_values(tmp_path):
    rc = main(["rect-1d", "--L", "1", "--H", "1", "--a", "0",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    data = json.loads((tmp_path / "r" / "result.json").read_text())
    assert data["M"] == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    assert data["energy"] == pytest.approx(11 / 12, abs=1e-14)
    prof = (tmp_path / "r" / "profile.csv").read_text().splitlines()
    assert prof[0] == "y,u1,u2"


def test_hedgehog_energy_at_L2(tmp_path):
    rc = main(["disc-hedgehog", "--L", "2", "--nx", "16", "--ny", "32",
               "--out", str(tmp_path / "h")])
    assert rc == 0
    data = json.loads((tmp_path / "h" / "energy.json").read_text())
    assert data["closed_form"] == pytest.approx(4 * math.pi, abs=0)
    assert abs(data["total"] - 4 * math.pi) < 1e-8


# malformed command lines and the one reason each is rejected with
_EVAL = ["energy-eval", "--field-csv", "f.csv"]
_COUNTS = "counts too small (nx, ny >= 4)"
_LADDER = "eps-ladder must be comma-separated finite eps > 0"
_MALFORMED = [
    (["energy-eval"], "field-csv is required"),
    (_EVAL + ["--domain", "foo"], "domain must be rect|disc|annulus"),
    (_EVAL + ["--domain", "annulus", "--R", "0.8"], "annulus requires R > 1"),
    (_EVAL + ["--nx", "3"], _COUNTS),
    (_EVAL + ["--H", "0"], "H > 0 violated"),
    (_EVAL + ["--T", "-0.5"], "T > 0 violated"),
    (["crosstie", "--ny", "2"], _COUNTS),
    (["crosstie-sweep", "--step", "0"], "step > 0 violated"),
    (["crosstie-sweep", "--step", "-0.1"], "step > 0 violated"),
    (["gradflow", "--domain", "annulus", "--R", "0.8"],
     "annulus requires R > 1"),
    (["gradflow", "--domain", "disc", "--R", "-1"], "R > 0 violated"),
    (["gradflow", "--domain", "disc", "--bc", "foo"],
     "bc must be tangential|hedgehog|degminusone"),
    (["gradflow", "--domain", "rect", "--bc", "hedgehog"],
     "bc applies to the disc domain only"),
    (["gradflow", "--init", "foo"], "init must be random|construction"),
    (["gradflow", "--domain", "annulus", "--R", "2", "--init",
      "construction"], "init construction needs domain rect|disc"),
    *[(["gradflow", "--domain", "disc", "--bc", bc, "--init",
        "construction"], "init construction on the disc needs bc degminusone")
      for bc in ("tangential", "hedgehog")],
    (["gradflow", "--init", "construction", "--L", "1", "--H", "1", "--T",
      "0.3"], f"init construction needs T = H T~(L/H) = "
              f"{solve_Ttilde(1.0)!r}, got T = 0.3"),
    (["rect-1d", "--eps-ladder", "abc"], _LADDER),
    (["rect-1d", "--eps-ladder", "0,-1"], _LADDER),
]


def test_validate_rejections(tmp_path, capsys):
    assert any("a in [0,1)" in e for e in
               validate(RunConfig(subcommand="rect-1d", a=1.0)))
    assert any("eps" in e for e in
               validate(RunConfig(subcommand="gradflow", eps=-1, domain="rect")))
    assert any("H > 0" in e for e in
               validate(RunConfig(subcommand="crosstie", H=-1.0)))
    # a cross-tie start takes the cross-tie's own cell, to 1e-12
    T = 0.5 * solve_Ttilde(0.5)
    for t, ok in ((0.0, True), (T * (1 + 5e-13), True), (T * (1 + 5e-12), False)):
        assert (validate(RunConfig(subcommand="gradflow", domain="rect",
                                   init="construction", L=0.25, H=0.5,
                                   T=t)) == []) == ok, t
    # each malformed command line exits 2 with its reason, before any run
    for k, (argv, reason) in enumerate(_MALFORMED):
        out = tmp_path / f"m{k}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == f"error: {reason}\n", argv
        assert not out.exists()


_FLOW = ["gradflow", "--nx", "8", "--ny", "8"]


@pytest.mark.parametrize("argv, reason", [
    (_FLOW + ["--eps", "nan"], "eps must be finite"),
    (_FLOW + ["--L", "inf"], "L must be finite"),
    (["rect-1d", "--H", "nan"], "H must be finite"),
    (_FLOW + ["--dt", "-1"], "dt >= 0 violated"),
    (_FLOW + ["--max-time", "-1"], "max-time > 0 violated"),
    (_FLOW + ["--tol", "-1"], "tol > 0 violated"),
    (_FLOW + ["--tol", "nan"], "tol must be finite"),
], ids=["eps-nan", "L-inf", "H-nan", "dt", "max-time", "tol", "tol-nan"])
def test_malformed_values_exit_2(tmp_path, capsys, argv, reason):
    """A non-finite float, or a flow's dt < 0, tol <= 0 or max_time <= 0,
    exits 2 with its reason before any run."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


_BRACKET = ("L/H = 1e-300 lies outside the range the tangency relation "
            "brackets")
_TINY_H = "H = 1e-300 lies outside [1.492e-154, 1.341e+154]"


@pytest.mark.parametrize("argv, config, reason", [
    (["disc-tangential"], {"H": -1}, "H > 0 violated"),
    (["crosstie"], {"R": -2}, "R > 0 violated"),
    (["disc-deg-minus-one", "--R", "1e-3"], None,
     "invalid extents (0.001, 0.001)"),
    (_FLOW + ["--domain", "disc", "--R", "5e-4"], None,
     "invalid extents (0.001, 0.0005)"),
    (["crosstie", "--L", "1", "--H", "1e300"], None, _BRACKET),
    (["crosstie", "--L", "1e300", "--H", "1"], None,
     "L/H = 1e+300 lies outside the range the tangency relation brackets"),
    (_FLOW + ["--init", "construction", "--L", "1", "--H", "1e300"], None,
     _BRACKET),
    (_FLOW + ["--domain", "rect", "--T", "-0.5", "--max-time", "0.01"],
     None, "T >= 0 violated"),
    (["crosstie-sweep", "--H", "1e-300", "--lmin", "1.0", "--lmax", "1.3",
      "--step", "0.3"], None, _TINY_H),
    (["crosstie", "--H", "1e-300", "--L", "1e-300", "--nx", "8", "--ny",
      "8"], None, _TINY_H),
], ids=["disc-H", "crosstie-R", "disc-R-cutoff", "flow-disc-R-cutoff",
        "crosstie-LH", "crosstie-LH-overflow", "flow-construction-LH",
        "flow-T", "sweep-tiny-H", "crosstie-tiny-H"])
def test_constructor_rules_exit_2(tmp_path, capsys, argv, config, reason):
    """A value that the run's own constructors (Params, the grid,
    cell_ttilde) reject exits 2 with one reason before any run."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1, err
    assert not out.exists()


def _plans(monkeypatch):
    """(name, argv) of every tools/ladder.py configuration and of every
    perfbench workload's invocations for seeds 0-9."""
    import importlib.util

    def load(path):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        # a dataclass looks its module up in sys.modules
        monkeypatch.setitem(sys.modules, path.stem, module)
        spec.loader.exec_module(module)
        return module

    root = Path(__file__).resolve().parents[1]
    plans = list(load(root / "tools" / "ladder.py").LADDER)
    for name, w in load(root / "perfbench" / "workloads.py").WORKLOADS.items():
        plans += [(f"{name}/seed{seed}", argv) for seed in range(10)
                  for argv in w.plan(seed)]
    return plans


def test_ladder_and_benchmark_configs_validate(monkeypatch):
    """Every configuration the byte-identity ladder and the benchmark run
    parses and passes validate, so no rule a constructor owns turns one
    into an exit 2."""
    from nematic_walls import cli
    seen = []
    monkeypatch.setattr(cli, "dispatch", lambda cfg: seen.append(cfg) or 0)
    plans = _plans(monkeypatch)
    for name, argv in plans:
        assert main(argv) == 0, name
        assert validate(seen[-1]) == [], name
    assert len(seen) == len(plans) > 40


def test_unknown_subcommand_exit_code():
    assert dispatch(RunConfig(subcommand="nope")) == 2


def test_determinism(tmp_path):
    contours = ("field.csv", "divergence_contours.csv", "angle_contours.csv")
    runs = [
        (["annulus", "--R", "2", "--L", "0.4"], ("annulus.json", "profiles.csv")),
        (["disc-deg-minus-one", "--R", "0.6", "--L", "0.5", "--nx", "16",
          "--ny", "32"], contours),
        (["crosstie", "--L", "1", "--H", "1", "--nx", "16", "--ny", "16"],
         contours),
    ]
    for k, (argv, names) in enumerate(runs):
        a, b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(subcommand="rect-1d", L=1.5, H=2.0, a=0.25,
                    out=str(tmp_path / "x"))
    text = cfg.to_json()
    cfg2 = RunConfig.from_json(text)
    assert cfg2 == cfg
    # every run writes its resolved config next to its outputs
    assert dispatch(cfg) == 0
    saved = RunConfig.from_json((tmp_path / "x" / "config.json").read_text())
    assert saved == cfg


def test_energy_eval_roundtrip(tmp_path):
    out1 = tmp_path / "t"
    assert main(["disc-tangential", "--R", "1", "--nx", "24", "--ny", "48",
                 "--out", str(out1)]) == 0
    out2 = tmp_path / "e"
    rc = main(["energy-eval", "--field-csv", str(out1 / "field.csv"),
               "--domain", "disc", "--R", "1", "--nx", "24", "--ny", "48",
               "--L", "1", "--eps", "0.01", "--out", str(out2)])
    assert rc == 0
    data = json.loads((out2 / "energy.json").read_text())
    # e_theta: potential and divergence vanish; only the eps-gradient term
    assert data["potential"] < 1e-20
    assert data["bulk_div"] < 1e-20
    assert data["grad"] > 0
    # the degree -1 construction samples the disc grid every disc run
    # uses, out to r = R, so energy-eval reads its field.csv back; its
    # outer ring is the data (x/R, -y/R)
    for R in ("0.6", "2", "3.7"):
        grid = ["--R", R, "--nx", "24", "--ny", "48"]
        out1, out2 = tmp_path / f"d{R}", tmp_path / f"e{R}"
        assert main(["disc-deg-minus-one", "--L", "0.5", *grid,
                     "--out", str(out1)]) == 0
        assert main(["energy-eval", "--field-csv", str(out1 / "field.csv"),
                     "--domain", "disc", "--L", "0.5", "--eps", "0.05",
                     *grid, "--out", str(out2)]) == 0, R
        x, y, u1, u2 = np.loadtxt(out1 / "field.csv", delimiter=",",
                                  skiprows=1).reshape(25, 48, 4)[-1].T
        assert np.abs(u1 - x / float(R)).max() <= 1e-15, R
        assert np.abs(u2 + y / float(R)).max() <= 1e-15, R


_BREAKDOWN_KEYS = {"bulk_div", "grad", "params", "potential", "total",
                   "wall_boundary", "wall_interior"}


@pytest.mark.parametrize("argv, own_keys", [
    (["disc-tangential"], set()),
    (["disc-hedgehog"], {"closed_form", "quadrature_error"}),
    (["disc-deg-minus-one"], {"natural_bc_residual", "s0"}),
    (["crosstie"], {"T", "T_tilde", "alpha", "energy_per_length", "t1_star",
                    "tangency_mismatch", "wall_residual"}),
], ids=["disc-tangential", "disc-hedgehog", "disc-deg-minus-one",
        "crosstie"])
def test_construction_report_keys(tmp_path, argv, own_keys):
    """Each construction's energy.json holds the E0 breakdown and exactly
    its own keys."""
    assert main(argv + ["--nx", "8", "--ny", "16", "--out",
                        str(tmp_path)]) == 0
    data = json.loads((tmp_path / "energy.json").read_text())
    assert set(data) == _BREAKDOWN_KEYS | own_keys


def test_energy_eval_rejects_a_field_off_its_grid(tmp_path, capsys):
    """A field of the T = 0.5 rectangle cell, read on the T = 3 cell (same
    node counts), exits 1 and names the largest node offset."""
    flow = tmp_path / "f"
    assert main(["gradflow", "--domain", "rect", "--T", "0.5", "--nx", "8",
                 "--ny", "8", "--max-time", "0.01", "--out", str(flow)]) == 0
    out = tmp_path / "e"
    assert main(["energy-eval", "--field-csv", str(flow / "field.csv"),
                 "--domain", "rect", "--T", "3.0", "--nx", "8", "--ny", "8",
                 "--out", str(out)]) == 1
    assert "nodes off the grid's by up to 4.375" in capsys.readouterr().err
    assert not (out / "energy.json").exists()


def test_crosstie_artifacts(tmp_path):
    out = tmp_path / "ct"
    assert main(["crosstie", "--L", "1", "--H", "1", "--nx", "32", "--ny", "48",
                 "--out", str(out)]) == 0
    data = json.loads((out / "energy.json").read_text())
    assert data["tangency_mismatch"] < 1e-9
    assert data["wall_residual"] < 1e-8
    # one E0 per run: the per-length value is the reported total over 2T
    assert data["energy_per_length"] == data["total"] / (2 * data["T"])
    assert (out / "field.csv").exists()
    assert (out / "divergence_contours.csv").exists()


@pytest.mark.parametrize("argv, unit_argv, key", [
    (["crosstie", "--L", "1.2e-6", "--H", "1e-6"],
     ["crosstie", "--L", "1.2", "--H", "1"], "energy_per_length"),
    (["disc-tangential", "--R", "1e300"], ["disc-tangential", "--R", "1"],
     "total"),
], ids=["crosstie-H1e-6", "disc-tangential-R1e300"])
def test_energy_per_length_is_the_unit_scale_one(tmp_path, argv, unit_argv,
                                                  key):
    """A construction far from unit scale writes the energy per length (for
    the tangential disc, the zero E0) of its unit-scale twin."""
    values = []
    for name, args in (("scaled", argv), ("unit", unit_argv)):
        out = tmp_path / name
        assert main(args + ["--nx", "8", "--ny", "8", "--out", str(out)]) == 0
        values.append(json.loads((out / "energy.json").read_text())[key])
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0)


def test_crosstie_below_the_single_root_threshold(tmp_path):
    """Below L/H = 0.5426 some region-III circles pass near the vortex
    (T, 0) twice; the sampler still inverts every grid point."""
    out = tmp_path / "ct"
    assert main(["crosstie", "--L", "0.5", "--H", "1", "--nx", "16", "--ny",
                 "16", "--out", str(out)]) == 0
    data = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    assert data.shape == (16 * 17, 4) and np.all(np.isfinite(data))


def test_crosstie_angle_contours_stay_off_the_branch_cut(tmp_path):
    """On the bottom wall row u = (-1, +-0), so arctan2(u2, u1) flips
    between pi and -pi there; no angle level curve may run along y = -H."""
    out = tmp_path / "ct"
    assert main(["crosstie", "--L", "1", "--H", "1", "--nx", "96", "--ny",
                 "128", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "angle_contours.csv", delimiter=",", skiprows=1)
    assert len(set(rows[:, 0])) == 13
    assert not np.any(rows[:, 3] == -1.0)


def test_crosstie_sweep_csv(tmp_path):
    out = tmp_path / "sw"
    assert main(["crosstie-sweep", "--lmin", "1.15", "--lmax", "1.35",
                 "--step", "0.05", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "L_over_H,E_crosstie,E_1d,gap"
    assert len(lines) == 6
    cross = json.loads((out / "crossing.json").read_text())
    assert cross["L0"] is not None


@pytest.mark.parametrize("step, want", [("0.7", [1.0, 1.5]),
                                         ("0.2", [1.0, 1.2, 1.4, 1.5])])
def test_sweep_scans_exactly_its_window(tmp_path, step, want):
    """The scan ends on lmax whether or not the steps land on it: it
    neither overshoots lmax nor stops short of it."""
    out = tmp_path / "sw"
    assert main(["crosstie-sweep", "--lmin", "1.0", "--lmax", "1.5",
                 "--step", step, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == pytest.approx(want, abs=1e-12)


def test_gradflow_small_run(tmp_path):
    out = tmp_path / "gf"
    rc = main(["gradflow", "--domain", "rect", "--L", "0.25", "--eps", "0.05",
               "--H", "0.5", "--T", "0.4", "--a", "0", "--nx", "24",
               "--ny", "32", "--tol", "0.05", "--max-time", "1.0",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    trace = (out / "energy_trace.csv").read_text().splitlines()
    assert trace[0] == "t,total,grad,potential,bulk_div"
    totals = [float(l.split(",")[1]) for l in trace[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(totals, totals[1:]))


def test_gradflow_unconverged_exits_0(tmp_path):
    # the exit code reports a finished run; flow.json carries the verdict
    out = tmp_path / "gf"
    rc = main(["gradflow", "--domain", "rect", "--nx", "16", "--ny", "16",
               "--eps", "0.05", "--max-time", "0.01", "--out", str(out)])
    assert rc == 0
    flow = json.loads((out / "flow.json").read_text())
    assert flow["converged"] is False
    assert flow["stop_reason"] == "max_time reached"
    assert flow["residual"] is None


def test_rect1d_eps_ladder(tmp_path):
    out = tmp_path / "lad"
    rc = main(["rect-1d", "--L", "1.5", "--H", "1", "--a", "0",
               "--eps-ladder", "1e-2,5e-3", "--out", str(out)])
    assert rc == 0
    lines = (out / "eps_convergence.csv").read_text().splitlines()
    assert lines[0] == "eps,E_eps,E0,gap"
    gaps = [float(l.split(",")[3]) for l in lines[1:]]
    assert gaps[0] > gaps[1] > 0


def test_disc_deg_minus_one_artifacts(tmp_path):
    out = tmp_path / "deg"
    rc = main(["disc-deg-minus-one", "--R", "0.6", "--L", "0.5",
               "--nx", "24", "--ny", "48", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "energy.json").read_text())
    assert data["natural_bc_residual"] < 1e-8
    assert (out / "field.csv").exists()
    assert (out / "divergence_contours.csv").exists()
    assert (out / "angle_contours.csv").exists()


def test_disc_deg_minus_one_solves_each_curvature_array_once_per_use(
        tmp_path, monkeypatch):
    """One run solves the region-III curvature for the wall and the two E0
    seed calls, and region II's for those and the sampler: the wall balance
    the build checked is the one energy.json reports, with no re-solve."""
    from nematic_walls import disc
    calls = {"region3_v0": 0, "region2_v0": 0}

    def counting(name):
        original = getattr(disc, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(disc, name, counting(name))
    assert main(["disc-deg-minus-one", "--R", "0.6", "--L", "0.5",
                 "--nx", "8", "--ny", "16", "--out", str(tmp_path)]) == 0
    assert calls["region3_v0"] <= 3
    assert calls["region2_v0"] <= 4


def test_disc_deg_minus_one_field_angles_stay_in_the_octant(tmp_path):
    """Every field.csv node of the degree -1 disc at L = 0.1, folded into
    the octant 0 <= y <= x by the construction's reflections, has its
    angle in [-pi/4, 0]: no node takes a region-III circle past the end of
    its arc."""
    out = tmp_path / "deg"
    assert main(["disc-deg-minus-one", "--R", "0.6", "--L", "0.1",
                 "--nx", "24", "--ny", "48", "--out", str(out)]) == 0
    x, y, u1, u2 = np.loadtxt(out / "field.csv", delimiter=",",
                              skiprows=1).T
    # undo the axis mirrors, then the diagonal rule (u1, u2) -> (-u2, -u1)
    u1 = np.where(x < 0, -u1, u1)
    u2 = np.where(y < 0, -u2, u2)
    diag = np.abs(y) > np.abs(x)
    theta = np.arctan2(np.where(diag, -u1, u2), np.where(diag, -u2, u1))
    assert theta.min() >= -math.pi / 4 - 1e-9
    assert theta.max() <= 1e-9


def test_gradflow_construction_seeded_disc(tmp_path):
    out = tmp_path / "gfd"
    rc = main(["gradflow", "--domain", "disc", "--bc", "degminusone",
               "--L", "0.5", "--eps", "0.05", "--R", "0.6", "--nx", "32",
               "--ny", "64", "--init", "construction", "--tol", "0.1",
               "--max-time", "0.2", "--out", str(out)])
    assert rc == 0
    flow = json.loads((out / "flow.json").read_text())
    assert flow["final_energy"] > 0


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = json.loads(RunConfig(subcommand="rect-1d").to_json())
    cfg["xyz"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["rect-1d", "--config", str(path)]) == 2
    assert "error: unknown config key 'xyz'" in capsys.readouterr().err
    # a config naming another subcommand than the command line's
    path.write_text(json.dumps({"subcommand": "crosstie", "L": 1.0}))
    assert main(["rect-1d", "--config", str(path)]) == 2
    assert "'subcommand'" in capsys.readouterr().err
    # a value of the wrong type names its key instead of crashing in
    # validate or being cut to an int
    for key, val in (("L", "abc"), ("nx", 8.5), ("nx", True)):
        path.write_text(json.dumps({"subcommand": "rect-1d", key: val}))
        assert main(["rect-1d", "--config", str(path)]) == 2
        assert f"error: config key '{key}'" in capsys.readouterr().err
    path.write_text(json.dumps({"subcommand": "rect-1d", "L": 2,
                                "out": str(tmp_path / "int-L")}))
    assert main(["rect-1d", "--config", str(path)]) == 0


def test_config_takes_the_subcommand_from_the_command_line(tmp_path):
    """A config file need not repeat the subcommand it is run under."""
    cfg = {"domain": "rect", "L": 0.5, "eps": 0.05, "nx": 8, "ny": 8,
           "max_time": 0.01, "out": str(tmp_path / "flow")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["gradflow", "--config", str(path)]) == 0
    saved = json.loads((tmp_path / "flow" / "config.json").read_text())
    assert saved["subcommand"] == "gradflow"


def test_config_file_means_what_the_flags_mean(tmp_path):
    """Keys a config file lacks take the subcommand's flag defaults, not
    RunConfig's: a rectangle flow from the cross-tie construction runs on
    the cross-tie's own cell (--T 0) from flags and from a file alike."""
    flags = {"domain": "rect", "L": 0.5, "H": 0.5, "init": "construction",
             "eps": 0.05, "nx": 16, "ny": 16, "max_time": 0.001}
    argv = ["gradflow"]
    for key, val in flags.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    assert main(argv + ["--out", str(tmp_path / "flags")]) == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**flags, "subcommand": "gradflow",
                                "out": str(tmp_path / "file")}))
    assert main(["gradflow", "--config", str(path)]) == 0
    by_flags, by_file = (
        json.loads((tmp_path / d / "config.json").read_text())
        for d in ("flags", "file"))
    assert by_file["T"] == 0.0
    assert {**by_flags, "out": ""} == {**by_file, "out": ""}
    for name in ("field.csv", "flow.json"):
        assert ((tmp_path / "flags" / name).read_bytes()
                == (tmp_path / "file" / name).read_bytes())


def test_dispatch_reports_exception_type(tmp_path, capsys):
    cfg = RunConfig(subcommand="energy-eval", domain="rect",
                    field_csv=str(tmp_path / "missing.csv"),
                    out=str(tmp_path / "e"))
    assert dispatch(cfg) == 1
    assert "error: FileNotFoundError: " in capsys.readouterr().err


def _table(path, header):
    """The rows of a CSV artifact as float arrays, after checking that its
    header is header and that every value is written as '%.17g' writes
    the float it reads back as."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    rows = []
    for line in lines[1:]:
        values = [float(cell) for cell in line.split(",")]
        assert line == ",".join("%.17g" % v for v in values)
        rows.append(values)
    return np.array(rows)


@pytest.mark.parametrize("argv, name, header, n_rows", [
    (["rect-1d", "--L", "1.5", "--H", "1", "--eps-ladder", "1e-2,5e-3"],
     "profile.csv", "y,u1,u2", 1025),
    (["rect-1d", "--L", "1.5", "--H", "1", "--eps-ladder", "1e-2,5e-3"],
     "eps_convergence.csv", "eps,E_eps,E0,gap", 2),
    # a window with no crossing: five grid points, no refinement
    (["crosstie-sweep", "--lmin", "1.3", "--lmax", "1.5", "--step", "0.05"],
     "sweep.csv", "L_over_H,E_crosstie,E_1d,gap", 5),
])
def test_table_artifacts_are_g17_of_their_values(tmp_path, argv, name,
                                                 header, n_rows):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert _table(tmp_path / name, header).shape[0] == n_rows


def test_energy_trace_is_g17_of_its_values(tmp_path):
    """A random start is unit length to rounding, so the first potential
    term is of order 1e-31: below the decimal kernel's range, it takes the
    formatter's fallback path."""
    assert main(["gradflow", "--domain", "rect", "--nx", "16", "--ny", "16",
                 "--eps", "0.05", "--max-time", "0.01", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    trace = _table(tmp_path / "energy_trace.csv",
                   "t,total,grad,potential,bulk_div")
    assert 0 < trace[0, 3] < 1e-20


def test_annulus_profiles_follow_the_regime(tmp_path):
    """The interior wall's profile jumps in q and div at rho; with the wall
    on the inner boundary u = e_theta, so p is written 0 (never -0), q 1
    and div 0."""
    assert main(["annulus", "--R", "2", "--L", "0.1",
                 "--out", str(tmp_path / "int")]) == 0
    rho = json.loads((tmp_path / "int" / "annulus.json").read_text())["rho"]
    r, p, q, div = _table(tmp_path / "int" / "profiles.csv", "r,p,q,div").T
    assert r.size == 513
    inner = r <= rho
    assert np.all(q[inner] < 0) and np.all(q[~inner] > 0)
    assert np.all(div[inner] > 0) and np.all(div[~inner] < 0)
    np.testing.assert_allclose(p * p + q * q, 1.0, rtol=0, atol=1e-15)

    assert main(["annulus", "--R", "2", "--L", "2",
                 "--out", str(tmp_path / "bdy")]) == 0
    r, p, q, div = _table(tmp_path / "bdy" / "profiles.csv", "r,p,q,div").T
    assert r.size == 513
    assert np.all(p == 0) and not np.signbit(p).any()
    assert np.all(q == 1) and np.all(div == 0)


@pytest.mark.parametrize("module, attr, argv, n_nodes", [
    ("disc", "deg_minus_one_sample",
     ["disc-deg-minus-one", "--R", "0.6", "--L", "0.5", "--nx", "8",
      "--ny", "16"], 9 * 16),
    ("crosstie", "crosstie_field_sample",
     ["crosstie", "--L", "1.2", "--H", "1", "--nx", "8", "--ny", "8"],
     8 * 9),
])
def test_cli_samples_through_the_traced_module_attribute(
        tmp_path, monkeypatch, module, attr, argv, n_nodes):
    """The benchmark traces a construction's sampler by replacing its
    module attribute: the CLI run must call that attribute once, on every
    node of its grid, or the traced share and point count read 0."""
    import importlib
    mod = importlib.import_module(f"nematic_walls.{module}")
    original = getattr(mod, attr)
    sizes = []

    def counted(sol, x, y):
        sizes.append(np.size(x))
        return original(sol, x, y)

    monkeypatch.setattr(mod, attr, counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert sizes == [n_nodes]
