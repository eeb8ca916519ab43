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
], ids=["disc-deg-minus-one", "crosstie"])
def test_constructions_do_not_load_numpy_ma(tmp_path, argv):
    """No construction run imports numpy.ma (np.unique would), an import
    every run would pay."""
    argv = argv + ["--out", str(tmp_path / "c")]
    loaded = _modules_after("from nematic_walls import cli\n"
                            f"assert cli.main({argv!r}) == 0")
    assert "numpy.ma" not in loaded


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
    path.write_text(json.dumps({"L": 1.0}))
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


def test_dispatch_reports_exception_type(tmp_path, capsys):
    cfg = RunConfig(subcommand="energy-eval", domain="rect",
                    field_csv=str(tmp_path / "missing.csv"),
                    out=str(tmp_path / "e"))
    assert dispatch(cfg) == 1
    assert "error: FileNotFoundError: " in capsys.readouterr().err
