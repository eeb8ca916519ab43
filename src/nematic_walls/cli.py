"""Command-line entry point.

Every construction, evaluator, solver, and sweep is a subcommand writing
machine-readable artifacts (CSV/JSON, 17 significant digits) plus the
resolved run configuration, so identical configurations (including the
seed) reproduce bit-identical outputs.

Each runner imports the modules it uses itself, before it builds any large
array, so a subcommand loads only its own part of the package.  `contours`,
which runners call last, is imported here, so that its import (and
compilation, where no bytecode cache is written) never runs while a
runner's arrays are alive and cannot add to the peak RSS.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .contours import contours_to_csv, level_curves
from .core import (POLAR, RECTANGLE, Field2D, Grid2D, Params,
                   disc_inner_cutoff, field_from_csv, field_to_csv, make_grid,
                   sample_analytic)

G17 = "{:.17g}".format
# the JSON values each RunConfig field type accepts (annotations are
# strings under `from __future__ import annotations`)
_JSON_TYPES = {"str": (str,), "float": (int, float), "int": (int,)}


@dataclass
class RunConfig:
    """Flat, losslessly serializable run description."""

    subcommand: str
    L: float = 1.0
    eps: float = 1e-2
    H: float = 1.0
    T: float = 1.0
    R: float = 1.0
    a: float = 0.0
    nx: int = 64
    ny: int = 64
    dt: float = 0.0          # 0 -> eps/4
    tol: float = 1e-4
    max_time: float = 50.0
    seed: int = 0
    domain: str = ""
    bc: str = ""
    init: str = "random"
    lmin: float = 0.5
    lmax: float = 3.0
    step: float = 0.01
    eps_ladder: str = ""
    field_csv: str = ""
    out: str = "out"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Inverse of `to_json`.  ValueError names the first unknown key or
        the first value of the wrong type: a float field takes an int too,
        an int field takes neither a float nor a bool."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        types = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
        for key, val in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(val, bool) or not isinstance(val, types[key]):
                raise ValueError(f"config key {key!r} must be of type "
                                 f"{types[key][-1].__name__}, got {val!r}")
        return cls(**data)

    def params(self) -> Params:
        return Params(L=self.L, eps=self.eps, H=self.H, T=max(self.T, 1e-12) if self.T > 0 else 1.0,
                      R=self.R, a=self.a)


# the subcommands that sample a field on a grid of nx by ny cells
_GRID_SUBCOMMANDS = ("disc-tangential", "disc-hedgehog", "disc-deg-minus-one",
                     "crosstie", "gradflow", "energy-eval")
# the outer data `gradflow.disc_bc` knows
_DISC_DATA = ("tangential", "hedgehog", "degminusone")


def _eps_ladder(text: str) -> list:
    """The eps values of a comma-separated ladder; ValueError unless each
    is a finite eps > 0."""
    ladder = [float(e) for e in text.split(",")]
    if not all(0.0 < e < math.inf for e in ladder):
        raise ValueError(f"eps-ladder {text!r}: need finite eps > 0")
    return ladder


def validate(cfg: RunConfig) -> list:
    """Static range checks mirroring the type invariants; runs no solver
    beyond the scalar T~ a cross-tie start on the rectangle must match.
    Returns the aggregated list of violations."""
    errors = []
    sub = cfg.subcommand
    domain = cfg.domain if sub in ("gradflow", "energy-eval") else ""
    if cfg.L <= 0:
        errors.append("L > 0 violated")
    if cfg.eps <= 0:
        errors.append("eps > 0 violated")
    if (sub in ("rect-1d", "crosstie", "gradflow") or domain == "rect") \
            and cfg.H <= 0:
        errors.append("H > 0 violated")
    if sub == "energy-eval" and domain == "rect" and cfg.T <= 0:
        errors.append("T > 0 violated")
    if sub == "energy-eval" and not cfg.field_csv:
        errors.append("field-csv is required")
    if not (0.0 <= cfg.a < 1.0):
        errors.append("a in [0,1) violated")
    if (sub in ("disc-tangential", "disc-hedgehog", "disc-deg-minus-one",
                "annulus") or domain == "disc") and cfg.R <= 0:
        errors.append("R > 0 violated")
    if (sub == "annulus" or domain == "annulus") and cfg.R <= 1.0:
        errors.append("annulus requires R > 1")
    if sub in _GRID_SUBCOMMANDS and (cfg.nx < 4 or cfg.ny < 4):
        errors.append("counts too small (nx, ny >= 4)")
    if sub in ("gradflow", "energy-eval") and domain not in ("rect", "disc",
                                                             "annulus"):
        errors.append("domain must be rect|disc|annulus")
    if sub == "gradflow":
        if domain == "disc" and cfg.bc not in ("", *_DISC_DATA):
            errors.append("bc must be " + "|".join(_DISC_DATA))
        elif domain != "disc" and cfg.bc:
            errors.append("bc applies to the disc domain only")
        if cfg.init not in ("random", "construction"):
            errors.append("init must be random|construction")
        elif cfg.init == "construction" and domain == "annulus":
            errors.append("init construction needs domain rect|disc")
        elif cfg.init == "construction" and domain == "rect" \
                and cfg.T > 0 and cfg.L > 0 and cfg.H > 0:
            # the cross-tie's period is 2 H T~(L/H): another cell would
            # cut it with a jump at the seam
            from .rect1d import solve_Ttilde
            T = cfg.H * solve_Ttilde(cfg.L / cfg.H)
            if abs(cfg.T - T) > 1e-12 * T:
                errors.append(f"init construction needs T = H T~(L/H) = "
                              f"{T!r}, got T = {cfg.T!r}")
    if sub == "rect-1d" and cfg.eps_ladder:
        try:
            _eps_ladder(cfg.eps_ladder)
        except ValueError:
            errors.append("eps-ladder must be comma-separated finite eps > 0")
    if sub == "crosstie-sweep":
        if not (0 < cfg.lmin < cfg.lmax):
            errors.append("need 0 < lmin < lmax")
        if not cfg.step > 0:
            errors.append("step > 0 violated")
    return errors


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    return out


def _write_report(out: Path, name: str, breakdown, params: Params,
                  extra: Optional[dict] = None):
    data = breakdown.as_dict(params)
    if extra:
        data.update(extra)
    (out / name).write_text(json.dumps(data, indent=2, sort_keys=True,
                                       default=float))
    return data


def _write_level_curves(out: Path, grid: Grid2D, v: np.ndarray,
                        theta: Optional[np.ndarray] = None) -> None:
    """divergence_contours.csv: the 9 levels splitting [min v, max v] into
    10 equal bins; angle_contours.csv, when the director angle theta is
    given: 13 levels evenly spaced over 0.99 (-pi, pi), off the branch cut
    of theta."""
    div_levels = np.linspace(v.min(), v.max(), 11)[1:-1]
    contours_to_csv(level_curves(grid, v, div_levels),
                    out / "divergence_contours.csv")
    if theta is not None:
        ang_levels = np.linspace(-math.pi * 0.99, math.pi * 0.99, 13)
        contours_to_csv(level_curves(grid, theta, ang_levels, angle=True),
                        out / "angle_contours.csv")


# --- subcommand runners ---------------------------------------------------------

def run_disc_tangential(cfg: RunConfig) -> int:
    from . import disc as disc_mod
    from .energy import eval_E0_piecewise
    out = _outdir(cfg)
    p = cfg.params()
    sol = disc_mod.tangential_solution(cfg.R)
    eb = eval_E0_piecewise(sol, p)
    _write_report(out, "energy.json", eb, p)
    grid = make_grid(POLAR, (disc_inner_cutoff(cfg.R), cfg.R), cfg.nx, cfg.ny)
    field_to_csv(sample_analytic(grid, lambda X, Y: sol.sample(X, Y)[:2]),
                 out / "field.csv")
    return 0


def run_disc_hedgehog(cfg: RunConfig) -> int:
    from . import disc as disc_mod
    from .energy import eval_E0_piecewise
    out = _outdir(cfg)
    p = cfg.params()
    sol = disc_mod.hedgehog_solution(+1)
    closed = disc_mod.hedgehog_energy(cfg.L)
    eb = eval_E0_piecewise(sol, p, s_panels=32, order=16)
    _write_report(out, "energy.json", eb, p,
                  extra={"closed_form": closed,
                         "quadrature_error": abs(eb.total - closed)})
    grid = make_grid(POLAR, (disc_inner_cutoff(1.0), 1.0), cfg.nx, cfg.ny)
    field_to_csv(sample_analytic(grid, lambda X, Y: sol.sample(X, Y)[:2]),
                 out / "field.csv")
    return 0


def run_disc_deg_minus_one(cfg: RunConfig) -> int:
    from . import disc as disc_mod
    from .energy import eval_E0_piecewise
    out = _outdir(cfg)
    p = cfg.params()
    sol = disc_mod.build_deg_minus_one(cfg.R, cfg.L)
    eb = eval_E0_piecewise(sol.field, p, s_panels=48)
    _write_report(out, "energy.json", eb, p,
                  extra={"natural_bc_residual": sol.wall_balance,
                         "s0": sol.s0})
    grid = make_grid(POLAR, (disc_inner_cutoff(cfg.R), cfg.R * (1 - 1e-12)),
                     cfg.nx, cfg.ny)
    X, Y = grid.nodes_xy()
    u1, u2, v = disc_mod.deg_minus_one_sample(sol, X, Y)
    f = Field2D(grid, np.stack([u1, u2], axis=-1))
    field_to_csv(f, out / "field.csv")
    _write_level_curves(out, grid, v, np.arctan2(u2, u1))
    return 0


def run_annulus(cfg: RunConfig) -> int:
    from . import annulus as annulus_mod
    out = _outdir(cfg)
    p = cfg.params()
    sol = annulus_mod.solve_annulus(cfg.R, cfg.L)
    regime = "boundary" if sol.wall_at_boundary else "interior"
    data = {
        "rho": sol.rho, "a": sol.a, "energy": sol.energy.total,
        "regime": regime, "R": cfg.R, "L": cfg.L,
        "small_L_bound": annulus_mod.small_L_interior_bound(cfg.R),
        "nbc_residual": sol.nbc_residual, "jump_residual": sol.jump_residual,
    }
    (out / "annulus.json").write_text(json.dumps(data, indent=2, sort_keys=True))
    rs = np.linspace(1.0, cfg.R, 513)
    if sol.wall_at_boundary:
        pvals = np.zeros_like(rs)
        qvals = np.ones_like(rs)
        div = np.zeros_like(rs)
    else:
        pfun = annulus_mod.radial_p(sol.rho, sol.a, cfg.R)
        pvals = pfun(rs)
        qvals = np.where(rs <= sol.rho, -1.0, 1.0) * np.sqrt(
            np.maximum(1 - pvals ** 2, 0.0))
        c_in, c_out = annulus_mod.radial_div(sol.rho, sol.a, cfg.R)
        div = np.where(rs <= sol.rho, c_in, c_out)
    with open(out / "profiles.csv", "w") as fh:
        fh.write("r,p,q,div\n")
        for k in range(len(rs)):
            fh.write(f"{G17(rs[k])},{G17(pvals[k])},{G17(qvals[k])},{G17(div[k])}\n")
    return 0


def run_rect_1d(cfg: RunConfig) -> int:
    from . import rect1d
    from .energy import eval_E_eps_1d
    out = _outdir(cfg)
    p = cfg.params()
    M = rect1d.solve_M(cfg.L, cfg.H, cfg.a)
    E0 = rect1d.min_energy_1d(cfg.L, cfg.H, cfg.a)
    prof = rect1d.minimizer_profile(cfg.L, cfg.H, cfg.a)
    (out / "result.json").write_text(json.dumps(
        {"M": M, "energy": E0, "L": cfg.L, "H": cfg.H, "a": cfg.a},
        indent=2, sort_keys=True))
    ys = np.linspace(-cfg.H, cfg.H, 1025)
    with open(out / "profile.csv", "w") as fh:
        fh.write("y,u1,u2\n")
        u1 = prof.u1(ys)
        u2 = prof.u2(ys)
        for k in range(len(ys)):
            fh.write(f"{G17(ys[k])},{G17(u1[k])},{G17(u2[k])}\n")
    if cfg.eps_ladder:
        rows = []
        for eps in _eps_ladder(cfg.eps_ladder):
            n = max(int(40 * cfg.H / eps), 2001)
            rp = rect1d.recovery_profile_1d(eps, cfg.L, cfg.H, cfg.a, n)
            eb = eval_E_eps_1d(rp, p.with_(eps=eps))
            rows.append((eps, eb.total, E0, eb.total - E0))
        with open(out / "eps_convergence.csv", "w") as fh:
            fh.write("eps,E_eps,E0,gap\n")
            for r in rows:
                fh.write(",".join(G17(v) for v in r) + "\n")
    return 0


def run_crosstie(cfg: RunConfig) -> int:
    from . import crosstie as crosstie_mod
    out = _outdir(cfg)
    p = cfg.params()
    sol = crosstie_mod.build_crosstie(cfg.L, cfg.H)
    eb = crosstie_mod.crosstie_energy_breakdown(sol)
    _write_report(out, "energy.json", eb, p.with_(T=sol.T), extra={
        "T_tilde": sol.T_tilde, "T": sol.T, "alpha": sol.alpha,
        "t1_star": sol.t1_star, "energy_per_length": eb.total / (2 * sol.T),
        "tangency_mismatch": sol.tangency_mismatch,
        "wall_residual": sol.wall_balance,
    })
    grid = make_grid(RECTANGLE, (0.0, 2 * sol.T, -cfg.H, cfg.H),
                     cfg.nx, cfg.ny)
    X, Y = grid.nodes_xy()
    u1, u2, v = crosstie_mod.crosstie_field_sample(sol, X, Y)
    field_to_csv(Field2D(grid, np.stack([u1, u2], axis=-1)), out / "field.csv")
    _write_level_curves(out, grid, v, np.arctan2(u2, u1))
    return 0


def run_crosstie_sweep(cfg: RunConfig) -> int:
    from . import crosstie as crosstie_mod
    out = _outdir(cfg)
    rows = []
    L0, L1 = crosstie_mod.find_crossing(H=cfg.H, l_lo=cfg.lmin, l_hi=cfg.lmax,
                                        step=cfg.step, samples=rows)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("L_over_H,E_crosstie,E_1d,gap\n")
        for r in rows:
            fh.write(",".join(G17(v) for v in r) + "\n")
    (out / "crossing.json").write_text(json.dumps(
        {"L0": L0, "L1": L1, "step": cfg.step}, indent=2, sort_keys=True))
    return 0


def run_gradflow(cfg: RunConfig) -> int:
    """Flow to equilibrium or to max_time.  Exits 0 either way: the verdict
    is flow.json's "converged" (with "stop_reason", and "residual", the
    final ||rhs||_inf, or null where the flow did not compute it)."""
    from . import gradflow as gf
    out = _outdir(cfg)
    p = cfg.params()
    if cfg.domain == "rect":
        from .rect1d import solve_Ttilde
        T = cfg.T if cfg.T > 0 else cfg.H * solve_Ttilde(cfg.L / cfg.H)
        grid = make_grid(RECTANGLE, (0.0, 2 * T, -cfg.H, cfg.H),
                         cfg.nx, cfg.ny)
        bc = gf.rect_bc(cfg.a)
        if cfg.init == "construction":
            from . import crosstie as crosstie_mod
            sol = crosstie_mod.build_crosstie(cfg.L, cfg.H)
            X, Y = grid.nodes_xy()
            u1, u2, _ = crosstie_mod.crosstie_field_sample(sol, X, Y)
            init = Field2D(grid, np.stack([u1, u2], axis=-1))
        else:
            init = gf.random_unit_field(grid, bc, seed=cfg.seed)
    elif cfg.domain == "disc":
        from . import disc as disc_mod
        grid = make_grid(POLAR, (disc_inner_cutoff(cfg.R), cfg.R), cfg.nx, cfg.ny)
        bc = gf.disc_bc(cfg.bc or "degminusone", cfg.R)
        if cfg.init == "construction":
            sol = disc_mod.build_deg_minus_one(cfg.R, cfg.L)
            X, Y = grid.nodes_xy()
            rcl = np.hypot(X, Y)
            scale = np.minimum(1.0, cfg.R * (1 - 1e-12) / rcl)
            u1, u2, _ = disc_mod.deg_minus_one_sample(sol, X * scale, Y * scale)
            init = Field2D(grid, np.stack([u1, u2], axis=-1))
        else:
            init = gf.random_unit_field(grid, bc, seed=cfg.seed)
    else:
        grid = make_grid(POLAR, (1.0, cfg.R), cfg.nx, cfg.ny)
        bc = gf.annulus_bc()
        init = gf.random_unit_field(grid, bc, seed=cfg.seed)

    solver = gf.FlowSolver(grid, p, bc, dt=cfg.dt if cfg.dt > 0 else None)
    state = solver.run_to_equilibrium(init, tol=cfg.tol, max_time=cfg.max_time)
    field_to_csv(state.field, out / "field.csv")
    with open(out / "energy_trace.csv", "w") as fh:
        fh.write("t,total,grad,potential,bulk_div\n")
        for (t, eb) in state.energy_trace:
            fh.write(f"{G17(t)},{G17(eb.total)},{G17(eb.grad_term)},"
                     f"{G17(eb.potential_term)},{G17(eb.bulk_div)}\n")
    _write_level_curves(out, grid, gf.divergence_field(state.field))
    (out / "flow.json").write_text(json.dumps({
        "converged": state.converged, "stop_reason": state.stop_reason,
        "residual": state.residual, "time": state.time, "dt": state.dt,
        "final_energy": state.energy_trace[-1][1].total,
    }, indent=2, sort_keys=True))
    return 0


def run_energy_eval(cfg: RunConfig) -> int:
    from .energy import eval_E_eps
    out = _outdir(cfg)
    p = cfg.params()
    if cfg.domain == "rect":
        grid = make_grid(RECTANGLE, (0.0, 2 * cfg.T, -cfg.H, cfg.H),
                         cfg.nx, cfg.ny)
    elif cfg.domain == "disc":
        grid = make_grid(POLAR, (disc_inner_cutoff(cfg.R), cfg.R), cfg.nx, cfg.ny)
    else:
        grid = make_grid(POLAR, (1.0, cfg.R), cfg.nx, cfg.ny)
    f = field_from_csv(grid, cfg.field_csv)
    eb = eval_E_eps(f, p)
    _write_report(out, "energy.json", eb, p)
    return 0


_RUNNERS = {
    "disc-tangential": run_disc_tangential,
    "disc-hedgehog": run_disc_hedgehog,
    "disc-deg-minus-one": run_disc_deg_minus_one,
    "annulus": run_annulus,
    "rect-1d": run_rect_1d,
    "crosstie": run_crosstie,
    "crosstie-sweep": run_crosstie_sweep,
    "gradflow": run_gradflow,
    "energy-eval": run_energy_eval,
}


def dispatch(cfg: RunConfig) -> int:
    errors = validate(cfg)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg.subcommand not in _RUNNERS:
        print(f"error: unknown subcommand {cfg.subcommand!r}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nematic-walls",
        description="Critical points, wall energies, and gradient flow for "
                    "the extreme-anisotropy film energy.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, help_, flags):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=str, default="",
                        help="flat key-value JSON config (overrides flags)")
        sp.add_argument("--out", type=str, default=f"out-{name}")
        for flag, typ, default in flags:
            sp.add_argument(f"--{flag}", type=typ, default=default)
        return sp

    add("disc-tangential", "tangential data: zero-energy state",
        [("R", float, 1.0), ("nx", int, 64), ("ny", int, 128)])
    add("disc-hedgehog", "radial data: constant-divergence minimizer (2 pi L)",
        [("L", float, 1.0), ("nx", int, 64), ("ny", int, 128)])
    add("disc-deg-minus-one", "degree -1 data: three-family construction",
        [("R", float, 0.6), ("L", float, 0.5), ("nx", int, 96), ("ny", int, 192)])
    add("annulus", "radial-ansatz wall location and energy",
        [("R", float, 2.0), ("L", float, 0.5)])
    add("rect-1d", "one-dimensional minimizer and recovery ladder",
        [("L", float, 1.0), ("H", float, 1.0), ("a", float, 0.0),
         ("eps-ladder", str, "")])
    add("crosstie", "cross-tie critical point on the tangency-period cell",
        [("L", float, 1.0), ("H", float, 1.0), ("nx", int, 96), ("ny", int, 128)])
    add("crosstie-sweep", "energy-per-length sweep and 1D crossing interval",
        [("H", float, 1.0), ("lmin", float, 0.5), ("lmax", float, 3.0),
         ("step", float, 0.01)])
    add("gradflow", "eps-level gradient flow to equilibrium",
        [("domain", str, "rect"), ("bc", str, ""), ("L", float, 0.5),
         ("eps", float, 0.01), ("H", float, 0.5), ("T", float, 0.0),
         ("R", float, 0.6), ("a", float, 0.0), ("nx", int, 96),
         ("ny", int, 128), ("dt", float, 0.0), ("tol", float, 1e-3),
         ("max-time", float, 50.0), ("seed", int, 0), ("init", str, "random")])
    add("energy-eval", "evaluate the eps-level energy of a field snapshot",
        [("field-csv", str, ""), ("domain", str, "rect"), ("L", float, 1.0),
         ("eps", float, 0.01), ("H", float, 0.5), ("T", float, 0.5),
         ("R", float, 1.0), ("nx", int, 64), ("ny", int, 64)])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kw = {k.replace("-", "_"): v for k, v in vars(args).items()
          if k not in ("config",) and v is not None}
    if getattr(args, "config", ""):
        try:
            cfg = RunConfig.from_json(Path(args.config).read_text())
        except (OSError, TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cfg.subcommand = args.subcommand
    else:
        cfg = RunConfig(**kw)
    return dispatch(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
