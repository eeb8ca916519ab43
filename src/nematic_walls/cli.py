"""Command-line entry point.

Every construction, evaluator, solver, and sweep is a subcommand writing
machine-readable artifacts (CSV/JSON, 17 significant digits) plus the
resolved run configuration, so identical configurations (including the
seed) reproduce bit-identical outputs.

`validate` asks the constructors a run calls (`RunConfig.params`, `_grid`,
`_bc`) instead of restating their rules, so what they reject exits 2
before the run writes anything, not 1 from inside it.

The four constructions share one runner: each states only its build, its
E0 rule and its own energy.json keys (`_CONSTRUCTIONS`), and a flow from
a construction starts from the same builders.  Each runner (and each
builder) imports the modules it uses itself, before it builds any large
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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .contours import contours_to_csv, level_curves
from .core import (POLAR, RECTANGLE, Field2D, Grid2D, Params,
                   disc_inner_cutoff, field_from_csv, field_to_csv, make_grid,
                   table_to_csv)

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
    def from_json(cls, text: str, **base) -> "RunConfig":
        """Inverse of `to_json`; keys the text lacks take their values from
        base (in `main`, the subcommand and its flags).  ValueError names
        the first unknown key, the first value of the wrong type (a float
        field takes an int too, an int field takes neither a float nor a
        bool), or a subcommand other than base's."""
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
        sub = base.get("subcommand")
        if sub is not None and data.get("subcommand", sub) != sub:
            raise ValueError(f"config key 'subcommand' is "
                             f"{data['subcommand']!r} but the command is "
                             f"{sub!r}")
        return cls(**{**base, **data})

    def params(self) -> Params:
        return Params(L=self.L, eps=self.eps, H=self.H, T=self.T if self.T > 0 else 1.0,
                      R=self.R, a=self.a)


def _eps_ladder(text: str) -> list:
    """The eps values of a comma-separated ladder; ValueError unless each
    is a finite eps > 0."""
    ladder = [float(e) for e in text.split(",")]
    if not all(0.0 < e < math.inf for e in ladder):
        raise ValueError(f"eps-ladder {text!r}: need finite eps > 0")
    return ladder


def validate(cfg: RunConfig) -> list:
    """The reasons cfg cannot run, one line each; [] when it can.

    First the rules no constructor of the run knows: finite floats,
    field-csv, eps-ladder, the sweep's window, the flow's dt, tol,
    max-time and init, the annulus' R > 1 and a rectangle energy-eval's
    T > 0.  Once those pass, the ValueError of the run's own constructors,
    each once the ones before it pass: `cfg.params()`, `_grid(cfg)`,
    `_bc(cfg)`, then the cell a rectangle flow from the cross-tie needs,
    and the cross-tie cells at a sweep's lmin and lmax (`_crosstie_T`).
    Runs no solver beyond the scalar T~(L/H)."""
    errors = [f"{f.name.replace('_', '-')} must be finite" for f in fields(cfg)
              if f.type == "float" and not math.isfinite(getattr(cfg, f.name))]
    sub = cfg.subcommand
    domain = cfg.domain if sub in ("gradflow", "energy-eval") else ""
    if sub == "energy-eval" and domain == "rect" and cfg.T <= 0:
        errors.append("T > 0 violated")
    if sub == "energy-eval" and not cfg.field_csv:
        errors.append("field-csv is required")
    if (sub == "annulus" or domain == "annulus") and cfg.R <= 1.0:
        errors.append("annulus requires R > 1")
    if sub == "gradflow":
        if cfg.dt < 0:
            errors.append("dt >= 0 violated")
        if cfg.tol <= 0:
            errors.append("tol > 0 violated")
        if cfg.max_time <= 0:
            errors.append("max-time > 0 violated")
        if cfg.init not in ("random", "construction"):
            errors.append("init must be random|construction")
        elif cfg.init == "construction" and domain == "annulus":
            errors.append("init construction needs domain rect|disc")
        elif cfg.init == "construction" and domain == "disc" \
                and cfg.bc not in ("", "degminusone"):
            # the disc's construction is the degree -1 field
            errors.append("init construction on the disc needs bc "
                          "degminusone")
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
    if errors:
        return errors
    try:
        cfg.params()
        _grid(cfg)
        if sub == "crosstie-sweep":
            for lh in (cfg.lmin, cfg.lmax):
                _crosstie_T(replace(cfg, L=lh * cfg.H))
        if sub == "gradflow":
            _bc(cfg)
            if cfg.init == "construction" and domain == "rect" and cfg.T > 0:
                # the cross-tie's period is 2 H T~(L/H): another cell
                # would cut it with a jump at the seam
                T = _crosstie_T(cfg)
                if abs(cfg.T - T) > 1e-12 * T:
                    return [f"init construction needs T = H T~(L/H) = "
                            f"{T!r}, got T = {cfg.T!r}"]
    except ValueError as exc:
        return str(exc).splitlines()
    return []


def _crosstie_T(cfg: RunConfig) -> float:
    """The cross-tie's H T~(L/H), by `crosstie.build_crosstie`'s operations;
    ValueError where `rect1d.cell_ttilde` rejects cfg's L and H."""
    from .rect1d import cell_ttilde
    return cfg.H * cell_ttilde(cfg.L, cfg.H)


def _grid(cfg: RunConfig) -> Optional[Grid2D]:
    """The one grid of a subcommand that samples a field; None for the
    others.  The rectangle is the cell (0, 2T) x (-H, H), with the
    cross-tie's own T for `crosstie` and for a flow's T = 0; disc grids
    run from the inner cutoff to R (the hedgehog's R is 1); the annulus is
    1 < r < R.  ValueError names an unknown domain, a T < 0, or what
    `solve_Ttilde` and `Grid2D` reject."""
    sub, R = cfg.subcommand, cfg.R
    flow = sub in ("gradflow", "energy-eval")
    if flow and cfg.domain not in ("rect", "disc", "annulus"):
        raise ValueError("domain must be rect|disc|annulus")
    if sub == "crosstie" or flow and cfg.domain == "rect":
        if flow and cfg.T < 0:
            raise ValueError("T >= 0 violated")
        T = cfg.T if flow and cfg.T > 0 else _crosstie_T(cfg)
        return make_grid(RECTANGLE, (0.0, 2 * T, -cfg.H, cfg.H),
                         cfg.nx, cfg.ny)
    if flow and cfg.domain == "annulus":
        extents = (1.0, R)
    elif sub == "disc-hedgehog":
        extents = (disc_inner_cutoff(1.0), 1.0)
    elif flow or sub in ("disc-tangential", "disc-deg-minus-one"):
        extents = (disc_inner_cutoff(R), R)
    else:
        return None
    return make_grid(POLAR, extents, cfg.nx, cfg.ny)


def _bc(cfg: RunConfig):
    """The flow's Dirichlet data: `rect_bc(a)` on the rectangle,
    `disc_bc(bc)` on the disc (the degree -1 data where bc is empty), and
    `annulus_bc()` on the annulus."""
    from . import gradflow as gf
    if cfg.domain != "disc" and cfg.bc:
        raise ValueError("bc applies to the disc domain only")
    if cfg.domain == "rect":
        return gf.rect_bc(cfg.a)
    if cfg.domain == "disc":
        return gf.disc_bc(cfg.bc or "degminusone")
    return gf.annulus_bc()


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    return out


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=float))


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


def _sampled_field(grid: Grid2D, sample, out: Optional[Path] = None,
                   levels: bool = False) -> Field2D:
    """The field (u1, u2) of a construction's sample(x, y) -> (u1, u2, v)
    at the nodes of grid.  With out, it is written to out/field.csv and,
    with levels, the level curves of v and of the director angle beside
    it.  The node arrays stay referenced until then: releasing them before
    the writes raised the peak RSS of a construct run."""
    X, Y = grid.nodes_xy()
    u1, u2, v = sample(X, Y)
    field = Field2D(grid, np.stack([u1, u2], axis=-1))
    del u1, u2
    if out is not None:
        field_to_csv(field, out / "field.csv")
        if levels:
            u = field.values
            _write_level_curves(out, grid, v, np.arctan2(u[..., 1], u[..., 0]))
    return field


# --- constructions ---------------------------------------------------------------
#
# Each builds its critical point from cfg and returns the field, the Params
# its E0 is evaluated with, its E0 rule (`eval_E0_piecewise` keywords), and
# its own energy.json keys as a function of the E0 breakdown.

def _tangential(cfg: RunConfig):
    from .disc import tangential_solution
    return tangential_solution(cfg.R), cfg.params(), {}, lambda eb: {}


def _hedgehog(cfg: RunConfig):
    from .disc import hedgehog_energy, hedgehog_solution
    closed = hedgehog_energy(cfg.L)
    return (hedgehog_solution(+1), cfg.params(), {"s_panels": 32, "order": 16},
            lambda eb: {"closed_form": closed,
                        "quadrature_error": abs(eb.total - closed)})


def _deg_minus_one(cfg: RunConfig):
    from . import disc
    sol = disc.build_deg_minus_one(cfg.R, cfg.L)
    return (sol.field, cfg.params(), {"s_panels": 48},
            lambda eb: {"natural_bc_residual": sol.wall_balance, "s0": sol.s0})


def _crosstie(cfg: RunConfig):
    from . import crosstie
    sol = crosstie.build_crosstie(cfg.L, cfg.H)
    return sol.field, cfg.params().with_(T=sol.T), {}, lambda eb: {
        "T_tilde": sol.T_tilde, "T": sol.T, "alpha": sol.alpha,
        "t1_star": sol.t1_star, "energy_per_length": eb.total / (2 * sol.T),
        "tangency_mismatch": sol.tangency_mismatch,
        "wall_residual": sol.wall_balance,
    }


# subcommand: (builder, whether it writes level curves)
_CONSTRUCTIONS = {
    "disc-tangential": (_tangential, False),
    "disc-hedgehog": (_hedgehog, False),
    "disc-deg-minus-one": (_deg_minus_one, True),
    "crosstie": (_crosstie, True),
}


# --- subcommand runners ---------------------------------------------------------

def run_construction(cfg: RunConfig) -> int:
    """energy.json (E0 by the construction's rule, with its own keys) and
    the field sampled on the run's grid, with level curves where it has
    them."""
    from .energy import eval_E0_piecewise
    out = _outdir(cfg)
    build, levels = _CONSTRUCTIONS[cfg.subcommand]
    field, p, rule, extra = build(cfg)
    eb = eval_E0_piecewise(field, p, **rule)
    _write_json(out / "energy.json", {**eb.as_dict(p), **extra(eb)})
    _sampled_field(_grid(cfg), field.sample, out, levels)
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
    _write_json(out / "annulus.json", data)
    # on the x-axis e_r = e_x and e_theta = e_y, so (u1, u2) = (p, q);
    # + 0.0 writes a zero p as 0, not as the sampler's -0
    rs = np.linspace(1.0, cfg.R, 513)
    table_to_csv(np.stack([rs, *sol.field.sample(rs, 0.0)], axis=-1) + 0.0,
                 out / "profiles.csv", "r,p,q,div")
    return 0


def run_rect_1d(cfg: RunConfig) -> int:
    from . import rect1d
    from .energy import eval_E_eps
    out = _outdir(cfg)
    p = cfg.params()
    M = rect1d.solve_M(cfg.L, cfg.H, cfg.a)
    E0 = rect1d.min_energy_1d(cfg.L, cfg.H, cfg.a)
    prof = rect1d.minimizer_profile(cfg.L, cfg.H, cfg.a)
    _write_json(out / "result.json",
                {"M": M, "energy": E0, "L": cfg.L, "H": cfg.H, "a": cfg.a})
    ys = np.linspace(-cfg.H, cfg.H, 1025)
    table_to_csv(np.stack([ys, prof.u1(ys), prof.u2(ys)], axis=-1),
                 out / "profile.csv", "y,u1,u2")
    if cfg.eps_ladder:
        rows = []
        for eps in _eps_ladder(cfg.eps_ladder):
            n = max(int(40 * cfg.H / eps), 2001)
            rp = rect1d.recovery_profile_1d(eps, cfg.L, cfg.H, cfg.a, n)
            eb = eval_E_eps(rp, p.with_(eps=eps))
            rows.append((eps, eb.total, E0, eb.total - E0))
        table_to_csv(rows, out / "eps_convergence.csv", "eps,E_eps,E0,gap")
    return 0


def run_crosstie_sweep(cfg: RunConfig) -> int:
    from . import crosstie as crosstie_mod
    out = _outdir(cfg)
    rows = []
    L0, L1 = crosstie_mod.find_crossing(H=cfg.H, l_lo=cfg.lmin, l_hi=cfg.lmax,
                                        step=cfg.step, samples=rows)
    table_to_csv(rows, out / "sweep.csv", "L_over_H,E_crosstie,E_1d,gap")
    _write_json(out / "crossing.json", {"L0": L0, "L1": L1, "step": cfg.step})
    return 0


def run_gradflow(cfg: RunConfig) -> int:
    """Flow to equilibrium or to max_time.  Exits 0 either way: the verdict
    is flow.json's "converged" (with "stop_reason", and "residual", the
    final ||rhs||_inf, or null where the flow did not compute it)."""
    from . import gradflow as gf
    from .energy import node_divergence
    out = _outdir(cfg)
    p = cfg.params()
    grid, bc = _grid(cfg), _bc(cfg)
    if cfg.init == "construction":
        # the cross-tie on the rectangle, the degree -1 field on the disc
        build = _crosstie if cfg.domain == "rect" else _deg_minus_one
        init = _sampled_field(grid, build(cfg)[0].sample)
    else:
        init = gf.random_unit_field(grid, bc, seed=cfg.seed)

    solver = gf.FlowSolver(grid, p, bc, dt=cfg.dt if cfg.dt > 0 else None)
    state = solver.run_to_equilibrium(init, tol=cfg.tol, max_time=cfg.max_time)
    del init  # free the start field before the artifacts, which set the peak
    field_to_csv(state.field, out / "field.csv")
    table_to_csv([(t, eb.total, eb.grad_term, eb.potential_term, eb.bulk_div)
                  for t, eb in state.energy_trace],
                 out / "energy_trace.csv", "t,total,grad,potential,bulk_div")
    _write_level_curves(out, grid, node_divergence(state.field))
    _write_json(out / "flow.json", {
        "converged": state.converged, "stop_reason": state.stop_reason,
        "residual": state.residual, "time": state.time, "dt": state.dt,
        "final_energy": state.energy_trace[-1][1].total,
    })
    return 0


def run_energy_eval(cfg: RunConfig) -> int:
    from .energy import eval_E_eps
    out = _outdir(cfg)
    p = cfg.params()
    eb = eval_E_eps(field_from_csv(_grid(cfg), cfg.field_csv), p)
    _write_json(out / "energy.json", eb.as_dict(p))
    return 0


_RUNNERS = {
    **{name: run_construction for name in _CONSTRUCTIONS},
    "annulus": run_annulus,
    "rect-1d": run_rect_1d,
    "crosstie-sweep": run_crosstie_sweep,
    "gradflow": run_gradflow,
    "energy-eval": run_energy_eval,
}


def dispatch(cfg: RunConfig) -> int:
    """Run cfg's subcommand: 2 on an invalid cfg (each reason on stderr),
    else the runner's code, or 1 with the exception it raised."""
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
        # the file's keys override the flags, whose defaults fill the rest
        try:
            cfg = RunConfig.from_json(Path(args.config).read_text(), **kw)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        cfg = RunConfig(**kw)
    return dispatch(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
