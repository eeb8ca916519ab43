"""The benchmark's tracer patches attributes of the package by name: a
rename must fail here, not in every benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_patched_attribute_resolves():
    tracing = _load_tracing()
    # the traced layers, plus what OpClock.install patches
    targets = [(module, attr) for _, module, attr, _ in tracing.LAYERS]
    targets += [("gradflow", "FlowSolver.step"),
                ("crosstie", "build_crosstie"), ("rect1d", "min_energy_1d")]
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_worker_reads_resolve():
    """perfbench/worker.py records stencils.BACKEND and runs cli.main."""
    tracing = _load_tracing()
    stencils = importlib.import_module(f"{tracing.PACKAGE}.stencils")
    cli = importlib.import_module(f"{tracing.PACKAGE}.cli")
    assert isinstance(stencils.BACKEND, str) and stencils.BACKEND
    assert callable(cli.main)
