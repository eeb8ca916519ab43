"""The benchmark's tracer replaces the stencil kernels by module attribute
before a run; the flow must still call them through those attributes, or
every traced stencil layer reads 0 calls.  The worker runs in its own
process, because the tracer patches module attributes process-wide."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ("stencils.grad_op", "stencils.div_op", "stencils.grad_form",
         "stencils.div_form", "energy.eval_E_eps")


@pytest.mark.parametrize("domain", ["rect", "disc"])
def test_traced_flow_calls_every_stencil_span(tmp_path, domain):
    pytest.importorskip("scipy")  # perfbench/worker.py records its version
    result = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    argv = ["gradflow", "--domain", domain, "--nx", "8", "--ny", "8",
            "--eps", "0.05", "--max-time", "0.03", "--out", "flow"]
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"), "argvs": [argv], "op": "step",
        "mode": "trace", "result": str(result)}))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                    str(spec)], cwd=tmp_path, check=True,
                   capture_output=True)
    out = json.loads(result.read_text())
    assert out["error"] is None and out["codes"] == [0]
    calls = Counter(span[2] for span in out["spans"])
    assert all(calls[name] > 0 for name in SPANS), calls
