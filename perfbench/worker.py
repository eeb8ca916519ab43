"""One benchmark invocation: run CLI subcommands in this process.

    python3 perfbench/worker.py SPEC.json

SPEC holds ``src`` (the package's source directory), ``argvs`` (one CLI
argument list per subcommand), ``op`` (see ``tracing.OpClock.install``),
``mode`` ("time", "trace" or "probe") and ``result`` (where to write the
outcome).  The working directory is the invocation's output directory.

"time" installs only the operation clock; "trace" adds the span wrappers;
"probe" stops the process as soon as the first operation has completed,
to sample set-up time.  The result is JSON with monotonic-clock times, the
operation start/end times, the exit codes and the peak RSS.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

from tracing import OpClock, Tracer, now


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result_path = Path(spec["result"])
    out = {"mode": spec["mode"], "codes": [], "error": None}

    def finish() -> None:
        out["t_end"] = now()
        out["op_starts"] = clock.starts
        out["op_ends"] = clock.ends
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            out["spans"] = tracer.spans
        result_path.write_text(json.dumps(out))

    def stop_probe() -> None:
        finish()
        os._exit(0)

    clock = OpClock(stop_probe if spec["mode"] == "probe" else None)
    tracer = Tracer() if spec["mode"] == "trace" else None
    try:
        sys.path.insert(0, spec["src"])
        from nematic_walls import cli, stencils
        import numpy
        import scipy
        out["versions"] = {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "stencils_backend": stencils.BACKEND}
        if tracer is not None:
            tracer.install()
        clock.install(spec["op"])
        for argv in spec["argvs"]:
            if spec["op"] == "command":
                clock.start()
            code = cli.main(argv)
            out["codes"].append(code)
            if code != 0:
                break
            if spec["op"] == "command":
                clock.end()
    except Exception:
        out["error"] = traceback.format_exc()
    finish()
    return 0 if out["error"] is None and not any(out["codes"]) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
