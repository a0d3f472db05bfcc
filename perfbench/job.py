"""One benchmark job: a fresh process that runs one qusync command.

    python3 job.py SPEC.json T_SPAWN

T_SPAWN is the parent's wall-clock time just before it started this process.
SPEC names the source tree, the command, the INI config, the output
directory, whether to trace, and where to write the result.  The job
imports qusync as the CLI does, resolves the config, and, unless
``setup_only`` is set, calls the command once.  The result holds:

* ``setup_s``: from T_SPAWN to a resolved config;
* ``wall_s``: the command call, from the resolved config to all files written;
* ``peak_rss_mb``: the process's peak resident set, in 10^6 bytes;
* ``spans``: the file holding the spans, when traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, t_spawn: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import qusync.cli  # noqa: F401  -- the CLI's import set
    from qusync import config, experiments

    if not Path(qusync.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qusync imported from {qusync.cli.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    cfg = config.load_config(spec["config"])
    cfg = config.apply_overrides(cfg, out_dir=spec["out"])
    result = {"setup_s": time.time() - t_spawn}
    if not spec["setup_only"]:
        command = getattr(experiments, spec["command"])
        start = time.perf_counter()
        command(cfg)
        result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.dump(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
