"""Benchmark of qusync's four CLI commands, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qusync is imported from its ``src``.
The load is a closed loop with one client: a round runs each command of the
workload once, each in one fresh process (``job.py``) with ``workers = 1``,
and the next process starts only after the last has ended.  Rounds repeat
while the next one is expected to end within S seconds; at least one runs.

``--trace 0`` reports the end-to-end metrics, medians over the rounds, where
a round's figure sums (``wall_s``, ``output_mb``) or takes the largest
(``peak_rss_mb``) of its commands; ``setup_s`` is the median over every
process start, at least three.  ``--trace 1`` alternates an untraced and a
traced round and reports the per-layer metrics of the traced ones.  Either
way the outputs of the last round are checked against ``reference`` after
the timing, and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` runs one round and stores the sha256 of every CSV it
wrote in ``digests.json``; later runs report, per file, whether the digest
still matches.  ``--tiny`` shrinks the inputs for the self-test.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import tracer
import workloads
from checks import CHECKS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 3
JOB_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}

# Per-layer metrics; the unit follows from the suffix (see ``layer_unit``).
PER_LAYER = [
    "config.load_config.busy_s",
    "operators.check_density_matrix.calls",
    "operators.check_density_matrix.busy_s",
    "operators.save_matrix_csv.calls",
    "operators.save_matrix_csv.busy_s",
    "lindblad.build_liouvillian.calls",
    "lindblad.build_liouvillian.busy_s",
    "lindblad.evolve.calls",
    "lindblad.evolve.busy_s",
    "lindblad.evolve.self_s",
    "lindblad.steady_state.calls",
    "lindblad.steady_state.busy_s",
    "lindblad.steady_state.p50_ms",
    "lindblad.steady_state.p99_ms",
    "lindblad.steady_state.degenerate",
    "lindblad.long_time_state.calls",
    "lindblad.long_time_state.busy_s",
    "lindblad.save_evolution_csv.busy_s",
    "lindblad.save_bloch_csv.busy_s",
    "lindblad.csv.bytes",
    "phaselock.sync_metrics.calls",
    "phaselock.sync_metrics.busy_s",
    "phaselock.save_metrics_csv.busy_s",
    "qinfo.discord_min.calls",
    "qinfo.discord_min.busy_s",
    "qinfo.discord_min.p50_ms",
    "qinfo.discord_min.p99_ms",
    "qinfo.discord_min.objective_evals",
    "qinfo.mutual_information.calls",
    "qinfo.mutual_information.busy_s",
    "qinfo.classical_mutual_information.calls",
    "qinfo.classical_mutual_information.busy_s",
    "qinfo.degree_of_quantumness.calls",
    "qinfo.degree_of_quantumness.busy_s",
    "qinfo.random_density_matrix.busy_s",
    "qinfo.save_discord_csv.busy_s",
    "svgplot.line_plot.calls",
    "svgplot.line_plot.busy_s",
    "svgplot.line_plot.bytes",
    "svgplot.heatmap.busy_s",
    "experiments.cmd.self_s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count", "degenerate": "count", "bytes": "bytes", "p50_ms": "ms",
            "p99_ms": "ms", "objective_evals": "evals/call"}.get(suffix, "s")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Starts the jobs of one command and collects what they measured."""

    def __init__(self, command: str, seed: int, tiny: bool, run_id: str):
        self.name = command
        self.inputs = workloads.make_inputs(command, seed, tiny)
        self.config_text = workloads.config_text(command, self.inputs)
        self.work = WORK / command
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.config = self.work / "config.ini"
        self.config.write_text(self.config_text, encoding="utf-8")
        self.command = workloads.COMMANDS[command]
        self.run_id = run_id
        self.jobs = 0

    def job(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.jobs += 1
        result = self.work / f"job{self.jobs}.json"
        spans = self.work / f"spans{self.jobs}.json"
        spec = {"src": str(SRC), "command": self.command, "config": str(self.config),
                "out": str(self.out), "trace": trace, "setup_only": setup_only,
                "run_id": self.run_id, "spans": str(spans), "result": str(result)}
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if not setup_only:
            shutil.rmtree(self.out, ignore_errors=True)
        t_spawn = time.time()
        proc = subprocess.run([sys.executable, str(BENCH / "job.py"), str(spec_path),
                               repr(t_spawn)], cwd=ROOT, timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"job exited with code {proc.returncode}")
        got = json.loads(result.read_text(encoding="utf-8"))
        if not setup_only:
            files = sorted(p for p in self.out.rglob("*") if p.is_file())
            got["output_bytes"] = sum(p.stat().st_size for p in files)
            got["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in files if p.suffix == ".csv"}
        if trace:
            got["spans"] = json.loads(spans.read_text(encoding="utf-8"))["spans"]
        return got


def measure(runners: list[Runner], seconds: float, trace: bool) -> list[dict]:
    """Rounds of the closed loop.  A round holds one untraced job per
    command and, when tracing, then one traced job per command."""
    rounds = []
    start = time.perf_counter()
    while True:
        r = {"plain": [runner.job() for runner in runners]}
        if trace:
            r["traced"] = [runner.job(trace=True) for runner in runners]
        rounds.append(r)
        log(f"round {len(rounds)}: wall_s " + ", ".join(
            f"{sum(j['wall_s'] for j in jobs):.3f}" for jobs in r.values()))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def layers(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round: the spans of its jobs, with
    each job's parent indices moved past the spans before it."""
    spans = []
    for job in jobs:
        offset = len(spans)
        spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset)
                  for s in job["spans"]]
    return tracer.summarize(spans)


def config_key(config_text: str) -> str:
    """Digests are recorded per workload and per config, so a workload whose
    inputs do not depend on the seed has one entry."""
    return hashlib.sha256(config_text.encode()).hexdigest()[:16]


def digest_report(command: str, config_text: str, digests: dict, work: Path) -> None:
    """Print, per CSV, whether its sha256 matches the recorded one.  This is
    information only: it shows which files a change moved."""
    recorded = {}
    if DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(command, {}).get(
            config_key(config_text), {})
    report = {name: ("unrecorded" if name not in recorded
                     else "match" if recorded[name] == sha else "differs")
              for name, sha in digests.items()}
    (work / "digest_report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    counts = {s: list(report.values()).count(s) for s in ("match", "differs", "unrecorded")}
    print(f"{command}: digests of {len(report)} CSV files: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    for name, status in sorted(report.items()):
        if status == "differs":
            print(f"  digest differs: {name}")


def record_digests(command: str, config_text: str, digests: dict) -> None:
    key = config_key(config_text)
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data.setdefault(command, {})[key] = digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {command} under {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "qusync" / "__init__.py").is_file():
        log(f"no qusync source tree at {SRC}: run from the root of a checkout")
        return 2
    compileall.compile_dir(SRC / "qusync", quiet=1)

    run_id = uuid.uuid4().hex
    runners = [Runner(c, args.seed, args.tiny, run_id) for c in workloads.WORKLOADS[args.workload]]
    if args.record_digests:
        rounds = [{"plain": [runner.job() for runner in runners]}]
    else:
        rounds = measure(runners, args.seconds, bool(args.trace))
    jobs = [j for r in rounds for js in r.values() for j in js]
    setup = [j["setup_s"] for j in jobs]
    if not args.trace:
        while len(setup) < SETUP_SAMPLES:
            setup.append(runners[0].job(setup_only=True)["setup_s"])

    correct = True
    attempted = failed = 0
    for k, runner in enumerate(runners):
        verdict = CHECKS[runner.name](runner.out, runner.inputs)
        mine = [js[k] for r in rounds for js in r.values()]
        if any(j["digests"] != mine[-1]["digests"] for j in mine):
            verdict.errors.append("CSV bytes differ between rounds of the same inputs")
        for message in verdict.errors[:20]:
            log(f"{runner.name}: check failed: {message}")
        correct = correct and not verdict.errors
        attempted += verdict.attempted * len(mine)
        failed += verdict.failed * len(mine)
        if args.record_digests:
            if verdict.errors:
                log(f"{runner.name}: outputs fail their checks; digests not recorded")
                return 1
            record_digests(runner.name, runner.config_text, mine[-1]["digests"])
        else:
            digest_report(runner.name, runner.config_text, mine[-1]["digests"], runner.work)
    if args.record_digests:
        return 0

    plain = [r["plain"] for r in rounds]
    wall = statistics.median(sum(j["wall_s"] for j in js) for js in plain)
    if args.trace:
        traced = [layers(r["traced"]) for r in rounds]
        values = {name: statistics.median(t[name] for t in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(
            sum(j["wall_s"] for j in r["traced"]) for r in rounds) - wall
        metrics = {n: {"value": values[n], "unit": layer_unit(n)} for n in PER_LAYER}
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(max(j["peak_rss_mb"] for j in js)
                                                   for js in plain),
                  "output_mb": statistics.median(sum(j["output_bytes"] for j in js)
                                                 for js in plain) / 1e6}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
