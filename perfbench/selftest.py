"""Self-test of the benchmark: every workload on tiny inputs, in about a minute.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

* every workload runs, with and without tracing, and its outputs pass;
* the result line has exactly the keys the benchmark promises, and the
  metric names and units are those that BENCHMARK.json lists;
* a deliberately corrupted CSV fails its command's check;
* the benchmark refuses, without a result, a directory with no source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
SEED = 7

# Per command: the CSV to corrupt, a data row, a column, and a change far
# above the check's tolerance yet small enough to keep the file plausible.
CORRUPTIONS = {
    "evolve": (lambda inp: f"trajectory_{checks.xi_tag(inp['xi'][1])}.csv", 100, 1, 1e-6),
    "sync_sweep": (lambda inp: "sync_sweep.csv", 1, 4, -1e-6),
    "info_sweep": (lambda inp: "info_sweep.csv", 1, 3, 1e-6),
    "discord_bench": (lambda inp: "discord_bench.csv", 1, 4, 1e-6),
}


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def corrupt(path: Path, row: int, col: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} are not {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", name, "--seed", str(SEED), "--seconds", "1",
                          "--trace", str(trace), "--tiny"], ROOT)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys {sorted(res)}")
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json "
                                f"{key}: {sorted(set(got) ^ set(want))}")
            if not (res["correct"] and isinstance(res["attempted"], int)
                    and isinstance(res["failed"], int) and res["attempted"] >= 1):
                problems.append(f"{name} trace={trace}: {res}")

        for command in workloads.WORKLOADS[name]:
            out = WORK / command / "out"
            inputs = workloads.make_inputs(command, SEED, tiny=True)
            file_of, row, col, delta = CORRUPTIONS[command]
            corrupt(out / file_of(inputs), row, col, delta)
            if not checks.CHECKS[command](out, inputs).errors:
                problems.append(f"{command}: a corrupted {file_of(inputs)} passed its check")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "evolve", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a directory without a source tree did not fail without a result")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
