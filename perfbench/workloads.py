"""Workload inputs: what each benchmark workload asks qusync to compute.

A workload is one or more qusync commands; a round of it runs each of them
once, in order.  ``make_inputs`` builds one command's inputs from the seed
alone; ``config_text`` renders them as the INI file handed to the command,
with every key spelled out so that the checks never depend on the program's
defaults.
"""

from __future__ import annotations

import random

import numpy as np

# qusync subcommand behind each command name, as the experiments function.
COMMANDS = {
    "evolve": "cmd_evolve",
    "sync_sweep": "cmd_sync_sweep",
    "info_sweep": "cmd_info_sweep",
    "discord_bench": "cmd_discord_bench",
}

# The commands of each workload.  Every run must last long enough to average
# over the minute-long speed swings of a shared host, and the total time of
# all runs is capped, so the three analysis commands share one workload
# instead of taking a quarter of the runs each.  ``evolve`` stays alone: its
# time goes to output, which the others barely touch.
WORKLOADS = {
    "evolve": ["evolve"],
    "sweeps": ["sync_sweep", "info_sweep", "discord_bench"],
}

# xi points per evolve round.  One xi costs about 0.8 s, mostly output, so
# five keep a round near 4 s and let many rounds, whose median is reported,
# fit in one run.
EVOLVE_XI = 5

# The reference scenario of the README.
MODEL = {"delta": 1.0, "tau": 1.0, "j_xy": 0.25, "gamma": 0.05, "channel": "raise"}


def default_xi() -> list[float]:
    return [float(x) for x in np.linspace(-1.0, 1.0, 21)]


def jittered_xi(rng: random.Random, n: int) -> list[float]:
    """n evenly spaced xi in [-1, 1], the interior points each moved by at
    most 0.4 of a grid step, so the endpoints stay and the order holds."""
    step = 2.0 / (n - 1)
    return ([-1.0] + [round(-1.0 + k * step + rng.uniform(-0.4, 0.4) * step, 4) + 0.0
                      for k in range(1, n - 1)] + [1.0])


def make_inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one command for one seed; ``tiny`` shrinks them for the
    self-test."""
    rng = random.Random(seed)
    inp = {"model": dict(MODEL), "initial_state": "10", "t_final": 200.0, "dt": 0.01,
           "t_relax": 4000.0, "window_fraction": 0.25, "xi": default_xi(),
           "gamma": [float(g) for g in np.logspace(-2.0, 0.0, 16)],
           "j_xy": [-1.0, 0.0, 1.0], "n_states": 30, "ranks": [2, 3, 4],
           "save_states": False, "seed": seed}
    if name in ("evolve", "sync_sweep"):
        inp["xi"] = jittered_xi(rng, 4 if tiny else EVOLVE_XI if name == "evolve" else 21)
        if tiny:
            inp["t_final"] = 2.0 if name == "evolve" else 40.0
    elif name == "info_sweep":
        # The default grid: it holds the 48 degenerate points at xi = +1
        # whose long-time fallback the checks count as failures, so it does
        # not move with the seed.
        inp["save_states"] = True
        if tiny:
            inp.update(xi=[-1.0, 0.0, 1.0], gamma=[0.01, 0.1, 1.0], j_xy=[-1.0, 0.0])
    elif name == "discord_bench":
        if tiny:
            inp["n_states"] = 2
    else:
        raise KeyError(name)
    return inp


def config_text(name: str, inp: dict) -> str:
    """The INI config for one command.  The seed appears only where the
    command uses it, so a seed-independent command keeps one config."""

    def floats(values) -> str:
        return ", ".join(repr(float(v)) for v in values)

    m = inp["model"]
    lines = [
        "[model]",
        *(f"{k} = {m[k]!r}" for k in ("delta", "tau", "j_xy", "gamma")),
        f"channel = {m['channel']}",
        "[evolution]",
        f"initial_state = {inp['initial_state']}",
        f"t_final = {inp['t_final']!r}",
        f"dt = {inp['dt']!r}",
        f"t_relax = {inp['t_relax']!r}",
        "[analysis]",
        f"window_fraction = {inp['window_fraction']!r}",
        "unit = bits",
        "[sweep]",
        f"xi = {floats(inp['xi'])}",
        f"gamma = {floats(inp['gamma'])}",
        f"j_xy = {floats(inp['j_xy'])}",
        "[discord]",
        f"n_states = {inp['n_states']}",
        f"ranks = {', '.join(str(r) for r in inp['ranks'])}",
        "[output]",
        "workers = 1",
        f"save_states = {str(inp['save_states']).lower()}",
    ]
    if name == "discord_bench":
        lines.append(f"seed = {inp['seed']}")
    return "\n".join(lines) + "\n"
