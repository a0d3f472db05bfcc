"""Checks of the files each command writes, made apart from qusync.

Every check reads the command's output directory and compares it with
``reference`` (which imports no qusync code) and with properties the method
must have.  It returns a :class:`Verdict`: the operations examined (one per
sweep point or random state), the operations that show the known
degenerate-fallback fault, and every other property that does not hold.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# A saved steady state counts as a fixed point when ||L rho|| stays within
# the bound qusync applies to unique fixed points.
FIXED_POINT_TOL = 1e-10


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)


def xi_tag(xi: float) -> str:
    return f"xi{xi + 0.0:+.3f}"


def read_rows(path: Path, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return rows[1:]


def read_table(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != header:
            raise ValueError(f"{path.name}: header is not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_matrix(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([[complex(c) for c in line.split(",")] for line in fh if line.strip()])


def check_svg(v: Verdict, path: Path) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        v.errors.append(f"{path.name}: {exc}")
        return
    v.expect("<svg" in text[:200] and text.rstrip().endswith("</svg>"),
             f"{path.name}: not a complete SVG document")


def check_evolve(out: Path, inp: dict) -> Verdict:
    """Per xi: every row is a physical state as far as the written columns
    show, the Bloch file repeats the trajectory's spin components, and
    sampled rows match exp(L t) rho0 within 1e-8."""
    v = Verdict(attempted=len(inp["xi"]))
    rng = random.Random(inp["seed"])
    dt, n_steps = inp["dt"], int(round(inp["t_final"] / inp["dt"]))
    times = np.arange(n_steps + 1) * dt
    rho0 = ref.basis_state(inp["initial_state"])
    model = inp["model"]
    for xi in inp["xi"]:
        name = xi_tag(xi)
        try:
            traj = read_table(out / f"trajectory_{name}.csv", "t,sz1,sz2,sx1,sx2,purity")
            blo = read_table(out / f"bloch_{name}.csv", "t,bx1,by1,bz1,bx2,by2,bz2")
        except (OSError, ValueError) as exc:
            v.errors.append(f"{name}: {exc}")
            continue
        check_svg(v, out / f"trajectory_{name}.svg")
        if traj.shape[0] != n_steps + 1 or blo.shape[0] != n_steps + 1:
            v.errors.append(f"{name}: expected {n_steps + 1} rows")
            continue
        t, sz1, sz2, sx1, sx2, pur = traj.T
        b1, b2 = blo[:, 1:4], blo[:, 4:7]
        v.expect(np.abs(t - times).max() <= 1e-12 * times[-1] and np.array_equal(t, blo[:, 0]),
                 f"{name}: time column is not the uniform grid")
        v.expect(np.abs(np.stack([b1[:, 2] - sz1, b2[:, 2] - sz2,
                                  b1[:, 0] - sx1, b2[:, 0] - sx2])).max() <= 1e-12,
                 f"{name}: Bloch components differ from sz/sx columns")
        # Reduced states (I + b.sigma)/2 are Hermitian with unit trace by
        # construction; positivity is |b| <= 1.  The full state's purity lies
        # in [1/4, 1] and, by its Pauli expansion, is at least
        # (1 + |b1|^2 + |b2|^2)/4.
        n1, n2 = (b1 ** 2).sum(axis=1), (b2 ** 2).sum(axis=1)
        v.expect(max(n1.max(), n2.max()) <= 1 + 1e-8, f"{name}: Bloch vector outside the ball")
        v.expect(pur.min() >= 0.25 - 1e-8 and pur.max() <= 1 + 1e-8,
                 f"{name}: purity outside [1/4, 1]")
        v.expect((4 * pur - 1 - n1 - n2).min() >= -1e-8,
                 f"{name}: purity below the Bloch-vector bound")
        rows = sorted({0, n_steps} | {rng.randrange(n_steps + 1) for _ in range(6)})
        states = ref.states_at(ref.generator(model, xi, model["gamma"], model["j_xy"]),
                               rho0, times[rows])
        for k, rho in zip(rows, states):
            herm, trace, eig = ref.state_defects(rho)
            v.expect(herm <= 1e-8 and trace <= 1e-8 and eig >= -1e-8,
                     f"{name}: reference state at row {k} is not a density matrix")
        want = np.column_stack([
            ref.expectation(states, ref.on_qubit(ref.SZ, 1)),
            ref.expectation(states, ref.on_qubit(ref.SZ, 2)),
            ref.expectation(states, ref.on_qubit(ref.SX, 1)),
            ref.expectation(states, ref.on_qubit(ref.SX, 2)),
            ref.purity(states), ref.bloch(states, 1), ref.bloch(states, 2)])
        got = np.column_stack([traj[rows, 1:], blo[rows, 1:]])
        dev = np.abs(got - want).max()
        v.expect(dev <= 1e-8, f"{name}: sampled rows deviate from exp(L t) rho0 by {dev:.3e}")
    return v


def check_sync_sweep(out: Path, inp: dict) -> Verdict:
    """plv in [0, 1]; delta_phi and plv match the reference phase analysis of
    the reference trajectory at every xi within 1e-8."""
    xis = sorted(inp["xi"])
    v = Verdict(attempted=len(xis))
    model = inp["model"]
    try:
        table = read_table(out / "sync_sweep.csv", "xi,gamma,jxy,delta_phi,plv")
    except (OSError, ValueError) as exc:
        v.errors.append(str(exc))
        return v
    for svg in ("sync_delta_phi.svg", "sync_plv.svg"):
        check_svg(v, out / svg)
    if table.shape[0] != len(xis) or not np.array_equal(table[:, 0], xis):
        v.errors.append("sync_sweep.csv: xi column is not the input grid")
        return v
    v.expect(np.all(table[:, 1] == model["gamma"]) and np.all(table[:, 2] == model["j_xy"]),
             "sync_sweep.csv: gamma/jxy columns are not the model's")
    n_steps = int(round(inp["t_final"] / inp["dt"]))
    rho0 = ref.basis_state(inp["initial_state"])
    for xi, _, _, dphi, plv in table:
        v.expect(0.0 <= plv <= 1.0 + 1e-12, f"xi={xi}: plv {plv} outside [0, 1]")
        states = ref.trajectory(ref.generator(model, xi, model["gamma"], model["j_xy"]),
                                rho0, inp["dt"], n_steps)
        want_dphi, want_plv = ref.phase_lock(
            ref.expectation(states, ref.on_qubit(ref.SZ, 1)),
            ref.expectation(states, ref.on_qubit(ref.SZ, 2)), inp["window_fraction"])
        ddphi = abs(math.remainder(dphi - want_dphi, 2 * math.pi))
        v.expect(ddphi <= 1e-8 and abs(plv - want_plv) <= 1e-8,
                 f"xi={xi}: (delta_phi, plv) = ({dphi}, {plv}), reference "
                 f"({want_dphi}, {want_plv})")
    return v


def check_info_sweep(out: Path, inp: dict) -> Verdict:
    """Per grid point: the flag marks exactly the points whose reference null
    space is not one-dimensional; the saved state is a density matrix, equals
    the reference null vector where that is unique, and is a fixed point of
    the reference generator; the correlation columns match the reference.

    A flagged point whose fallback state is not a fixed point is the known
    fault of the long-time fallback and counts as a failed operation."""
    model = inp["model"]
    grid = sorted((x, g, j) for x in inp["xi"] for g in inp["gamma"] for j in inp["j_xy"])
    v = Verdict(attempted=len(grid))
    try:
        rows = read_rows(out / "info_sweep.csv", "xi,gamma,jxy,mutual_info,"
                         "classical_mutual_info,degree_of_quantumness,flag")
    except (OSError, ValueError) as exc:
        v.errors.append(str(exc))
        return v
    if [tuple(float(c) for c in r[:3]) for r in rows] != grid:
        v.errors.append("info_sweep.csv: axis columns are not the input grid")
        return v
    for j in inp["j_xy"]:
        if len(inp["xi"]) > 1 and len(inp["gamma"]) > 1:
            check_svg(v, out / f"info_heatmap_j{j:+.2f}.svg")
        if len(inp["gamma"]) > 1:
            check_svg(v, out / f"info_lines_j{j:+.2f}.svg")
    for (xi, g, j), row in zip(grid, rows):
        name = f"(xi={xi:+.3f}, gamma={g:.4g}, j_xy={j:+.3f})"
        mi, cmi, dq = (float(c) for c in row[3:6])
        flag = row[6]
        mat = ref.generator(model, xi, g, j)
        dim, rho_null = ref.null_space(mat)
        want_flag = "" if dim == 1 else ("degenerate" if dim > 1 else "no-steady-state")
        v.expect(flag == want_flag, f"{name}: flag {flag!r}, null-space dimension {dim}")
        try:
            rho = read_matrix(out / f"rho_ss_{xi_tag(xi)}_g{g:.4g}_j{j:+.3f}.csv")
        except (OSError, ValueError) as exc:
            v.errors.append(f"{name}: {exc}")
            continue
        if rho.shape != (4, 4):
            v.errors.append(f"{name}: saved state has shape {rho.shape}")
            continue
        herm, trace, eig = ref.state_defects(rho)
        v.expect(herm <= 1e-9 and trace <= 1e-9 and eig >= -1e-8,
                 f"{name}: saved state is not a density matrix")
        if dim == 1:
            dev = np.abs(rho - rho_null).max()
            v.expect(dev <= 1e-8, f"{name}: saved state is {dev:.3e} from the null vector")
        res = ref.residual(mat, rho)
        if res > FIXED_POINT_TOL:
            if flag:
                v.failed += 1
            else:
                v.errors.append(f"{name}: ||L rho|| = {res:.3e} on an unflagged point")
        want_mi = ref.mutual_information(rho)
        want_cmi = ref.classical_mutual_information(rho)
        v.expect(abs(mi - want_mi) <= 1e-9 and abs(cmi - want_cmi) <= 1e-9,
                 f"{name}: (I, I_diag) = ({mi}, {cmi}), reference ({want_mi}, {want_cmi})")
        v.expect(-1e-12 <= cmi <= mi + 1e-12, f"{name}: I_diag {cmi} outside [0, I={mi}]")
        v.expect(abs(dq - (mi - cmi)) <= 1e-12, f"{name}: quantumness is not I - I_diag")
    return v


def check_discord_bench(out: Path, inp: dict) -> Verdict:
    """Per state: the state regenerated from its seed has the written purity,
    mutual information and quantumness; 0 <= D <= I; J + D = I; the
    conditional entropy at the reported angles reproduces J; and the first
    state of every rank matches the dense-grid discord within 1e-3."""
    v = Verdict(attempted=len(inp["ranks"]) * inp["n_states"])
    try:
        rows = read_rows(out / "discord_bench.csv", "seed,rank,purity,mutual_info,discord,"
                         "classical_corr,degree_of_quantumness,theta_opt,phi_opt")
    except (OSError, ValueError) as exc:
        v.errors.append(str(exc))
        return v
    if 2 in inp["ranks"]:
        check_svg(v, out / "discord_rank2.svg")
    for svg in ("discord_all_ranks.svg", "quantumness_vs_discord.svg"):
        check_svg(v, out / svg)
    keys = [(int(r[1]), int(r[0])) for r in rows]
    ranks = [k[0] for k in keys]
    if (len(rows) != v.attempted or keys != sorted(keys) or len(set(keys)) != len(keys)
            or any(ranks.count(r) != inp["n_states"] for r in inp["ranks"])):
        v.errors.append("discord_bench.csv: rows are not n_states distinct seeds per rank")
        return v
    first_of_rank = {}
    for (rank, seed), row in zip(keys, rows):
        pur, mi, d, j, dq, theta, phi = (float(c) for c in row[2:])
        name = f"(rank={rank}, seed={seed})"
        rho = ref.random_state(rank, seed)
        first_of_rank.setdefault(rank, (name, rho, d))
        want_mi = ref.mutual_information(rho)
        v.expect(abs(pur - np.trace(rho @ rho).real) <= 1e-12,
                 f"{name}: purity does not match the regenerated state")
        v.expect(abs(mi - want_mi) <= 1e-9, f"{name}: I = {mi}, reference {want_mi}")
        v.expect(abs(dq - (want_mi - ref.classical_mutual_information(rho))) <= 1e-9,
                 f"{name}: quantumness does not match the reference")
        v.expect(-1e-12 <= d <= mi + 1e-12, f"{name}: D = {d} outside [0, I={mi}]")
        v.expect(abs(j + d - mi) <= 1e-9 or (d == 0.0 and j >= mi - 1e-9),
                 f"{name}: J + D = {j + d} differs from I = {mi}")
        if not (0.0 <= theta <= math.pi and 0.0 <= phi < 2 * math.pi):
            v.errors.append(f"{name}: angles ({theta}, {phi}) out of range")
            continue
        want_j = ref.entropy(ref.reduced(rho, 1)) - ref.conditional_entropy(rho, theta, phi)
        v.expect(abs(j - want_j) <= 1e-9,
                 f"{name}: J = {j}, conditional entropy at the angles gives {want_j}")
    for name, rho, d in first_of_rank.values():
        dense = ref.dense_grid_discord(rho)
        v.expect(abs(d - dense) <= 1e-3, f"{name}: D = {d}, dense grid {dense}")
    return v


CHECKS = {
    "evolve": check_evolve,
    "sync_sweep": check_sync_sweep,
    "info_sweep": check_info_sweep,
    "discord_bench": check_discord_bench,
}
