"""Batch experiment drivers behind the command-line interface.

Each command takes a resolved :class:`~qusync.config.ExperimentConfig`,
writes CSV datasets plus standalone SVG plots into the output directory, and
returns the list of files it produced.  Before computing anything, each
command opens its first output file, so that one it cannot write is
reported at once.  ``evolve`` and ``sync-sweep`` run their xi points through
an optional process pool, which returns results in input order; ``evolve``
writes each xi's files as its trajectory completes and then drops it, and
formats each distinct column of its two tables once.
``info-sweep`` and ``discord-bench`` compute their points as stacks, with the
same arithmetic as the one-point library functions: ``info-sweep`` builds each
stack of up to ``INFO_CHUNK`` generators in one call and takes every state from
its one SVD, and ``discord-bench`` runs one compass search over all its states.  Every
command takes each swept value as one axis, ascending and with -0.0 as +0.0,
and computes, names, writes and draws its points in that order.  Output
files are byte-identical for identical config and seed.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import lindblad, phaselock, qinfo, svgplot
from .config import ConfigError, ExperimentConfig
from .lindblad import NoSteadyStateError
from .operators import (
    FloatCells,
    ValidationError,
    basis_ket,
    check_density_matrix,
    save_matrix_csv,
    write_csv,
)

__all__ = [
    "NumericalFailure",
    "cmd_evolve",
    "cmd_sync_sweep",
    "cmd_info_sweep",
    "cmd_discord_bench",
]


class NumericalFailure(RuntimeError):
    """A sweep point failed numerically; the message names the point."""


# info-sweep stacks at most this many grid points at a time, so that its
# memory is bounded on any grid; the default 1008-point grid is one stack.
INFO_CHUNK = 1024


def _map_points(fn, cfg: ExperimentConfig, values):
    """Yield ``fn(cfg, value)`` for every value, in input order."""
    if cfg.workers <= 1 or len(values) <= 1:
        yield from map(fn, repeat(cfg), values)
        return
    # imported here, so that serial runs do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(values) // (4 * cfg.workers))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        yield from pool.map(fn, repeat(cfg), values, chunksize=chunk)


def _initial_state(cfg: ExperimentConfig) -> np.ndarray:
    ket = basis_ket(cfg.initial_state)
    return np.outer(ket, ket.conj())


# File-name tags of swept values; info-sweep's per-j_xy plots take 2 decimals.
XI_TAG, GAMMA_TAG, J_TAG, J_PLOT_TAG = "xi{:+.3f}", "g{:.4g}", "j{:+.3f}", "j{:+.2f}"


def _axis(values) -> list[float]:
    """A swept value's axis: ascending floats, -0.0 as +0.0."""
    return (np.sort(np.asarray(values, dtype=float)) + 0.0).tolist()


def _refuse_shared_tags(**sweeps) -> None:
    """Refuse sweep values whose files would overwrite each other; each
    sweep is given as ``name=(tag format, axis)``."""
    for name, (fmt, values) in sweeps.items():
        tags = [fmt.format(v) for v in values]
        for i, shared in enumerate(tags):
            if shared in tags[:i]:
                raise ConfigError(f"sweep {name} values {values[tags.index(shared)]!r} and "
                                  f"{values[i]!r} would write to the same files ({shared})")


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created if it is missing."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing the output file ``path`` would raise,
    before any point is computed; no file is left behind."""
    existed = path.exists()
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        path.unlink()


def _evolve_point(cfg: ExperimentConfig, xi: float) -> lindblad.EvolutionResult:
    try:
        result = lindblad.evolve(replace(cfg.model, xi=xi), _initial_state(cfg),
                                 cfg.t_final, cfg.dt)
    except (ValidationError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"evolution failed at xi={xi:+.3f}: {exc}") from exc
    # callers read only times and observables, so the states are not sent back
    return replace(result, states=None)


def cmd_evolve(cfg: ExperimentConfig) -> list[Path]:
    """Trajectory CSV and magnetization plot for every xi in the sweep list."""
    xis = _axis(cfg.xi_values)
    _refuse_shared_tags(xi=(XI_TAG, xis))
    out = _out_dir(cfg)
    _check_writable(out / f"trajectory_{XI_TAG.format(xis[0])}.csv")
    written, t_cells = [], None
    for xi, res in zip(xis, _map_points(_evolve_point, cfg, xis)):
        # each distinct column is formatted once: t, the same grid of
        # t_final / dt steps at every xi, once, and each observable once for
        # both of the tables that hold it
        if t_cells is None:
            t_cells = FloatCells(res.times)
        cells = replace(res, times=t_cells, observables={
            name: FloatCells(values) for name, values in res.observables.items()})
        tag = XI_TAG.format(xi)
        csv_path = out / f"trajectory_{tag}.csv"
        lindblad.save_evolution_csv(csv_path, cells)
        bloch_path = out / f"bloch_{tag}.csv"
        lindblad.save_bloch_csv(bloch_path, cells)
        svg_path = out / f"trajectory_{tag}.svg"
        svgplot.line_plot(
            svg_path,
            [("<sz1>", res.times, res.observables["sz1"]),
             ("<sz2>", res.times, res.observables["sz2"])],
            title=f"magnetization, xi = {xi:+.2f}",
            xlabel="t", ylabel="<sz>",
        )
        written += [csv_path, bloch_path, svg_path]
        del res, cells  # free this trajectory before the next one is computed
    return written


def _sync_point(cfg: ExperimentConfig, xi: float) -> tuple[float, float]:
    res = _evolve_point(cfg, xi)
    try:
        s1 = phaselock.TimeSeries(res.times, res.observables["sz1"])
        s2 = phaselock.TimeSeries(res.times, res.observables["sz2"])
        metrics = phaselock.sync_metrics(s1, s2, cfg.window_fraction)
    except ValidationError as exc:
        raise NumericalFailure(f"phase analysis failed at xi={xi:+.3f}: {exc}") from exc
    return metrics.delta_phi, metrics.plv


def cmd_sync_sweep(cfg: ExperimentConfig) -> list[Path]:
    """Phase shift and phase-locking value versus bath correlation."""
    out = _out_dir(cfg)
    csv_path = out / "sync_sweep.csv"
    _check_writable(csv_path)
    xis = _axis(cfg.xi_values)
    delta_phi, plv = np.array(list(_map_points(_sync_point, cfg, xis))).T
    # every row holds the [model] gamma and j_xy, -0.0 as +0.0 as on an axis
    gamma, j_xy = (_axis([v] * len(xis)) for v in (cfg.model.gamma, cfg.model.j_xy))
    phaselock.save_metrics_csv(csv_path, [xis, gamma, j_xy, delta_phi, plv])
    dphi_path = out / "sync_delta_phi.svg"
    svgplot.line_plot(
        dphi_path, [("delta phi", xis, delta_phi)],
        title="asymptotic phase shift vs bath correlation",
        xlabel="xi", ylabel="delta phi (rad)",
    )
    plv_path = out / "sync_plv.svg"
    svgplot.line_plot(
        plv_path, [("PLV", xis, plv)],
        title="phase-locking value vs bath correlation",
        xlabel="xi", ylabel="PLV",
    )
    return [csv_path, dphi_path, plv_path]


def _raise_first_failure(cfg: ExperimentConfig, points) -> None:
    """Redo the points one at a time by :func:`lindblad.asymptotic_state`,
    and raise a :class:`NumericalFailure` naming the first one that fails."""
    rho0 = _initial_state(cfg)
    for xi, gamma, j_xy in points:
        params = replace(cfg.model, xi=xi, gamma=gamma, j_xy=j_xy)
        try:
            lindblad.asymptotic_state(params, rho0)
        except (NoSteadyStateError, ValidationError, np.linalg.LinAlgError) as exc:
            raise NumericalFailure(
                f"steady state failed at xi={xi:+.3f}, gamma={gamma:.4g}, "
                f"j_xy={j_xy:+.3f}: {exc}") from exc


def _info_states(cfg: ExperimentConfig, points) -> tuple[np.ndarray, np.ndarray]:
    """The state of every (xi, gamma, j_xy) point, and which are degenerate.

    ``INFO_CHUNK`` points at a time form one stack: one stacked SVD, from
    which :func:`lindblad._steady_states` takes the unique fixed points and
    the asymptotic states from the configured initial state, and one
    density-matrix check.  When a stack fails, its points are redone one at
    a time, so that the first failing point in grid order is named.
    """
    rho0 = _initial_state(cfg)
    states, degenerate = [], []
    for start in range(0, len(points), INFO_CHUNK):
        chunk = points[start:start + INFO_CHUNK]
        try:
            rho, dims = lindblad._steady_states(
                lindblad._liouvillians(cfg.model, *np.array(chunk).T), rho0)
            check_density_matrix(rho, name="rho_ss")
        except (NoSteadyStateError, ValidationError, np.linalg.LinAlgError):
            _raise_first_failure(cfg, chunk)
            raise
        states.append(rho)
        degenerate.append(dims > 1)
    return np.concatenate(states), np.concatenate(degenerate)


def cmd_info_sweep(cfg: ExperimentConfig) -> list[Path]:
    """Steady-state correlation measures over the (xi, gamma, j_xy) grid.

    Where the fixed point is degenerate, the row holds the asymptotic state
    reached from the configured initial state, and the CSV flags it.
    """
    xis, gammas, jxys = _axis(cfg.xi_values), _axis(cfg.gamma_values), _axis(cfg.jxy_values)
    if cfg.save_states:
        _refuse_shared_tags(xi=(XI_TAG, xis), gamma=(GAMMA_TAG, gammas), j_xy=(J_TAG, jxys))
    if len(gammas) > 1:
        # each j_xy gets its own plots
        _refuse_shared_tags(j_xy=(J_PLOT_TAG, jxys))
    out = _out_dir(cfg)
    csv_path = out / "info_sweep.csv"
    _check_writable(csv_path)
    points = list(product(xis, gammas, jxys))
    states, degenerate = _info_states(cfg, points)
    mi, mi_classical, dq = qinfo._informations(states, cfg.unit)

    header = ("xi", "gamma", "jxy", "mutual_info", "classical_mutual_info",
              "degree_of_quantumness", "flag")
    write_csv(csv_path, header, [*np.array(points, dtype=float).T, mi, mi_classical, dq,
                                 np.where(degenerate, "degenerate", "")])
    written = [csv_path]

    if cfg.save_states:
        for (xi, gamma, j_xy), rho in zip(points, states):
            name = f"rho_ss_{XI_TAG.format(xi)}_{GAMMA_TAG.format(gamma)}_{J_TAG.format(j_xy)}.csv"
            save_matrix_csv(out / name, rho)
            written.append(out / name)

    # both measures on the grid, indexed [xi, gamma, j_xy] in sorted order
    shape = (len(xis), len(gammas), len(jxys))
    mi, dq = mi.reshape(shape), dq.reshape(shape)
    unit_name = cfg.unit.value
    picks = sorted({0, min(range(len(xis)), key=lambda i: abs(xis[i])), len(xis) - 1})
    for k, j_xy in enumerate(jxys):
        if len(xis) > 1 and len(gammas) > 1:
            hpath = out / f"info_heatmap_{J_PLOT_TAG.format(j_xy)}.svg"
            svgplot.heatmap(hpath, xis, gammas, mi[:, :, k],
                            title=f"mutual information ({unit_name}), j_xy = {j_xy:+.2f}",
                            xlabel="xi", ylabel="gamma")
            written.append(hpath)
        if len(gammas) > 1:
            curves, bands = [], []
            for i in picks:
                curves.append((f"I, xi={xis[i]:+.2f}", gammas, mi[i, :, k], "line"))
                curves.append((f"D, xi={xis[i]:+.2f}", gammas, dq[i, :, k], "dash"))
                bands.append((gammas, dq[i, :, k], mi[i, :, k]))
            xscale = "log" if min(gammas) > 0 else "linear"
            lpath = out / f"info_lines_{J_PLOT_TAG.format(j_xy)}.svg"
            svgplot.line_plot(lpath, curves, bands=bands, xscale=xscale,
                              title=f"total vs quantum correlation, j_xy = {j_xy:+.2f}",
                              xlabel="gamma", ylabel=unit_name)
            written.append(lpath)
    return written


def cmd_discord_bench(cfg: ExperimentConfig) -> list[Path]:
    """Random-state benchmark of discord and the quantumness upper bound on it."""
    out = _out_dir(cfg)
    csv_path = out / "discord_bench.csv"
    _check_writable(csv_path)
    ranks, n = sorted(cfg.ranks), cfg.n_states
    draws = [(cfg.seed * 1_000_000 + rank * 100_000 + index, rank)
             for rank in ranks for index in range(n)]
    rho = check_density_matrix(
        np.stack([qinfo.random_density_matrix(4, rank, seed) for seed, rank in draws]))
    purity = np.trace(rho @ rho, axis1=1, axis2=2).real
    mi, discord, classical, dq, angles, _ = qinfo._discords(rho, cfg.unit)
    qinfo.save_discord_csv(csv_path, [*zip(*draws), purity, mi, discord, classical, dq,
                                      *zip(*angles)])
    written = [csv_path]

    groups = [slice(k * n, (k + 1) * n) for k in range(len(ranks))]  # one slice per rank
    if 2 in ranks:
        rank2 = groups[ranks.index(2)]
        p2 = out / "discord_rank2.svg"
        svgplot.line_plot(
            p2, [("rank 2", purity[rank2], discord[rank2], "markers")],
            title="discord vs purity, rank-2 states",
            xlabel="purity", ylabel=f"discord ({cfg.unit.value})",
        )
        written.append(p2)
    pall = out / "discord_all_ranks.svg"
    svgplot.line_plot(
        pall,
        [(f"rank {rank}", purity[group], discord[group], "markers")
         for rank, group in zip(ranks, groups)],
        title="discord vs purity, mixed ranks",
        xlabel="purity", ylabel=f"discord ({cfg.unit.value})",
    )
    written.append(pall)
    dmax = max(float(discord.max()), 1e-9)
    pq = out / "quantumness_vs_discord.svg"
    svgplot.line_plot(
        pq,
        [(f"rank {rank}", discord[group], dq[group], "markers")
         for rank, group in zip(ranks, groups)]
        + [("equality", [0.0, dmax], [0.0, dmax], "line")],
        title="quantumness upper bound vs discord",
        xlabel=f"discord ({cfg.unit.value})", ylabel=f"I - I_diag ({cfg.unit.value})",
    )
    written.append(pq)
    return written
