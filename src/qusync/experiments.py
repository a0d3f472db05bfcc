"""Batch experiment drivers behind the command-line interface.

Each command takes a resolved :class:`~qusync.config.ExperimentConfig`,
writes CSV datasets plus standalone SVG plots into the output directory, and
returns the list of files it produced.  Before computing anything, each
command opens its first output file, so that one it cannot write is
reported at once.  ``evolve`` and ``sync-sweep`` run their xi points through
an optional process pool, which returns results in input order; ``evolve``
writes each xi's files as its trajectory completes and then drops it.
``info-sweep`` and ``discord-bench`` compute their points as stacks, with
the same arithmetic as the one-point library functions: ``info-sweep``
takes one stacked SVD of up to ``INFO_CHUNK`` generators, and
``discord-bench`` runs one compass search over all its states.  The sweeps
build their points in the order their CSV lists them (sorted axis values)
and collect all rows before writing.  Output files are byte-identical for
identical config and seed.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from . import lindblad, phaselock, qinfo, svgplot
from .config import ConfigError, ExperimentConfig
from .lindblad import DegenerateSteadyStateError, NoSteadyStateError
from .operators import (
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


def _map_points(fn, items, workers: int):
    """Yield ``fn(item)`` for every item, in input order."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    # imported here, so that serial runs do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


def _initial_state(cfg: ExperimentConfig) -> np.ndarray:
    ket = basis_ket(cfg.initial_state)
    return np.outer(ket, ket.conj())


def _tag(name: str, value: float) -> str:
    """The tag of a swept value in output file names."""
    fmt = {"xi": "xi{:+.3f}", "gamma": "g{:.4g}", "j_xy": "j{:+.3f}"}[name]
    return fmt.format(float(value) + 0.0)


def _plot_tag(name: str, value: float) -> str:
    """The tag of a j_xy value in info-sweep's plot names, 2 decimals as written
    and -0.0 as +0.0, as in ``_tag``, whose arguments it takes so that
    ``_refuse_shared_tags`` can use it."""
    return f"j{float(value) + 0.0:+.2f}"


def _refuse_shared_tags(tag=_tag, **sweeps) -> None:
    """Refuse sweep values whose files would overwrite each other."""
    for name, values in sweeps.items():
        tags = [tag(name, v) for v in values]
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


def _evolve_point(args) -> tuple[float, lindblad.EvolutionResult]:
    cfg, xi = args
    try:
        result = lindblad.evolve(replace(cfg.model, xi=float(xi) + 0.0),
                                 _initial_state(cfg), cfg.t_final, cfg.dt)
    except (ValidationError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"evolution failed at xi={xi:+.3f}: {exc}") from exc
    # callers read only times and observables, so the states are not sent back
    return xi, replace(result, states=None)


def cmd_evolve(cfg: ExperimentConfig) -> list[Path]:
    """Trajectory CSV and magnetization plot for every xi in the sweep list."""
    _refuse_shared_tags(xi=cfg.xi_values)
    out = _out_dir(cfg)
    _check_writable(out / f"trajectory_{_tag('xi', cfg.xi_values[0])}.csv")
    written = []
    for xi, res in _map_points(_evolve_point, [(cfg, xi) for xi in cfg.xi_values],
                               cfg.workers):
        csv_path = out / f"trajectory_{_tag('xi', xi)}.csv"
        lindblad.save_evolution_csv(csv_path, res)
        bloch_path = out / f"bloch_{_tag('xi', xi)}.csv"
        lindblad.save_bloch_csv(bloch_path, res)
        svg_path = out / f"trajectory_{_tag('xi', xi)}.svg"
        svgplot.line_plot(
            svg_path,
            [("<sz1>", res.times, res.observables["sz1"]),
             ("<sz2>", res.times, res.observables["sz2"])],
            title=f"magnetization, xi = {xi + 0.0:+.2f}",
            xlabel="t", ylabel="<sz>",
        )
        written += [csv_path, bloch_path, svg_path]
        del res  # free this trajectory before the next one is computed
    return written


def _sync_point(args) -> tuple[float, float, float, float, float]:
    cfg, xi = args
    xi, res = _evolve_point((cfg, xi))
    s1 = phaselock.TimeSeries(res.times, res.observables["sz1"])
    s2 = phaselock.TimeSeries(res.times, res.observables["sz2"])
    try:
        metrics = phaselock.sync_metrics(s1, s2, cfg.window_fraction)
    except ValidationError as exc:
        raise NumericalFailure(f"phase analysis failed at xi={xi:+.3f}: {exc}") from exc
    return (float(xi), cfg.model.gamma, cfg.model.j_xy, metrics.delta_phi, metrics.plv)


def cmd_sync_sweep(cfg: ExperimentConfig) -> list[Path]:
    """Phase shift and phase-locking value versus bath correlation."""
    out = _out_dir(cfg)
    csv_path = out / "sync_sweep.csv"
    _check_writable(csv_path)
    rows = list(_map_points(_sync_point, [(cfg, xi) for xi in sorted(cfg.xi_values)],
                            cfg.workers))
    phaselock.save_metrics_csv(csv_path, rows)
    xis = [r[0] for r in rows]
    dphi_path = out / "sync_delta_phi.svg"
    svgplot.line_plot(
        dphi_path, [("delta phi", xis, [r[3] for r in rows])],
        title="asymptotic phase shift vs bath correlation",
        xlabel="xi", ylabel="delta phi (rad)",
    )
    plv_path = out / "sync_plv.svg"
    svgplot.line_plot(
        plv_path, [("PLV", xis, [r[4] for r in rows])],
        title="phase-locking value vs bath correlation",
        xlabel="xi", ylabel="PLV",
    )
    return [csv_path, dphi_path, plv_path]


def _info_params(cfg: ExperimentConfig, point) -> lindblad.ModelParams:
    xi, gamma, j_xy = point
    return replace(cfg.model, xi=float(xi) + 0.0, gamma=float(gamma), j_xy=float(j_xy))


def _raise_first_failure(cfg: ExperimentConfig, points) -> None:
    """Redo the points one at a time by the one-point functions, and raise a
    :class:`NumericalFailure` naming the first one that fails."""
    rho0 = _initial_state(cfg)
    for point in points:
        xi, gamma, j_xy = point
        params = _info_params(cfg, point)
        try:
            try:
                lindblad.steady_state(params)
            except DegenerateSteadyStateError:
                lindblad.asymptotic_state(params, rho0)
        except (NoSteadyStateError, ValidationError, np.linalg.LinAlgError) as exc:
            raise NumericalFailure(
                f"steady state failed at xi={xi:+.3f}, gamma={gamma:.4g}, "
                f"j_xy={j_xy:+.3f}: {exc}") from exc


def _info_states(cfg: ExperimentConfig, points) -> tuple[np.ndarray, np.ndarray]:
    """The state of every (xi, gamma, j_xy) point, and which are degenerate.

    ``INFO_CHUNK`` points at a time form one stack: one stacked SVD, one
    density-matrix check, and :func:`lindblad.asymptotic_state` for the
    degenerate points alone.  When a stack fails, its points are redone one
    at a time, so that the first failing point in grid order is named.
    """
    rho0 = _initial_state(cfg)
    states, degenerate = [], []
    for start in range(0, len(points), INFO_CHUNK):
        chunk = points[start:start + INFO_CHUNK]
        params = [_info_params(cfg, point) for point in chunk]
        try:
            rho, dims = lindblad._steady_states(
                np.stack([lindblad.build_liouvillian(p) for p in params]))
            check_density_matrix(rho[dims == 1], name="rho_ss")
            for k in np.flatnonzero(dims > 1):
                rho[k] = lindblad.asymptotic_state(params[k], rho0)
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
    if cfg.save_states:
        _refuse_shared_tags(xi=cfg.xi_values, gamma=cfg.gamma_values, j_xy=cfg.jxy_values)
    if len(cfg.gamma_values) > 1:
        # each j_xy gets its own plots
        _refuse_shared_tags(_plot_tag, j_xy=cfg.jxy_values)
    out = _out_dir(cfg)
    csv_path = out / "info_sweep.csv"
    _check_writable(csv_path)
    xis, gammas, jxys = sorted(cfg.xi_values), sorted(cfg.gamma_values), sorted(cfg.jxy_values)
    points = list(product(xis, gammas, jxys))
    states, degenerate = _info_states(cfg, points)
    mi, mi_classical = qinfo._informations(states, cfg.unit)
    dq = mi - mi_classical

    header = ("xi", "gamma", "jxy", "mutual_info", "classical_mutual_info",
              "degree_of_quantumness", "flag")
    write_csv(csv_path, header, [*np.array(points, dtype=float).T, mi, mi_classical, dq,
                                 np.where(degenerate, "degenerate", "")])
    written = [csv_path]

    if cfg.save_states:
        for (xi, gamma, j_xy), rho in zip(points, states):
            name = f"rho_ss_{_tag('xi', xi)}_{_tag('gamma', gamma)}_{_tag('j_xy', j_xy)}.csv"
            save_matrix_csv(out / name, rho)
            written.append(out / name)

    # both measures on the grid, indexed [xi, gamma, j_xy] in sorted order
    shape = (len(xis), len(gammas), len(jxys))
    mi, dq = mi.reshape(shape), dq.reshape(shape)
    unit_name = cfg.unit.value
    picks = sorted({0, min(range(len(xis)), key=lambda i: abs(xis[i])), len(xis) - 1})
    for k, j_xy in enumerate(jxys):
        if len(xis) > 1 and len(gammas) > 1:
            hpath = out / f"info_heatmap_{_plot_tag('j_xy', j_xy)}.svg"
            svgplot.heatmap(hpath, xis, gammas, mi[:, :, k],
                            title=f"mutual information ({unit_name}), j_xy = {j_xy + 0.0:+.2f}",
                            xlabel="xi", ylabel="gamma")
            written.append(hpath)
        if len(gammas) > 1:
            curves, bands = [], []
            for i in picks:
                curves.append((f"I, xi={xis[i] + 0.0:+.2f}", gammas, mi[i, :, k], "line"))
                curves.append((f"D, xi={xis[i] + 0.0:+.2f}", gammas, dq[i, :, k], "dash"))
                bands.append((gammas, dq[i, :, k], mi[i, :, k]))
            xscale = "log" if min(gammas) > 0 else "linear"
            lpath = out / f"info_lines_{_plot_tag('j_xy', j_xy)}.svg"
            svgplot.line_plot(lpath, curves, bands=bands, xscale=xscale,
                              title=f"total vs quantum correlation, j_xy = {j_xy + 0.0:+.2f}",
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
    mi, discord, classical, angles, _ = qinfo._discords(rho, cfg.unit)
    # degree of quantumness: I(A:B) minus the diagonal-truncation one
    dq = mi - qinfo._informations(rho, cfg.unit)[1]
    rows = [(seed, rank, *values, theta, phi) for (seed, rank), *values, (theta, phi)
            in zip(draws, purity, mi, discord, classical, dq, angles)]
    qinfo.save_discord_csv(csv_path, rows)
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
