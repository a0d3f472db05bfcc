"""Batch experiment drivers behind the command-line interface.

Each command takes a resolved :class:`~qusync.config.ExperimentConfig`,
writes CSV datasets plus standalone SVG plots into the output directory, and
returns the list of files it produced.  Points run through an optional
process pool, which returns results in input order.  ``evolve`` writes each
xi's files as its trajectory completes and then drops it; the sweeps collect
all rows and sort them by axis values before writing.  Either way, output
files are byte-identical for identical config and seed.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from . import lindblad, phaselock, qinfo, svgplot
from .config import ConfigError, ExperimentConfig
from .lindblad import (
    DegenerateSteadyStateError,
    ModelParams,
    NoSteadyStateError,
    PropagationError,
)
from .operators import ValidationError, basis_ket, save_matrix_csv, write_csv

__all__ = [
    "NumericalFailure",
    "cmd_evolve",
    "cmd_sync_sweep",
    "cmd_info_sweep",
    "cmd_discord_bench",
]


class NumericalFailure(RuntimeError):
    """A sweep point failed numerically; the message names the point."""


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


def _model_at(cfg: ExperimentConfig, xi: float, gamma=None, j_xy=None) -> ModelParams:
    updates = {"xi": float(xi) + 0.0}
    if gamma is not None:
        updates["gamma"] = float(gamma)
    if j_xy is not None:
        updates["j_xy"] = float(j_xy)
    return replace(cfg.model, **updates)


def _tag(name: str, value: float) -> str:
    """The tag of a swept value in output file names."""
    fmt = {"xi": "xi{:+.3f}", "gamma": "g{:.4g}", "j_xy": "j{:+.3f}"}[name]
    return fmt.format(float(value) + 0.0)


def _refuse_shared_tags(**sweeps) -> None:
    """Refuse sweep values whose files would overwrite each other."""
    for name, values in sweeps.items():
        tags = [_tag(name, v) for v in values]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(f"sweep {name} values {values[tags.index(tag)]!r} and "
                                  f"{values[i]!r} would write to the same files ({tag})")


def _evolve_point(args) -> tuple[float, lindblad.EvolutionResult]:
    cfg, xi = args
    try:
        result = lindblad.evolve(_model_at(cfg, xi), _initial_state(cfg),
                                 cfg.t_final, cfg.dt)
    except (ValidationError, PropagationError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"evolution failed at xi={xi:+.3f}: {exc}") from exc
    # callers read only times and observables, so the states are not sent back
    return xi, replace(result, states=None)


def cmd_evolve(cfg: ExperimentConfig) -> list[Path]:
    """Trajectory CSV and magnetization plot for every xi in the sweep list."""
    _refuse_shared_tags(xi=cfg.xi_values)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
            title=f"magnetization, xi = {xi:+.2f}",
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
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(_map_points(_sync_point, [(cfg, xi) for xi in cfg.xi_values],
                              cfg.workers), key=lambda r: r[0])
    csv_path = out / "sync_sweep.csv"
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


def _info_point(args):
    cfg, j_xy, xi, gamma = args
    params = _model_at(cfg, xi, gamma=gamma, j_xy=j_xy)
    flag = ""
    try:
        try:
            rho_ss = lindblad.steady_state(params)
        except DegenerateSteadyStateError:
            flag = "degenerate"
            rho_ss = lindblad.asymptotic_state(params, _initial_state(cfg))
    except (NoSteadyStateError, ValidationError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(
            f"steady state failed at xi={xi:+.3f}, gamma={gamma:.4g}, "
            f"j_xy={j_xy:+.3f}: {exc}") from exc
    mi = qinfo.mutual_information(rho_ss, cfg.unit)
    mi_classical = qinfo.classical_mutual_information(rho_ss, cfg.unit)
    return {
        "xi": float(xi), "gamma": float(gamma), "jxy": float(j_xy),
        "mutual_info": mi, "classical_mutual_info": mi_classical,
        "degree_of_quantumness": mi - mi_classical, "flag": flag,
        "rho_ss": rho_ss,
    }


def cmd_info_sweep(cfg: ExperimentConfig) -> list[Path]:
    """Steady-state correlation measures over the (xi, gamma, j_xy) grid.

    Where the fixed point is degenerate, the row holds the asymptotic state
    reached from the configured initial state, and the CSV flags it.
    """
    if cfg.save_states:
        _refuse_shared_tags(xi=cfg.xi_values, gamma=cfg.gamma_values, j_xy=cfg.jxy_values)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = [(cfg, j, x, g) for j, x, g
              in product(cfg.jxy_values, cfg.xi_values, cfg.gamma_values)]
    rows = sorted(_map_points(_info_point, points, cfg.workers),
                  key=lambda r: (r["xi"], r["gamma"], r["jxy"]))

    csv_path = out / "info_sweep.csv"
    header = ("xi", "gamma", "jxy", "mutual_info", "classical_mutual_info",
              "degree_of_quantumness", "flag")
    write_csv(csv_path, header, [[r[name] for r in rows] for name in header])
    written = [csv_path]

    if cfg.save_states:
        for r in rows:
            name = (f"rho_ss_{_tag('xi', r['xi'])}_{_tag('gamma', r['gamma'])}"
                    f"_{_tag('j_xy', r['jxy'])}.csv")
            save_matrix_csv(out / name, r["rho_ss"])
            written.append(out / name)

    by_j = {}
    for r in rows:
        by_j.setdefault(r["jxy"], []).append(r)
    xi_list = sorted(set(r["xi"] for r in rows))
    gamma_list = sorted(set(r["gamma"] for r in rows))
    unit_name = cfg.unit.value
    for j_xy, group in sorted(by_j.items()):
        lookup = {(r["xi"], r["gamma"]): r for r in group}
        if len(xi_list) > 1 and len(gamma_list) > 1:
            z = [[lookup[(x, g)]["mutual_info"] for g in gamma_list] for x in xi_list]
            hpath = out / f"info_heatmap_j{j_xy:+.2f}.svg"
            svgplot.heatmap(hpath, xi_list, gamma_list, z,
                            title=f"mutual information ({unit_name}), j_xy = {j_xy:+.2f}",
                            xlabel="xi", ylabel="gamma")
            written.append(hpath)
        if len(gamma_list) > 1:
            picks = sorted({min(xi_list), min(xi_list, key=abs), max(xi_list)})
            curves, bands = [], []
            for xi in picks:
                mi = [lookup[(xi, g)]["mutual_info"] for g in gamma_list]
                dq = [lookup[(xi, g)]["degree_of_quantumness"] for g in gamma_list]
                curves.append((f"I, xi={xi:+.2f}", gamma_list, mi, "line"))
                curves.append((f"D, xi={xi:+.2f}", gamma_list, dq, "dash"))
                bands.append((gamma_list, dq, mi))
            xscale = "log" if min(gamma_list) > 0 else "linear"
            lpath = out / f"info_lines_j{j_xy:+.2f}.svg"
            svgplot.line_plot(lpath, curves, bands=bands, xscale=xscale,
                              title=f"total vs quantum correlation, j_xy = {j_xy:+.2f}",
                              xlabel="gamma", ylabel=unit_name)
            written.append(lpath)
    return written


def _discord_point(args):
    cfg, rank, index = args
    state_seed = cfg.seed * 1_000_000 + rank * 100_000 + index
    rho = qinfo.random_density_matrix(4, rank, state_seed)
    purity = float(np.trace(rho @ rho).real)
    result = qinfo.discord_min(rho, cfg.unit)
    # degree of quantumness, reusing the I(A:B) that discord_min computed
    dq = result.mutual_information - qinfo.classical_mutual_information(rho, cfg.unit)
    return (state_seed, rank, purity, result.mutual_information, result.discord,
            result.classical_correlation, dq,
            result.optimal_basis.theta, result.optimal_basis.phi)


def cmd_discord_bench(cfg: ExperimentConfig) -> list[Path]:
    """Random-state benchmark of discord and the quantumness upper bound on it."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = [(cfg, rank, i) for rank in cfg.ranks for i in range(cfg.n_states)]
    rows = sorted(_map_points(_discord_point, points, cfg.workers),
                  key=lambda r: (r[1], r[0]))
    csv_path = out / "discord_bench.csv"
    qinfo.save_discord_csv(csv_path, rows)
    written = [csv_path]

    by_rank = {}
    for r in rows:
        by_rank.setdefault(r[1], []).append(r)
    rank2 = by_rank.get(2)
    if rank2:
        p2 = out / "discord_rank2.svg"
        svgplot.line_plot(
            p2, [("rank 2", [r[2] for r in rank2], [r[4] for r in rank2], "markers")],
            title="discord vs purity, rank-2 states",
            xlabel="purity", ylabel=f"discord ({cfg.unit.value})",
        )
        written.append(p2)
    pall = out / "discord_all_ranks.svg"
    svgplot.line_plot(
        pall,
        [(f"rank {rank}", [r[2] for r in group], [r[4] for r in group], "markers")
         for rank, group in sorted(by_rank.items())],
        title="discord vs purity, mixed ranks",
        xlabel="purity", ylabel=f"discord ({cfg.unit.value})",
    )
    written.append(pall)
    dmax = max(max(r[4] for r in rows), 1e-9)
    pq = out / "quantumness_vs_discord.svg"
    svgplot.line_plot(
        pq,
        [(f"rank {rank}", [r[4] for r in group], [r[6] for r in group], "markers")
         for rank, group in sorted(by_rank.items())]
        + [("equality", [0.0, dmax], [0.0, dmax], "line")],
        title="quantumness upper bound vs discord",
        xlabel=f"discord ({cfg.unit.value})", ylabel=f"I - I_diag ({cfg.unit.value})",
    )
    written.append(pq)
    return written
