"""Experiment configuration: flat INI-style files with [section] headers.

The format is deliberately trivial: one ``key = value`` per line, ``#`` or
``;`` comments, and no interpolation, so files stay hand-editable and
parseable from any language.  Every error about a value read from a file
names that value's line (``line 3: ...``); where ``t_final >= dt`` fails, that
is the line of ``t_final``, or of ``dt`` when the file sets only ``dt``.
Errors from command-line overrides name no line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lindblad import Channel, ModelParams
from .qinfo import EntropyUnit

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]


class ConfigError(ValueError):
    """Malformed or invalid configuration input; ``fields`` names the settings
    a range error is about, so that a loaded file can name their line."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def _default_gamma_grid() -> list[float]:
    # 16 log-spaced points spanning [0.01, 1]
    return [float(g) for g in np.logspace(-2.0, 0.0, 16)]


def _default_xi_grid() -> list[float]:
    return [float(x) for x in np.linspace(-1.0, 1.0, 21)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings; defaults reproduce the reference
    two-qubit scenario (delta=1, tau=1, j_xy=0.25, gamma=0.05, |1 0> start)."""

    model: ModelParams = field(default_factory=ModelParams)
    initial_state: str = "10"
    t_final: float = 200.0
    dt: float = 0.01
    t_relax: float = 4000.0
    window_fraction: float = 0.25
    unit: EntropyUnit = EntropyUnit.BITS
    xi_values: tuple[float, ...] = tuple(_default_xi_grid())
    gamma_values: tuple[float, ...] = tuple(_default_gamma_grid())
    jxy_values: tuple[float, ...] = (-1.0, 0.0, 1.0)
    n_states: int = 1000
    ranks: tuple[int, ...] = (2, 3, 4)
    out_dir: str = "out"
    seed: int = 1234
    workers: int = 1
    save_states: bool = False

    def validate(self) -> "ExperimentConfig":
        if set(self.initial_state) - {"0", "1"} or len(self.initial_state) != 2:
            raise ConfigError(
                f"initial_state must be a 2-bit label like '10', got {self.initial_state!r}",
                "initial_state")
        if self.dt <= 0 or self.t_final < self.dt:
            raise ConfigError("need dt > 0 and t_final >= dt",
                              "t_final" if self.dt > 0 else "dt", "dt")
        if not (0.0 < self.window_fraction <= 1.0):
            raise ConfigError("window_fraction must be in (0, 1]", "window_fraction")
        for name, field_name in (("xi", "xi_values"), ("gamma", "gamma_values"),
                                 ("j_xy", "jxy_values")):
            values = getattr(self, field_name)
            if len(values) == 0:
                raise ConfigError(f"sweep list '{name}' is empty", field_name)
            if (first := _first_repeat(values)) is not None:
                raise ConfigError(f"sweep list '{name}' repeats {first!r}", field_name)
        if any(abs(x) > 1.0 for x in self.xi_values):
            raise ConfigError("sweep xi values must lie in [-1, 1]", "xi_values")
        if any(g < 0.0 for g in self.gamma_values):
            raise ConfigError("sweep gamma values must be >= 0", "gamma_values")
        if self.n_states < 1:
            raise ConfigError("n_states must be >= 1", "n_states")
        if not self.ranks or any(not 1 <= r <= 4 for r in self.ranks):
            raise ConfigError("ranks must be a non-empty list in [1, 4] for two-qubit states",
                              "ranks")
        if (first := _first_repeat(self.ranks)) is not None:
            raise ConfigError(f"list 'ranks' repeats {first!r}", "ranks")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", "seed")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1", "workers")
        return self


def _first_repeat(values):
    """The first of ``values`` that occurs again later in the list, or None."""
    if len(set(values)) == len(values):
        return None
    return next(v for i, v in enumerate(values) if v in values[i + 1:])


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(tok) for tok in raw.replace(",", " ").split())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in {"true", "yes", "on", "1"}:
        return True
    if lowered in {"false", "no", "off", "0"}:
        return False
    raise ValueError(raw)


# Every config key: section -> key -> (field, converter, what the value must
# be).  [model] keys set ModelParams fields, all others ExperimentConfig fields.
# The bath correlation xi comes only from [sweep] xi.
_SCHEMA = {
    "model": {
        "delta": ("delta", _finite_float, "a finite number"),
        "tau": ("tau", _finite_float, "a finite number"),
        "j_xy": ("j_xy", _finite_float, "a finite number"),
        "gamma": ("gamma", _finite_float, "a finite number"),
        "channel": ("channel", lambda s: Channel(s.lower()), "one of raise/lower/x/z"),
    },
    "evolution": {
        "initial_state": ("initial_state", str, "a bit label"),
        "t_final": ("t_final", _finite_float, "a finite number"),
        "dt": ("dt", _finite_float, "a finite number"),
        "t_relax": ("t_relax", _finite_float, "a finite number"),
    },
    "analysis": {
        "window_fraction": ("window_fraction", _finite_float, "a finite number"),
        "unit": ("unit", lambda s: EntropyUnit(s.lower()), "bits or nats"),
    },
    "sweep": {
        "xi": ("xi_values", _float_list, "a list of finite numbers"),
        "gamma": ("gamma_values", _float_list, "a list of finite numbers"),
        "j_xy": ("jxy_values", _float_list, "a list of finite numbers"),
    },
    "discord": {
        "n_states": ("n_states", int, "an integer"),
        "ranks": ("ranks", _int_list, "a list of integers"),
    },
    "output": {
        "directory": ("out_dir", str, "a path"),
        "seed": ("seed", int, "an integer"),
        "workers": ("workers", int, "an integer"),
        "save_states": ("save_states", _bool, "a boolean"),
    },
}


def parse_config_text(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse INI-style text into {section: {key: (raw value, line number)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: key '{key}' already set on line "
                              f"{sections[current][key][1]} in [{current}]")
        sections[current][key] = (value.split("#")[0].strip(), lineno)
    return sections


def load_config(path) -> ExperimentConfig:
    """Load and validate a config file; missing entries keep their defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sections = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    # [model] keys are applied one at a time, so a range error names its line
    model, config_fields, lines = ModelParams(), {}, {}
    for section, entries in sections.items():
        for key, (raw, lineno) in entries.items():
            name, conv, what = _SCHEMA[section][key]
            try:
                value = conv(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"line {lineno}: {key} must be {what}, got {raw!r}") from exc
            if section == "model":
                try:
                    model = replace(model, **{name: value})
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: {exc}") from exc
            else:
                config_fields[name], lines[name] = value, lineno
    try:
        return ExperimentConfig(model=model, **config_fields).validate()
    except ConfigError as exc:
        # the defaults are valid, so a failing rule reads at least one key of the file
        line = next(lines[name] for name in exc.fields if name in lines)
        raise ConfigError(f"line {line}: {exc}") from exc


def apply_overrides(cfg: ExperimentConfig, *, out_dir=None, seed=None, unit=None
                    ) -> ExperimentConfig:
    """Apply command-line overrides on top of a loaded config."""
    updates = {}
    if out_dir is not None:
        updates["out_dir"] = str(out_dir)
    if seed is not None:
        updates["seed"] = int(seed)
    if unit is not None:
        updates["unit"] = EntropyUnit(unit)
    return replace(cfg, **updates).validate() if updates else cfg
