"""Run configuration: a JSON-serializable description of one evaluation run,
preset registry, and builders that turn a config into model objects.

Disabled equivocation targets are represented as ``-inf`` in memory and as
the string ``"-inf"`` in JSON files (the loader also accepts a bare JSON
``-Infinity``). Every config hashes to a stable 16-hex-digit digest that
the CLI embeds in output headers so artifacts are traceable to their
configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .binary import SemanticSourceBinary, WiretapChannelBinary
from .errors import DomainError, ValidationError
from .gaussian import SemanticSourceGaussian, WiretapChannelGaussian
from .regions import DISABLED, EquivocationTargets

__all__ = [
    "RunConfig",
    "load_config",
    "dump_config",
    "config_hash",
    "get_preset",
    "preset_names",
    "build_source",
    "build_channel",
    "resolve_distortion_grid",
]

GAUSSIAN_SOURCE_DEFAULT = {"P_s": 0.7, "P_u": 1.0, "P_su": 0.6}
GAUSSIAN_CHANNEL_DEFAULT = {"P": 1.0, "P_N1": 0.1, "P_N2": 0.4}
BINARY_SOURCE_DEFAULT = {"alpha": 0.25}
BINARY_CHANNEL_DEFAULT = {"eps1": 0.1, "eps2": 0.3}

_MODELS = ("gaussian", "binary")
_MODES = ("converse", "inner", "curve")


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one evaluation run.

    ``mode`` selects the computation: ``converse`` evaluates the minimal
    channel-use ratio over a distortion grid, ``inner`` runs the
    Monte-Carlo inner-bound scan (Gaussian only), ``curve`` sweeps the
    binary semantic tradeoff curve. Grid fields accept an integer bucket
    count (resolved to bucket centers of the feasible range), an explicit
    point list, or a ``{"n", "lo", "hi"}`` mapping.
    """

    model: str = "gaussian"
    mode: str = "converse"
    cases: tuple[int, ...] = (2,)
    source: Mapping[str, float] = field(default_factory=dict)
    channel: Mapping[str, float] = field(default_factory=dict)
    delta_s: float = DISABLED
    delta_u: float = DISABLED
    delta_su: float = DISABLED
    R_k: float = 0.0
    d_s_grid: Any = 40
    d_u_grid: Any = 40
    r: float = 1.0
    R_k_values: tuple[float, ...] | None = None
    samples: int = 100_000
    seed: int = 2024
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(int(c) for c in self.cases))
        object.__setattr__(self, "source", dict(self.source))
        object.__setattr__(self, "channel", dict(self.channel))
        if self.R_k_values is not None:
            object.__setattr__(
                self, "R_k_values", tuple(float(v) for v in self.R_k_values)
            )
        problems = validate_config(self)
        if problems:
            raise ValidationError(problems)

    def targets(self, R_k: float | None = None) -> EquivocationTargets:
        return EquivocationTargets(
            self.delta_s, self.delta_u, self.delta_su,
            self.R_k if R_k is None else R_k,
        )

    def key_rates(self) -> tuple[float, ...]:
        return self.R_k_values if self.R_k_values is not None else (self.R_k,)


def _check_number(problems, path, val, *, allow_neg_inf=False, minimum=None):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"{path}: expected a number, got {val!r}")
        return
    if math.isnan(val):
        problems.append(f"{path}: NaN is not allowed")
        return
    if val == float("inf"):
        problems.append(f"{path}: +inf is not allowed")
        return
    if val == float("-inf") and not allow_neg_inf:
        problems.append(f"{path}: -inf is not allowed here")
        return
    if minimum is not None and val != float("-inf") and val < minimum:
        problems.append(f"{path}: must be >= {minimum}, got {val}")


def _check_grid(problems, path, grid):
    if isinstance(grid, bool):
        problems.append(f"{path}: expected a grid spec, got {grid!r}")
        return
    if isinstance(grid, int):
        if grid < 1:
            problems.append(f"{path}: bucket count must be >= 1, got {grid}")
        return
    if isinstance(grid, (list, tuple, np.ndarray)):
        arr = np.asarray(grid, dtype=float)
        if arr.ndim != 1 or len(arr) < 1:
            problems.append(f"{path}: point list must be one-dimensional and nonempty")
        elif np.any(~np.isfinite(arr)) or np.any(arr <= 0):
            problems.append(f"{path}: grid points must be finite and positive")
        elif np.any(np.diff(arr) <= 0):
            problems.append(f"{path}: grid points must be strictly increasing")
        return
    if isinstance(grid, Mapping):
        extra = set(grid) - {"n", "lo", "hi", "points"}
        if extra:
            problems.append(f"{path}: unknown grid keys {sorted(extra)}")
        if "points" in grid:
            _check_grid(problems, path, list(grid["points"]))
        elif "n" not in grid:
            problems.append(f"{path}: grid mapping needs 'n' or 'points'")
        elif not isinstance(grid["n"], int) or grid["n"] < 1:
            problems.append(f"{path}: 'n' must be a positive integer")
        return
    problems.append(f"{path}: unsupported grid spec {grid!r}")


def validate_config(cfg: RunConfig) -> list[str]:
    """All problems with the config, as ``field: message`` strings."""
    problems: list[str] = []
    if cfg.model not in _MODELS:
        problems.append(f"model: must be one of {_MODELS}, got {cfg.model!r}")
    if cfg.mode not in _MODES:
        problems.append(f"mode: must be one of {_MODES}, got {cfg.mode!r}")
    if not cfg.cases or any(c not in (1, 2) for c in cfg.cases):
        problems.append(f"cases: must be a nonempty subset of (1, 2), got {cfg.cases}")
    for key, val in dict(cfg.source).items():
        _check_number(problems, f"source.{key}", val)
    for key, val in dict(cfg.channel).items():
        _check_number(problems, f"channel.{key}", val)
    if cfg.model in _MODELS:
        allowed = (
            set(GAUSSIAN_SOURCE_DEFAULT) if cfg.model == "gaussian"
            else set(BINARY_SOURCE_DEFAULT)
        )
        extra = set(cfg.source) - allowed
        if extra:
            problems.append(f"source: unknown keys {sorted(extra)} for model {cfg.model}")
        allowed_ch = (
            set(GAUSSIAN_CHANNEL_DEFAULT) if cfg.model == "gaussian"
            else set(BINARY_CHANNEL_DEFAULT)
        )
        extra_ch = set(cfg.channel) - allowed_ch
        if extra_ch:
            problems.append(
                f"channel: unknown keys {sorted(extra_ch)} for model {cfg.model}"
            )
    for name in ("delta_s", "delta_u", "delta_su"):
        _check_number(problems, name, getattr(cfg, name), allow_neg_inf=True)
    _check_number(problems, "R_k", cfg.R_k, minimum=0.0)
    if cfg.R_k_values is not None:
        for i, val in enumerate(cfg.R_k_values):
            _check_number(problems, f"R_k_values[{i}]", val, minimum=0.0)
    _check_grid(problems, "d_s_grid", cfg.d_s_grid)
    _check_grid(problems, "d_u_grid", cfg.d_u_grid)
    _check_number(problems, "r", cfg.r, minimum=0.0)
    if not isinstance(cfg.samples, int) or cfg.samples < 1:
        problems.append(f"samples: must be a positive integer, got {cfg.samples!r}")
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        problems.append(f"seed: must be a nonnegative integer, got {cfg.seed!r}")
    if cfg.mode == "inner" and cfg.model != "gaussian":
        problems.append("mode: the inner-bound scan supports the gaussian model only")
    if cfg.mode == "curve" and cfg.model != "binary":
        problems.append("mode: the tradeoff curve supports the binary model only")
    if cfg.mode == "inner" and cfg.R_k != 0.0:
        problems.append("R_k: the inner-bound scan requires a zero key rate")
    return problems


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def build_source(cfg: RunConfig):
    if cfg.model == "gaussian":
        params = {**GAUSSIAN_SOURCE_DEFAULT, **cfg.source}
        return SemanticSourceGaussian(**params)
    params = {**BINARY_SOURCE_DEFAULT, **cfg.source}
    return SemanticSourceBinary(**params)


def build_channel(cfg: RunConfig):
    if cfg.model == "gaussian":
        params = {**GAUSSIAN_CHANNEL_DEFAULT, **cfg.channel}
        return WiretapChannelGaussian(**params)
    params = {**BINARY_CHANNEL_DEFAULT, **cfg.channel}
    return WiretapChannelBinary(**params)


def resolve_distortion_grid(grid: Any, hi_default: float) -> np.ndarray:
    """Turn a grid spec into a strictly increasing positive point array.

    An integer n resolves to the centers of n equal buckets over
    (0, hi_default], matching the inner-bound scan's bucket layout so the
    two surfaces are directly comparable cell by cell.
    """
    if isinstance(grid, Mapping):
        if "points" in grid:
            return resolve_distortion_grid(list(grid["points"]), hi_default)
        n = int(grid["n"])
        lo = float(grid.get("lo", hi_default / (2 * n)))
        hi = float(grid.get("hi", hi_default - hi_default / (2 * n)))
        arr = np.linspace(lo, hi, n)
    elif isinstance(grid, int) and not isinstance(grid, bool):
        step = hi_default / grid
        arr = np.linspace(0.5 * step, hi_default - 0.5 * step, grid)
    else:
        arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise DomainError("grid must resolve to a nonempty one-dimensional array")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise DomainError("grid points must be finite and positive")
    if len(arr) > 1 and np.any(np.diff(arr) <= 0):
        raise DomainError("grid points must be strictly increasing")
    return arr


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _encode(obj):
    if isinstance(obj, float):
        if obj == float("-inf"):
            return "-inf"
        if math.isnan(obj) or obj == float("inf"):
            raise DomainError(f"cannot serialize {obj} in a config")
        return obj
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_encode(float(v)) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return _encode(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _decode(obj):
    if isinstance(obj, str) and obj.strip().lower() in ("-inf", "-infinity"):
        return float("-inf")
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def dump_config(cfg: RunConfig, path: str | Path | None = None) -> str:
    """Serialize a config to canonical JSON (optionally writing it out)."""
    payload = _encode(asdict(cfg))
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_config(source: str | Path | Mapping[str, Any]) -> RunConfig:
    """Load a config from a JSON file path, JSON text, or mapping."""
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        text = None
        candidate = Path(str(source))
        try:
            if candidate.is_file():
                text = candidate.read_text()
        except OSError:
            text = None
        if text is None:
            text = str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError([f"config: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ValidationError(["config: top level must be a JSON object"])
    raw = _decode(raw)
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValidationError([f"config: unknown keys {sorted(unknown)}"])
    for key in ("cases", "R_k_values"):
        if key in raw and raw[key] is not None:
            raw[key] = tuple(raw[key])
    return RunConfig(**raw)


def config_hash(cfg: RunConfig) -> str:
    """Stable 16-hex-digit digest of the canonical config serialization."""
    canonical = json.dumps(
        _encode(asdict(cfg)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _preset_gaussian_converse_fig3() -> RunConfig:
    src = SemanticSourceGaussian(**GAUSSIAN_SOURCE_DEFAULT)
    return RunConfig(
        model="gaussian",
        mode="converse",
        cases=(1, 2),
        delta_s=src.h_s,
        delta_u=0.0,
        delta_su=src.h_s,
        d_s_grid=40,
        d_u_grid=40,
        name="gaussian-converse-fig3",
    )


def _preset_binary_tradeoff_fig5() -> RunConfig:
    return RunConfig(
        model="binary",
        mode="curve",
        cases=(1, 2),
        r=1.0,
        d_s_grid=200,
        R_k_values=(0.0, 0.1),
        name="binary-tradeoff-fig5",
    )


def _preset_gaussian_inner_nosecrecy() -> RunConfig:
    return RunConfig(
        model="gaussian",
        mode="inner",
        cases=(1, 2),
        samples=100_000,
        seed=2024,
        name="gaussian-inner-nosecrecy",
    )


def _preset_gaussian_inner_semantic() -> RunConfig:
    src = SemanticSourceGaussian(**GAUSSIAN_SOURCE_DEFAULT)
    return RunConfig(
        model="gaussian",
        mode="inner",
        cases=(1, 2),
        delta_s=src.h_s,
        delta_su=src.h_s,
        samples=100_000,
        seed=2024,
        name="gaussian-inner-semantic",
    )


_PRESETS = {
    "gaussian-converse-fig3": _preset_gaussian_converse_fig3,
    "binary-tradeoff-fig5": _preset_binary_tradeoff_fig5,
    "gaussian-inner-nosecrecy": _preset_gaussian_inner_nosecrecy,
    "gaussian-inner-semantic": _preset_gaussian_inner_semantic,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> RunConfig:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
