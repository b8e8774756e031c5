"""Run configuration: a JSON-serializable description of one evaluation run,
preset registry, and builders that turn a config into model objects.

A config is loaded from the path of a JSON file or from a mapping of its
fields. Disabled equivocation targets are represented as ``-inf`` in memory
and as the string ``"-inf"`` in JSON files (the loader also accepts a bare
JSON ``-Infinity``). Every config hashes to a stable 16-hex-digit digest that
the CLI embeds in output headers so artifacts are traceable to their
configuration.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import DomainError, ValidationError
from .info import TWO_PI_E
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

#: model, which names its module ``semsec.<model>``: {part: (the type's name
#: in that module, default parameters)}, for the source and the channel.
_MODELS = {
    "gaussian": {
        "source": ("SemanticSourceGaussian", {"P_s": 0.7, "P_u": 1.0, "P_su": 0.6}),
        "channel": ("WiretapChannelGaussian", {"P": 1.0, "P_N1": 0.1, "P_N2": 0.4}),
    },
    "binary": {
        "source": ("SemanticSourceBinary", {"alpha": 0.25}),
        "channel": ("WiretapChannelBinary", {"eps1": 0.1, "eps2": 0.3}),
    },
}
_MODES = ("converse", "inner", "curve")
#: Modes that run for one model only.
_MODE_MODEL = {"inner": "gaussian"}


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one evaluation run.

    ``mode`` selects the computation: ``converse`` evaluates the minimal
    channel-use ratio over a distortion grid, ``inner`` runs the
    Monte-Carlo inner-bound scan (Gaussian only), ``curve`` sweeps the
    semantic tradeoff curve. Grid fields accept an integer bucket
    count, an explicit point list, or a ``{"points": [...]}`` mapping (see
    :func:`resolve_distortion_grid`); the inner-bound scan takes counts only.
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
        # Validated before any coercion, so that a malformed field is
        # reported rather than converted or raised as a TypeError.
        problems = validate_config(self)
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "cases", tuple(int(c) for c in self.cases))
        object.__setattr__(self, "source", dict(self.source))
        object.__setattr__(self, "channel", dict(self.channel))
        if self.R_k_values is not None:
            object.__setattr__(
                self, "R_k_values", tuple(float(v) for v in self.R_k_values)
            )
        # A model is imported with the first config that names it, so that
        # a run whose config is resolved imports nothing more.
        _model_module(self.model)

    def targets(self) -> EquivocationTargets:
        return EquivocationTargets(self.delta_s, self.delta_u, self.delta_su, self.R_k)

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


def _is_count(val) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def validate_config(cfg: RunConfig) -> list[str]:
    """All problems with the config, as ``field: message`` strings; the
    fields may still be in the form they were given in."""
    problems: list[str] = []
    for name, known in (("model", tuple(_MODELS)), ("mode", _MODES)):
        if getattr(cfg, name) not in known:
            problems.append(f"{name}: must be one of {known}, got {getattr(cfg, name)!r}")
    parts = ("source", "channel")
    for part in parts:
        if not isinstance(getattr(cfg, part), Mapping):
            problems.append(f"{part}: expected a mapping, got {getattr(cfg, part)!r}")
    if not (isinstance(cfg.model, str) and isinstance(cfg.mode, str)
            and all(isinstance(getattr(cfg, part), Mapping) for part in parts)):
        return problems  # the checks below look these fields up
    cases = tuple(cfg.cases) if isinstance(cfg.cases, (list, tuple)) else cfg.cases
    if not (isinstance(cases, tuple) and cases
            and all(_is_count(c) and c in (1, 2) for c in cases)):
        problems.append(f"cases: must be a nonempty subset of (1, 2), got {cases}")
    elif len(set(cases)) < len(cases):
        problems.append(f"cases: repeats a case, got {cases}")
    for part in parts:
        for key, val in getattr(cfg, part).items():
            _check_number(problems, f"{part}.{key}", val)
    for part, (_, defaults) in _MODELS.get(cfg.model, {}).items():
        extra = set(getattr(cfg, part)) - set(defaults)
        if extra:
            problems.append(f"{part}: unknown keys {sorted(extra)} for model {cfg.model}")
    for name in ("delta_s", "delta_u", "delta_su"):
        _check_number(problems, name, getattr(cfg, name), allow_neg_inf=True)
    _check_number(problems, "R_k", cfg.R_k, minimum=0.0)
    if not isinstance(cfg.R_k_values, (type(None), list, tuple, np.ndarray)):
        problems.append(f"R_k_values: expected null or a list of numbers, got {cfg.R_k_values!r}")
    elif cfg.R_k_values is not None:
        before = len(problems)
        for i, val in enumerate(cfg.R_k_values):
            _check_number(problems, f"R_k_values[{i}]", val, minimum=0.0)
        if len(problems) == before and len(set(cfg.R_k_values)) < len(cfg.R_k_values):
            problems.append(f"R_k_values: repeats a key rate, got {list(cfg.R_k_values)}")
    for name in ("d_s_grid", "d_u_grid"):
        grid = getattr(cfg, name)
        try:
            resolve_distortion_grid(grid, 1.0)  # a count is valid at any range
        except DomainError as exc:
            problems.append(f"{name}: {exc}")
        else:
            if cfg.mode == "inner" and not isinstance(grid, int):
                problems.append(f"{name}: the inner-bound scan needs a bucket count")
    _check_number(problems, "r", cfg.r, minimum=0.0)
    if not _is_count(cfg.samples) or cfg.samples < 1:
        problems.append(f"samples: must be a positive integer, got {cfg.samples!r}")
    if not _is_count(cfg.seed) or cfg.seed < 0:
        problems.append(f"seed: must be a nonnegative integer, got {cfg.seed!r}")
    if not isinstance(cfg.name, (type(None), str)):
        problems.append(f"name: expected null or a string, got {cfg.name!r}")
    only = _MODE_MODEL.get(cfg.mode, cfg.model)
    if cfg.model != only:
        problems.append(f"mode: {cfg.mode!r} supports the {only} model only")
    if cfg.mode == "inner" and cfg.R_k != 0.0:
        problems.append("R_k: the inner-bound scan requires a zero key rate")
    return problems


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def _model_module(model: str):
    """The module of ``model``, imported on first use."""
    return importlib.import_module(f"{__package__}.{model}")


def _build(cfg: RunConfig, part: str):
    name, defaults = _MODELS[cfg.model][part]
    return getattr(_model_module(cfg.model), name)(**{**defaults, **getattr(cfg, part)})


def build_source(cfg: RunConfig):
    return _build(cfg, "source")


def build_channel(cfg: RunConfig):
    return _build(cfg, "channel")


def resolve_distortion_grid(grid: Any, hi_default: float) -> np.ndarray:
    """Turn a grid spec into a strictly increasing positive point array.

    Three forms. An integer n resolves to the centers of n equal buckets
    over (0, hi_default], matching the inner-bound scan's bucket layout so
    the two surfaces are directly comparable cell by cell. A point list, or
    a ``{"points": [...]}`` mapping, is taken as given. Anything else raises
    :class:`DomainError`.
    """
    if isinstance(grid, int) and not isinstance(grid, bool):
        if grid < 1:
            raise DomainError(f"bucket count must be >= 1, got {grid}")
        step = hi_default / grid
        return np.linspace(0.5 * step, hi_default - 0.5 * step, grid)
    points = grid["points"] if isinstance(grid, Mapping) and set(grid) == {"points"} else grid
    if not isinstance(points, (list, tuple, np.ndarray)):
        raise DomainError(
            f"expected a bucket count, a point list or {{'points': [...]}}, got {grid!r}"
        )
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"grid points must be numbers, got {points!r}") from None
    if arr.ndim != 1 or len(arr) < 1:
        raise DomainError("point list must be one-dimensional and nonempty")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise DomainError("grid points must be finite and positive")
    if np.any(np.diff(arr) <= 0):
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
    """Load a config from the path of a JSON file, or from a mapping."""
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        try:
            text = Path(source).read_bytes()
        except OSError as exc:
            raise ValidationError([f"config: cannot read {source} ({exc.strerror})"]) from exc
        try:
            raw = json.loads(text)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValidationError([f"config: {source} is not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ValidationError(["config: top level must be a JSON object"])
    # A name is a label, so "-inf" stays a string there.
    raw = {key: val if key == "name" else _decode(val) for key, val in raw.items()}
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValidationError([f"config: unknown keys {sorted(unknown)}"])
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


#: h(S) of the default Gaussian source, with the bits of its ``h_s``: the
#: semantic-secrecy target.
_H_S = 0.5 * math.log2(TWO_PI_E * _MODELS["gaussian"]["source"][1]["P_s"])

#: name: the fields of that preset.
_PRESETS = {
    "gaussian-converse-fig3": dict(
        model="gaussian", mode="converse", cases=(1, 2), delta_s=_H_S, delta_u=0.0,
        delta_su=_H_S, d_s_grid=40, d_u_grid=40,
    ),
    "binary-tradeoff-fig5": dict(
        model="binary", mode="curve", cases=(1, 2), r=1.0, d_s_grid=200,
        R_k_values=(0.0, 0.1),
    ),
    "gaussian-inner-nosecrecy": dict(
        model="gaussian", mode="inner", cases=(1, 2), samples=100_000, seed=2024,
    ),
    "gaussian-inner-semantic": dict(
        model="gaussian", mode="inner", cases=(1, 2), delta_s=_H_S, delta_su=_H_S,
        samples=100_000, seed=2024,
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> RunConfig:
    try:
        fields = _PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return RunConfig(**fields, name=name)
