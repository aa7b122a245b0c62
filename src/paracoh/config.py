"""Experiment configuration: components, truncation, tolerances, seeds."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .params import MultiParam, SeriesParam
from .serialize import factor_from_json, factor_to_json, json_float, json_int
from .solver import SolveOptions


@dataclass(frozen=True)
class ComponentConfig:
    """One direct-sum component: a label and its factor parameters."""

    label: str
    factors: tuple[SeriesParam, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    components: tuple[ComponentConfig, ...]
    k_per_axis: int = 64
    t_list: tuple[float, ...] = (1.0, 2.0)
    seed: int = 0
    eps0: float = 0.05
    nu0: float = 0.95
    pad: int = 8
    tol_kernel: float = 1e-8
    tol_residual: float = 1e-8
    max_refine: int = 3
    out_dir: str | None = None

    def __post_init__(self):
        if not self.components:
            raise ConfigError("component list is empty")
        d = len(self.components[0].factors)
        if d < 1:
            raise ConfigError("components need at least one factor")
        labels = set()
        for c in self.components:
            if len(c.factors) != d:
                raise ConfigError(
                    f"component {c.label!r} has {len(c.factors)} factors, others have {d}"
                )
            # a label names the files gen writes: a non-empty, unique file-name stem
            bad = not isinstance(c.label, str) or not c.label
            if bad or any(ch in c.label for ch in ("/", os.sep, "\0")):
                raise ConfigError(f"component label {c.label!r} is not a file-name stem")
            if c.label in labels:
                raise ConfigError(f"component label {c.label!r} is used twice")
            labels.add(c.label)
        if self.k_per_axis < 4:
            raise ConfigError(f"k_per_axis too small: {self.k_per_axis}")
        if not self.t_list or not all(0 < t < math.inf for t in self.t_list):
            raise ConfigError(f"t_list must be positive and finite, got {self.t_list}")
        for key in ("eps0", "nu0"):
            if not 0 < getattr(self, key) < 1:
                raise ConfigError(f"{key} must lie in (0, 1), got {getattr(self, key)}")
        try:  # pad, tolerances and max_refine, by the solver's own rules
            self.solve_options()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def d(self) -> int:
        return len(self.components[0].factors)

    def multi_param(self, component: ComponentConfig) -> MultiParam:
        # gate violations surface here as AssumptionGateError / SpectralGapError
        return MultiParam(component.factors, eps0=self.eps0, nu0=self.nu0)

    def solve_options(self) -> SolveOptions:
        return SolveOptions(
            pad=self.pad,
            tol_kernel=self.tol_kernel,
            tol_residual=self.tol_residual,
            max_refine=self.max_refine,
            t_list=self.t_list,
        )


def _json_str_or_null(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"expected a string or null, got {value!r}")
    return value


# every config key but "components", with the reader of its JSON value; the
# writer writes the same keys and a config with any other key is rejected
_READERS = {
    **dict.fromkeys(("k_per_axis", "seed", "pad", "max_refine"), json_int),
    **dict.fromkeys(("eps0", "nu0", "tol_kernel", "tol_residual"), json_float),
    "t_list": lambda value: tuple(json_float(t) for t in value),
    "out_dir": _json_str_or_null,
}


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "components": [
            {"label": c.label, "factors": [factor_to_json(p) for p in c.factors]}
            for c in cfg.components
        ],
        **{key: getattr(cfg, key) for key in _READERS},
        "t_list": list(cfg.t_list),
    }


def config_from_json(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [key for key in doc if key != "components" and key not in _READERS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in the config")
    entries = doc.get("components")
    if not isinstance(entries, list) or not all(isinstance(c, dict) for c in entries):
        raise ConfigError(f"components must be a list of objects, got {entries!r}")
    for i, c in enumerate(entries):
        unknown = [key for key in c if key not in ("label", "factors")]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in components entry {i}")
    try:
        comps = tuple(
            ComponentConfig(
                label=c.get("label", f"component-{i}"),
                factors=tuple(factor_from_json(p) for p in c["factors"]),
            )
            for i, c in enumerate(entries)
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad components entry: {exc}") from exc
    kwargs = {}
    for key, read in _READERS.items():
        if key in doc:
            try:
                kwargs[key] = read(doc[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    try:
        return ExperimentConfig(components=comps, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not UTF-8 JSON: {exc}") from exc
    return config_from_json(doc)


def config_hash(cfg: ExperimentConfig) -> str:
    doc = config_to_json(cfg)
    doc.pop("out_dir", None)  # location does not change the experiment
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def default_config(d: int = 2, seed: int = 0, k_per_axis: int = 32) -> ExperimentConfig:
    """A small built-in component list so the CLI runs without a file.

    Components form a one-parameter slice (principal nu varying, the other
    factors fixed), the shape a direct-integral surrogate takes.
    """
    tail = (SeriesParam.complementary(0.9), SeriesParam.discrete(1))
    comps = []
    for i, s in enumerate((1.0, 1.5, 2.0)):
        factors = (SeriesParam.principal(s),) + tail[: d - 1]
        comps.append(ComponentConfig(label=f"component-{i}", factors=factors))
    return ExperimentConfig(
        components=tuple(comps), seed=seed, k_per_axis=k_per_axis
    )


def override(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **kwargs) if kwargs else cfg
