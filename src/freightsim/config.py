"""Scenario configuration: JSON ingestion, validation, and registry resolution."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .modes import (ModeId, ModeRegistry, ModeSpec, adjust_reference_cost,
                    builtin_modes, validate_registry)


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


_POLICIES = ("per-replicate", "shared")

_INT_FIELDS = ("seed", "start_year", "end_year", "iterations")
_FLOAT_FIELDS = (
    "trip_distance_km", "freight_tonnes", "min_leg_km",
    "handling_mean_usd_per_tonne", "handling_stdev_fraction",
    "cost_stdev_fraction", "rate_stdev_fraction",
)

# The name is written unquoted into every CSV row.
_NAME_FORBIDDEN = (",", '"', "\r", "\n")

_MODE_FLOAT_FIELDS = ("base_cost_mean", "improvement_rate_mean",
                      "cost_stdev_fraction", "rate_stdev_fraction")
_MODE_OVERRIDE_FIELDS = {"id", "base_year", "autonomous", "provenance",
                         *_MODE_FLOAT_FIELDS}


@dataclass
class ScenarioConfig:
    """Full run configuration; defaults reproduce the reference scenarios."""

    enabled_modes: list[ModeId]
    name: str = "scenario"
    seed: int = 0
    start_year: int = 2018
    end_year: int = 2050
    iterations: int = 1000
    trip_distance_km: float = 10000.0
    freight_tonnes: float = 50000.0
    min_leg_km: float = 100.0
    handling_mean_usd_per_tonne: float = 4.59
    handling_stdev_fraction: float = 0.25
    cost_stdev_fraction: float = 0.25
    rate_stdev_fraction: float = 0.5
    evolution_policy: str = "per-replicate"
    modes: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        self._validate_types()
        if self.end_year < self.start_year:
            raise ConfigError("end_year must be >= start_year")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.trip_distance_km <= 0:
            raise ConfigError("trip_distance_km must be > 0")
        if self.freight_tonnes <= 0:
            raise ConfigError("freight_tonnes must be > 0")
        if self.min_leg_km <= 0:
            raise ConfigError("min_leg_km must be > 0")
        if self.handling_mean_usd_per_tonne <= 0:
            raise ConfigError("handling_mean_usd_per_tonne must be > 0")
        for frac_field in ("handling_stdev_fraction", "cost_stdev_fraction",
                           "rate_stdev_fraction"):
            if getattr(self, frac_field) < 0:
                raise ConfigError(f"{frac_field} must be >= 0")
        if self.evolution_policy not in _POLICIES:
            raise ConfigError(
                f"evolution_policy must be one of {_POLICIES}, "
                f"got {self.evolution_policy!r}")
        if not self.enabled_modes:
            raise ConfigError("enabled_modes must be non-empty")
        if len(set(self.enabled_modes)) != len(self.enabled_modes):
            raise ConfigError("enabled_modes contains duplicates")
        for entry in self.modes:
            if not isinstance(entry, dict) or "id" not in entry:
                raise ConfigError("modes entries must be objects with an 'id'")
            unknown = set(entry) - _MODE_OVERRIDE_FIELDS
            if unknown:
                raise ConfigError(
                    f"modes[{entry.get('id')!r}]: unknown fields {sorted(unknown)}")
            _validate_mode_override_types(entry)
        override_ids = [entry["id"] for entry in self.modes]
        if len(set(override_ids)) != len(override_ids):
            raise ConfigError(
                "modes: each mode id must be overridden at most once")

    def _validate_types(self) -> None:
        # Values are checked, never coerced, so the fingerprint of a valid
        # config is unchanged.  bool is an int subclass and is rejected.
        if (not isinstance(self.name, str)
                or any(c in self.name for c in _NAME_FORBIDDEN)):
            raise ConfigError(
                f"name must be a string without ',', '\"', CR or LF, "
                f"got {self.name!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}")
        if (not isinstance(self.enabled_modes, list)
                or not all(isinstance(m, str) for m in self.enabled_modes)):
            raise ConfigError(
                f"enabled_modes must be a list of mode ids, "
                f"got {self.enabled_modes!r}")
        if not isinstance(self.modes, list):
            raise ConfigError(f"modes must be a list, got {self.modes!r}")


def _validate_mode_override_types(entry: dict[str, Any]) -> None:
    # Unknown fields are rejected first; the last branch is id and provenance.
    for name, value in entry.items():
        if name in _MODE_FLOAT_FIELDS:
            ok, kind = _is_finite_number(value), "a finite number"
        elif name == "base_year":
            ok, kind = _is_int(value), "an integer"
        elif name == "autonomous":
            ok, kind = isinstance(value, bool), "a boolean"
        else:
            ok, kind = isinstance(value, str), "a string"
        if not ok:
            raise ConfigError(f"modes[{entry['id']!r}]: {name} must be "
                              f"{kind}, got {value!r}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to be a float
        return False


def load_config(text: str) -> ScenarioConfig:
    """Parse a JSON configuration document.

    Missing fields take the defaults; unknown top-level fields are rejected
    so typos fail loudly.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "enabled_modes" not in doc:
        raise ConfigError("enabled_modes is required")
    cfg = ScenarioConfig(**doc)
    cfg.validate()
    return cfg


def config_to_json(cfg: ScenarioConfig) -> str:
    """Serialize a config back to canonical JSON (load -> dump -> load is
    the identity on every field)."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2)


def config_fingerprint(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(config_to_json(cfg).encode("utf-8")).hexdigest()


def resolve_registry(cfg: ScenarioConfig) -> ModeRegistry:
    """Resolve the enabled modes against the builtin dataset plus any inline
    overrides.

    The config-level stdev fractions apply to every enabled mode unless an
    inline override pins a mode-specific value.  The returned registry lists
    modes in enabled_modes order.
    """
    base = builtin_modes()
    overrides = {entry["id"]: entry for entry in cfg.modes}

    specs: list[ModeSpec] = []
    for mode_id in cfg.enabled_modes:
        override = overrides.get(mode_id, {})
        if mode_id in base:
            builtin = dataclasses.asdict(base.get(mode_id))
        else:
            required = {"base_cost_mean", "base_year", "improvement_rate_mean"}
            missing = required - set(override)
            if not override:
                raise ConfigError(f"enabled_modes: unknown mode {mode_id!r}")
            if missing:
                raise ConfigError(
                    f"modes[{mode_id!r}]: missing fields {sorted(missing)}")
            builtin = {}
        specs.append(ModeSpec(**{
            **builtin,
            "cost_stdev_fraction": cfg.cost_stdev_fraction,
            "rate_stdev_fraction": cfg.rate_stdev_fraction,
            **override}))

    reg = ModeRegistry(specs)
    problems = validate_registry(reg)
    if problems:
        raise ConfigError("invalid mode registry: " + "; ".join(problems))
    for spec in reg:
        _check_start_year_cost(spec, cfg.start_year)
    return reg


def _check_start_year_cost(spec: ModeSpec, start_year: int) -> None:
    """The mode's cost rolled forward to the start year must be a finite
    positive float: a base year far in the past overflows the exponent or
    underflows the cost to 0."""
    where = f"modes[{spec.id!r}]"
    if spec.base_year > start_year:
        raise ConfigError(f"{where}: base_year {spec.base_year} must be <= "
                          f"start_year {start_year}")
    try:
        cost = adjust_reference_cost(spec.base_cost_mean,
                                     spec.improvement_rate_mean,
                                     spec.base_year, start_year)
    except ValueError:  # the year gap is too large for a float
        raise ConfigError(f"{where}: base_year must be within float range "
                          f"of start_year {start_year}") from None
    if not (math.isfinite(cost) and cost > 0):
        raise ConfigError(f"{where}: cost at start_year {start_year} must be "
                          f"finite and > 0, got {cost!r}")
