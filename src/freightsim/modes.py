"""Transport mode definitions, the calibrated default dataset, and
reference-year cost adjustment."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Iterator

ModeId = str


@dataclass(frozen=True)
class ModeSpec:
    """Static description of one transport mode.

    Costs are USD per tonne-km stated in ``base_year``; the improvement rate
    is the annual fractional decrease of the operational cost.  The stdev
    fields are fractions of the respective means.  The classical
    distance*weight/cost performance metric is the reciprocal of
    ``base_cost_mean``.
    """

    id: ModeId
    base_cost_mean: float
    base_year: int
    improvement_rate_mean: float
    cost_stdev_fraction: float = 0.25
    rate_stdev_fraction: float = 0.5
    autonomous: bool = False
    provenance: str = ""


class ModeRegistry:
    """Ordered collection of ModeSpec, keyed by id (first occurrence wins)."""

    def __init__(self, specs: Iterable[ModeSpec]):
        self._specs = list(specs)
        self._by_id: dict[ModeId, ModeSpec] = {}
        for spec in self._specs:
            self._by_id.setdefault(spec.id, spec)

    def __iter__(self) -> Iterator[ModeSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, mode_id: ModeId) -> bool:
        return mode_id in self._by_id

    def get(self, mode_id: ModeId) -> ModeSpec:
        try:
            return self._by_id[mode_id]
        except KeyError:
            raise KeyError(f"unknown mode id: {mode_id!r}") from None

    def ids(self) -> list[ModeId]:
        return [s.id for s in self._specs]


def builtin_modes() -> ModeRegistry:
    """The ten default modes (five conventional, five autonomous) with their
    calibrated base costs and improvement rates.  Every value carries a
    provenance string in the shipped data file."""
    text = (resources.files("freightsim.data") / "default_modes.json").read_text("utf-8")
    doc = json.loads(text)
    return ModeRegistry(ModeSpec(**entry) for entry in doc["modes"])


def adjust_reference_cost(value: float, rate: float,
                          from_year: int, to_year: int) -> float:
    """Roll a cost forward in time: value * (1 - rate)^(to_year - from_year).

    Backward adjustment (to_year < from_year) is rejected, and so is a
    year gap too large for a float.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"value must be finite and > 0, got {value}")
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if to_year < from_year:
        raise ValueError(f"to_year {to_year} precedes from_year {from_year}")
    try:
        return value * (1.0 - rate) ** (to_year - from_year)
    except OverflowError:
        raise ValueError("to_year - from_year must be within float "
                         "range") from None


def derive_autonomous(base: ModeSpec, cost_multiple: float,
                      rate_delta: float) -> ModeSpec:
    """Derive the autonomous variant of a conventional mode: cost scaled by
    ``cost_multiple``, improvement rate raised by ``rate_delta``, id prefixed
    with "auto_"."""
    if base.autonomous:
        raise ValueError(f"mode {base.id!r} is already autonomous")
    if cost_multiple <= 0:
        raise ValueError(f"cost_multiple must be > 0, got {cost_multiple}")
    return replace(
        base,
        id=f"auto_{base.id}",
        base_cost_mean=base.base_cost_mean * cost_multiple,
        improvement_rate_mean=base.improvement_rate_mean + rate_delta,
        autonomous=True,
        provenance=f"derived from {base.id}: cost x {cost_multiple}, "
                   f"rate + {rate_delta}",
    )


def validate_registry(reg: ModeRegistry) -> list[str]:
    """Return every invariant violation as a human-readable string;
    an empty list means the registry is valid."""
    violations: list[str] = []
    seen: set[ModeId] = set()
    for spec in reg:
        if not spec.id:
            violations.append("mode with empty id")
            continue
        if spec.id in seen:
            violations.append(f"{spec.id}: duplicate id")
        seen.add(spec.id)
        if not (math.isfinite(spec.base_cost_mean) and spec.base_cost_mean > 0):
            violations.append(f"{spec.id}: base_cost_mean must be > 0")
        if not 0 <= spec.improvement_rate_mean < 1:
            violations.append(f"{spec.id}: improvement_rate_mean out of range [0, 1)")
        if spec.cost_stdev_fraction < 0:
            violations.append(f"{spec.id}: cost_stdev_fraction must be >= 0")
        if spec.rate_stdev_fraction < 0:
            violations.append(f"{spec.id}: rate_stdev_fraction must be >= 0")
    return violations
