"""Declarative sweep specs: a JSON grid over experiment points.

A sweep spec names one experiment and a parameter grid: fixed ``base``
parameters plus ``axes`` whose values are swept as a cartesian product.
The spec enumerates into ordinary :class:`repro.perf.points.Point`
values, so every sweep runs through the same pool runner, result store
and differential guarantees as the figure campaigns.

The file format is the JSON document :meth:`SweepSpec.to_dict` writes
into every stored record's ``meta`` — so a record's provenance is itself
a runnable spec:

.. code-block:: json

    {"name": "segment-sweep", "experiment": "fig5",
     "base": {"method": "TCIO", "nprocs": 16},
     "axes": {"len_array": [256, 512], "segment_bytes": [2048, 4096, 8192]}}

Python callers can skip the file format entirely with :func:`grid`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.perf.points import EXPERIMENTS, Point, accepted_params
from repro.util.errors import ReproError


class SpecError(ReproError):
    """A malformed sweep spec (parse error or invalid grid)."""


#: Parameter values a spec may carry: JSON-able scalars only, so points
#: stay hashable, picklable and content-addressable.
_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class SweepSpec:
    """One declarative parameter sweep over a single experiment.

    ``base`` holds the fixed parameters; ``axes`` the swept ones, in
    declaration order. Enumeration is the cartesian product with the
    *last* axis varying fastest (row-major, like nested for-loops), so
    a spec always yields the same points in the same order.
    """

    name: str
    experiment: str
    base: tuple[tuple[str, object], ...] = ()
    axes: tuple[tuple[str, tuple[object, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("sweep spec needs a non-empty name")
        if self.experiment not in EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {self.experiment!r} "
                f"(choose from {list(EXPERIMENTS)})"
            )
        accepted = accepted_params(self.experiment)
        unknown = {key for key, _ in (*self.base, *self.axes)} - accepted
        if unknown:
            raise SpecError(
                f"experiment {self.experiment!r} does not read parameter(s) "
                f"{sorted(unknown)} (accepted: {sorted(accepted)})"
            )
        seen: set[str] = set()
        for key, _ in self.base:
            seen.add(key)
        for key, values in self.axes:
            if key in seen:
                raise SpecError(f"parameter {key!r} is both base and axis")
            if not values:
                raise SpecError(f"axis {key!r} has no values")
        for key, value in self.base:
            _check_scalar(key, value)
        for key, values in self.axes:
            for value in values:
                _check_scalar(key, value)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict, *, name: Optional[str] = None) -> "SweepSpec":
        """Build a spec from a parsed document (JSON or python)."""
        if not isinstance(data, dict):
            raise SpecError(f"spec document must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"name", "experiment", "base", "axes"}
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        base = data.get("base") or {}
        axes = data.get("axes") or {}
        if not isinstance(base, dict):
            raise SpecError("'base' must be a mapping of fixed parameters")
        if not isinstance(axes, dict):
            raise SpecError("'axes' must be a mapping of parameter -> value list")
        axis_items = []
        for key, values in axes.items():
            if not isinstance(values, (list, tuple)):
                raise SpecError(f"axis {key!r} must list its values")
            axis_items.append((str(key), tuple(values)))
        return cls(
            name=str(data.get("name") or name or ""),
            experiment=str(data.get("experiment") or ""),
            base=tuple((str(k), v) for k, v in base.items()),
            axes=tuple(axis_items),
        )

    def to_dict(self) -> dict:
        """The JSON-able round-trip form (stored as sweep provenance)."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "base": dict(self.base),
            "axes": {k: list(vs) for k, vs in self.axes},
        }

    # ------------------------------------------------------------------
    def size(self) -> int:
        """How many points the sweep enumerates."""
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def points(self) -> list[Point]:
        """The full grid, deterministic row-major order."""
        fixed = dict(self.base)
        names = [k for k, _ in self.axes]
        out: list[Point] = []
        for combo in itertools.product(*(vs for _, vs in self.axes)):
            params = dict(fixed)
            params.update(zip(names, combo))
            out.append(Point.make(self.experiment, **params))
        return out


def _check_scalar(key: str, value: object) -> None:
    if not isinstance(value, _SCALARS):
        raise SpecError(
            f"parameter {key!r} has non-scalar value {value!r} "
            "(spec values must be str/int/float/bool/null)"
        )


def grid(experiment: str, *, name: str = "adhoc", base: Optional[dict] = None,
         **axes: Iterable[object]) -> SweepSpec:
    """Python-side spec constructor: ``grid("fig5", nprocs=[4, 8], ...)``."""
    return SweepSpec(
        name=name,
        experiment=experiment,
        base=tuple(sorted((base or {}).items())),
        axes=tuple((k, tuple(v)) for k, v in axes.items()),
    )


def parse_spec(text: str, *, name: Optional[str] = None) -> SweepSpec:
    """Parse one sweep spec from JSON text (the :meth:`SweepSpec.to_dict` form)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise SpecError(f"sweep spec is not valid JSON: {exc}") from exc
    return SweepSpec.from_dict(data, name=name)


def load_spec(path: "str | Path") -> SweepSpec:
    """Parse one sweep spec file; the filename stem is the default name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read sweep spec {path}: {exc}") from exc
    return parse_spec(text, name=path.stem)
