"""Declarative sweep specs: a YAML-subset grid over experiment points.

A sweep spec names one experiment and a parameter grid: fixed ``base``
parameters plus ``axes`` whose values are swept as a cartesian product.
The spec enumerates into ordinary :class:`repro.perf.points.Point`
values, so every sweep runs through the same pool runner, result store
and differential guarantees as the figure campaigns.

The file format is a deliberately small YAML subset parsed by
:func:`parse_spec` with no third-party dependency — two-space indented
mappings, inline ``[a, b, c]`` lists, ``- item`` block lists, scalars
(int/float/bool/null/quoted or bare strings) and ``#`` comments:

.. code-block:: yaml

    name: segment-sweep
    experiment: fig5
    base:
      method: TCIO
      nprocs: 16
    axes:
      len_array: [256, 512]
      segment_bytes: [2048, 4096, 8192]

Python callers can skip the file format entirely with :func:`grid`.
"""

from __future__ import annotations

import itertools
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
        """Build a spec from a parsed document (YAML subset or python)."""
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


# ----------------------------------------------------------------------
# the YAML-subset parser
# ----------------------------------------------------------------------


def parse_spec(text: str, *, name: Optional[str] = None) -> SweepSpec:
    """Parse one sweep spec from YAML-subset text."""
    return SweepSpec.from_dict(parse_document(text), name=name)


def load_spec(path: "str | Path") -> SweepSpec:
    """Parse one sweep spec file; the filename stem is the default name."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read sweep spec {path}: {exc}") from exc
    return parse_spec(text, name=path.stem)


def parse_document(text: str) -> dict:
    """Parse YAML-subset *text* into plain dicts/lists/scalars.

    Supported: nested mappings by indentation, inline ``[...]`` lists,
    ``- item`` block lists, scalar coercion (int, float, true/false,
    null, quoted strings), full-line and trailing ``#`` comments. This
    is not a YAML implementation — it is the deterministic subset the
    sweep-spec format needs, with no dependency to install.
    """
    lines: list[tuple[int, str]] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise SpecError("tabs are not allowed in spec indentation")
        lines.append((len(stripped) - len(stripped.lstrip()), stripped.strip()))
    value, rest = _parse_block(lines, 0, indent=0)
    if rest != len(lines):
        raise SpecError(f"unparsed trailing content: {lines[rest][1]!r}")
    if not isinstance(value, dict):
        raise SpecError("spec document must be a mapping at top level")
    return value


def _strip_comment(line: str) -> str:
    out = []
    quote: Optional[str] = None
    for ch in line:
        if quote is None and ch == "#":
            break
        if quote is None and ch in "'\"":
            quote = ch
        elif quote == ch:
            quote = None
        out.append(ch)
    return "".join(out)


def _parse_block(lines: list, i: int, *, indent: int):
    """Parse one mapping or list block starting at *i*; returns (value, next_i)."""
    if i >= len(lines):
        return {}, i
    if lines[i][1].startswith("- "):
        return _parse_list(lines, i, indent=indent)
    return _parse_mapping(lines, i, indent=indent)


def _parse_mapping(lines: list, i: int, *, indent: int):
    out: dict = {}
    while i < len(lines):
        line_indent, content = lines[i]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise SpecError(f"unexpected indentation at {content!r}")
        if content.startswith("- "):
            raise SpecError(f"list item {content!r} inside a mapping block")
        if ":" not in content:
            raise SpecError(f"expected 'key: value', got {content!r}")
        key, _, rest = content.partition(":")
        key = _coerce_key(key.strip())
        rest = rest.strip()
        if key in out:
            raise SpecError(f"duplicate key {key!r}")
        if rest:
            out[key] = _parse_scalar_or_inline(rest)
            i += 1
        else:
            # A nested block (or an empty value if nothing is indented).
            if i + 1 < len(lines) and lines[i + 1][0] > indent:
                value, i = _parse_block(lines, i + 1, indent=lines[i + 1][0])
            else:
                value, i = None, i + 1
            out[key] = value
    return out, i


def _parse_list(lines: list, i: int, *, indent: int):
    out: list = []
    while i < len(lines):
        line_indent, content = lines[i]
        if line_indent != indent or not content.startswith("- "):
            break
        out.append(_parse_scalar_or_inline(content[2:].strip()))
        i += 1
    return out, i


def _parse_scalar_or_inline(text: str):
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            return []
        return [_parse_scalar(part.strip()) for part in _split_inline(body)]
    return _parse_scalar(text)


def _split_inline(body: str) -> list[str]:
    parts, depth, quote, current = [], 0, None, []
    for ch in body:
        if quote is None and ch in "'\"":
            quote = ch
        elif quote == ch:
            quote = None
        elif quote is None and ch == "[":
            depth += 1
        elif quote is None and ch == "]":
            depth -= 1
        elif quote is None and depth == 0 and ch == ",":
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    parts.append("".join(current))
    return parts


def _coerce_key(text: str) -> str:
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    return text


def _parse_scalar(text: str):
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("null", "none", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text
