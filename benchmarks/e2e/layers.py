"""Host time by layer, from one ``cProfile`` of one iteration.

The generator kernel runs the scheduler and every rank program on the
calling thread, so one profile sees all of it. A function of
``src/repro/<package>/`` belongs to that package's layer. Everything else —
builtins, the standard library, numpy, the harness's own frames — is not a
layer: its self time is charged to whichever layer called it, through the
``callers`` table pstats keeps, so ``bytes.join`` inside ``tcio.level1``
counts as ``tcio`` time and not as nobody's.

Works on the plain ``pstats.Stats.stats`` dict::

    {(file, line, name): (primitive_calls, calls, self_s, cumulative_s,
                          {caller: (calls, primitive_calls, self_s, cumulative_s)})}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePath

from benchmarks.e2e.metrics import LAYERS

OTHER = "other"
_NAMED = frozenset(LAYERS) - {OTHER}


def leaf_of(filename: str):
    """``package`` or ``tcio.<module>`` for program code, else ``None``."""
    parts = PurePath(filename).parts
    if "repro" not in parts[:-1]:
        return None
    at = len(parts) - 1 - parts[::-1].index("repro")
    if at + 2 >= len(parts):  # a module of the top-level package (cli.py)
        return OTHER
    package = parts[at + 1]
    if package == "tcio":
        return f"tcio.{PurePath(parts[-1]).stem}"
    return package if package in _NAMED else OTHER


def layer_of(leaf: str) -> str:
    return leaf.partition(".")[0]


@dataclass
class Attribution:
    #: leaf -> self seconds, library callees included.
    self_s: dict[str, float] = field(default_factory=dict)
    #: leaf -> primitive calls of the layer's own functions.
    calls: dict[str, int] = field(default_factory=dict)
    #: (caller layer, callee layer) -> [calls, inclusive seconds].
    edges: dict[tuple[str, str], list[float]] = field(default_factory=dict)


def rolled_up(table: dict) -> dict:
    """A leaf table with each ``tcio.<module>`` also summed into ``tcio``."""
    out = dict(table)
    for leaf, value in table.items():
        if "." in leaf:
            out[layer_of(leaf)] = out.get(layer_of(leaf), 0) + value
    return out


def attribute(stats: dict) -> Attribution:
    """Charge every function's self time to a layer."""
    shares: dict = {}

    def share_of(func, trail=()) -> dict[str, float]:
        """The layers a function's time belongs to, as weights summing to 1."""
        leaf = leaf_of(func[0])
        if leaf is not None:
            return {leaf: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(c[3] for c in callers.values())
        out: dict[str, float] = {}
        if total <= 0 or func in trail:  # a root, or library recursion
            out[OTHER] = 1.0
        else:
            for caller, (_nc, _cc, _tt, ct) in callers.items():
                for leaf_, w in share_of(caller, trail + (func,)).items():
                    out[leaf_] = out.get(leaf_, 0.0) + w * ct / total
        if not trail:
            shares[func] = out
        return out

    result = Attribution()
    for func, (cc, _nc, tt, _ct, callers) in stats.items():
        leaf = leaf_of(func[0])
        if leaf is not None:
            result.self_s[leaf] = result.self_s.get(leaf, 0.0) + tt
            result.calls[leaf] = result.calls.get(leaf, 0) + cc
            for caller, (nc, _c, _t, ct) in callers.items():
                for caller_leaf, w in share_of(caller).items():
                    edge = (layer_of(caller_leaf), layer_of(leaf))
                    if edge[0] != edge[1]:
                        cell = result.edges.setdefault(edge, [0.0, 0.0])
                        cell[0] += nc * w
                        cell[1] += ct * w
        elif callers:
            for caller, (_n, _c, tt_from, _ct) in callers.items():
                for caller_leaf, w in share_of(caller).items():
                    result.self_s[caller_leaf] = (
                        result.self_s.get(caller_leaf, 0.0) + tt_from * w
                    )
        else:
            result.self_s[OTHER] = result.self_s.get(OTHER, 0.0) + tt
    return result


def _matching(stats: dict, targets) -> list:
    return [
        func
        for func in stats
        if any(
            func[2] == name and PurePath(func[0]).as_posix().endswith(suffix)
            for suffix, name in targets
        )
    ]


def inclusive_s(stats: dict, targets) -> float:
    """Host seconds with any of *targets* on the stack.

    A generator's cumulative time covers only the intervals it is resumed
    for, which is the host time spent under it. Where one target calls
    another (``put`` -> ``put_indexed``) the nested part is counted once.
    """
    funcs = _matching(stats, targets)
    total = sum(stats[f][3] for f in funcs)
    for f in funcs:
        for caller, (_nc, _cc, _tt, ct) in stats[f][4].items():
            if caller in funcs and caller != f:
                total -= ct
    return total


def primitive_calls(stats: dict, targets) -> int:
    return sum(stats[f][0] for f in _matching(stats, targets))
