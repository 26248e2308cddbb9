"""Programs 2 & 3: the paper's programming-effort listings, executable.

Section V.B.1 contrasts the code needed to run the same workload through
OCIO (combine buffer + derived datatypes + file view + collective call)
and TCIO (plain positional writes). This module extracts this repository's
executable equivalents and the measured effort metrics for EXPERIMENTS.md.
"""

from __future__ import annotations

import inspect
import textwrap

from repro.bench import synthetic
from repro.bench.config import Method
from repro.bench.effort import EffortMetrics, effort_report


def program_sources() -> dict[str, str]:
    """The executable Program 2 / Program 3 source listings."""
    return {
        "Program 2 (OCIO)": textwrap.dedent(inspect.getsource(synthetic._ocio_write)),
        "Program 3 (TCIO)": textwrap.dedent(inspect.getsource(synthetic._tcio_write)),
        "vanilla MPI-IO": textwrap.dedent(inspect.getsource(synthetic._mpiio_write)),
    }


def program_listings() -> tuple[dict[str, str], dict[Method, EffortMetrics], str]:
    """Sources, metrics, and a rendered comparison block."""
    sources = program_sources()
    metrics = effort_report()
    ocio, tcio = metrics[Method.OCIO], metrics[Method.TCIO]
    lines = [
        "Programming effort (measured on the executable listings):",
        f"  OCIO (Program 2): {ocio.statements} statements, "
        f"{ocio.io_calls} I/O-API calls, burdens: "
        f"combine-buffer={ocio.needs_combine_buffer}, "
        f"datatypes={ocio.needs_derived_datatypes}, "
        f"file-view={ocio.needs_file_view}",
        f"  TCIO (Program 3): {tcio.statements} statements, "
        f"{tcio.io_calls} I/O-API calls, burdens: "
        f"combine-buffer={tcio.needs_combine_buffer}, "
        f"datatypes={tcio.needs_derived_datatypes}, "
        f"file-view={tcio.needs_file_view}",
        f"  statement ratio (OCIO/TCIO): {ocio.statements / tcio.statements:.2f}x",
    ]
    return sources, metrics, "\n".join(lines)

