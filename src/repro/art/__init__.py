"""ART (Adaptive Refinement Tree) — the paper's real-application workload.

A cell-based AMR cosmology code: the 3D volume divides into uniform root
cells; cells refine into 8 children organized as fully threaded trees (FTT)
whose structure changes dynamically, so the serialized form of each tree is
a run of many small adjacent arrays of different types and sizes (Fig. 8) —
the access pattern no single derived datatype can describe, making OCIO
impractical and motivating TCIO.

The physics is replaced by a deterministic refinement driver that produces
the published tree-shape statistics (Table IV's normal segment lengths);
only the I/O behaviour matters for the reproduction.
"""

from repro.art.ftt import FttTree, FttLevel
from repro.art.layout import FttRecordLayout
from repro.art.decomposition import ArtWorkload, segment_lengths
from repro.art.app import ArtConfig, ArtResult, dump_snapshot, restart_snapshot, run_art, ArtIoMethod

__all__ = [
    "FttTree",
    "FttLevel",
    "FttRecordLayout",
    "ArtWorkload",
    "segment_lengths",
    "ArtConfig",
    "ArtResult",
    "run_art",
    "dump_snapshot",
    "restart_snapshot",
    "ArtIoMethod",
]
