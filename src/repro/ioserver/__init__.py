"""ViPIOS-style delegate I/O servers over the TCIO substrate
(``repro.ioserver``).

A configurable subset of ranks — explicit, or one leader per node via
:mod:`repro.topo` — run persistent service loops with bounded request
queues, admission control, and backpressure. Client ranks submit
open/write/flush/fetch/close requests that return as soon as they are
*admitted*; delegates apply them in the background and push committed
epochs through TCIO's journaled write-behind, so a crashed server is
recovered by the ordinary ``recover()``/``fsck`` path.

* :mod:`repro.ioserver.trace` — seeded, replayable workload traces
  (derived payloads, disjoint client regions, virtual think times).
* :mod:`repro.ioserver.protocol` — wire protocol, config, placement.
* :mod:`repro.ioserver.server` — delegate service loop + client session.
* :mod:`repro.ioserver.runner` — session runner, direct (server-less)
  replays, and load-test reporting.

See ``docs/io-server.md`` for the queueing model, the epoch write-behind
state machine, and the trace format.
"""

from repro.ioserver.protocol import (
    ADMIT,
    BUSY,
    DATA,
    DONE,
    SHUTDOWN,
    IoServerConfig,
    Placement,
    adopted_clients,
    failover_delegate,
    plan_placement,
)
from repro.ioserver.ablation import (
    DEFAULT_COUNTS,
    delegate_ablation,
    render_ablation,
)
from repro.ioserver.runner import (
    DIRECT_METHODS,
    DirectReplay,
    IoServerResult,
    plan_for,
    replay_direct,
    run_ioserver,
)
from repro.ioserver.server import BARRIER_OPS, SERVER_STEPS, run_clients, serve
from repro.ioserver.trace import (
    TraceOp,
    WorkloadTrace,
    expected_fetch,
    expected_image,
    generate_trace,
    load_trace,
    payload_bytes,
    save_trace,
)

__all__ = [
    "ADMIT",
    "BUSY",
    "DATA",
    "DONE",
    "SHUTDOWN",
    "BARRIER_OPS",
    "SERVER_STEPS",
    "DIRECT_METHODS",
    "DEFAULT_COUNTS",
    "delegate_ablation",
    "render_ablation",
    "IoServerConfig",
    "Placement",
    "adopted_clients",
    "failover_delegate",
    "plan_placement",
    "plan_for",
    "DirectReplay",
    "IoServerResult",
    "replay_direct",
    "run_ioserver",
    "run_clients",
    "serve",
    "TraceOp",
    "WorkloadTrace",
    "expected_fetch",
    "expected_image",
    "generate_trace",
    "load_trace",
    "payload_bytes",
    "save_trace",
]
