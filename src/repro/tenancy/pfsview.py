"""Per-job namespace views over one shared parallel file system.

Each tenant job sees the PFS through a :class:`TenantPfs`: every name it
creates or looks up is transparently prefixed with ``"<job>/"``, so two
jobs writing ``bench.dat`` land in distinct files and a crashing job
leaves only its own journals behind. Physics (OSTs, client links, locks)
stays shared — that is the whole point of the tenancy model: namespace
isolation with resource contention. The view also carries the job's
recorder: the files it creates (with their lock managers) and the clients
it hands out record into that job's registry, never the machine's.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.util.errors import PfsError

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.file import PfsFile
    from repro.pfs.filesystem import Pfs, PfsClient
    from repro.sim.trace import TraceRecorder


class TenantPfs:
    """One job's view of a shared :class:`~repro.pfs.filesystem.Pfs`.

    Covers what a tenant job's ranks call on ``Pfs``: ``create``,
    ``lookup`` and ``list_files`` carry the job prefix, ``client()`` hands
    out tenant-tagged clients for QoS attribution, the files and clients
    record into *trace* (by default the shared instance's recorder), and
    ``spec`` passes straight through to the shared instance. It has no
    ``exists``, so TCIO's ``ft`` recovery is unsupported under tenancy,
    and fsck/recover take the shared ``Pfs`` and the qualified
    ``"<job>/<file>"`` name.
    """

    def __init__(self, base: "Pfs", job: str, trace: "Optional[TraceRecorder]" = None):
        if "/" in job or not job:
            raise PfsError("tenant job name must be non-empty and '/'-free")
        self.base = base
        self.job = job
        self.trace = trace or base.trace
        self._prefix = f"{job}/"

    # -- physical passthrough -----------------------------------------
    @property
    def spec(self):
        return self.base.spec

    # -- namespace (prefixed) -----------------------------------------
    def _qualify(self, name: str) -> str:
        return self._prefix + name

    def create(
        self,
        name: str,
        *,
        stripe_count: Optional[int] = None,
        first_ost: Optional[int] = None,
    ) -> "PfsFile":
        return self.base.create(
            self._qualify(name),
            stripe_count=stripe_count,
            trace=self.trace,
            first_ost=first_ost,
        )

    def lookup(self, name: str) -> "PfsFile":
        return self.base.lookup(self._qualify(name))

    def list_files(self) -> Sequence[str]:
        """This job's files only, prefix stripped (sorted)."""
        plen = len(self._prefix)
        return [
            n[plen:] for n in self.base.list_files() if n.startswith(self._prefix)
        ]

    # -- clients -------------------------------------------------------
    def client(self, node: int) -> "PfsClient":
        """A tenant-tagged storage client of compute node *node*."""
        return self.base.client(node, tenant=self.job, trace=self.trace)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TenantPfs job={self.job!r} over {self.base!r}>"
