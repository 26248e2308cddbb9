"""Striping math: byte offsets -> (OST, stripe) coordinates.

A file with stripe size S and stripe count C starting at OST ``first_ost``
places stripe unit k (bytes ``[k*S, (k+1)*S)``) on OST
``(first_ost + k mod C) mod n_osts``. Lock units coincide with stripe units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.errors import PfsError
from repro.util.intervals import Extent


@dataclass(frozen=True)
class StripeLayout:
    """The striping of one file."""

    stripe_size: int
    stripe_count: int
    first_ost: int
    n_osts: int

    def __post_init__(self) -> None:
        if self.stripe_size < 1:
            raise PfsError("stripe_size must be positive")
        if not (1 <= self.stripe_count <= self.n_osts):
            raise PfsError("stripe_count must be in [1, n_osts]")
        if not (0 <= self.first_ost < self.n_osts):
            raise PfsError("first_ost outside OST range")

    def ost_of_stripe(self, stripe: int) -> int:
        """The OST storing stripe unit *stripe*."""
        return (self.first_ost + stripe % self.stripe_count) % self.n_osts

    def split_by_stripe(self, extent: Extent) -> Iterator[tuple[int, Extent]]:
        """Yield (stripe index, sub-extent) pieces cut at stripe boundaries."""
        if extent.is_empty():
            return
        pos = extent.start
        while pos < extent.stop:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            stop = min(extent.stop, stripe_end)
            yield stripe, Extent(pos, stop)
            pos = stop

    def split_by_ost(self, extent: Extent) -> dict[int, list[Extent]]:
        """Group an extent's stripe pieces by OST.

        Contiguous-on-one-OST runs are merged, so a large aligned write to
        a stripe_count=1 file becomes a single OST request — the behaviour
        that rewards collective aggregation.
        """
        out: dict[int, list[Extent]] = {}
        for stripe, piece in self.split_by_stripe(extent):
            ost = self.ost_of_stripe(stripe)
            pieces = out.setdefault(ost, [])
            if pieces and pieces[-1].stop == piece.start:
                pieces[-1] = Extent(pieces[-1].start, piece.stop)
            else:
                pieces.append(piece)
        return out
