"""Byte-size and time formatting helpers.

The paper reports sizes as "768MB", "48GB", stripe sizes as "1MB", and
throughput as MB/s. We use binary units (1 MB = 2**20 bytes, matching
Lustre's stripe-size arithmetic).
"""

from __future__ import annotations

KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4


def format_size(nbytes: int | float) -> str:
    """Render a byte count with the largest suffix that keeps it >= 1.

    >>> format_size(48 * GIB)
    '48GB'
    >>> format_size(768 * MIB)
    '768MB'
    """
    nbytes = float(nbytes)
    for mult, suffix in ((TIB, "TB"), (GIB, "GB"), (MIB, "MB"), (KIB, "KB")):
        if abs(nbytes) >= mult:
            value = nbytes / mult
            if value == int(value):
                return f"{int(value)}{suffix}"
            return f"{value:.2f}{suffix}"
    return f"{int(nbytes)}B"


def format_time(seconds: float) -> str:
    """Render simulated seconds human-readably (us/ms/s/min)."""
    if seconds < 0:
        return "-" + format_time(-seconds)
    if seconds == 0:
        return "0s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 120:
        return f"{seconds:.2f}s"
    return f"{seconds / 60:.1f}min"

