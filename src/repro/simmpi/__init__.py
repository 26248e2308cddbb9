"""Simulated MPI: datatypes, point-to-point, collectives, one-sided (RMA).

This package reimplements, on the discrete-event substrate, exactly the MPI
surface the paper's systems touch: derived datatypes and file views for
OCIO, nonblocking two-sided messaging for ROMIO's exchange phase, and
passive-target one-sided communication (``MPI_Win_lock``/``MPI_Put``/
``MPI_Get``/``MPI_Win_unlock``) plus ``MPI_Type_indexed`` combining for
TCIO's level-2 traffic.
"""

from repro.simmpi.datatypes import (
    Datatype,
    Primitive,
    Contiguous,
    Vector,
    Indexed,
    Subarray,
    BYTE,
    CHAR,
    SHORT,
    INT,
    FLOAT,
    DOUBLE,
    LONG,
    type_from_code,
)
from repro.simmpi.comm import Communicator, Request, Status, ANY_SOURCE, ANY_TAG, wait_all
from repro.simmpi.group import (
    GroupSpec,
    SubCommunicator,
    comm_split,
    comm_from_ranks,
)
from repro.simmpi.ft import agree, failed_ranks, shrink
from repro.simmpi.rma import Window, LOCK_EXCLUSIVE, LOCK_SHARED
from repro.simmpi.rpc import RpcEnvelope
from repro.simmpi.mpi import MpiWorld, MpiRunResult, run_mpi

__all__ = [
    "Datatype",
    "Primitive",
    "Contiguous",
    "Vector",
    "Indexed",
    "Subarray",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "FLOAT",
    "DOUBLE",
    "LONG",
    "type_from_code",
    "Communicator",
    "Request",
    "Status",
    "wait_all",
    "GroupSpec",
    "SubCommunicator",
    "comm_split",
    "comm_from_ranks",
    "ANY_SOURCE",
    "ANY_TAG",
    "agree",
    "failed_ranks",
    "shrink",
    "Window",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "RpcEnvelope",
    "MpiWorld",
    "MpiRunResult",
    "run_mpi",
]
