"""A message-passing substrate mirroring the MPI.jl usage in the paper.

The paper's communication layer (Section 3.3) is: an MPI Cartesian
communicator decomposing the 3D domain, ghost-cell face exchange with
``MPI_Send``/``MPI_Recv``, and strided ``MPI_Type_vector`` datatypes for
the non-contiguous faces (Listing 3). This package implements all of it
for real:

- :mod:`repro.mpi.datatypes` — base and vector datatypes
  with pack/unpack against NumPy buffers;
- :mod:`repro.mpi.comm` — communicators with tag/source matching,
  blocking and nonblocking point-to-point, and truncation checking;
- :mod:`repro.mpi.collectives` — barrier/bcast/reduce/allreduce/gather/
  allgather/scatter/alltoall built from point-to-point with the classic
  tree/ring algorithms;
- :mod:`repro.mpi.cart` — ``dims_create`` and Cartesian topologies with
  ``shift`` (the paper's decomposition);
- :mod:`repro.mpi.executor` — ``run_spmd``: run an SPMD function across
  N ranks on threads (NumPy releases the GIL, so halo exchange runs
  genuinely concurrently);
- :mod:`repro.mpi.netmodel` — the LogGP-style performance model used to
  reproduce Frontier-scale weak scaling (Figure 6), where 4,096 real
  ranks are out of reach for a single process.

Ranks at mini scale execute the *real protocol*; the network model is
only consulted for modeled Frontier timings.
"""

from repro.mpi.datatypes import (
    Datatype,
    BaseDatatype,
    VectorDatatype,
    DOUBLE,
    FLOAT,
    INT32,
    INT64,
    pack,
    unpack,
)
from repro.mpi.comm import Comm, Job, Message, ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.request import Request
from repro.mpi.cart import CartComm, dims_create
from repro.mpi.executor import run_spmd

__all__ = [
    "Datatype",
    "BaseDatatype",
    "VectorDatatype",
    "DOUBLE",
    "FLOAT",
    "INT32",
    "INT64",
    "pack",
    "unpack",
    "Comm",
    "Job",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Request",
    "CartComm",
    "dims_create",
    "run_spmd",
]
