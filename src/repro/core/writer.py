"""ADIOS2-style simulation output (paper Section 3.4, Listing 1).

Writes the U and V global arrays (one block per rank), the ``step``
scalar, the physics parameters as provenance attributes, and the
FIDES/VTX visualization-schema attributes that let ParaView readers
consume the dataset — reproducing the provenance record of Listing 1.
"""

from __future__ import annotations

import numpy as np

from repro.adios.api import Adios, IO
from repro.core.simulation import Simulation
from repro.mpi.comm import Comm


class SimulationWriter:
    """Owns the ADIOS IO + engine for one simulation's output stream."""

    def __init__(
        self,
        sim: Simulation,
        path: str | None = None,
        *,
        comm: Comm | None = None,
        io_name: str = "SimulationOutput",
        mode: str = "w",
    ):
        self.sim = sim
        self.path = path or sim.settings.output
        self.adios = Adios()
        self.io: IO = self.adios.declare_io(io_name)
        self.io.set_engine(sim.settings.adios_engine)

        shape = sim.settings.shape
        start = sim.domain.start
        count = sim.domain.count
        self.var_u = self.io.define_variable(
            "U", sim.dtype, shape=shape, start=start, count=count
        )
        self.var_v = self.io.define_variable(
            "V", sim.dtype, shape=shape, start=start, count=count
        )
        self.var_step = self.io.define_variable("step", np.int32)

        for name, value in sim.params.as_attributes().items():
            self.io.define_attribute(name, value)
        self.io.define_attribute("L", sim.settings.L)
        self.io.define_attribute("seed", sim.settings.seed)
        self.io.define_attribute("backend", sim.settings.backend)
        # ParaView readers (paper Section 3.4): FIDES and VTX schemas
        self.io.define_attribute("visualization_schemas", ["FIDES", "VTX"])
        self.io.define_attribute(
            "Fides_Data_Model", "uniform"
        )
        self.io.define_attribute(
            "vtk.xml",
            "<VTKFile type=\"ImageData\"><ImageData>"
            "<CellData Scalars=\"U\"/></ImageData></VTKFile>",
        )

        comm = comm if comm is not None else sim.cart
        self.engine = self.io.open(self.path, mode, comm=comm)

    def write(self) -> None:
        """Write one output step of the current simulation state."""
        self.engine.begin_step()
        # put snapshots its data (sync semantics): the one gather of the live view
        self.engine.put(self.var_u, self.sim.interior("u"))
        self.engine.put(self.var_v, self.sim.interior("v"))
        self.engine.put(self.var_step, np.int32(self.sim.step_count))
        self.engine.end_step()

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "SimulationWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
