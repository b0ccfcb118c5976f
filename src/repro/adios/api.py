"""The ADIOS2-style object model: ``Adios -> IO -> Engine``.

Usage mirrors ADIOS2.jl / adios2 Python::

    adios = Adios()
    io = adios.declare_io("SimulationOutput")
    u = io.define_variable("U", np.float64, shape=(64, 64, 64),
                           start=(0, 0, 0), count=(64, 64, 64))
    io.define_attribute("Du", 0.2)
    with io.open("gs.bp", "w", comm=comm) as engine:
        engine.begin_step()
        engine.put(u, data)
        engine.end_step()
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.adios.engines import BP5Reader, BP5Writer
from repro.adios.variable import Attribute, Variable
from repro.util.errors import AdiosError, EngineStateError, VariableError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm

_ENGINES = ("BP5", "SST")


class IO:
    """A named group of variable/attribute definitions + engine config."""

    def __init__(self, name: str):
        self.name = name
        self.engine_type = "BP5"
        self.variables: dict[str, Variable] = {}
        self.attributes: dict[str, Attribute] = {}
        self.parameters: dict[str, str] = {}

    def set_engine(self, engine_type: str) -> None:
        if engine_type not in _ENGINES:
            raise AdiosError(
                f"unsupported engine {engine_type!r}; available: {_ENGINES}"
            )
        self.engine_type = engine_type

    def set_parameter(self, key: str, value) -> None:
        """Engine tuning knobs (e.g. NumAggregators), stringly like ADIOS2."""
        self.parameters[str(key)] = str(value)

    # -- definitions -------------------------------------------------------
    def define_variable(
        self,
        name: str,
        dtype=np.float64,
        shape: tuple[int, ...] = (),
        start: tuple[int, ...] = (),
        count: tuple[int, ...] = (),
    ) -> Variable:
        if name in self.variables:
            raise VariableError(f"variable {name!r} already defined on IO {self.name!r}")
        variable = Variable(name, dtype, shape, start, count)
        self.variables[name] = variable
        return variable

    def inquire_variable(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise VariableError(
                f"variable {name!r} not defined on IO {self.name!r} "
                f"(has: {sorted(self.variables)})"
            ) from None

    def remove_variable(self, name: str) -> None:
        self.variables.pop(name, None)

    def define_attribute(self, name: str, value) -> Attribute:
        if name in self.attributes:
            raise VariableError(f"attribute {name!r} already defined on IO {self.name!r}")
        attribute = Attribute(name, value)
        attribute.dtype_name()  # validate the value type eagerly
        self.attributes[name] = attribute
        return attribute

    # -- engine factory ------------------------------------------------------
    def open(self, path, mode: str, *, comm: "Comm | None" = None):
        """Open an engine: 'w' write, 'a' append, 'r' read.

        With ``set_engine("SST")``, ``path`` names an in-memory stream
        instead of a dataset directory (append is meaningless there).
        """
        if self.engine_type == "SST":
            from repro.adios.sst import SSTReader, SSTWriter

            if mode == "r":
                timeout = float(self.parameters.get("OpenTimeoutSecs", 10.0))
                return SSTReader(self, path, connect_timeout=timeout)
            if mode == "w":
                limit = int(self.parameters.get("QueueLimit", 4))
                return SSTWriter(self, path, comm=comm, queue_limit=limit)
            raise EngineStateError(f"SST supports modes 'w'/'r', not {mode!r}")
        if mode == "r":
            return BP5Reader(self, path)
        if mode in ("w", "a"):
            aggregators = self.parameters.get("NumAggregators")
            return BP5Writer(
                self,
                path,
                comm=comm,
                mode=mode,
                aggregators=int(aggregators) if aggregators else None,
            )
        raise EngineStateError(f"unknown open mode {mode!r}; use 'w', 'a', or 'r'")

    def __repr__(self) -> str:  # pragma: no cover
        return f"IO({self.name!r}, engine={self.engine_type})"


class Adios:
    """Top-level factory, one per 'process' (matches adios2.Adios)."""

    def __init__(self):
        self._ios: dict[str, IO] = {}

    def declare_io(self, name: str) -> IO:
        if name in self._ios:
            raise AdiosError(f"IO {name!r} already declared")
        io = IO(name)
        self._ios[name] = io
        return io

    def at_io(self, name: str) -> IO:
        try:
            return self._ios[name]
        except KeyError:
            raise AdiosError(f"IO {name!r} was never declared") from None

    def remove_io(self, name: str) -> None:
        self._ios.pop(name, None)
