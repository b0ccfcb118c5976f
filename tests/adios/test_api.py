import numpy as np
import pytest

from repro.adios.api import Adios, IO
from repro.util.errors import AdiosError, VariableError


class TestAdios:
    def test_declare_and_at(self):
        adios = Adios()
        io = adios.declare_io("sim")
        assert adios.at_io("sim") is io

    def test_duplicate_io_rejected(self):
        adios = Adios()
        adios.declare_io("sim")
        with pytest.raises(AdiosError):
            adios.declare_io("sim")

    def test_unknown_io(self):
        with pytest.raises(AdiosError):
            Adios().at_io("nope")

    def test_remove_io(self):
        adios = Adios()
        adios.declare_io("sim")
        adios.remove_io("sim")
        adios.declare_io("sim")  # can re-declare


class TestIO:
    def test_define_and_inquire(self):
        io = IO("x")
        v = io.define_variable("U", np.float64, shape=(4, 4, 4), count=(4, 4, 4))
        assert io.inquire_variable("U") is v

    def test_duplicate_variable_rejected(self):
        io = IO("x")
        io.define_variable("U", np.float64)
        with pytest.raises(VariableError):
            io.define_variable("U", np.float64)

    def test_inquire_unknown(self):
        with pytest.raises(VariableError):
            IO("x").inquire_variable("U")

    def test_remove_variable(self):
        io = IO("x")
        io.define_variable("U", np.float64)
        io.remove_variable("U")
        io.define_variable("U", np.float64)

    def test_duplicate_attribute_rejected(self):
        io = IO("x")
        io.define_attribute("Du", 0.2)
        with pytest.raises(VariableError):
            io.define_attribute("Du", 0.3)

    def test_attribute_type_validated_eagerly(self):
        with pytest.raises(VariableError):
            IO("x").define_attribute("bad", object())

    def test_engine_selection(self):
        io = IO("x")
        io.set_engine("BP5")
        with pytest.raises(AdiosError):
            io.set_engine("HDF5")

    def test_parameters_stringly(self):
        io = IO("x")
        io.set_parameter("NumAggregators", 4)
        assert io.parameters["NumAggregators"] == "4"
