"""The package's public names."""

import dataclasses
import importlib
import types

import pytest

import qconv
from qconv import tetris, training


def test_every_public_name_imports():
    assert len(set(qconv.__all__)) == len(qconv.__all__)
    namespace = {}
    exec("from qconv import *", namespace)
    for name in qconv.__all__:
        assert namespace[name] is getattr(qconv, name)


def test_package_exports_nothing_outside_all():
    # a name dropped from __all__ but still imported by the package shows here
    public = {
        name for name, value in vars(qconv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qconv.__all__) - {"__version__"}


def test_removed_names_are_gone():
    # a dataset is two arrays, with no per-row record type beside it, and
    # run_experiments is the one experiment entry point
    records = [name for name, value in vars(tetris).items() if dataclasses.is_dataclass(value)]
    assert records == ["Dataset"]
    assert not hasattr(training, "run_experiment")
    assert "run_experiment" not in qconv.__all__
    # the quantum filter is QuantumConv alone, with no circuit-layout module beside it
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qconv.pqc")
    assert not {"CircuitSpec", "build_circuit"} & set(qconv.__all__)
