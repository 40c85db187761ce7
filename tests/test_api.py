"""The package's public names."""

import dataclasses
import importlib
import types

import pytest

import qconv
from qconv import cli, tetris, training


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
    # windows step one cell at a time, ADAM's betas and epsilon are constants,
    # and ExperimentConfig takes its training fields from TrainConfig
    assert "stride" not in {f.name for f in dataclasses.fields(qconv.WindowSpec)}
    with pytest.raises(TypeError):
        qconv.WindowSpec(2, 2, 1)
    assert [f.name for f in dataclasses.fields(qconv.AdamState)] == ["m", "v", "t", "lr"]
    assert issubclass(cli.ExperimentConfig, qconv.TrainConfig)
    assert not hasattr(cli.ExperimentConfig, "train_config")
    # dataset files are write-only, and a Dataset carries no header fields
    for name in ("load_dataset", "DatasetFormatError"):
        assert not hasattr(tetris, name)
        assert name not in qconv.__all__
    assert [f.name for f in dataclasses.fields(qconv.Dataset)] == ["images", "labels", "class_names"]
    # values that can be read from the arrays, or from the key a result is
    # filed under, are not stored beside them
    assert [f.name for f in dataclasses.fields(qconv.layers.Encoded)] == ["phi"]
    assert [f.name for f in dataclasses.fields(qconv.ExperimentResult)] == ["seeds", "per_seed"]
    assert not hasattr(training, "_mean_records")
    # the Ry derivative is one signed slot swap on the coefficients' side, with no
    # per-window derivative of phi or of the Ry products beside it
    assert not hasattr(qconv.layers, "_rotation_grad")
