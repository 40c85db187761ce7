"""Hybrid quantum-classical convolutional neural network.

A small Ry/CNOT parametric circuit, evaluated exactly in closed form,
used as a convolution feature map inside an otherwise classical
network, trained end to end by backpropagating its analytic gradients,
and benchmarked against a matched classical CNN on a procedural 3x3
Tetris dataset.
"""

from .layers import (
    ClassicalConv,
    Dense,
    MaxPool,
    Network,
    QuantumConv,
    WindowSpec,
    output_shape,
)
from .tetris import (
    CLASS_NAMES,
    Dataset,
    enumerate_configurations,
    filter_labels,
    generate_dataset,
    load_dataset,
    save_dataset,
    split,
)
from .training import (
    AdamState,
    ExperimentResult,
    MetricsRecord,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_network,
    evaluate,
    init_adam,
    run_experiments,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "WindowSpec", "output_shape",
    "QuantumConv", "ClassicalConv", "MaxPool", "Dense", "Network",
    "CLASS_NAMES", "Dataset", "enumerate_configurations",
    "generate_dataset", "split", "filter_labels", "save_dataset", "load_dataset",
    "AdamState", "init_adam", "adam_step", "TrainConfig", "MetricsRecord",
    "TrainingDivergedError", "evaluate", "train", "build_network",
    "run_experiments", "ExperimentResult",
    "__version__",
]
