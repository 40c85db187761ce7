"""Procedural 3x3 Tetris-brick image dataset.

Five brick classes, in fixed label order S, L, O, T, I.  Class
geometry on the 3x3 grid (masks enumerated as every rotation and
translation that fits, deduplicated):

* S pools the S and Z tetrominoes        -> 8 configurations
* L pools the L and J tetrominoes        -> 16
* O is the 2x2 square                    -> 4
* T is the T tetromino                   -> 8
* I is the straight 3-cell line          -> 6

A dataset is two read-only arrays: (n, 3, 3, 1) float images, whose
foreground pixels are drawn uniformly from [0.7, 1) and background
from [0, 0.1), and n int64 labels.  All randomness comes from numpy's
default generator (PCG64), so any integer seed reproduces a dataset
bit for bit.

``save_dataset`` writes JSON lines, which nothing in the package reads
back: a header ``{"class_names": [...], "seed": ..., "split": "full"}``
and one ``{"label": ..., "pixels": [9 floats, row-major]}`` per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

GRID = 3
CLASS_NAMES = ("S", "L", "O", "T", "I")

FOREGROUND_RANGE = (0.7, 1.0)
BACKGROUND_RANGE = (0.0, 0.1)

# Base shapes as 0/1 rows; rotations/translations are derived.
_BASE_SHAPES = {
    "S": [
        [[0, 1, 1], [1, 1, 0]],  # S tetromino
        [[1, 1, 0], [0, 1, 1]],  # Z tetromino
    ],
    "L": [
        [[1, 0], [1, 0], [1, 1]],  # L tetromino
        [[0, 1], [0, 1], [1, 1]],  # J tetromino
    ],
    "O": [[[1, 1], [1, 1]]],
    "T": [[[1, 1, 1], [0, 1, 0]]],
    "I": [[[1, 1, 1]]],
}


@dataclass(eq=False)
class Dataset:
    """Images and labels, row for row.  Both arrays are made read-only,
    because every combination trained on a seed shares them."""

    images: np.ndarray  # (n, 3, 3, 1) float64, values in [0, 1]
    labels: np.ndarray  # (n,) int64, indices into class_names
    class_names: tuple[str, ...]

    def __post_init__(self):
        if self.labels.ndim != 1 or self.images.shape != (self.labels.size, GRID, GRID, 1):
            raise ValueError(f"images {self.images.shape} do not match labels {self.labels.shape}")
        self.images.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.labels.size


def enumerate_configurations(name: str) -> list[np.ndarray]:
    """All placements of a brick class on the 3x3 grid, as distinct binary
    masks: each base shape's four clockwise turns in order, each at every
    offset that fits, row-major.  A turn equal to an earlier one adds no
    mask."""
    if name not in _BASE_SHAPES:
        raise ValueError(f"unknown brick class {name!r}, expected one of {CLASS_NAMES}")
    masks: dict[bytes, np.ndarray] = {}
    for base in _BASE_SHAPES[name]:
        shape = np.array(base, dtype=np.uint8)
        for turn in (np.rot90(shape, -k) for k in range(4)):
            height, width = turn.shape
            for dr in range(GRID - height + 1):
                for dc in range(GRID - width + 1):
                    mask = np.zeros((GRID, GRID), dtype=np.uint8)
                    mask[dr : dr + height, dc : dc + width] = turn
                    masks.setdefault(mask.tobytes(), mask)
    return list(masks.values())


_CONFIGURATIONS = {name: enumerate_configurations(name) for name in CLASS_NAMES}


def generate_dataset(n: int, seed: int) -> Dataset:
    """Draw n samples: uniform class, uniform configuration, random pixels.

    Each sample takes three draws in order (class, configuration, 9
    uniforms)."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    fg_lo, fg_hi = FOREGROUND_RANGE
    bg_lo, bg_hi = BACKGROUND_RANGE
    labels = np.empty(n, dtype=np.int64)
    masks = np.empty((n, GRID * GRID), dtype=np.uint8)
    u = np.empty((n, GRID * GRID))
    for i in range(n):
        labels[i] = rng.integers(len(CLASS_NAMES))
        configs = _CONFIGURATIONS[CLASS_NAMES[labels[i]]]
        masks[i] = configs[int(rng.integers(len(configs)))].ravel()
        rng.random(out=u[i])
    pixels = np.where(masks == 1, fg_lo + (fg_hi - fg_lo) * u, bg_lo + (bg_hi - bg_lo) * u)
    return Dataset(pixels.reshape(n, GRID, GRID, 1), labels, CLASS_NAMES)


def split(dataset: Dataset, train_fraction: float = 0.8, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded random split into disjoint, exhaustive train/test datasets."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    n_train = math.floor(train_fraction * n)
    if n_train < 1 or n_train >= n:
        raise ValueError(f"split of {n} samples at {train_fraction} leaves an empty side")
    order = np.random.default_rng(seed).permutation(n)
    return tuple(
        Dataset(dataset.images[rows], dataset.labels[rows], dataset.class_names)
        for rows in (order[:n_train], order[n_train:])
    )


def filter_labels(dataset: Dataset, names) -> Dataset:
    """Keep only the named classes, relabelled densely in the given order."""
    names = tuple(names)
    if not names:
        raise ValueError("need at least one class name to filter on")
    for name in names:
        if name not in dataset.class_names:
            raise ValueError(f"unknown class {name!r}, dataset has {dataset.class_names}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate class names in {names}")
    relabel = np.full(len(dataset.class_names), -1, dtype=np.int64)
    relabel[[dataset.class_names.index(name) for name in names]] = np.arange(len(names))
    labels = relabel[dataset.labels]
    kept = labels >= 0
    return Dataset(dataset.images[kept], labels[kept], names)


def save_dataset(dataset: Dataset, path, seed: int) -> None:
    """Write the JSON-lines form described in the module docstring."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"class_names": list(dataset.class_names), "seed": seed, "split": "full"}
        fh.write(json.dumps(header) + "\n")
        pixels = dataset.images.reshape(len(dataset), GRID * GRID).tolist()
        for label, row in zip(dataset.labels.tolist(), pixels):
            fh.write(json.dumps({"label": label, "pixels": row}) + "\n")
