"""Brick geometry, dataset generation, splitting, filtering, serialization."""

import hashlib
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from qconv.tetris import (
    CLASS_NAMES,
    Dataset,
    DatasetFormatError,
    enumerate_configurations,
    filter_labels,
    generate_dataset,
    load_dataset,
    save_dataset,
    split,
)

import oracles

EXPECTED_COUNTS = {"S": 8, "L": 16, "O": 4, "T": 8, "I": 6}


# ---------------------------------------------------------------------------
# configurations

def test_configuration_counts():
    for name, count in EXPECTED_COUNTS.items():
        assert len(enumerate_configurations(name)) == count


def test_configurations_distinct_and_fit_grid():
    for name in CLASS_NAMES:
        masks = enumerate_configurations(name)
        assert len({m.tobytes() for m in masks}) == len(masks)
        for mask in masks:
            assert mask.shape == (3, 3)
            assert set(np.unique(mask)) <= {0, 1}


def test_square_configurations_are_the_four_corners():
    masks = {m.tobytes() for m in enumerate_configurations("O")}
    want = set()
    for dr in (0, 1):
        for dc in (0, 1):
            m = np.zeros((3, 3), dtype=np.uint8)
            m[dr : dr + 2, dc : dc + 2] = 1
            want.add(m.tobytes())
    assert masks == want


def test_line_configurations_are_rows_and_columns():
    masks = {m.tobytes() for m in enumerate_configurations("I")}
    want = set()
    for i in range(3):
        row = np.zeros((3, 3), dtype=np.uint8)
        row[i, :] = 1
        col = np.zeros((3, 3), dtype=np.uint8)
        col[:, i] = 1
        want.update({row.tobytes(), col.tobytes()})
    assert masks == want


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        enumerate_configurations("X")


def test_enumeration_order_deterministic():
    a = enumerate_configurations("L")
    b = enumerate_configurations("L")
    for m1, m2 in zip(a, b):
        np.testing.assert_array_equal(m1, m2)


# ---------------------------------------------------------------------------
# generation

def test_generated_pixels_respect_both_ranges():
    dataset = generate_dataset(1000, seed=0)
    assert len(dataset) == 1000
    assert dataset.images.shape == (1000, 3, 3, 1) and dataset.labels.dtype == np.int64
    for image, label in zip(dataset.images, dataset.labels):
        pixels = image.ravel()
        assert 0 <= label < 5
        assert np.all(((0.0 <= pixels) & (pixels <= 0.1)) | ((0.7 <= pixels) & (pixels <= 1.0)))
        # foreground count matches some configuration of the labelled class
        fg = int((pixels >= 0.7).sum())
        sizes = {int(m.sum()) for m in enumerate_configurations(CLASS_NAMES[label])}
        assert fg in sizes


def test_generation_is_reproducible():
    a = generate_dataset(50, seed=123)
    b = generate_dataset(50, seed=123)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.images, b.images)


@pytest.mark.parametrize("n, seed, digest", [
    (1000, 0, "70e5ee320cbe92ca284dbdd2be2858a5d5ba253e0ffbeeb54be9e88fb2a36548"),
    (50, 123, "888de3e6af97402af07a09f47d0547e1539269677d807c64d9e919fe99474f82"),
])
def test_generated_dataset_is_pinned(n, seed, digest):
    # sha256 of the stacked images and the int64 labels; any change to the
    # draws, their order or the pixel formula moves every result downstream
    dataset = generate_dataset(n, seed)
    assert hashlib.sha256(dataset.images.tobytes() + dataset.labels.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("field", ["images", "labels"])
@pytest.mark.parametrize("make", [
    lambda: generate_dataset(20, seed=0),
    lambda: split(generate_dataset(20, seed=0), 0.5, seed=0)[0],
    lambda: split(generate_dataset(20, seed=0), 0.5, seed=0)[1],
    lambda: filter_labels(generate_dataset(20, seed=0), ("T", "S")),
], ids=["generate_dataset", "split-train", "split-test", "filter_labels"])
def test_generated_images_are_read_only(make, field):
    # every combination trained on a seed shares these arrays
    array = getattr(make(), field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0


def test_dataset_rejects_arrays_of_different_lengths():
    with pytest.raises(ValueError, match="do not match"):
        Dataset(np.zeros((3, 3, 3, 1)), np.zeros(2, dtype=np.int64), CLASS_NAMES)


def test_generation_seed_changes_data():
    a = generate_dataset(50, seed=1)
    b = generate_dataset(50, seed=2)
    assert not np.array_equal(a.labels, b.labels) or not np.array_equal(a.images, b.images)


def test_label_frequencies_near_uniform():
    dataset = generate_dataset(5000, seed=7)
    counts = np.bincount(dataset.labels, minlength=5)
    np.testing.assert_allclose(counts / 5000.0, 0.2, atol=0.05)


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate_dataset(0, seed=0)


# ---------------------------------------------------------------------------
# split / filter

def test_split_800_200():
    dataset = generate_dataset(1000, seed=3)
    train, test = split(dataset, 0.8, seed=0)
    assert len(train) == 800 and len(test) == 200
    assert train.split_tag == "train" and test.split_tag == "test"
    assert train.class_names == test.class_names == CLASS_NAMES


def test_split_half_of_two():
    dataset = generate_dataset(2, seed=4)
    train, test = split(dataset, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_split_reproducible():
    dataset = generate_dataset(100, seed=5)
    a_train, a_test = split(dataset, 0.8, seed=9)
    b_train, b_test = split(dataset, 0.8, seed=9)
    np.testing.assert_array_equal(a_train.images, b_train.images)
    np.testing.assert_array_equal(a_test.labels, b_test.labels)


def test_split_rejects_degenerate_sizes():
    dataset = generate_dataset(1, seed=6)
    with pytest.raises(ValueError):
        split(dataset, 0.8, seed=0)
    with pytest.raises(ValueError):
        split(generate_dataset(10, seed=6), 1.0, seed=0)


def test_filter_two_classes_relabels_densely():
    dataset = generate_dataset(1000, seed=8)
    picked = filter_labels(dataset, ("S", "T"))
    counts = np.bincount(dataset.labels, minlength=5)
    assert picked.class_names == ("S", "T")
    # S keeps index 0, T becomes 1
    np.testing.assert_array_equal(np.bincount(picked.labels, minlength=2), counts[[0, 3]])


def test_filter_all_names_is_identity():
    dataset = generate_dataset(40, seed=9)
    same = filter_labels(dataset, CLASS_NAMES)
    assert len(same) == 40
    np.testing.assert_array_equal(same.labels, dataset.labels)
    np.testing.assert_array_equal(same.images, dataset.images)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    fraction=st.floats(0.01, 0.99),
    data_seed=st.integers(0, 2**32 - 1),
    split_seed=st.integers(0, 2**32 - 1),
    names=st.lists(st.sampled_from(CLASS_NAMES), min_size=1, unique=True).map(tuple),
)
def test_split_then_filter_match_row_oracle(n, fraction, data_seed, split_seed, names):
    assume(1 <= math.floor(fraction * n) < n)
    dataset = generate_dataset(n, data_seed)
    rows = oracles.split_rows(n, fraction, split_seed)
    assert sorted(rows[0] + rows[1]) == list(range(n))  # disjoint and exhaustive
    for side, side_rows, tag in zip(split(dataset, fraction, split_seed), rows, ("train", "test")):
        picked = filter_labels(side, names)
        kept, labels = oracles.filter_rows(side_rows, dataset.labels.tolist(), CLASS_NAMES, names)
        assert (side.split_tag, picked.split_tag, picked.class_names) == (tag, tag, names)
        assert len(side) == len(side_rows) and picked.labels.tolist() == labels
        for got, row in zip(side.images, side_rows):
            assert np.array_equal(got, dataset.images[row])
        assert len(picked) == len(kept)
        for got, row in zip(picked.images, kept):
            assert np.array_equal(got, dataset.images[row])


def test_filter_rejects_empty_and_unknown():
    dataset = generate_dataset(10, seed=10)
    with pytest.raises(ValueError):
        filter_labels(dataset, ())
    with pytest.raises(ValueError):
        filter_labels(dataset, ("S", "Q"))


def test_split_and_filter_do_not_mutate_source():
    dataset = generate_dataset(30, seed=11)
    labels_before, images_before = dataset.labels.copy(), dataset.images.copy()
    split(dataset, 0.5, seed=0)
    filter_labels(dataset, ("S", "T"))
    np.testing.assert_array_equal(dataset.labels, labels_before)
    np.testing.assert_array_equal(dataset.images, images_before)


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path):
    dataset = generate_dataset(25, seed=12)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.class_names == dataset.class_names
    assert loaded.seed == dataset.seed
    assert loaded.split_tag == dataset.split_tag
    assert len(loaded) == len(dataset)
    np.testing.assert_array_equal(loaded.labels, dataset.labels)
    np.testing.assert_array_equal(loaded.images, dataset.images)


def test_load_truncated_record_reports_line(tmp_path):
    dataset = generate_dataset(3, seed=13)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:2] + [text[3][:20]]) + "\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_out_of_range_pixel(tmp_path):
    path = tmp_path / "data.jsonl"
    header = '{"class_names": ["S", "L", "O", "T", "I"], "seed": 0, "split": "full"}'
    record = '{"label": 0, "pixels": [1.5, 0, 0, 0, 0, 0, 0, 0, 0]}'
    path.write_text(header + "\n" + record + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_load_rejects_mid_range_pixel(tmp_path):
    # 0.5 is outside both the background and foreground bands
    path = tmp_path / "data.jsonl"
    header = '{"class_names": ["S", "T"], "seed": 0, "split": "full"}'
    record = '{"label": 1, "pixels": [0.5, 0, 0, 0, 0, 0, 0, 0, 0]}'
    path.write_text(header + "\n" + record + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(path)


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "data.jsonl"
    header = '{"class_names": ["S", "T"], "seed": 0, "split": "full"}'
    record = '{"label": 7, "pixels": [0, 0, 0, 0, 0, 0, 0, 0, 0]}'
    path.write_text(header + "\n" + record + "\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_saved_filtered_dataset_round_trips(tmp_path):
    dataset = filter_labels(generate_dataset(60, seed=14), ("S", "T"))
    path = tmp_path / "two.jsonl"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.class_names == ("S", "T")
    np.testing.assert_array_equal(loaded.labels, dataset.labels)
    np.testing.assert_array_equal(loaded.images, dataset.images)
