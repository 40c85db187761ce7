"""Brick geometry, dataset generation, splitting, filtering, serialization."""

import hashlib

import numpy as np
import pytest

from qconv.tetris import (
    CLASS_NAMES,
    DatasetFormatError,
    enumerate_configurations,
    filter_labels,
    generate_dataset,
    load_dataset,
    save_dataset,
    split,
)

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
    for sample in dataset.samples:
        pixels = sample.image.ravel()
        assert sample.image.shape == (3, 3, 1)
        assert 0 <= sample.label < 5
        assert np.all(((0.0 <= pixels) & (pixels <= 0.1)) | ((0.7 <= pixels) & (pixels <= 1.0)))
        # foreground count matches some configuration of the labelled class
        fg = int((pixels >= 0.7).sum())
        sizes = {int(m.sum()) for m in enumerate_configurations(CLASS_NAMES[sample.label])}
        assert fg in sizes


def test_generation_is_reproducible():
    a = generate_dataset(50, seed=123)
    b = generate_dataset(50, seed=123)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.label == sb.label
        np.testing.assert_array_equal(sa.image, sb.image)


@pytest.mark.parametrize("n, seed, digest", [
    (1000, 0, "70e5ee320cbe92ca284dbdd2be2858a5d5ba253e0ffbeeb54be9e88fb2a36548"),
    (50, 123, "888de3e6af97402af07a09f47d0547e1539269677d807c64d9e919fe99474f82"),
])
def test_generated_dataset_is_pinned(n, seed, digest):
    # sha256 of the stacked images and the int64 labels; any change to the
    # draws, their order or the pixel formula moves every result downstream
    dataset = generate_dataset(n, seed)
    images = np.stack([s.image for s in dataset.samples])
    labels = np.array([s.label for s in dataset.samples], dtype=np.int64)
    assert hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest() == digest


def test_generated_images_are_read_only():
    # every combination trained on a seed shares these images
    sample = generate_dataset(5, seed=0).samples[0]
    with pytest.raises(ValueError):
        sample.image[0, 0, 0] = 0.5


def test_generation_seed_changes_data():
    a = generate_dataset(50, seed=1)
    b = generate_dataset(50, seed=2)
    assert any(
        sa.label != sb.label or not np.array_equal(sa.image, sb.image)
        for sa, sb in zip(a.samples, b.samples)
    )


def test_label_frequencies_near_uniform():
    dataset = generate_dataset(5000, seed=7)
    counts = np.bincount([s.label for s in dataset.samples], minlength=5)
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
    ids = {id(s) for s in dataset.samples}
    assert {id(s) for s in train.samples} | {id(s) for s in test.samples} == ids
    assert not ({id(s) for s in train.samples} & {id(s) for s in test.samples})


def test_split_half_of_two():
    dataset = generate_dataset(2, seed=4)
    train, test = split(dataset, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_split_reproducible():
    dataset = generate_dataset(100, seed=5)
    a_train, a_test = split(dataset, 0.8, seed=9)
    b_train, b_test = split(dataset, 0.8, seed=9)
    assert [s.label for s in a_train.samples] == [s.label for s in b_train.samples]
    assert [s.label for s in a_test.samples] == [s.label for s in b_test.samples]


def test_split_rejects_degenerate_sizes():
    dataset = generate_dataset(1, seed=6)
    with pytest.raises(ValueError):
        split(dataset, 0.8, seed=0)
    with pytest.raises(ValueError):
        split(generate_dataset(10, seed=6), 1.0, seed=0)


def test_filter_two_classes_relabels_densely():
    dataset = generate_dataset(1000, seed=8)
    picked = filter_labels(dataset, ("S", "T"))
    want = sum(1 for s in dataset.samples if CLASS_NAMES[s.label] in ("S", "T"))
    assert len(picked) == want
    assert picked.class_names == ("S", "T")
    assert set(s.label for s in picked.samples) <= {0, 1}
    # S keeps index 0, T becomes 1
    original_s = [s for s in dataset.samples if CLASS_NAMES[s.label] == "S"]
    filtered_s = [s for s in picked.samples if s.label == 0]
    assert len(original_s) == len(filtered_s)


def test_filter_all_names_is_identity():
    dataset = generate_dataset(40, seed=9)
    same = filter_labels(dataset, CLASS_NAMES)
    assert len(same) == 40
    assert [s.label for s in same.samples] == [s.label for s in dataset.samples]


def test_filter_rejects_empty_and_unknown():
    dataset = generate_dataset(10, seed=10)
    with pytest.raises(ValueError):
        filter_labels(dataset, ())
    with pytest.raises(ValueError):
        filter_labels(dataset, ("S", "Q"))


def test_split_and_filter_do_not_mutate_source():
    dataset = generate_dataset(30, seed=11)
    labels_before = [s.label for s in dataset.samples]
    images_before = [s.image.copy() for s in dataset.samples]
    split(dataset, 0.5, seed=0)
    filter_labels(dataset, ("S", "T"))
    assert [s.label for s in dataset.samples] == labels_before
    for s, img in zip(dataset.samples, images_before):
        np.testing.assert_array_equal(s.image, img)


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
    for a, b in zip(dataset.samples, loaded.samples):
        assert a.label == b.label
        np.testing.assert_array_equal(a.image, b.image)


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
    assert [s.label for s in loaded.samples] == [s.label for s in dataset.samples]
