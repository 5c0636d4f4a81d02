"""Dataset synthesis, splitting and the plain-text samples format."""
import tracemalloc

import numpy as np
import pytest

from fedbft.data import (Dataset, EnterpriseData, read_samples, split_dataset,
                         two_class_gaussian)
from sample_files import write_samples


def test_dataset_validation():
    with pytest.raises(ValueError, match="nonempty"):
        Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="one label per row"):
        Dataset(np.ones((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        Dataset(np.ones((2, 2)), np.array([1, 0]))
    with pytest.raises(ValueError, match="x must be finite"):
        Dataset(np.array([[np.nan]]), np.array([1]))
    # every value is finite, but the row's squared norm is not
    with pytest.raises(ValueError, match="x must be finite"):
        Dataset(np.array([[1e160, 1e160]]), np.array([1]))


def test_dataset_samples_roundtrip():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, -1]), owner=2)
    np.testing.assert_array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.y.tolist() == [1, -1]
    assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
    assert ds.owner == 2 and ds.dim == 2 and len(ds) == 2
    with pytest.raises(ValueError, match="read-only"):
        ds.x[0, 0] = 5.0


def test_gaussian_shape_and_balance():
    rng = np.random.default_rng(0)
    ds = two_class_gaussian(101, 3, 2.0, rng, owner=1)
    assert ds.x.shape == (101, 3)
    assert ds.owner == 1
    # odd count: the extra sample goes to class -1
    assert int((ds.y == 1).sum()) == 50
    assert int((ds.y == -1).sum()) == 51


def test_gaussian_reproducible():
    a = two_class_gaussian(50, 2, 3.0, np.random.default_rng(5))
    b = two_class_gaussian(50, 2, 3.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_gaussian_class_means_sit_separation_apart():
    rng = np.random.default_rng(11)
    sep = 3.0
    ds = two_class_gaussian(40000, 4, sep, rng)
    mean_pos = ds.x[ds.y == 1].mean(axis=0)
    mean_neg = ds.x[ds.y == -1].mean(axis=0)
    gap = float(np.linalg.norm(mean_pos - mean_neg))
    assert gap == pytest.approx(sep, abs=0.05)


def former_two_class_gaussian(n_samples, n_features, separation, rng):
    """The 0.6.0 construction: one draw per class block, stacked, shuffled."""
    n_pos = n_samples // 2
    n_neg = n_samples - n_pos
    mean = (separation / 2.0) * np.ones(n_features) / np.sqrt(n_features)
    x = np.vstack([rng.standard_normal((n_pos, n_features)) + mean,
                   rng.standard_normal((n_neg, n_features)) - mean])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64),
                        -np.ones(n_neg, dtype=np.int64)])
    order = rng.permutation(n_samples)
    return x[order], y[order]


@pytest.mark.parametrize("n_samples, n_features", [(2, 1), (101, 3), (500, 300)])
def test_gaussian_equals_the_former_two_block_draw(n_samples, n_features):
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    ds = two_class_gaussian(n_samples, n_features, 2.5, rng)
    x, y = former_two_class_gaussian(n_samples, n_features, 2.5, ref_rng)
    assert ds.x.tobytes() == x.tobytes()
    assert ds.y.tolist() == y.tolist()
    # the data substream keeps drawing after the sets, so its state must match
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gaussian_holds_at_most_two_copies_of_the_set():
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ds = two_class_gaussian(2000, 300, 3.0, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the draw and its shuffled copy, then Dataset's own copy of the latter
    assert peak < 2.5 * ds.x.nbytes


def test_gaussian_zero_separation_mixes_classes():
    ds = two_class_gaussian(100, 2, 0.0, np.random.default_rng(1))
    assert len(ds) == 100  # no separation is still a valid dataset


def test_gaussian_argument_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 2 samples"):
        two_class_gaussian(1, 2, 1.0, rng)
    with pytest.raises(ValueError, match="at least 1 feature"):
        two_class_gaussian(10, 0, 1.0, rng)
    with pytest.raises(ValueError, match="separation must be >= 0"):
        two_class_gaussian(10, 2, -1.0, rng)


def test_split_is_deterministic_tail():
    ds = two_class_gaussian(10, 2, 1.0, np.random.default_rng(2), owner=4)
    ent = split_dataset(ds)
    assert len(ent.train) == 8 and len(ent.test) == 2
    np.testing.assert_array_equal(ent.test.x, ds.x[8:])
    np.testing.assert_array_equal(ent.train.y, ds.y[:8])
    assert ent.train.owner == 4 and ent.test.owner == 4


def test_split_errors():
    ds = Dataset(np.ones((1, 2)), np.array([1]))
    with pytest.raises(ValueError, match="too small"):
        split_dataset(ds)


def test_enterprise_data_dimension_check():
    a = Dataset(np.ones((2, 2)), np.array([1, -1]))
    b = Dataset(np.ones((2, 3)), np.array([1, -1]))
    with pytest.raises(ValueError, match="dimensions differ"):
        EnterpriseData(a, b)


def test_samples_file_roundtrip(tmp_path):
    ds = two_class_gaussian(25, 3, 2.0, np.random.default_rng(6), owner=1)
    path = tmp_path / "samples.txt"
    write_samples(str(path), ds)
    back = read_samples(str(path), owner=1)
    np.testing.assert_array_equal(back.x, ds.x)  # repr() round-trips float64
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.owner == ds.owner


def test_samples_file_skips_blank_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("1 0.5 1.5\n\n-1 2.0 -0.25\n")
    ds = read_samples(str(path))
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.y, [1, -1])


@pytest.mark.parametrize("content,msg", [
    ("1 abc\n", "bad number on line 1"),
    ("1\n", "need a label and features on line 1"),
    ("2 0.5\n", "label must be -1 or \\+1 on line 1"),
    ("1 0.5\n-1 0.5 0.6\n", "inconsistent feature count"),
    ("", "no samples"),
    ("inf 0.5\n", "label must be -1 or \\+1 on line 1"),
    ("nan 0.5\n", "label must be -1 or \\+1 on line 1"),
    (b"1 0.5\n\xff\xfe\n", "cannot read .*bad.txt: not UTF-8 text"),
    # a rejection by Dataset names the file too
    ("1 0.5 inf\n-1 0.2 0.1\n", "bad.txt: x must be finite"),
])
def test_samples_file_errors(tmp_path, content, msg):
    path = tmp_path / "bad.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(ValueError, match=msg):
        read_samples(str(path))
