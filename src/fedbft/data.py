"""Datasets: binary-labelled feature matrices, synthesis and plain-text IO."""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Sequence, TextIO

import numpy as np

from .domain import frozen

__all__ = [
    "Dataset",
    "EnterpriseData",
    "two_class_gaussian",
    "split_dataset",
    "read_text",
    "read_samples",
    "read_enterprises",
]

# Share of a dataset's rows, at least one, that split_dataset holds out.
TEST_FRACTION = 0.2
# feature values fl-run may synthesize, or read from its data files, in
# all, about 130 MB of float64; a set is built in one buffer and kept in it,
# so building it holds that buffer and little more, and a data file's
# buffer at most doubles the values it has read so far
MAX_FEATURE_VALUES = 1 << 24


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix x (N, n) with labels y (N,) in {-1, +1}.

    Both arrays are read-only: ``domain.frozen`` keeps frozen float64
    features or int64 labels as given, view or not, and copies any other
    input.  A set carries no enterprise id; an enterprise is its position
    in the list it is trained in.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = frozen(self.x)
        y = frozen(self.y, np.int64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
            raise ValueError("x must be a nonempty (N, n) matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("y must have one label per row of x")
        # training forms dot products of rows, so each row's squared norm
        # must be finite too; a nan or infinite value fails the same check
        with np.errstate(over="ignore"):
            if not np.isfinite(np.einsum("ij,ij->i", x, x)).all():
                raise ValueError("x must be finite, with finite squared row norms")
        if not np.isin(y, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class EnterpriseData:
    """One enterprise's private split: training rows plus held-back test rows."""

    train: Dataset
    test: Dataset

    def __post_init__(self) -> None:
        if self.train.dim != self.test.dim:
            raise ValueError("train and test dimensions differ")


def two_class_gaussian(
    n_samples: int,
    n_features: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Balanced two-cluster data: class means at +/- separation/2 along (1,..,1)/sqrt(n).

    The two clusters are unit-variance Gaussians whose means sit
    ``separation`` apart, so a larger value makes the classes easier to
    tell apart.  Labels come out exactly balanced (odd counts give the
    extra row to class -1) and rows are shuffled with the supplied rng.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if n_features < 1:
        raise ValueError("need at least 1 feature")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    n_pos = n_samples // 2
    mean = (separation / 2.0) * np.ones(n_features) / np.sqrt(n_features)
    # one draw for both classes, class +1 rows first (README "Determinism"),
    # with the means added in place: the set lives in this one buffer
    x = rng.standard_normal((n_samples, n_features))
    x[:n_pos] += mean
    x[n_pos:] -= mean
    # shuffled in place with the draws of permutation(N) (README
    # "Determinism"): from one saved state, that order gives the labels, a
    # row drawn from below n_pos being class +1, and shuffle() moves the
    # rows themselves, each viewed as one opaque item
    state = rng.bit_generator.state
    y = np.where(rng.permutation(n_samples) < n_pos, 1, -1)
    rng.bit_generator.state = state
    rng.shuffle(x.view(np.dtype((np.void, x[0].nbytes))).reshape(n_samples))
    x.setflags(write=False)
    y.setflags(write=False)
    return Dataset(x, y)


def split_dataset(ds: Dataset) -> EnterpriseData:
    """Deterministic head/tail split; the last rows become the test set.

    Both parts are read-only views of ``ds``'s rows, so the split copies
    nothing.
    """
    n_test = max(1, int(round(len(ds) * TEST_FRACTION)))
    if n_test >= len(ds):
        raise ValueError("dataset too small to split")
    cut = len(ds) - n_test
    return EnterpriseData(
        train=Dataset(ds.x[:cut], ds.y[:cut]),
        test=Dataset(ds.x[cut:], ds.y[cut:]),
    )


@contextmanager
def _text_file(path: str, what: str = "") -> Iterator[TextIO]:
    """A UTF-8 text file open for reading.  Failing to open it, or to
    decode what the ``with`` body reads from it, is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
        return
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ValueError(f"cannot read {what}{path}: {reason}")


def read_text(path: str, what: str = "") -> str:
    """A whole UTF-8 text file; failing to read it is a ValueError naming it."""
    with _text_file(path, what) as fh:
        return fh.read()


def read_samples(path: str, budget: int = MAX_FEATURE_VALUES) -> Dataset:
    """Parse plain-text samples: one per line, the label then the feature values.

    The file is read line by line into one float64 buffer, and the labels
    into one int64 buffer, each doubling when full and trimmed at the end.
    A file of more than ``budget`` feature values, the share of
    ``MAX_FEATURE_VALUES`` left to it, fails at the line that crosses it,
    counted from its tokens before any of them is parsed.
    """
    xs = np.empty(1024)
    ys = np.empty(64, dtype=np.int64)
    n_values = n_rows = 0
    widths: set[int] = set()
    with _text_file(path) as fh:
        # str.splitlines on each read line splits where splitlines on the
        # whole text would, at \v, \f and the other separators too
        lines = chain.from_iterable(map(str.splitlines, fh))
        for lineno, line in enumerate(lines, start=1):
            tokens = line.split()
            if not tokens:
                continue
            end = n_values + len(tokens) - 1
            if end > budget:
                raise ValueError(f"{path}: data files hold more than "
                                 f"{MAX_FEATURE_VALUES} feature values in all")
            # the features go straight into one float64 array, with no
            # list of Python floats in between
            try:
                label = float(tokens[0])
                features = np.fromiter(map(float, islice(tokens, 1, None)),
                                       np.float64, len(tokens) - 1)
            except ValueError:
                raise ValueError(f"bad number on line {lineno} of {path}") from None
            if len(tokens) < 2:
                raise ValueError(f"need a label and features on line {lineno} of {path}")
            if label not in (-1.0, 1.0):
                raise ValueError(f"label must be -1 or +1 on line {lineno} of {path}")
            # resize() keeps the values so far; no view of a buffer is alive
            if end > xs.size:
                xs.resize(2 * end, refcheck=False)
            if n_rows == ys.size:
                ys.resize(2 * n_rows, refcheck=False)
            xs[n_values:end] = features
            ys[n_rows] = label
            widths.add(end - n_values)
            n_values, n_rows = end, n_rows + 1
    if not n_rows:
        raise ValueError(f"no samples in {path}")
    if len(widths) != 1:
        raise ValueError(f"inconsistent feature count in {path}")
    xs.resize(n_values, refcheck=False)
    ys.resize(n_rows, refcheck=False)
    xs.setflags(write=False)
    ys.setflags(write=False)
    try:
        return Dataset(xs.reshape(n_rows, -1), ys)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_enterprises(paths: Sequence[str]) -> tuple[list[EnterpriseData], Dataset]:
    """Enterprise i from the i-th sample file, split by ``split_dataset``,
    and the held-out set pooled from their test rows in file order.

    The files hold at most ``MAX_FEATURE_VALUES`` feature values in all:
    each may hold what the files before it left, and the first to cross
    the cap fails, naming itself.
    """
    if not paths:
        raise ValueError("no data file given")
    datasets = []
    budget = MAX_FEATURE_VALUES
    for path in paths:
        datasets.append(read_samples(path, budget))
        budget -= datasets[-1].x.size
    if len({d.dim for d in datasets}) != 1:
        raise ValueError("data files disagree on feature count")
    enterprises = [split_dataset(d) for d in datasets]
    x = np.vstack([e.test.x for e in enterprises])
    y = np.concatenate([e.test.y for e in enterprises])
    x.setflags(write=False)
    y.setflags(write=False)
    return enterprises, Dataset(x, y)
