"""Datasets: binary-labelled feature matrices, synthesis and plain-text IO."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix x (N, n) with labels y (N,) in {-1, +1} owned by one enterprise."""

    x: np.ndarray
    y: np.ndarray
    owner: int = 0

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        x.setflags(write=False)
        y.setflags(write=False)
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
    owner: int = 0,
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
    n_neg = n_samples - n_pos
    mean = (separation / 2.0) * np.ones(n_features) / np.sqrt(n_features)
    # one draw for both classes, class +1 rows first (README "Determinism"),
    # with the means added in place: the set lives in one buffer until it
    # is shuffled
    x = rng.standard_normal((n_samples, n_features))
    x[:n_pos] += mean
    x[n_pos:] -= mean
    y = np.concatenate([np.ones(n_pos, dtype=np.int64),
                        -np.ones(n_neg, dtype=np.int64)])
    order = rng.permutation(n_samples)
    # rebinding frees the unshuffled draw before Dataset copies the rows
    x = x[order]
    return Dataset(x, y[order], owner)


def split_dataset(ds: Dataset) -> EnterpriseData:
    """Deterministic head/tail split; the last rows become the test set."""
    n_test = max(1, int(round(len(ds) * TEST_FRACTION)))
    if n_test >= len(ds):
        raise ValueError("dataset too small to split")
    cut = len(ds) - n_test
    return EnterpriseData(
        train=Dataset(ds.x[:cut], ds.y[:cut], ds.owner),
        test=Dataset(ds.x[cut:], ds.y[cut:], ds.owner),
    )


def read_text(path: str, what: str = "") -> str:
    """A whole UTF-8 text file; failing to read it is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ValueError(f"cannot read {what}{path}: {reason}")


def read_samples(path: str, owner: int = 0) -> Dataset:
    """Parse plain-text samples: one per line, the label then the feature values."""
    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values = [float(v) for v in line.split()]
        except ValueError:
            raise ValueError(f"bad number on line {lineno} of {path}") from None
        if len(values) < 2:
            raise ValueError(f"need a label and features on line {lineno} of {path}")
        if values[0] not in (-1.0, 1.0):
            raise ValueError(f"label must be -1 or +1 on line {lineno} of {path}")
        labels.append(int(values[0]))
        rows.append(values[1:])
    if not rows:
        raise ValueError(f"no samples in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"inconsistent feature count in {path}")
    try:
        return Dataset(np.array(rows), np.array(labels), owner)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_enterprises(paths: Sequence[str]) -> tuple[list[EnterpriseData], Dataset]:
    """One enterprise per sample file, split by ``split_dataset``, and the
    held-out set pooled from their test rows in file order."""
    if not paths:
        raise ValueError("no data file given")
    datasets = [read_samples(path, owner=i) for i, path in enumerate(paths)]
    if len({d.dim for d in datasets}) != 1:
        raise ValueError("data files disagree on feature count")
    enterprises = [split_dataset(d) for d in datasets]
    holdout = Dataset(np.vstack([e.test.x for e in enterprises]),
                      np.concatenate([e.test.y for e in enterprises]))
    return enterprises, holdout
