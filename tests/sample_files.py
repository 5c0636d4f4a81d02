"""Datasets as Sample records, and in the plain-text format fl-run --data reads."""
from fedbft.data import Dataset
from fedbft.domain import Sample


def samples(ds: Dataset) -> list[Sample]:
    """Each row of ``ds`` as a Sample with an int label."""
    return [Sample(ds.x[i], int(ds.y[i])) for i in range(len(ds))]


def write_samples(path: str, ds: Dataset) -> None:
    """One sample per line: the label then the feature values."""
    with open(path, "w", newline="\n") as fh:
        for i in range(len(ds)):
            coords = " ".join(repr(float(v)) for v in ds.x[i])
            fh.write(f"{int(ds.y[i])} {coords}\n")
