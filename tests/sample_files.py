"""Datasets in the plain-text format fl-run --data reads."""
from fedbft.data import Dataset


def write_samples(path: str, ds: Dataset) -> None:
    """One sample per line: the label then the feature values."""
    with open(path, "w", newline="\n") as fh:
        for i in range(len(ds)):
            coords = " ".join(repr(float(v)) for v in ds.x[i])
            fh.write(f"{int(ds.y[i])} {coords}\n")
