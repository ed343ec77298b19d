"""CSV persistence for datasets (schema-carrying, round-trip safe).

Experiments should be reproducible from artefacts, not just from seeds;
these helpers write a dataset to a self-describing CSV whose header
encodes the schema, and read it back bit-for-bit.

Header encoding, one token per attribute:

* categorical: ``name:cat:U`` (domain size ``U``);
* numeric:     ``name:num`` or ``name:num:lo:hi`` when bounds are known.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from repro.dataspace.attribute import Attribute, categorical, numeric
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError

__all__ = ["save_csv", "load_csv"]


def _encode_attribute(attr: Attribute) -> str:
    if attr.is_categorical:
        return f"{attr.name}:cat:{attr.domain_size}"
    if attr.lo is not None and attr.hi is not None:
        return f"{attr.name}:num:{attr.lo}:{attr.hi}"
    return f"{attr.name}:num"


def _decode_attribute(token: str) -> Attribute:
    parts = token.split(":")
    if len(parts) < 2:
        raise SchemaError(f"malformed attribute token {token!r}")
    name, kind = parts[0], parts[1]
    if kind == "cat":
        if len(parts) != 3:
            raise SchemaError(
                f"categorical token needs a domain size: {token!r}"
            )
        return categorical(name, int(parts[2]))
    if kind == "num":
        if len(parts) == 2:
            return numeric(name)
        if len(parts) == 4:
            return numeric(name, int(parts[2]), int(parts[3]))
        raise SchemaError(f"numeric token needs 0 or 2 bounds: {token!r}")
    raise SchemaError(f"unknown attribute kind {kind!r} in {token!r}")


def save_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write the dataset (schema + rows) to ``path``; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_encode_attribute(a) for a in dataset.space)
        for i in range(dataset.n):
            writer.writerow(int(v) for v in dataset.rows[i])
    return path


def load_csv(path: str | Path, *, name: str = "") -> Dataset:
    """Read a dataset previously written by :func:`save_csv`.

    The header goes through the :mod:`csv` reader; the integer body is
    parsed in bulk by :func:`numpy.loadtxt`.  Blank lines are skipped;
    a ragged row or a non-integer cell raises ``ValueError``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty") from None
        space = DataSpace(_decode_attribute(token) for token in header)
        body = handle.read()
    if body.strip("\r\n"):
        matrix = np.loadtxt(
            io.StringIO(body),
            dtype=np.int64,
            delimiter=",",
            comments=None,
            quotechar='"',
            ndmin=2,
        )
    else:
        matrix = np.empty((0, space.dimensionality), dtype=np.int64)
    return Dataset(space, matrix, name=name or path.stem)
