"""Tests for dataset CSV round-tripping."""

import numpy as np
import pytest

from repro.datasets.io import load_csv, save_csv
from repro.datasets.synthetic import random_dataset
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError


class TestRoundTrip:
    def test_mixed_dataset(self, tmp_path):
        space = DataSpace.mixed([("make", 5)], ["price", "year"])
        ds = random_dataset(space, 60, seed=2, numeric_range=(-100, 100))
        path = save_csv(ds, tmp_path / "cars.csv")
        loaded = load_csv(path)
        assert loaded == ds
        assert loaded.space == ds.space
        assert loaded.name == "cars"

    def test_bounded_numeric_attributes(self, tmp_path):
        space = DataSpace.numeric(2, bounds=[(0, 9), (-5, 5)])
        ds = random_dataset(space, 10, seed=1, numeric_range=(0, 5))
        loaded = load_csv(save_csv(ds, tmp_path / "n.csv"))
        assert loaded.space[0].lo == 0 and loaded.space[0].hi == 9
        assert loaded.space[1].lo == -5

    def test_empty_dataset(self, tmp_path):
        space = DataSpace.categorical([3])
        loaded = load_csv(save_csv(Dataset(space, []), tmp_path / "e.csv"))
        assert loaded.n == 0
        assert loaded.space == space

    def test_custom_name(self, tmp_path):
        ds = random_dataset(DataSpace.categorical([2]), 5, seed=0)
        loaded = load_csv(save_csv(ds, tmp_path / "x.csv"), name="mine")
        assert loaded.name == "mine"


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("justaname\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("a:widget:3\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_bad_bounds_arity(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("a:num:3\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_categorical_without_size(self, tmp_path):
        path = tmp_path / "bad4.csv"
        path.write_text("a:cat\n1\n")
        with pytest.raises(SchemaError):
            load_csv(path)


class TestEdgeCases:
    """What ``load_csv`` accepts and refuses, pinned cell by cell."""

    HEADER = "a:cat:3,b:num\n"

    def _load(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_text(text)
        return load_csv(path)

    def test_header_only(self, tmp_path):
        loaded = self._load(tmp_path, self.HEADER)
        assert loaded.n == 0
        assert loaded.rows.shape == (0, 2)
        assert loaded.rows.dtype == np.int64

    def test_header_only_without_newline(self, tmp_path):
        loaded = self._load(tmp_path, self.HEADER.rstrip("\n"))
        assert loaded.rows.shape == (0, 2)

    def test_single_row(self, tmp_path):
        loaded = self._load(tmp_path, self.HEADER + "2,-7\n")
        assert loaded.rows.shape == (1, 2)
        assert loaded.rows.tolist() == [[2, -7]]

    def test_single_column(self, tmp_path):
        loaded = self._load(tmp_path, "a:num\n5\n-6\n")
        assert loaded.rows.tolist() == [[5], [-6]]

    def test_blank_lines_are_skipped(self, tmp_path):
        text = self.HEADER + "\n1,10\n\n\n3,30\n\n"
        loaded = self._load(tmp_path, text)
        assert loaded.rows.tolist() == [[1, 10], [3, 30]]

    def test_negative_numeric_values(self, tmp_path):
        text = self.HEADER + "1,-5\n2,0\n3,-9223372036854775808\n"
        loaded = self._load(tmp_path, text)
        assert loaded.rows[:, 1].tolist() == [-5, 0, -(2**63)]

    def test_missing_final_newline(self, tmp_path):
        loaded = self._load(tmp_path, self.HEADER + "1,1\n2,2")
        assert loaded.rows.tolist() == [[1, 1], [2, 2]]

    def test_ragged_row_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            self._load(tmp_path, self.HEADER + "1,1\n2,2,2\n3,3\n")

    def test_short_row_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            self._load(tmp_path, self.HEADER + "1,1\n2\n")

    @pytest.mark.parametrize("cell", ["x", "1.5", "", "0x10"])
    def test_non_integer_cell_raises_value_error(self, tmp_path, cell):
        with pytest.raises(ValueError):
            self._load(tmp_path, self.HEADER + f"1,1\n2,{cell}\n")

    def test_uniform_width_mismatch_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            self._load(tmp_path, self.HEADER + "1,1,1\n2,2,2\n")

    def test_out_of_domain_category_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            self._load(tmp_path, self.HEADER + "4,1\n")

    def test_empty_file_raises_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            self._load(tmp_path, "")

    def test_rows_round_trip_large_dataset(self, tmp_path):
        space = DataSpace.mixed([("make", 9)], ["price", "year"])
        ds = random_dataset(
            space, 3000, seed=4, numeric_range=(-(10**12), 10**12)
        )
        loaded = load_csv(save_csv(ds, tmp_path / "big.csv"))
        assert np.array_equal(loaded.rows, ds.rows)
        assert loaded.rows.dtype == np.int64
        assert not loaded.rows.flags.writeable
