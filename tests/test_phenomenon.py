"""Field generator tests: block structure, uniformity, CSV round-trip."""

import numpy as np
import pytest
from scipy import stats

from ajscc.phenomenon import (
    Field,
    block_means,
    field_from_csv,
    field_to_csv,
    generate_field,
)


def test_reference_geometry_has_eight_blocks():
    f = generate_field(20, 20, 20, 10, 10, 5.0, 10.0, seed=1)
    assert f.values.shape == (20, 20, 20)
    assert f.n_blocks == 8
    assert len(np.unique(f.values)) == 8


def test_values_constant_within_blocks():
    f = generate_field(20, 20, 20, 10, 10, 5.0, 10.0, seed=2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                block = f.values[i * 10:(i + 1) * 10, j * 10:(j + 1) * 10,
                                 k * 10:(k + 1) * 10]
                assert block.min() == block.max()


def test_within_block_variance_zero_between_positive():
    f = generate_field(12, 12, 6, 4, 3, 0.0, 1.0, seed=3)
    bm = block_means(f.values, 4, 3)
    assert bm.shape == (3, 3, 2)
    # block-constant: every sample equals its block mean up to summation
    # round-off in the mean
    expanded = bm.repeat(4, axis=0).repeat(4, axis=1).repeat(3, axis=2)
    np.testing.assert_allclose(expanded, f.values, rtol=1e-14)
    assert np.var(bm) > 0


def test_values_bounded():
    f = generate_field(9, 7, 5, 3, 2, 5.0, 10.0, seed=4)
    assert f.values.min() >= 5.0 and f.values.max() <= 10.0


def test_single_cell_field():
    f = generate_field(1, 1, 1, 1, 1, 5.0, 10.0, seed=5)
    assert f.values.shape == (1, 1, 1)
    assert 5.0 <= f.values[0, 0, 0] <= 10.0


def test_same_seed_reproduces():
    a = generate_field(8, 8, 8, 2, 2, 5.0, 10.0, seed=7)
    b = generate_field(8, 8, 8, 2, 2, 5.0, 10.0, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = generate_field(8, 8, 8, 2, 2, 5.0, 10.0, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_partial_edge_blocks():
    f = generate_field(5, 5, 3, 2, 2, 0.0, 1.0, seed=9)
    assert f.n_blocks == 3 * 3 * 2
    assert len(np.unique(f.values)) == 18


def test_block_values_uniform_ks():
    # >= 1e4 independent blocks pooled over seeds, 1 % significance
    vals = []
    for seed in range(80):
        f = generate_field(20, 20, 10, 4, 2, 5.0, 10.0, seed=seed)
        vals.append(np.unique(f.values))
    vals = np.concatenate(vals)
    assert vals.size >= 10_000
    p = stats.kstest(vals, stats.uniform(loc=5.0, scale=5.0).cdf).pvalue
    assert p > 0.01


def test_invalid_arguments():
    with pytest.raises(ValueError, match="nx"):
        generate_field(0, 5, 5, 1, 1, 0, 1, seed=0)
    # a float count would pass the size checks and fail inside the draw
    with pytest.raises(ValueError, match="nx must be an integer, got 4.0"):
        generate_field(4.0, 4, 4, 2, 2, 5.0, 10.0, seed=1)
    with pytest.raises(ValueError, match="s_p"):
        generate_field(4, 4, 4, 5, 1, 0, 1, seed=0)
    with pytest.raises(ValueError, match="t_p"):
        generate_field(4, 4, 4, 2, 5, 0, 1, seed=0)
    with pytest.raises(ValueError, match="lo"):
        generate_field(4, 4, 4, 2, 2, 1.0, 1.0, seed=0)
    # rejected before the draw, which would warn and write NaN or inf values
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            generate_field(4, 4, 4, 2, 2, lo, hi, seed=0)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), None, -1, "7", (1, 2.5), (), (1, 2)],
                         ids=repr)
def test_seed_outside_the_contract_rejected(seed):
    # Field.seed and the CSV metadata line hold one integer, so a tuple is rejected too
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got"):
        generate_field(4, 4, 4, 2, 2, 5.0, 10.0, seed=seed)


def test_field_shape_validated():
    with pytest.raises(ValueError, match="shape"):
        Field(2, 2, 2, 1, 1, 0.0, 1.0, 0, np.zeros((2, 2)))


def test_csv_round_trip(tmp_path):
    f = generate_field(6, 5, 4, 3, 2, 5.0, 10.0, seed=13)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    g = field_from_csv(path)
    assert (g.nx, g.ny, g.nt, g.s_p, g.t_p) == (6, 5, 4, 3, 2)
    assert (g.lo, g.hi, g.seed) == (5.0, 10.0, 13)
    np.testing.assert_array_equal(f.values, g.values)


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,t,value\n0,0,0,1.0\n")
    with pytest.raises(ValueError, match="metadata"):
        field_from_csv(path)


@pytest.mark.parametrize("edit, match", [
    (lambda rows: rows[:-1] + [rows[0]], r"field.csv:14: duplicate cell \(0, 0, 0\)"),
    (lambda rows: rows[:-1] + ["-2,0,0,7.0"], r"field.csv:14: cell \(-2, 0, 0\) outside"),
    (lambda rows: rows[:-1] + ["3,0,0,7.0"], r"field.csv:14: cell \(3, 0, 0\) outside"),
    (lambda rows: rows[:-1] + ["2,1,1"], r"field.csv:14: expected 4 fields x,y,t,value, got 3"),
    (lambda rows: rows[:-1] + ["2,1,1,high"], r"field.csv:14: could not convert .*'high'"),
    (lambda rows: rows[:-1] + ["2,1,one,7.0"], r"field.csv:14: invalid literal .*'one'"),
    (lambda rows: rows[:-1] + ["2,1,1,nan"], r"field.csv: values must lie within \[lo, hi\]"),
    (lambda rows: rows[:-1] + ["2,1,1,99.0"], r"field.csv: values must lie within \[lo, hi\]"),
], ids=["duplicate", "negative_index", "index_past_end", "three_fields", "bad_value",
        "bad_index", "nan_value", "value_above_hi"])
def test_csv_rejects_bad_cells(tmp_path, edit, match):
    # the row count stays right: the last row (line 14) is replaced by a bad one
    path = tmp_path / "field.csv"
    field_to_csv(generate_field(3, 2, 2, 1, 1, 5.0, 10.0, seed=14), path)
    meta, header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([meta, header, *edit(rows)]) + "\n")
    with pytest.raises(ValueError, match=match):
        field_from_csv(path)


@pytest.mark.parametrize("edit, match", [
    (lambda lines: [lines[0], "x,y,value", *lines[2:]],
     r"field.csv: unexpected header 'x,y,value'"),
    (lambda lines: lines[:-1], r"field.csv: expected 12 rows, got 11"),
], ids=["bad_header", "missing_row"])
def test_csv_rejects_bad_layout(tmp_path, edit, match):
    path = tmp_path / "field.csv"
    field_to_csv(generate_field(3, 2, 2, 1, 1, 5.0, 10.0, seed=14), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=match):
        field_from_csv(path)


@pytest.mark.parametrize("edit, match", [
    (lambda meta: meta.replace(" s_p=1", ""), r"field.csv:1: missing metadata key 's_p'"),
    (lambda meta: meta + " stray", r"field.csv:1: metadata token 'stray' is not key=value"),
    (lambda meta: meta.replace("nx=3", "nx=three"), r"field.csv:1: bad metadata: .*'three'"),
    (lambda meta: meta.replace("s_p=1", "s_p=0"), r"field.csv:1: .*s_p must be >= 1, got 0"),
    (lambda meta: meta.replace("nt=2", "nt=-2"), r"field.csv:1: .*nt must be >= 1, got -2"),
    (lambda meta: meta.replace("s_p=1", "s_p=3"), r"field.csv:1: .*s_p=3 exceeds grid 3x2"),
    (lambda meta: meta.replace("lo=5.0", "lo=10.0"),
     r"field.csv: need finite lo < hi, got \(10.0, 10.0\)"),
], ids=["missing_key", "stray_token", "bad_int", "zero_block", "negative_dim",
        "block_wider_than_grid", "lo_not_below_hi"])
def test_csv_rejects_bad_metadata(tmp_path, edit, match):
    path = tmp_path / "field.csv"
    field_to_csv(generate_field(3, 2, 2, 1, 1, 5.0, 10.0, seed=14), path)
    meta, *rest = path.read_text().splitlines()
    path.write_text("\n".join([edit(meta), *rest]) + "\n")
    with pytest.raises(ValueError, match=match):
        field_from_csv(path)
