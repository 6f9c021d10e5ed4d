import csv
import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import synth_normal_temporaries
from lnt import data
from lnt.data import (
    InjectionSpec,
    LabeledSeries,
    compute_stats,
    inject_sine_anomalies,
    load_csv,
    save_csv,
    standardize,
    synth_normal,
    window,
)
from lnt.scoring import ScoreSeries, broadcast_scores, save_scores_csv


def label_runs(labels):
    """(start, length) of each maximal run of ones."""
    padded = np.concatenate([[0], labels, [0]])
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts, ends - starts))


# ---------------------------------------------------------------------------
# LabeledSeries


def test_series_defaults_channel_names():
    s = LabeledSeries(np.zeros((3, 10)))
    assert s.channel_names == ["ch0", "ch1", "ch2"]
    assert s.channels == 3 and s.length == 10
    assert s.labels is None


def test_series_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LabeledSeries(np.zeros(10))
    with pytest.raises(ValueError):
        LabeledSeries(np.zeros((2, 10)), labels=np.zeros(9, dtype=int))
    with pytest.raises(ValueError):
        LabeledSeries(np.zeros((2, 10)), channel_names=["only-one"])


def test_series_rejects_bad_label_values():
    labels = np.zeros(10, dtype=int)
    labels[3] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        LabeledSeries(np.zeros((1, 10)), labels=labels)


# ---------------------------------------------------------------------------
# CSV


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    series = LabeledSeries(
        rng.normal(size=(2, 40)),
        labels=(rng.uniform(size=40) < 0.3).astype(int),
        channel_names=["acc_x", "acc_y"],
    )
    path = tmp_path / "series.csv"
    save_csv(path, series)
    back = load_csv(path)
    assert back.channel_names == ["acc_x", "acc_y"]
    assert_array_equal(back.labels, series.labels)
    assert_allclose(back.values, series.values, rtol=1e-8)


def test_csv_rewrite_is_byte_identical(tmp_path):
    series = synth_normal(3, 500, seed=7)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, series)
    save_csv(b, series)
    assert a.read_bytes() == b.read_bytes()


def test_csv_without_label_column(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    series = load_csv(path)
    assert series.labels is None
    assert_allclose(series.values, [[1.0, 3.0], [2.0, 4.0]])


# id: (file text, the error that follows the file's name)
_BAD_CSVS = {
    "nan": ("x,label\n1.0,0\nNaN,0\n2.0,1\n", "row 3 has non-finite value 'NaN' in column 'x'"),
    "non-numeric": ("x\n1.0\nhello\n", "row 3 has non-numeric value 'hello' in column 'x'"),
    "ragged": ("x,y\n1.0,2.0\n3.0\n", "row 3 has 1 columns, expected 2"),
    "bad-label": ("x,label\n1.0,2\n", "row 2 has bad label '2'"),
    "empty": ("", "empty file"),
    "header-only": ("a,b,label\n", "no data rows"),
    "duplicate-label": ("a,label,label\n1.0,0,1\n", "duplicate column name 'label'"),
    "duplicate-data": ("a,a,label\n1.0,0,1\n", "duplicate column name 'a'"),
    "label-alone": ("label\n0\n1\n", "no data columns"),
}


@pytest.mark.parametrize("text, error", list(_BAD_CSVS.values()), ids=list(_BAD_CSVS))
def test_load_csv_rejects_bad_file_naming_file_and_problem(tmp_path, text, error):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: {error}"


def _per_row_csv_writer(path, series):
    """The per-row writer the shared CSV writer replaced, as a byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(series.channel_names)
        if series.labels is not None:
            header.append("label")
        writer.writerow(header)
        for t in range(series.length):
            row = [f"{v:.9g}" for v in series.values[:, t]]
            if series.labels is not None:
                row.append(int(series.labels[t]))
            writer.writerow(row)


def test_csv_bytes_match_per_row_writer_and_read_fast(tmp_path):
    rng = np.random.default_rng(3)
    length = 2 * data._BLOCK_ROWS + 5  # a partial block after two full ones
    values = rng.normal(scale=50.0, size=(3, length))
    values[0, :6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -123456789.5]
    values[1, :3] = [np.nan, np.inf, -np.inf]
    names = ["acc x", 'quoted "y"', "z,comma"]  # the header still goes through csv
    for labels in (None, (rng.uniform(size=length) < 0.3).astype(np.int64)):
        series = LabeledSeries(values, labels, names)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_csv(got, series)
        _per_row_csv_writer(want, series)
        assert got.read_bytes() == want.read_bytes()
    finite = LabeledSeries(values[2:], labels, ["z"])
    save_csv(got, finite)
    fast = data._read_rows_fast(got, 2, 1, length)
    assert fast is not None, "a file save_csv wrote must take the fast path"
    slow = data._read_rows_checked(got, ["z", "label"], 1)
    assert_array_equal(fast[0], slow[0])
    assert_array_equal(fast[1], labels)


@settings(max_examples=200, deadline=None)
@given(case=st.data())
def test_csv_bytes_match_per_row_writer_property(tmp_path_factory, case):
    """save_csv writes the per-row writer's bytes for series whose rows
    repeat in runs or not, with label runs or no label column, signed
    zeros, subnormals and non-finite values, at any block size."""
    channels = case.draw(st.integers(1, 3), label="channels")
    cell = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -1e-310]))
    runs = case.draw(st.lists(st.tuples(st.lists(cell, min_size=channels, max_size=channels),
                                        st.integers(1, 12)), min_size=1, max_size=12),
                     label="runs")
    values = np.concatenate([np.repeat(np.array(row)[:, None], n, axis=1) for row, n in runs],
                            axis=1)
    labels = case.draw(st.none() | st.lists(st.integers(0, 1), min_size=values.shape[1],
                                            max_size=values.shape[1]), label="labels")
    block = case.draw(st.integers(1, 40), label="block rows")
    series = LabeledSeries(values, labels)
    path = tmp_path_factory.mktemp("series")
    with mock.patch.object(data, "_BLOCK_ROWS", block):
        save_csv(path / "got.csv", series)
    _per_row_csv_writer(path / "want.csv", series)
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def _per_cell_csv_writer(path, header, columns):
    """write_csv's rows cell by cell through csv.writer: %.9g for floats,
    str() of the Python int, bool or str otherwise."""
    def cell(v, kind):
        if kind == "f":
            return f"{float(v):.9g}"
        return str(bool(v) if kind == "b" else v if kind == "U" else int(v))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(len(columns[0])):
            writer.writerow([cell(c[t], c.dtype.kind) for c in columns])


_COLUMN_KINDS = {
    "float64": (np.float64, st.floats()),
    "float32": (np.float32, st.floats(width=32)),
    "int64": (np.int64, st.one_of(st.integers(-2**63, 2**63 - 1),
                                  st.sampled_from([0, 1, -1, 2**62, -2**62, -2**63]))),
    "uint64": (np.uint64, st.one_of(st.integers(0, 2**64 - 1),
                                    st.sampled_from([0, 10**16 - 1, 10**16, 2**63, 2**64 - 1]))),
    "uint8": (np.uint8, st.integers(0, 255)),
    "bool": (np.bool_, st.booleans()),
    # a lone empty cell would need quoting, which write_csv does not do
    "str": (np.str_, st.text(alphabet="abcxyz019 ._-", min_size=1, max_size=6)),
}


@st.composite
def _mixed_columns(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(_COLUMN_KINDS[k][1] for k in kinds)),
                         min_size=1, max_size=12))
    repeats = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    columns = [np.repeat(np.array([row[j] for row in rows], dtype=_COLUMN_KINDS[k][0]), repeats)
               for j, k in enumerate(kinds)]
    if draw(st.booleans()):  # an index column
        columns.insert(0, np.arange(len(columns[0])) + draw(st.integers(-5, 5)))
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_mixed_columns(), block=st.integers(1, 40))
# integer columns at their dtypes' ends, through the int kernel and past
# it, and an int column alone
@example(columns=[np.r_[250:256, 0:4].astype(np.uint8), np.zeros(10)], block=40)
@example(columns=[np.array([2**63 - 1, -2**63]), np.zeros(2)], block=40)
@example(columns=[np.arange(3)], block=40)
def test_csv_bytes_match_per_row_writer_mixed_columns(tmp_path_factory, columns, block):
    """write_csv writes the per-row bytes for the column kinds viz-decode
    writes (str, int64, float32) and for bool, uint8 and uint64, mixed
    with float64, in rows that repeat in runs or not, at any block size;
    the integers over their dtypes' whole ranges."""
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("mixed")
    with mock.patch.object(data, "_BLOCK_ROWS", block):
        data.write_csv(path / "got.csv", header, columns)
    _per_cell_csv_writer(path / "want.csv", header, columns)
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def _both_signs(*values):
    return np.array(values + tuple(-v for v in values))


_EDGE_COLUMNS = {
    # 1.001953125 * 10**n is exact in binary and ties at the 9th digit
    "binary-ties": [_both_signs(*(513 / 512 * 10.0**n for n in range(16)))],
    # within 1e-6 of a half once scaled; the last three scale to exactly a
    # half, which rint would round the wrong way
    "near-ties": [_both_signs(1.000000005, 56379.30045, 0.1485376315, 0.001438819395)],
    "carries": [_both_signs(9.9999999995e-05, 99999999.95, 999999999.5, 9.99999999996e29)],
    "layout-switch": [_both_signs(1e-05, 1e-04, 1e8, 1e9, 9.99999999e-5, 123456789.0)],
    "3-digit-exponents": [_both_signs(1e100, 2.5e-150, 1.7976931348623157e308, 1e-300)],
    "specials": [np.array([5e-324, -5e-324, 0.0, -0.0, np.nan, np.inf, -np.inf])],
    "float32-max": [np.array([np.finfo(np.float32).max, -np.finfo(np.float32).tiny],
                             dtype=np.float32)],
    "ints": [np.array([-2**63, 2**63 - 1, -10**16, 10**16 - 1, -1, 0]),
             np.array([2**64 - 1, 10**16, 10**16 - 1, 0, 1, 9], dtype=np.uint64)],
    # the int kernel prints 0 <= v < 10**8; Python prints the rest
    "int-kernel-ends": [np.array([0, 1, 99_999_999, 100_000_000, -1]),
                        np.array([255, 0, 255, 1, 9], dtype=np.uint8),
                        np.array([10**8, 0, 10**8 - 1, 10**8, 7], dtype=np.uint64)],
    "bools": [np.array([True, False, False, True, True])],
}


@pytest.mark.parametrize("columns", list(_EDGE_COLUMNS.values()), ids=list(_EDGE_COLUMNS))
def test_csv_bytes_match_per_cell_writer_at_edge_cells(tmp_path, columns):
    """Cells at the edges of write_csv's %.9g and int kernels: ties and
    near-ties of the 9th digit, rounding that carries into a new digit or
    a new layout, exponents beyond the kernel's range, zeros, non-finite
    values, integers at their dtypes' ends and at the int kernel's, and
    bools.  Nothing warns."""
    header = [f"c{j}" for j in range(len(columns))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data.write_csv(tmp_path / "got.csv", header, columns)
    _per_cell_csv_writer(tmp_path / "want.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_rejects_a_str_cell_with_nul_naming_the_column(tmp_path):
    path = tmp_path / "views.csv"
    columns = [np.arange(3), np.array(["input", "re\0con", "view1"])]
    with pytest.raises(ValueError) as err:
        data.write_csv(path, ["t", "view"], columns)
    assert str(err.value) == f"{path}: column 'view' holds a NUL character"
    assert not path.exists()


def test_save_csv_peak_memory_on_a_long_series(tmp_path):
    """Blocks bound the writer's memory, whatever the series' length: a
    200 k-row labelled series, and a 200 k-row labelled score CSV whose
    runs of r = 72 equal scores are formatted once each.  A whole file as
    one string would be about 5 MB either way."""
    series = inject_sine_anomalies(synth_normal(3, 200_000, seed=0), InjectionSpec(seed=0))
    latent = np.random.default_rng(0).uniform(2.0, 4.0, 200_000 // 72)
    scores = ScoreSeries(broadcast_scores(latent, 72, 200_000), latent)
    writes = {"series": (lambda path: save_csv(path, series), 5 * 10**6),
              "scores": (lambda path: save_scores_csv(path, scores, series.labels), 3 * 10**6)}
    for name, (write, bound) in writes.items():
        tracemalloc.start()
        try:
            write(tmp_path / f"{name}.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (name, peak)


_CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map("{:.9g}".format),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_CELLS = st.sampled_from([
    "", " ", " 1.5", "2.5 ", "\t3", '"1.5"', "1_0", "nan", "-inf", "Infinity",
    "#", "#1", "1e999", "0x10", "abc", "+.5", "5.", "1,5", "\u00a02", "3\r4", "5\r",
])
_LABEL_CELLS = st.sampled_from(
    ["0", "1"] * 6 + [" 1", "1 ", "1.0", "01", "2", "", '"1"', "#", "nan", "-0", "+1"]
)


@st.composite
def _csv_files(draw):
    width = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(width)]
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, width)), "label")
    value_cells = st.one_of(_CLEAN_CELLS, _CLEAN_CELLS, _CLEAN_CELLS, _ODD_CELLS)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(_LABEL_CELLS if name == "label" else value_cells) for name in header]
        shape = draw(st.sampled_from(["row"] * 8 + ["short", "long", "blank"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append("0")
        lines.append("" if shape == "blank" else ",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return header, text


def _outcome(read):
    try:
        return read()
    except ValueError:
        return "reject"


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
def test_csv_fast_reader_agrees_with_row_reader(tmp_path_factory, case):
    header, text = case
    path = tmp_path_factory.mktemp("fast") / "case.csv"
    path.write_bytes(text.encode())
    label_idx = header.index("label") if "label" in header else None
    slow = _outcome(lambda: data._read_rows_checked(path, header, label_idx))
    fast = data._read_rows_fast(path, len(header), label_idx, data._count_lines(path) - 1)
    if fast is not None:
        assert slow != "reject"
        assert_array_equal(fast[0], slow[0])
        assert fast[0].dtype == slow[0].dtype == np.float64
        if label_idx is None:
            assert fast[1] is None and slow[1] is None
        else:
            assert_array_equal(fast[1], slow[1])
    full = _outcome(lambda: data.read_csv(path)[1:])
    if slow == "reject":
        assert full == "reject"
    else:
        assert_array_equal(full[0], slow[0])
        assert (full[1] is None) == (slow[1] is None)
        if slow[1] is not None:
            assert_array_equal(full[1], slow[1])


def _lines_reference(text: bytes) -> int:
    """Lines under universal newlines: \\r\\n, \\r and \\n each end one."""
    return len(io.StringIO(text.decode(), newline=None).readlines())


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="a,\r\n", max_size=40), block=st.integers(1, 9))
def test_count_lines_matches_universal_newlines(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("count") / "lines.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(data, "COUNT_BLOCK", block):
        assert data._count_lines(path) == _lines_reference(text.encode())


@pytest.mark.parametrize("text", [b"abc\r\ndef", b"abc\r\rdef\r", b"abc\n\r\ndef\n"])
def test_count_lines_crlf_across_block_boundary(tmp_path, text):
    """A \\r ending one 4-byte block and the \\n starting the next are one
    line end."""
    path = tmp_path / "lines.csv"
    path.write_bytes(text)
    with mock.patch.object(data, "COUNT_BLOCK", 4):
        assert data._count_lines(path) == _lines_reference(text)
    assert _lines_reference(b"abc\r\ndef") == 2


# ---------------------------------------------------------------------------
# normalization


def test_compute_stats_matches_numpy():
    series = LabeledSeries(np.random.default_rng(1).normal(2.0, 3.0, size=(2, 1000)))
    stats = compute_stats(series)
    assert_allclose(stats.mean, series.values.mean(axis=1), rtol=1e-6)
    assert_allclose(stats.std, series.values.std(axis=1), rtol=1e-6)
    assert stats.keep.all()


def test_standardize_centers_and_scales():
    series = synth_normal(3, 4000, seed=3)
    stats = compute_stats(series)
    out = standardize(series, stats)
    assert abs(out.values.mean(axis=1)).max() < 1e-5
    assert_allclose(out.values.std(axis=1), 1.0, atol=1e-4)


def test_standardize_drops_constant_channel():
    values = np.random.default_rng(0).normal(size=(3, 200))
    values[1] = 5.0
    series = LabeledSeries(values, channel_names=["a", "flat", "c"])
    stats = compute_stats(series)
    assert list(stats.keep) == [True, False, True]
    out = standardize(series, stats)
    assert out.channels == 2
    assert out.channel_names == ["a", "c"]


def test_standardize_uses_train_stats_not_its_own():
    train = synth_normal(2, 3000, seed=0)
    stats = compute_stats(train)
    shifted = LabeledSeries(train.values + 10.0)
    out = standardize(shifted, stats)
    # the +10 shift must survive, proving no re-fit happened
    assert out.values.mean() > 5.0


@pytest.mark.parametrize("keep_all", [True, False])
def test_standardize_works_in_place(keep_all):
    """standardize writes (x - mean) / std of the kept channels into the
    leading rows of the input's own values and returns a view of them,
    allocating no series-sized array."""
    values = np.random.default_rng(5).normal(3.0, 2.0, size=(3, 60_000))
    if not keep_all:
        values[1] = 7.0
    series = LabeledSeries(values, np.zeros(60_000, dtype=np.int64), ["a", "b", "c"])
    before = series.values.copy()
    stats = compute_stats(series)
    tracemalloc.start()
    try:
        out = standardize(series, stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    keep = stats.keep
    expected = (before[keep] - stats.mean[keep, None]) / stats.std[keep, None]
    assert out.values.tobytes() == expected.tobytes()
    assert out.values.base is values and np.shares_memory(out.values, values[0])
    assert out.channel_names == (["a", "b", "c"] if keep_all else ["a", "c"])
    assert out.labels is series.labels
    assert peak < 64 * 1024, peak


def test_standardize_channel_count_mismatch():
    series = synth_normal(2, 1000, seed=0)
    stats = compute_stats(synth_normal(3, 1000, seed=0))
    with pytest.raises(ValueError, match="channels"):
        standardize(series, stats)


# ---------------------------------------------------------------------------
# synthesis


def test_synth_is_seed_deterministic():
    a = synth_normal(3, 1000, seed=42)
    b = synth_normal(3, 1000, seed=42)
    c = synth_normal(3, 1000, seed=43)
    assert_array_equal(a.values, b.values)
    assert (a.values != c.values).any()


def test_synth_shape_and_labels():
    s = synth_normal(4, 777, seed=1)
    assert s.values.shape == (4, 777)
    assert s.labels.shape == (777,)
    assert not s.labels.any()


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 2])
@pytest.mark.parametrize("length", [1, 2, 1023, 50_001])
def test_synth_matches_per_operation_temporaries_bitwise(length, seed):
    for channels in range(1, 5):
        got = synth_normal(channels, length, seed)
        want = synth_normal_temporaries(channels, length, seed)
        assert got.values.dtype == want.values.dtype == np.float64
        assert got.values.tobytes() == want.values.tobytes()
        assert_array_equal(got.labels, want.labels)


@pytest.mark.parametrize("channels", [0, -2])
def test_synth_rejects_nonpositive_channels(channels):
    with pytest.raises(ValueError, match=f"channels must be >= 1, got {channels}"):
        synth_normal(channels, 100, seed=0)


def test_synth_amplitude_envelope():
    # 2..4 components with amplitudes in [0.5,1] keep the std in a sane band
    for seed in range(5):
        s = synth_normal(3, 50_000, seed=seed)
        stds = s.values.std(axis=1)
        assert (stds > 0.25).all() and (stds < 3.0).all()


def test_synth_is_slow_compared_to_anomaly_band():
    # background energy should live below 20 cycles per 16000 frames
    s = synth_normal(1, 32_000, seed=5)
    spectrum = np.abs(np.fft.rfft(s.values[0]))
    freqs = np.fft.rfftfreq(32_000, d=1.0) * 16_000.0
    dominant = freqs[np.argmax(spectrum)]
    assert dominant < 20.0


# ---------------------------------------------------------------------------
# injection


def test_injection_fraction_and_ranges():
    series = synth_normal(3, 50_000, seed=0)
    out = inject_sine_anomalies(series, InjectionSpec(seed=1))
    frac = out.labels.mean()
    assert abs(frac - 0.10) <= 0.02
    for _, length in label_runs(out.labels):
        assert 512 <= length <= 4096


def test_injection_is_seed_deterministic():
    series = synth_normal(2, 30_000, seed=0)
    a = inject_sine_anomalies(series, InjectionSpec(seed=5))
    b = inject_sine_anomalies(series, InjectionSpec(seed=5))
    c = inject_sine_anomalies(series, InjectionSpec(seed=6))
    assert_array_equal(a.values, b.values)
    assert_array_equal(a.labels, b.labels)
    assert (a.labels != c.labels).any() or (a.values != c.values).any()


def test_injection_leaves_unlabeled_frames_untouched():
    series = synth_normal(3, 40_000, seed=2)
    out = inject_sine_anomalies(series, InjectionSpec(seed=3))
    clean = out.labels == 0
    assert_array_equal(out.values[:, clean], series.values[:, clean])
    assert (out.values[:, ~clean] != series.values[:, ~clean]).any()


def test_injection_zero_amplitude_marks_but_does_not_modify():
    series = synth_normal(2, 30_000, seed=4)
    out = inject_sine_anomalies(series, InjectionSpec(amplitude=0.0, seed=7))
    assert_array_equal(out.values, series.values)
    assert out.labels.sum() > 0


def test_injection_tone_frequency_is_in_band():
    series = synth_normal(1, 50_000, seed=8)
    out = inject_sine_anomalies(series, InjectionSpec(seed=9))
    for start, length in label_runs(out.labels):
        diff = out.values[0, start : start + length] - series.values[0, start : start + length]
        spectrum = np.abs(np.fft.rfft(diff))
        freq = np.fft.rfftfreq(length, d=1.0)[np.argmax(spectrum)] * 16_000.0
        # FFT bin resolution for a 512-frame tone is 31.25 Hz-equivalent
        assert 20.0 - 32.0 <= freq <= 120.0 + 32.0


def test_injection_amplitude_tracks_channel_std():
    values = np.random.default_rng(0).normal(0.0, [[1.0], [10.0]], size=(2, 30_000))
    series = LabeledSeries(values)
    out = inject_sine_anomalies(series, InjectionSpec(seed=1))
    start, length = label_runs(out.labels)[0]
    diff = out.values[:, start : start + length] - values[:, start : start + length]
    ratio = np.abs(diff[1]).max() / np.abs(diff[0]).max()
    expected = values[1].std() / values[0].std()
    assert_allclose(ratio, expected, rtol=1e-6)


def test_injection_rejects_short_series():
    series = synth_normal(1, 3000, seed=0)
    with pytest.raises(ValueError, match="too short"):
        inject_sine_anomalies(series, InjectionSpec())


def test_injection_spec_validation():
    with pytest.raises(ValueError):
        InjectionSpec(fraction=0.0)
    with pytest.raises(ValueError):
        InjectionSpec(fraction=1.0)
    for amplitude in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="amplitude must be finite and >= 0"):
            InjectionSpec(amplitude=amplitude)


def test_injection_respects_custom_fraction():
    series = synth_normal(2, 60_000, seed=1)
    out = inject_sine_anomalies(series, InjectionSpec(fraction=0.25, seed=2))
    assert abs(out.labels.mean() - 0.25) <= 0.02


# ---------------------------------------------------------------------------
# windowing


def test_window_exact_cover():
    values = np.arange(300.0).reshape(3, 100)
    wins = window(values, 30, 30)
    assert len(wins) == 3
    assert_array_equal(wins[1], values[:, 30:60])


def test_window_overlapping():
    wins = window(np.zeros((2, 100)), 30, 15)
    assert len(wins) == 5


def test_window_accepts_series_and_is_read_only():
    """The windows are a view of the series' values that cannot write to
    them, and an index array copies just the windows it picks."""
    series = synth_normal(2, 100, seed=0)
    wins = window(series.values, 50, 25)
    assert np.shares_memory(wins, series.values) and not wins.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        wins[0][:] = 0.0
    assert series.values[:, :50].any()
    picked = wins[[2, 0]]
    assert picked.flags.writeable and not np.shares_memory(picked, series.values)
    assert_array_equal(picked, np.stack([series.values[:, 50:], series.values[:, :50]]))


def test_window_rejects_bad_args():
    with pytest.raises(ValueError, match="exceeds"):
        window(np.zeros((1, 10)), 11, 1)
    with pytest.raises(ValueError):
        window(np.zeros((1, 10)), 5, 0)
