"""Series ingestion, normalization, synthetic generation, and sine-tone
anomaly injection.

Frequencies are quoted in Hz-equivalents: cycles per ``RATE`` frames, the
audio-like nominal rate of 16000.  All generation and injection is
seed-deterministic.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

CONSTANT_STD = 1e-12  # channels at or below this are dropped
COUNT_BLOCK = 1 << 18  # bytes per read when counting a file's lines
RATE = 16000.0  # frames per second of the Hz-equivalent
TONE_HZ = (20.0, 120.0)  # an injected tone's frequency band, Hz-equivalent
TONE_FRAMES = (512, 4096)  # an injected tone's length band, frames


@dataclass
class LabeledSeries:
    """Multichannel raw series (C,T) with optional per-timestep 0/1 labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    channel_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be (channels, time), got {self.values.shape}")
        if not self.channel_names:
            self.channel_names = [f"ch{i}" for i in range(self.values.shape[0])]
        if len(self.channel_names) != self.values.shape[0]:
            raise ValueError("one channel name per channel required")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[1],):
                raise ValueError("labels must be one value per timestep")
            if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() <= 1:
                raise ValueError("labels must be 0 or 1")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-channel training mean/std plus the kept-channel mask.

    Stored in float32 so checkpoint round-trips are lossless.
    """

    mean: np.ndarray
    std: np.ndarray
    keep: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std", "keep"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))


def compute_stats(series: LabeledSeries) -> NormStats:
    """Stats of the training split; constant channels are marked dropped."""
    mean = series.values.mean(axis=1).astype(np.float32)
    std = series.values.std(axis=1).astype(np.float32)
    keep = std > CONSTANT_STD
    return NormStats(mean=mean, std=std, keep=keep)


def standardize(series: LabeledSeries, stats: NormStats) -> LabeledSeries:
    """(x - mean)/std on kept channels; constant channels are removed.

    Works in place, so that a long series is never held twice: the kept
    channels are standardized into the leading rows of ``series.values``,
    whose view the result holds.  ``series`` is spent.
    """
    if len(stats.mean) != series.channels:
        raise ValueError(
            f"stats cover {len(stats.mean)} channels, series has {series.channels}"
        )
    values, kept = series.values, np.flatnonzero(stats.keep)
    for row, ch in enumerate(kept):
        np.subtract(values[ch], stats.mean[ch], out=values[row])
        values[row] /= stats.std[ch]
    names = [series.channel_names[ch] for ch in kept]
    return LabeledSeries(values[: len(kept)], series.labels, names)


# ---------------------------------------------------------------------------
# CSV


# rows formatted and written per block: joining a whole long series at once
# costs memory on the order of the file
_BLOCK_ROWS = 8192


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a headered CSV with one row per entry of the equal-length columns.

    Float columns print as %.9g, so reruns are byte-identical; other
    columns print as ``str`` and must need no CSV quoting.  Lines end in
    ``\\r\\n`` like ``csv.writer``'s, which writes the header.  Rows are
    written a block at a time, as fixed-width byte cells (:func:`_cells`)
    in which a NUL byte prints nothing.  So a str cell may not hold NUL:
    a column with one is rejected, naming it, before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    for name, c in zip(header, columns):
        if c.dtype.kind not in "biuf" and any("\0" in str(v) for v in c.tolist()):
            raise ValueError(f"{path}: column {name!r} holds a NUL character")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [_cells(c[start : start + _BLOCK_ROWS], fh.encoding) for c in columns]
            rows = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells) + 1), np.uint8)
            at = 0
            for c in cells:
                rows[:, at : at + c.shape[1]] = c
                at += c.shape[1]
                rows[:, at] = ord(",")
                at += 1
            rows[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
            fh.buffer.write(rows.tobytes().translate(None, b"\0"))


def _cells(c: np.ndarray, encoding: str) -> np.ndarray:
    """(rows, width) uint8 cells of one column, printed as ``write_csv``
    prints them; NUL bytes pad each cell and print nothing.  A numeric
    column whose values repeat in runs is formatted once per run."""
    kind = c.dtype.kind
    if kind not in "iuf":
        return _text_cells([str(v) for v in c.tolist()], encoding)
    bits = c.view(f"u{c.itemsize}")  # tells -0.0 from 0.0, and NaN payloads apart
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * len(heads) <= len(c):  # runs average two rows or more
        return np.repeat(_cells(c[heads], encoding), np.diff(heads, append=len(c)), axis=0)
    if kind == "f":
        return _float_cells(c.astype(np.float64, copy=False))
    return _int_cells(c)


def _text_cells(texts: list[str], encoding: str) -> np.ndarray:
    """(len(texts), width) uint8 cells of Python-formatted text."""
    packed = np.array([t.encode(encoding) for t in texts], dtype=bytes)
    return packed.view(np.uint8).reshape(len(texts), -1)


def _patched(cells: np.ndarray, rows: np.ndarray, texts: list[str]) -> np.ndarray:
    """``cells`` with ``rows`` replaced by the ASCII cells ``texts``, widened
    to fit them."""
    if not len(rows):
        return cells
    text = _text_cells(texts, "ascii")
    if text.shape[1] > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, text.shape[1] - cells.shape[1])))
    cells[rows] = 0
    cells[rows, : text.shape[1]] = text
    return cells


# SWAR ("SIMD within a register"): a uint64 holds a value's decimal digits
# in lanes, which one multiply and shift divide at once
_U = np.uint64
_ASCII_ZEROS = _U(0x3030303030303030)
_BYTE_STEPS = _U(1) << np.arange(0, 64, 8, dtype=np.uint64)  # 1, 2**8, ..., 2**56


def _swar8(r: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 in ``r`` (all < 10**8),
    zero-padded, one per byte of a uint64: the most significant in the
    lowest byte, which comes first in little-endian memory."""
    hi = r * _U(3518437209) >> _U(45)  # r // 10**4 for r < 2**32
    v = hi | (r - hi * _U(10**4)) << _U(32)  # 4-digit halves in 32-bit lanes
    q = v * _U(5243) >> _U(19) & _U(0x0000007F0000007F)  # each lane // 100
    v = q | (v - q * _U(100)) << _U(16)  # 2-digit quarters in 16-bit lanes
    q = v * _U(103) >> _U(10) & _U(0x000F000F000F000F)  # each lane // 10
    return q | (v - q * _U(10)) << _U(8)


def _ascii(words: np.ndarray) -> np.ndarray:
    """(len(words), 8) uint8 ASCII digits of ``_swar8`` words."""
    return (words + _ASCII_ZEROS).astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)


_POW10_INT = 10 ** np.arange(1, 8, dtype=np.uint64)  # 10, ..., 10**7


def _int_cells(c: np.ndarray) -> np.ndarray:
    """``str(int(v))`` cells; Python prints v outside [0, 10**8)."""
    u = c.astype(np.uint64)  # a negative v wraps past 10**8
    big = u >= _U(10**8)
    u[big] = 0
    width = np.searchsorted(_POW10_INT, u, side="right") + 1
    widest = width.max()
    cells = _ascii(_swar8(u))[:, 8 - widest :]
    cells[np.arange(widest) < widest - width[:, None]] = 0  # leading zeros print nothing
    rows = np.flatnonzero(big)
    return _patched(cells, rows, [str(v) for v in c[rows].tolist()])


# The %.9g kernel prints x as m * 10**(e - 8), with e = floor(log10|x|) and
# m = rint(|x| * 10**(8 - e)) of 9 digits.  One exact power of ten
# (|8 - e| <= 22) scales |x|, so the scaled value errs by at most 2**-23:
# outside a band of _TIE_BAND around a half, m rounds as the exact product
# does.  Python prints the cells the kernel cannot vouch for: zero,
# non-finite values, e outside _FLOAT_E, cells inside the band, and m
# outside [1e8, 1e9), where log10 missed by one next to a power of ten or
# the rounding carried into a tenth digit.
_FLOAT_E = (-14, 30)
_TIE_BAND = 1e-6
_SCALE = np.arange(-22, 23)  # 8 - e for e in _FLOAT_E
_SCALE_MUL = 10.0 ** np.maximum(_SCALE, 0)  # exact powers of ten, or 1
_SCALE_DIV = 10.0 ** np.maximum(-_SCALE, 0)
_FLOAT_WIDTH = 15  # -0.000123456789, -1.23456789e+30
# a cell's source: 16 constant bytes, then the digits after the first,
# then the first; the layouts index its bytes
_CONSTANTS = b"0123456789.e+-\0\0"
_SOURCE_WORDS = np.frombuffer(_CONSTANTS, "<u8")


def _float_layouts() -> np.ndarray:
    """Per (e, digits kept, sign) key, a cell's bytes as indices into its
    source.  Built from Python's own %.9g of a value whose digits name
    their places."""
    lo, hi = _FLOAT_E
    digit_at = [24] + list(range(16, 24))  # the first digit is byte 24
    table = np.full(((hi - lo + 1) * 9 * 2, _FLOAT_WIDTH), _CONSTANTS.index(b"\0"), np.intp)
    for e in range(lo, hi + 1):
        for kept in range(1, 10):
            text = "%.9g" % float(f"{'123456789'[:kept]}e{e - kept + 1}")
            mantissa = len(text.partition("e")[0])
            for neg in (0, 1):
                row = table[((e - lo) * 9 + kept - 1) * 2 + neg]
                for i, ch in enumerate("-" * neg + text):
                    if ch in "123456789" and i < mantissa + neg:
                        row[i] = digit_at[int(ch) - 1]
                    else:
                        row[i] = _CONSTANTS.index(ch.encode())
    return table


_FLOAT_LAYOUTS = _float_layouts()


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.9g' % v`` cells of float64 ``x``."""
    lo, hi = _FLOAT_E
    ax = np.abs(x)
    ok = np.isfinite(ax) & (ax > 0)
    ax[~ok] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    i = np.clip(8 - e - _SCALE[0], 0, len(_SCALE) - 1)  # 8 - e's place in _SCALE
    scaled = ax * _SCALE_MUL[i] / _SCALE_DIV[i]  # one rounding: one factor is 1
    m = np.rint(scaled)
    ok &= (e >= lo) & (e <= hi) & (scaled >= 1e8) & (m < 1e9)
    ok &= np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_BAND
    m[~ok] = 1e8
    lead = np.floor(m / 1e8)
    rest = _swar8((m - lead * 1e8).astype(np.uint64))
    source = np.empty((len(x), 4), "<u8")
    source[:, :2] = _SOURCE_WORDS
    source[:, 2] = rest + _ASCII_ZEROS
    source[:, 3] = lead + ord("0")
    # digits kept: the first, and the rest up to the last nonzero byte
    kept = 1 + np.searchsorted(_BYTE_STEPS, rest, side="right")
    key = ((np.where(ok, e, lo) - lo) * 9 + kept - 1) * 2 + (x < 0)
    at = np.take(_FLOAT_LAYOUTS, key, axis=0)
    at += np.arange(0, source.nbytes, source.itemsize * 4)[:, None]
    cells = np.take(source.view(np.uint8).ravel(), at)
    rows = np.flatnonzero(~ok)
    return _patched(cells, rows, ["%.9g" % v for v in x[rows].tolist()])


def read_csv(
    path, require: tuple[str, ...] = ()
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Parse a headered CSV of finite numbers: (names, values, labels).

    A column named ``label`` holds literal ``0``/``1`` cells and becomes the
    int64 ``labels`` (None without one).  Every other column is one float64
    row of ``values`` (columns, rows), named in ``names``.  The header must
    start with ``require`` and may not repeat a name.

    numpy's C parser reads a well-formed file.  Whatever it cannot vouch
    for (blank lines, quotes, stray text, non-finite values, labels other
    than a literal 0/1, ragged rows) is read again row by row, so every
    error names the file, the row and the cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        header_lines = reader.line_num
    if not header:
        raise ValueError(f"{path}: empty file")
    if header[: len(require)] != list(require):
        raise ValueError(
            f"{path}: header must start with {','.join(require)}, got {','.join(header)}"
        )
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise ValueError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    label_idx = header.index("label") if "label" in header else None
    names = [h for i, h in enumerate(header) if i != label_idx]
    if not names:
        raise ValueError(f"{path}: no data columns")
    parsed = None
    if header_lines == 1:
        parsed = _read_rows_fast(path, len(header), label_idx, _count_lines(path) - 1)
    if parsed is None:
        parsed = _read_rows_checked(path, header, label_idx)
    return names, *parsed


def _count_lines(path) -> int:
    """Lines of the file, split at \\r\\n, \\r or \\n as both csv and
    np.loadtxt split them, read in blocks of ``COUNT_BLOCK`` bytes."""
    ends = 0
    last = None  # the previous block's last byte
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(COUNT_BLOCK), b""):
            b = np.frombuffer(block, dtype=np.uint8)
            lf, cr = b == 10, b == 13
            # every \n and \r ends a line, except a \n right after a \r,
            # which may sit at the end of the previous block
            ends += np.count_nonzero(lf) + np.count_nonzero(cr)
            ends -= np.count_nonzero(cr[:-1] & lf[1:]) + (last == 13 and b[0] == 10)
            last = b[-1]
    return int(ends) + (last is not None and last not in (10, 13))


def _read_rows_fast(path, width: int, label_idx: int | None, rows: int):
    """(values, labels) through ``np.loadtxt``, or None when the file needs
    the row-by-row reader.  ``rows`` is the count of lines after the header:
    loadtxt skips blank lines, which the row reader rejects, so a shortfall
    means the file has one."""
    if rows < 1:
        return None
    # 'U2' keeps a label cell's text (truncated, which no literal 0/1 needs),
    # where a float would also take "1.0" or " 1"
    dtype = np.dtype([(f"c{i}", "U2" if i == label_idx else "f8") for i in range(width)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            # max_rows: one allocation of the counted rows, not a growing one
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                               skiprows=1, ndmin=1, max_rows=rows)
    except (ValueError, UserWarning):
        return None
    if table.shape != (rows,):
        return None
    values = np.stack([table[f"c{i}"] for i in range(width) if i != label_idx])
    ones = None if label_idx is None else table[f"c{label_idx}"] == "1"
    if ones is not None and not (ones | (table[f"c{label_idx}"] == "0")).all():
        return None
    del table  # the parse and the values set the peak; free it before anything else
    if not np.isfinite(values).all():
        return None
    return values, None if ones is None else ones.astype(np.int64)


def _read_rows_checked(path, header: list[str], label_idx: int | None):
    """(values, labels) validated cell by cell; raises on the first bad one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        cols: list[list[float]] = [[] for i in range(len(header)) if i != label_idx]
        labels: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} columns, expected {len(header)}"
                )
            ci = 0
            for i, cell in enumerate(row):
                if i == label_idx:
                    if cell not in ("0", "1"):
                        raise ValueError(f"{path}: row {lineno} has bad label {cell!r}")
                    labels.append(int(cell))
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno} has non-numeric value {cell!r} "
                        f"in column {header[i]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno} has non-finite value {cell!r} "
                        f"in column {header[i]!r}"
                    )
                cols[ci].append(value)
                ci += 1
    if not cols[0]:
        raise ValueError(f"{path}: no data rows")
    values = np.asarray(cols, dtype=np.float64)
    return values, np.asarray(labels, dtype=np.int64) if label_idx is not None else None


def load_csv(path) -> LabeledSeries:
    """Parse a headered CSV; a column named `label` becomes the labels."""
    names, values, labels = read_csv(path)
    return LabeledSeries(values, labels, names)


def save_csv(path, series: LabeledSeries) -> None:
    """Inverse of load_csv; floats printed %.9g so reruns are byte-identical."""
    header, columns = list(series.channel_names), list(series.values)
    if series.labels is not None:
        header.append("label")
        columns.append(series.labels)
    write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# synthesis and injection


def synth_normal(channels: int, length: int, seed: int) -> LabeledSeries:
    """Smooth quasi-periodic background: per channel a mixture of 2-4
    sinusoids (periods >= 1024 frames, well below the anomaly band) with
    amplitudes U[0.5,1] and Gaussian noise sigma=0.05.  Labels all zero."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    two_pi_t = 2.0 * np.pi * np.arange(length, dtype=np.float64)
    values = np.zeros((channels, length))
    term = np.empty(length)
    for ch in range(channels):
        n = int(rng.integers(2, 5))
        periods = rng.uniform(1024.0, 8192.0, size=n)
        amps = rng.uniform(0.5, 1.0, size=n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        wave = values[ch]
        for p, a, ph in zip(periods, amps, phases):
            # a * sin(2πt / p + ph), one operation at a time in one buffer
            np.divide(two_pi_t, p, out=term)
            term += ph
            np.sin(term, out=term)
            term *= a
            wave += term
        wave += rng.normal(0.0, 0.05, size=length)
    return LabeledSeries(values, np.zeros(length, dtype=np.int64))


@dataclass(frozen=True)
class InjectionSpec:
    """Sine-tone anomaly protocol: target labeled fraction, amplitude as a
    multiple of the per-channel standard deviation.  The tones' bands are
    ``TONE_HZ`` and ``TONE_FRAMES``."""

    fraction: float = 0.10
    amplitude: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0,1)")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")


def inject_sine_anomalies(series: LabeledSeries, spec: InjectionSpec) -> LabeledSeries:
    """Add non-overlapping pure tones until ~fraction of frames is labeled.

    Tones share frequency and phase across channels, scaled by amplitude x
    per-channel std.  Frames outside the labeled intervals are untouched.
    The achieved fraction must land within 2 percentage points of target.
    """
    t_total = series.length
    len_low, len_high = TONE_FRAMES
    if t_total <= len_high:
        raise ValueError(
            f"series of {t_total} frames is too short for anomalies up to {len_high}"
        )
    rng = np.random.default_rng(spec.seed)
    # per row, before the copy: values.std(axis=1) makes a full-size
    # temporary for the same bits
    stds = np.array([row.std() for row in series.values])
    values = series.values.copy()
    labels = (
        series.labels.copy() if series.labels is not None
        else np.zeros(t_total, dtype=np.int64)
    )
    target = spec.fraction * t_total

    placed = int(labels.sum())
    while True:
        remaining = target - placed
        if remaining < len_low:
            # one more minimum-length tone overshoots; skipping undershoots —
            # pick whichever lands closer to the target
            if remaining <= len_low / 2:
                break
            length = len_low
        elif remaining <= len_high:
            length = int(round(remaining))  # final tone lands on the target
        else:
            length = int(rng.integers(len_low, len_high + 1))
        for _ in range(10_000):
            start = int(rng.integers(0, t_total - length + 1))
            # one clean guard frame on each side so separate tones never
            # merge into a single labeled run
            if not labels[max(0, start - 1) : start + length + 1].any():
                break
        else:
            raise ValueError("cannot fit the requested anomalous fraction")
        freq = rng.uniform(*TONE_HZ)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tone = np.sin(2.0 * np.pi * freq * np.arange(length) / RATE + phase)
        values[:, start : start + length] += spec.amplitude * stds[:, None] * tone
        labels[start : start + length] = 1
        placed += length

    achieved = labels.mean()
    if abs(achieved - spec.fraction) > 0.02:
        raise ValueError(
            f"achieved anomalous fraction {achieved:.4f} misses target "
            f"{spec.fraction:.4f} by more than 2 points"
        )
    return LabeledSeries(values, labels, list(series.channel_names))


def window(values, length: int, stride: int) -> np.ndarray:
    """(n, C, length) read-only view of the windows every ``stride`` frames
    of ``values``; the final partial window is dropped.  Indexing it with
    an index array copies just the rows it picks."""
    values = np.asarray(values)
    t_total = values.shape[-1]
    if length > t_total:
        raise ValueError(f"window length {length} exceeds series length {t_total}")
    if length < 1 or stride < 1:
        raise ValueError("length and stride must be >= 1")
    views = np.lib.stride_tricks.sliding_window_view(values, length, axis=-1)
    return views[:, ::stride].swapaxes(0, 1)
