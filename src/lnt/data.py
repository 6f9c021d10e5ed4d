"""Series ingestion, normalization, synthetic generation, and sine-tone
anomaly injection.

Frequencies are quoted in Hz-equivalents: cycles per ``rate`` frames, with
the audio-like nominal rate of 16000 as default.  All generation and
injection is seed-deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

CONSTANT_STD = 1e-12  # channels at or below this are dropped


@dataclass
class LabeledSeries:
    """Multichannel raw series (C,T) with optional per-timestep 0/1 labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    channel_names: list[str] = field(default_factory=list)
    rate: float = 16000.0

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
            if not np.isin(self.labels, (0, 1)).all():
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
    """(x - mean)/std on kept channels; constant channels are removed."""
    if len(stats.mean) != series.channels:
        raise ValueError(
            f"stats cover {len(stats.mean)} channels, series has {series.channels}"
        )
    keep = stats.keep
    values = (series.values[keep] - stats.mean[keep, None]) / stats.std[keep, None]
    names = [n for n, k in zip(series.channel_names, keep) if k]
    return LabeledSeries(values, series.labels, names, series.rate)


# ---------------------------------------------------------------------------
# CSV


def load_csv(path) -> LabeledSeries:
    """Parse a headered CSV; a column named `label` becomes the labels."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: empty file")
        label_idx = header.index("label") if "label" in header else None
        names = [h for i, h in enumerate(header) if i != label_idx]
        if not names:
            raise ValueError(f"{path}: no data columns")
        cols: list[list[float]] = [[] for _ in names]
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
                        f"{path}: row {lineno} has non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: row {lineno} has non-finite value {cell!r}")
                cols[ci].append(value)
                ci += 1
    if not cols[0]:
        raise ValueError(f"{path}: no data rows")
    values = np.asarray(cols, dtype=np.float64)
    return LabeledSeries(values, np.asarray(labels) if label_idx is not None else None, names)


def save_csv(path, series: LabeledSeries) -> None:
    """Inverse of load_csv; floats printed %.9g so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(series.channel_names)
        if series.labels is not None:
            header.append("label")
        writer.writerow(header)
        labeled = series.labels is not None
        for t in range(series.length):
            row = [f"{v:.9g}" for v in series.values[:, t]]
            if labeled:
                row.append(int(series.labels[t]))
            writer.writerow(row)


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
    t = np.arange(length, dtype=np.float64)
    values = np.empty((channels, length))
    for ch in range(channels):
        n = int(rng.integers(2, 5))
        periods = rng.uniform(1024.0, 8192.0, size=n)
        amps = rng.uniform(0.5, 1.0, size=n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        wave = np.zeros(length)
        for p, a, ph in zip(periods, amps, phases):
            wave += a * np.sin(2.0 * np.pi * t / p + ph)
        values[ch] = wave + rng.normal(0.0, 0.05, size=length)
    return LabeledSeries(values, np.zeros(length, dtype=np.int64))


@dataclass(frozen=True)
class InjectionSpec:
    """Sine-tone anomaly protocol: frequency band (Hz-equivalent), length
    band in frames, target labeled fraction, amplitude as a multiple of the
    per-channel standard deviation."""

    freq_low: float = 20.0
    freq_high: float = 120.0
    len_low: int = 512
    len_high: int = 4096
    fraction: float = 0.10
    amplitude: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0,1)")
        if not 0 < self.freq_low <= self.freq_high:
            raise ValueError("bad frequency range")
        if not 0 < self.len_low <= self.len_high:
            raise ValueError("bad length range")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


def inject_sine_anomalies(series: LabeledSeries, spec: InjectionSpec) -> LabeledSeries:
    """Add non-overlapping pure tones until ~fraction of frames is labeled.

    Tones share frequency and phase across channels, scaled by amplitude x
    per-channel std.  Frames outside the labeled intervals are untouched.
    The achieved fraction must land within 2 percentage points of target.
    """
    t_total = series.length
    if t_total <= spec.len_high:
        raise ValueError(
            f"series of {t_total} frames is too short for anomalies up to {spec.len_high}"
        )
    rng = np.random.default_rng(spec.seed)
    values = series.values.copy()
    labels = (
        series.labels.copy() if series.labels is not None
        else np.zeros(t_total, dtype=np.int64)
    )
    stds = series.values.std(axis=1)
    target = spec.fraction * t_total

    placed = int(labels.sum())
    while True:
        remaining = target - placed
        if remaining < spec.len_low:
            # one more minimum-length tone overshoots; skipping undershoots —
            # pick whichever lands closer to the target
            if remaining <= spec.len_low / 2:
                break
            length = spec.len_low
        elif remaining <= spec.len_high:
            length = int(round(remaining))  # final tone lands on the target
        else:
            length = int(rng.integers(spec.len_low, spec.len_high + 1))
        for _ in range(10_000):
            start = int(rng.integers(0, t_total - length + 1))
            # one clean guard frame on each side so separate tones never
            # merge into a single labeled run
            if not labels[max(0, start - 1) : start + length + 1].any():
                break
        else:
            raise ValueError("cannot fit the requested anomalous fraction")
        freq = rng.uniform(spec.freq_low, spec.freq_high)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tone = np.sin(
            2.0 * np.pi * freq * np.arange(length) / series.rate + phase
        )
        values[:, start : start + length] += spec.amplitude * stds[:, None] * tone
        labels[start : start + length] = 1
        placed += length

    achieved = labels.mean()
    if abs(achieved - spec.fraction) > 0.02:
        raise ValueError(
            f"achieved anomalous fraction {achieved:.4f} misses target "
            f"{spec.fraction:.4f} by more than 2 points"
        )
    return LabeledSeries(values, labels, list(series.channel_names), series.rate)


def window(values, length: int, stride: int) -> list[np.ndarray]:
    """Contiguous (C,length) windows every ``stride`` frames; the final
    partial window is dropped."""
    if isinstance(values, LabeledSeries):
        values = values.values
    values = np.asarray(values)
    t_total = values.shape[-1]
    if length > t_total:
        raise ValueError(f"window length {length} exceeds series length {t_total}")
    if length < 1 or stride < 1:
        raise ValueError("length and stride must be >= 1")
    return [
        values[:, s : s + length].copy()
        for s in range(0, t_total - length + 1, stride)
    ]
