"""Smart-meter measurement datasets.

Builds the day x slot x channel tensor from long-format readings, serializes
it to CSV, simulates random missing data, generates synthetic load tensors,
and pre-fills single-user multi-measurement tensors through the power
identity ``P = U * I * cos_phi``. A file's records define its grid, and its
channel names its layout: exactly ``P``, ``U``, ``I``, ``cos_phi`` make it
one user's measurements, any other names make it users.

CSV format (UTF-8, a leading byte-order mark accepted, header
``day,slot,channel,value``): one row per tensor position, ``day`` and
``slot`` its 1-based grid positions, ``channel`` a name, and ``value`` a
decimal float or empty for a missing observation. Channel names are quoted
by the ``csv`` module, also where they hold a bare carriage return. Files
are parsed into :class:`MeterColumns`, one array per field, where NaN marks
an empty value field only (the text ``nan`` is rejected like ``inf``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import KW_ONLY, dataclass, replace
from typing import NamedTuple

import numpy as np

from .tensor_ops import as_mask, as_tensor, cp_reconstruct, fro_norm

LAYOUT_MULTI_USER = "multi_user_single_measurement"
LAYOUT_MULTI_MEASUREMENT = "single_user_multi_measurement"
LAYOUTS = (LAYOUT_MULTI_USER, LAYOUT_MULTI_MEASUREMENT)

ELECTRICAL_CHANNELS = ("P", "U", "I", "cos_phi")
# The closed value range of each bounded electrical channel (P is unbounded).
ELECTRICAL_RANGES = {"U": (0.0, math.inf), "I": (0.0, math.inf), "cos_phi": (-1.0, 1.0)}
CSV_HEADER = ("day", "slot", "channel", "value")

# Divisors smaller than this are treated as zero when inverting P = U*I*cos_phi.
DIVISOR_GUARD = 1e-6
# cos_phi results may exceed 1 by at most this before the slot is deemed inconsistent.
COS_PHI_SLACK = 1e-6


class DataError(ValueError):
    """Malformed records, files, or dataset preconditions."""


def derive_seed(seed: int, *labels) -> int:
    """Stable child seed from a root seed and a label path (SHA-256 based).

    Labeled derivation keeps independent consumers (mask draws, generators,
    solver inits) from perturbing each other when one of them is added or
    removed.
    """
    text = str(int(seed)) + "".join(f"/{part}" for part in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class MeterColumns(NamedTuple):
    """Long-format meter readings, one array entry per CSV row.

    ``day`` and ``slot`` are 1-based int64 indices, ``channel`` holds int64
    codes into ``channels`` (names in order of first appearance), and
    ``value`` is float64 with NaN marking an explicitly missing position.
    """

    day: np.ndarray
    slot: np.ndarray
    channel: np.ndarray
    value: np.ndarray
    channels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TensorDataset:
    """A day x slot x channel measurement tensor with its observation mask.

    ``tensor`` holds zeros at unobserved positions. Channel labels are
    distinct, nonempty and without the surrounding whitespace that
    :func:`load_csv` strips. ``layout``, ``day_labels`` and ``slot_labels``
    are derived; a given value must agree. The layout is :func:`infer_layout`
    of the channel names, and days and slots are the grid positions
    ``1..I1`` and ``1..I2``, as in a CSV file.
    """

    tensor: np.ndarray
    mask: np.ndarray
    channel_labels: tuple[str, ...]
    _: KW_ONLY
    layout: str | None = None
    day_labels: tuple[int, ...] | None = None
    slot_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        t = as_tensor(self.tensor)
        m = as_mask(self.mask, t.shape)
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "mask", m)
        object.__setattr__(self, "channel_labels", tuple(str(c) for c in self.channel_labels))
        names = self.channel_labels
        if len(names) != t.shape[2] or "" in names or len(set(names)) < len(names):
            raise ValueError(f"{t.shape[2]} channels need distinct and nonempty names: {names}")
        if any(c != c.strip() for c in names):
            raise ValueError(f"channel labels must not start or end with whitespace, got {names}")
        layout = infer_layout(names)
        if self.layout not in (None, layout):
            raise ValueError(f"channels {names} give layout {layout}, not {self.layout!r}")
        object.__setattr__(self, "layout", layout)
        for field, n in (("day_labels", t.shape[0]), ("slot_labels", t.shape[1])):
            positions = tuple(range(1, n + 1))
            given = getattr(self, field)
            if given is not None and not np.array_equal(given, positions):
                raise ValueError(f"{field} must be the positions 1..{n}, got {given!r}")
            object.__setattr__(self, field, positions)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.tensor.shape

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @property
    def fully_observed(self) -> bool:
        return bool(self.mask.all())


def infer_layout(channel_labels) -> str:
    """Multi-measurement when the channels are exactly the four electrical ones."""
    if set(channel_labels) == set(ELECTRICAL_CHANNELS):
        return LAYOUT_MULTI_MEASUREMENT
    return LAYOUT_MULTI_USER


def build_tensor(cols: MeterColumns) -> TensorDataset:
    """Assemble a dataset from columns; absent and NaN positions become unobserved.

    The dims are the largest day, the largest slot and the number of
    channel names. Duplicate ``(day, slot, channel)`` keys, days or slots
    below 1, out-of-range channel codes, and infinite values are rejected.
    When the channels are the electrical ones, observed values must satisfy
    ``cos_phi`` in [-1, 1] and nonnegative ``U`` and ``I``.
    """
    day, slot, chan, value, names = cols
    if not day.size:
        raise DataError("cannot infer dims from an empty record set")

    def position(k):
        return f"day={day[k]}, slot={slot[k]}, channel={names[chan[k]]!r}"

    bad = (chan < 0) | (chan >= len(names))
    if bad.any():
        k = int(np.argmax(bad))
        raise DataError(f"record {k} has channel code {chan[k]}, but {len(names)} channels")
    bad = (day < 1) | (slot < 1)
    if bad.any():
        raise DataError(f"record {position(int(np.argmax(bad)))} has a day or slot below 1")
    dims = (int(day.max()), int(slot.max()), len(names))
    lin = np.ravel_multi_index((day - 1, slot - 1, chan), dims)
    uniq, counts = np.unique(lin, return_counts=True)
    if counts.max(initial=0) > 1:
        d, s, c = np.unravel_index(uniq[int(np.argmax(counts > 1))], dims)
        raise DataError(f"duplicate record for day={d + 1}, slot={s + 1}, channel={names[c]!r}")
    bad = np.isinf(value)
    if bad.any():
        raise DataError(f"non-finite value for {position(int(np.argmax(bad)))}")
    observed = ~np.isnan(value)
    tensor = np.zeros(dims)
    mask = np.zeros(dims, dtype=bool)
    tensor.flat[lin[observed]] = value[observed]
    mask.flat[lin[observed]] = True

    ds = TensorDataset(tensor, mask, names)
    if ds.layout == LAYOUT_MULTI_MEASUREMENT:
        _check_electrical_ranges(ds)
    return ds


def _check_electrical_ranges(ds: TensorDataset) -> None:
    for name, (lo, hi) in ELECTRICAL_RANGES.items():
        c = ds.channel_labels.index(name)
        vals = ds.tensor[:, :, c][ds.mask[:, :, c]]
        if vals.size and (vals.min() < lo or vals.max() > hi):
            raise DataError(f"observed {name} values fall outside the valid range")


def simulate_missing(ds: TensorDataset, rate: float, seed: int) -> TensorDataset:
    """Hide exactly ``round(rate * N)`` uniformly chosen positions.

    Requires a fully observed dataset; the input is left untouched and keeps
    serving as ground truth. Deterministic per seed.
    """
    if not 0 <= rate < 1:
        raise ValueError(f"missing rate must lie in [0, 1), got {rate}")
    if not ds.fully_observed:
        raise ValueError("simulate_missing requires a fully observed dataset")
    n = ds.tensor.size
    drop = np.random.default_rng(seed).choice(n, size=int(round(rate * n)), replace=False)
    mask = np.ones(n, dtype=bool)
    mask[drop] = False
    mask = mask.reshape(ds.dims)
    return replace(ds, tensor=np.where(mask, ds.tensor, 0.0), mask=mask)


@dataclass(frozen=True, eq=False)
class PrefillResult:
    """Pre-filled dataset plus counts of filled and skipped slots."""

    dataset: TensorDataset
    filled: int
    skipped_small_divisor: int
    skipped_inconsistent: int


def prefill_electrical(ds: TensorDataset) -> PrefillResult:
    """Restore single missing channels from ``P = U * I * cos_phi``.

    Only (day, slot) cells with exactly one of the four channels missing are
    touched. With that channel set to 1, the product ``U * I * cos_phi`` is
    the missing value where ``P`` is missing and the divisor of ``P`` where
    any other channel is missing; the value found is marked observed.
    Divisors below ``DIVISOR_GUARD`` in magnitude are skipped, as are
    cos_phi results beyond ``1 + COS_PHI_SLACK`` (results within the slack
    are clamped to [-1, 1]). Applying the operation twice equals applying
    it once.
    """
    if ds.layout != LAYOUT_MULTI_MEASUREMENT:
        raise ValueError("pre-fill requires the single-user multi-measurement layout")
    tensor = ds.tensor.copy()
    mask = ds.mask.copy()
    ix = [ds.channel_labels.index(name) for name in ELECTRICAL_CHANNELS]
    single = mask[:, :, ix].sum(axis=2) == 3
    p, u, i, c = (np.where(mask[:, :, k], tensor[:, :, k], 1.0) for k in ix)
    product = u * i * c
    filled = skipped_div = skipped_inc = 0
    for name, k in zip(ELECTRICAL_CHANNELS, ix):
        sel = single & ~mask[:, :, k]
        if name == "P":
            ok, value = sel, product
        else:
            ok = sel & (np.abs(product) >= DIVISOR_GUARD)
            skipped_div += int((sel & ~ok).sum())
            value = np.divide(p, product, out=np.zeros_like(p), where=ok)
        if name == "cos_phi":
            within = np.abs(value) <= 1.0 + COS_PHI_SLACK
            skipped_inc += int((ok & ~within).sum())
            ok &= within
            value = np.clip(value, -1.0, 1.0)
        tensor[:, :, k][ok] = value[ok]
        mask[:, :, k][ok] = True
        filled += int(ok.sum())
    return PrefillResult(replace(ds, tensor=tensor, mask=mask), filled, skipped_div, skipped_inc)


# ---------------------------------------------------------------------------
# synthetic generators


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for :func:`synth_load_tensor`.

    ``noise`` is the standard deviation of additive Gaussian noise relative
    to the RMS of the clean tensor; ``periodic`` injects smooth double-peak
    daily profiles into the slot-mode factor. ``weight_decay`` scales
    component r by ``weight_decay ** r``, yielding a few dominant load
    patterns plus progressively weaker ones (1.0 keeps all components at
    comparable energy).
    """

    dims: tuple[int, int, int]
    rank: int = 3
    noise: float = 0.0
    periodic: bool = True
    weight_decay: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if not 0 < self.weight_decay <= 1:
            raise ValueError("weight_decay must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class SynthResult:
    """Generated dataset plus the ground-truth factors and clean tensor."""

    dataset: TensorDataset
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    clean: np.ndarray


def _smooth_profile(rng: np.random.Generator, slots: int, periodic: bool) -> np.ndarray:
    """Positive slot profile: optional morning/evening peaks plus low-order Fourier jitter."""
    s = np.arange(slots) / slots
    prof = np.full(slots, rng.uniform(0.25, 0.6))
    if periodic:
        for center, width, height in (
            (rng.uniform(0.25, 0.40), rng.uniform(0.05, 0.09), rng.uniform(0.5, 1.0)),
            (rng.uniform(0.70, 0.85), rng.uniform(0.06, 0.12), rng.uniform(0.7, 1.3)),
        ):
            prof = prof + height * np.exp(-(((s - center) / width) ** 2))
    for h in range(1, 4):
        prof = prof + 0.06 * rng.standard_normal() * np.cos(
            2 * np.pi * h * s + rng.uniform(0, 2 * np.pi)
        )
    return np.maximum(prof, 0.05)


def synth_load_tensor(spec: SynthSpec, seed: int) -> SynthResult:
    """Random nonnegative CP load tensor with daily structure in the slot mode."""
    rng = np.random.default_rng(seed)
    days, slots, chans = spec.dims
    u_day = rng.uniform(0.7, 1.3, (days, spec.rank))
    if spec.periodic:
        u_slot = np.column_stack(
            [_smooth_profile(rng, slots, periodic=True) for _ in range(spec.rank)]
        )
    else:
        u_slot = rng.uniform(0.2, 1.2, (slots, spec.rank))
    u_chan = rng.uniform(0.2, 1.0, (chans, spec.rank))
    if spec.weight_decay < 1.0:
        u_chan = u_chan * spec.weight_decay ** np.arange(spec.rank)[None, :]
    clean = cp_reconstruct((u_day, u_slot, u_chan))

    tensor = clean
    if spec.noise > 0:
        rms = fro_norm(clean) / math.sqrt(clean.size)
        tensor = clean + spec.noise * rms * rng.standard_normal(spec.dims)

    names = tuple(f"user_{k + 1:03d}" for k in range(chans))
    ds = TensorDataset(tensor, np.ones(spec.dims, dtype=bool), names)
    return SynthResult(dataset=ds, factors=(u_day, u_slot, u_chan), clean=clean)


def synth_electrical_tensor(days: int, slots: int, seed: int) -> TensorDataset:
    """Single-user P/U/I/cos_phi tensor consistent with the power identity.

    Voltage, current, and power factor follow smooth daily profiles with
    mild day-to-day variation; active power is their exact product, so the
    identity ``P = U * I * cos_phi`` holds at every cell.
    """
    if days < 1 or slots < 1:
        raise ValueError("days and slots must be positive")
    rng = np.random.default_rng(seed)
    day_scale = rng.uniform(0.85, 1.15, days)

    volts = 230.0 + 3.0 * np.outer(
        rng.uniform(0.5, 1.5, days), _smooth_profile(rng, slots, periodic=False) - 0.5
    )
    amps = np.outer(day_scale, 0.4 + 6.0 * _smooth_profile(rng, slots, periodic=True))
    amps = amps * (1.0 + 0.05 * rng.standard_normal((days, slots)))
    amps = np.maximum(amps, 0.05)
    cos_phi = np.clip(
        0.78 + 0.15 * (_smooth_profile(rng, slots, periodic=False) - 0.4)[None, :]
        + 0.02 * rng.standard_normal((days, slots)),
        0.5,
        0.999,
    )
    power = volts * amps * cos_phi

    tensor = np.stack([power, volts, amps, cos_phi], axis=2)
    return TensorDataset(tensor, np.ones(tensor.shape, dtype=bool), ELECTRICAL_CHANNELS)


# ---------------------------------------------------------------------------
# CSV serialization


def load_csv(path) -> MeterColumns:
    """Read long-format rows into columns; empty value fields mark missing positions."""
    days, slots, codes, values = [], [], [], []
    names: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header}"
            )
        for row in reader:
            if not row:
                continue
            # the physical line: a quoted field may span several lines
            lineno = reader.line_num
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                day, slot = int(row[0]), int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: day and slot must be integers") from None
            channel = row[2].strip()
            if not channel:
                raise DataError(f"{path}:{lineno}: empty channel name")
            raw = row[3].strip()
            if raw == "":
                value = math.nan
            else:
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {raw!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}:{lineno}: non-finite value {raw!r}")
            days.append(day)
            slots.append(slot)
            codes.append(names.setdefault(channel, len(names)))
            values.append(value)
    try:
        day, slot = np.array(days, dtype=np.int64), np.array(slots, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: day or slot beyond the 64-bit integer range") from None
    return MeterColumns(day, slot, np.array(codes, dtype=np.int64), np.array(values), tuple(names))


def _csv_fields(labels) -> list[str]:
    """Each label as ``csv.writer`` writes it inside a row, followed by its comma."""
    buf = io.StringIO()
    # The writer quotes a field that holds a character of its line terminator,
    # so "\r\n" quotes a bare carriage return as well as a newline.
    writer = csv.writer(buf, lineterminator="\r\n")
    fields = []
    for label in labels:
        writer.writerow((label,))
        fields.append(buf.getvalue()[:-2] + ",")
        buf.seek(0)
        buf.truncate()
    return fields


def save_csv(ds: TensorDataset, path) -> None:
    """Write the full position grid in day-major order; missing values are empty.

    Days and slots are written as their positions. Each channel name is
    quoted once by the csv module, and each day's rows are joined from the
    day, those fields and the values' ``repr``.
    """
    days, slots, _ = ds.dims
    channels = _csv_fields(ds.channel_labels)
    tails = [f"{slot},{chan}" for slot in range(1, slots + 1) for chan in channels]
    values = ds.tensor.reshape(days, -1)
    seen = ds.mask.reshape(days, -1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for day, day_values, day_seen in zip(range(1, days + 1), values, seen):
            head = f"{day},"
            text = [repr(v) if s else "" for v, s in zip(day_values.tolist(), day_seen.tolist())]
            fh.writelines([f"{head}{tail}{t}\n" for tail, t in zip(tails, text)])


def load_dataset(path) -> TensorDataset:
    """Load a CSV file into a dataset; its dims and layout follow from its records."""
    return build_tensor(load_csv(path))


# ---------------------------------------------------------------------------
# per-channel standardization (multi-measurement tensors mix units)


def standardize_channels(ds: TensorDataset) -> tuple[TensorDataset, np.ndarray, np.ndarray]:
    """Subtract each channel's observed mean and divide by its observed std.

    Near-constant channels (std below 1e-12) are shifted only. Returns the
    scaled dataset and the per-channel means and stds for inversion.
    """
    chans = ds.dims[2]
    means = np.zeros(chans)
    stds = np.ones(chans)
    for c in range(chans):
        vals = ds.tensor[:, :, c][ds.mask[:, :, c]]
        if vals.size:
            means[c] = vals.mean()
            std = vals.std()
            stds[c] = std if std > 1e-12 else 1.0
    scaled = np.where(ds.mask, (ds.tensor - means[None, None, :]) / stds[None, None, :], 0.0)
    return replace(ds, tensor=scaled), means, stds

