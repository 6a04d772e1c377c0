"""Dataset construction, CSV round-trips, masking, pre-fill, and generators."""

import csv
import io
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from meterfill.data import (
    COS_PHI_SLACK,
    CSV_HEADER,
    DIVISOR_GUARD,
    ELECTRICAL_CHANNELS,
    LAYOUT_MULTI_MEASUREMENT,
    LAYOUT_MULTI_USER,
    DataError,
    MeterColumns,
    PrefillResult,
    SynthSpec,
    TensorDataset,
    build_tensor,
    derive_seed,
    infer_layout,
    load_csv,
    load_dataset,
    prefill_electrical,
    save_csv,
    simulate_missing,
    standardize_channels,
    synth_electrical_tensor,
    synth_load_tensor,
)
from meterfill.tensor_ops import unfold


def electrical_dataset(grid):
    """Dataset over the four electrical channels from {(day, slot): {chan: value}}."""
    days = max(d for d, _ in grid)
    slots = max(s for _, s in grid)
    tensor = np.zeros((days, slots, 4))
    mask = np.zeros((days, slots, 4), dtype=bool)
    for (d, s), values in grid.items():
        for chan, val in values.items():
            c = ELECTRICAL_CHANNELS.index(chan)
            tensor[d - 1, s - 1, c] = val
            mask[d - 1, s - 1, c] = True
    return make_dataset(tensor, mask, channels=ELECTRICAL_CHANNELS)


def columns(*rows):
    """MeterColumns from (day, slot, channel, value) tuples; value None marks missing."""
    names: dict[str, int] = {}
    codes = [names.setdefault(chan, len(names)) for _, _, chan, _ in rows]
    return MeterColumns(
        day=np.array([r[0] for r in rows], dtype=np.int64),
        slot=np.array([r[1] for r in rows], dtype=np.int64),
        channel=np.array(codes, dtype=np.int64),
        value=np.array([math.nan if r[3] is None else r[3] for r in rows], dtype=np.float64),
        channels=tuple(names),
    )


class TestBuildTensor:
    def test_empty_records_without_dims(self):
        with pytest.raises(DataError, match="cannot infer dims"):
            build_tensor(columns())

    def test_full_grid(self):
        cols = columns(
            *((d, s, f"u{c}", float(d * s * c)) for d in (1, 2) for s in (1, 2, 3) for c in (1, 2))
        )
        ds = build_tensor(cols)
        assert ds.dims == (2, 3, 2)
        assert ds.mask.all()
        assert ds.tensor[1, 2, 0] == 6.0

    def test_none_value_marks_missing(self):
        cols = columns((1, 1, "a", 2.0), (1, 2, "a", None))
        ds = build_tensor(cols)
        assert ds.mask[0, 0, 0] and not ds.mask[0, 1, 0]

    def test_duplicate_key_rejected(self):
        cols = columns((1, 1, "a", 1.0), (1, 1, "a", 2.0))
        with pytest.raises(DataError, match="duplicate record for day=1, slot=1"):
            build_tensor(cols)

    def test_out_of_range_rejected(self):
        for day, slot in ((0, 1), (1, 0)):
            with pytest.raises(DataError, match=f"day={day}, slot={slot}, .* below 1"):
                build_tensor(columns((1, 1, "a", 1.0), (day, slot, "a", 1.0)))

    @pytest.mark.parametrize("code", [-1, 1])
    def test_channel_code_out_of_range_rejected(self, code):
        cols = columns((1, 1, "a", 1.0))._replace(channel=np.array([code]))
        with pytest.raises(DataError, match=f"channel code {code}, but 1 channels"):
            build_tensor(cols)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_value_rejected(self, bad):
        cols = columns((1, 1, "a", 1.0), (1, 2, "a", bad))
        with pytest.raises(DataError, match="non-finite value for day=1, slot=2, channel='a'"):
            build_tensor(cols)

    def test_electrical_value_ranges(self):
        cols = columns(*((1, 1, c, 1.0) for c in ("P", "U", "I")), (1, 1, "cos_phi", 1.5))
        with pytest.raises(DataError, match="cos_phi"):
            build_tensor(cols)

    def test_large_grid_builds_quickly(self):
        dims = (31, 48, 114)
        cols = columns(
            *(
                (d + 1, s + 1, f"user_{c:03d}", float(d + s + c))
                for d in range(dims[0]) for s in range(dims[1]) for c in range(dims[2])
            )
        )
        start = time.perf_counter()
        ds = build_tensor(cols)
        elapsed = time.perf_counter() - start
        assert ds.mask.all()
        assert elapsed < 1.0


class TestLayout:
    @pytest.mark.parametrize(
        "channels,layout",
        [
            (ELECTRICAL_CHANNELS, LAYOUT_MULTI_USER),
            (("a", "b", "c", "d"), LAYOUT_MULTI_MEASUREMENT),
            (("a", "b", "c", "d"), "bogus"),
        ],
    )
    def test_given_layout_must_follow_from_channels(self, channels, layout):
        with pytest.raises(ValueError, match="give layout"):
            TensorDataset(
                tensor=np.ones((1, 1, 4)),
                mask=np.ones((1, 1, 4), dtype=bool),
                day_labels=(1,),
                slot_labels=(1,),
                channel_labels=channels,
                layout=layout,
            )

    @pytest.mark.parametrize("channels", [("a", "a"), ("", "b"), ("a",), ("a", "b", "c")])
    def test_channel_labels_distinct_and_nonempty(self, channels):
        with pytest.raises(ValueError, match="distinct and nonempty"):
            TensorDataset(
                tensor=np.ones((1, 1, 2)),
                mask=np.ones((1, 1, 2), dtype=bool),
                day_labels=(1,),
                slot_labels=(1,),
                channel_labels=channels,
            )

    @pytest.mark.parametrize("channels", [(" a", "a"), (" u1 ", "u2")])
    def test_channel_labels_without_surrounding_whitespace(self, channels):
        # load_csv strips channel fields, so such a label would not come back
        # from its own file: (" a", "a") as a duplicate record, " u1 " as "u1".
        with pytest.raises(ValueError, match="must not start or end with whitespace"):
            TensorDataset(
                tensor=np.ones((1, 1, 2)),
                mask=np.ones((1, 1, 2), dtype=bool),
                day_labels=(1,),
                slot_labels=(1,),
                channel_labels=channels,
            )

    @pytest.mark.parametrize("field", ["day_labels", "slot_labels"])
    @pytest.mark.parametrize("labels", [(5, 6), (2, 1), (0, 1), ("1", "2"), ("Mon", "Tue")])
    def test_days_and_slots_are_positions(self, field, labels):
        # save_csv writes the positions, so other labels would not come back
        # from the file: (5, 6) as six days, (2, 1) with the days swapped.
        kwargs = {"day_labels": (1, 2), "slot_labels": (1, 2), field: labels}
        with pytest.raises(ValueError, match=f"{field} must be the positions 1..2"):
            TensorDataset(
                tensor=np.ones((2, 2, 1)),
                mask=np.ones((2, 2, 1), dtype=bool),
                channel_labels=("a",),
                **kwargs,
            )

    def test_positions_given_or_omitted(self):
        tensor, mask = np.ones((2, 3, 1)), np.ones((2, 3, 1), dtype=bool)
        explicit = TensorDataset(
            tensor=tensor, mask=mask, channel_labels=("a",),
            day_labels=range(1, 3), slot_labels=(1, 2, 3),
        )
        omitted = TensorDataset(tensor=tensor, mask=mask, channel_labels=("a",))
        for ds in (explicit, omitted):
            assert ds.day_labels == (1, 2) and ds.slot_labels == (1, 2, 3)


class TestSimulateMissing:
    def test_rate_zero_keeps_mask(self, rng):
        ds = make_dataset(rng.standard_normal((4, 5, 3)))
        out = simulate_missing(ds, 0.0, seed=1)
        assert out.mask.all()
        assert np.array_equal(out.tensor, ds.tensor)

    def test_exact_count(self, rng):
        ds = make_dataset(rng.standard_normal((10, 10, 10)))
        out = simulate_missing(ds, 0.5, seed=1)
        assert (~out.mask).sum() == 500

    def test_seed_determinism_and_spread(self, rng):
        ds = make_dataset(rng.standard_normal((6, 8, 4)))
        a = simulate_missing(ds, 0.4, seed=9)
        b = simulate_missing(ds, 0.4, seed=9)
        assert np.array_equal(a.mask, b.mask)
        masks = {simulate_missing(ds, 0.4, seed=s).mask.tobytes() for s in range(20)}
        assert len(masks) == 20

    def test_observed_values_untouched(self, rng):
        ds = make_dataset(rng.standard_normal((6, 8, 4)))
        out = simulate_missing(ds, 0.4, seed=2)
        assert np.array_equal(out.tensor[out.mask], ds.tensor[out.mask])
        assert np.all(out.tensor[~out.mask] == 0.0)

    def test_preconditions(self, rng):
        ds = make_dataset(rng.standard_normal((4, 4, 4)))
        with pytest.raises(ValueError):
            simulate_missing(ds, 1.0, seed=0)
        partial = simulate_missing(ds, 0.2, seed=0)
        with pytest.raises(ValueError):
            simulate_missing(partial, 0.2, seed=0)

    @given(rate=st.floats(0.0, 0.99), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_count_property(self, rate, seed):
        ds = make_dataset(np.ones((5, 6, 4)))
        out = simulate_missing(ds, rate, seed)
        assert (~out.mask).sum() == int(round(rate * 120))


class TestPrefill:
    def test_power_from_others(self):
        ds = electrical_dataset({(1, 1): {"U": 230.0, "I": 2.0, "cos_phi": 0.5}})
        res = prefill_electrical(ds)
        assert res.filled == 1
        c = res.dataset.channel_labels.index("P")
        assert res.dataset.tensor[0, 0, c] == 230.0
        assert res.dataset.mask[0, 0, c]

    def test_cos_phi_from_others(self):
        ds = electrical_dataset({(1, 1): {"P": 460.0, "U": 230.0, "I": 2.0}})
        res = prefill_electrical(ds)
        c = res.dataset.channel_labels.index("cos_phi")
        assert res.dataset.tensor[0, 0, c] == 1.0

    def test_two_missing_untouched(self):
        ds = electrical_dataset({(1, 1): {"U": 230.0, "I": 2.0}})
        res = prefill_electrical(ds)
        assert res.filled == 0
        assert np.array_equal(res.dataset.mask, ds.mask)

    def test_small_divisor_skipped(self):
        ds = electrical_dataset({(1, 1): {"P": 10.0, "U": 230.0, "cos_phi": 1e-9}})
        res = prefill_electrical(ds)
        assert res.filled == 0
        assert res.skipped_small_divisor == 1

    def test_inconsistent_cos_phi_skipped(self):
        ds = electrical_dataset({(1, 1): {"P": 500.0, "U": 230.0, "I": 2.0}})
        res = prefill_electrical(ds)
        assert res.filled == 0
        assert res.skipped_inconsistent == 1

    def test_cos_phi_clamped_within_slack(self):
        ds = electrical_dataset({(1, 1): {"P": 460.0 * (1 + 5e-7), "U": 230.0, "I": 2.0}})
        res = prefill_electrical(ds)
        assert res.filled == 1
        c = res.dataset.channel_labels.index("cos_phi")
        assert res.dataset.tensor[0, 0, c] == 1.0

    def test_identity_holds_on_filled_slots(self):
        ds = synth_electrical_tensor(8, 24, seed=3)
        rng = np.random.default_rng(5)
        mask = np.ones(ds.dims, dtype=bool)
        for d in range(8):
            for s in range(24):
                mask[d, s, rng.integers(4)] = False
        masked = replace(ds, tensor=np.where(mask, ds.tensor, 0.0), mask=mask)
        res = prefill_electrical(masked)
        assert res.filled == 8 * 24
        assert res.dataset.mask.all()
        p, u, i, c = (
            res.dataset.tensor[:, :, res.dataset.channel_labels.index(n)]
            for n in ELECTRICAL_CHANNELS
        )
        assert np.all(np.abs(p - u * i * c) <= 1e-9 * np.maximum(1.0, np.abs(p)))

    def test_idempotent(self):
        ds = synth_electrical_tensor(6, 16, seed=4)
        masked = simulate_missing(ds, 0.2, seed=8)
        once = prefill_electrical(masked)
        twice = prefill_electrical(once.dataset)
        assert twice.filled == 0
        assert np.array_equal(once.dataset.tensor, twice.dataset.tensor)
        assert np.array_equal(once.dataset.mask, twice.dataset.mask)

    def test_layout_required(self, rng):
        ds = make_dataset(rng.standard_normal((2, 2, 4)))
        with pytest.raises(ValueError):
            prefill_electrical(ds)


def reference_prefill_electrical(ds):
    """The pre-fill as three blocks, P, then U and I, then cos_phi: the oracle
    for :func:`prefill_electrical`, which states the power identity once."""
    if ds.layout != LAYOUT_MULTI_MEASUREMENT:
        raise ValueError("prefill_electrical requires the single-user multi-measurement layout")
    tensor = ds.tensor.copy()
    mask = ds.mask.copy()
    ix = {name: ds.channel_labels.index(name) for name in ELECTRICAL_CHANNELS}
    p, u, i, c = (tensor[:, :, ix[n]] for n in ELECTRICAL_CHANNELS)
    mp, mu_, mi, mc = (mask[:, :, ix[n]] for n in ELECTRICAL_CHANNELS)

    single = (mp.astype(int) + mu_.astype(int) + mi.astype(int) + mc.astype(int)) == 3
    filled = skipped_div = skipped_inc = 0

    sel = single & ~mp
    p[sel] = u[sel] * i[sel] * c[sel]
    mp[sel] = True
    filled += int(sel.sum())

    for target, t_mask, num, d1, d2 in ((u, mu_, p, i, c), (i, mi, p, u, c)):
        sel = single & ~t_mask
        den = d1 * d2
        ok = sel & (np.abs(den) >= DIVISOR_GUARD)
        target[ok] = num[ok] / den[ok]
        t_mask[ok] = True
        filled += int(ok.sum())
        skipped_div += int((sel & ~ok).sum())

    sel = single & ~mc
    den = u * i
    ok = sel & (np.abs(den) >= DIVISOR_GUARD)
    val = np.zeros_like(c)
    val[ok] = p[ok] / den[ok]
    within = ok & (np.abs(val) <= 1.0 + COS_PHI_SLACK)
    c[within] = np.clip(val[within], -1.0, 1.0)
    mc[within] = True
    filled += int(within.sum())
    skipped_div += int((sel & ~ok).sum())
    skipped_inc += int((ok & ~within).sum())

    out = replace(ds, tensor=tensor, mask=mask)
    return PrefillResult(out, filled, skipped_div, skipped_inc)


def guarded_electrical_instance(seed, rate):
    """A 7x24 electrical dataset at ``rate`` missing whose cos_phi hits every guard.

    On 5% of cells each, cos_phi is scaled by 1e-9 (a small divisor for U and
    I), set to 1.3 (inconsistent when restored) or set to +-(1 + 5e-7)
    (clamped when restored); P keeps the identity. Odd seeds store the
    channels in another order.
    """
    ds = synth_electrical_tensor(7, 24, seed)
    rng = np.random.default_rng(seed)
    _, u, i, c = np.moveaxis(ds.tensor, 2, 0)
    kind = rng.integers(20, size=c.shape)
    c = np.where(kind == 0, c * 1e-9, c)
    c = np.where(kind == 1, 1.3, c)
    c = np.where(kind == 2, rng.choice([-1.0, 1.0], size=c.shape) * (1 + 5e-7), c)
    order = [3, 0, 2, 1] if seed % 2 else [0, 1, 2, 3]
    tensor = np.stack([u * i * c, u, i, c], axis=2)[:, :, order]
    full = make_dataset(tensor, channels=[ELECTRICAL_CHANNELS[k] for k in order])
    return simulate_missing(full, rate, seed)


class TestPrefillOracle:
    def test_matches_three_block_reference(self):
        """Bit-identical tensor, mask and counts on 60 instances; every guard is hit."""
        totals = np.zeros(3, dtype=int)
        clamped = 0
        for seed in range(12):
            for rate in (0.05, 0.15, 0.3, 0.45, 0.6):
                ds = guarded_electrical_instance(seed, rate)
                got, want = prefill_electrical(ds), reference_prefill_electrical(ds)
                assert np.array_equal(got.dataset.tensor, want.dataset.tensor)
                assert np.array_equal(got.dataset.mask, want.dataset.mask)
                counts = (got.filled, got.skipped_small_divisor, got.skipped_inconsistent)
                assert counts == (
                    want.filled, want.skipped_small_divisor, want.skipped_inconsistent
                )
                totals += counts
                k = ds.channel_labels.index("cos_phi")
                restored = got.dataset.mask[:, :, k] & ~ds.mask[:, :, k]
                clamped += int((np.abs(got.dataset.tensor[:, :, k][restored]) == 1.0).sum())
        assert totals.min() > 0
        assert clamped > 0


class TestSynth:
    def test_rank_one_unfoldings(self):
        sr = synth_load_tensor(SynthSpec(dims=(8, 12, 6), rank=1), seed=0)
        for n in (1, 2, 3):
            s = np.linalg.svd(unfold(sr.dataset.tensor, n), compute_uv=False)
            assert (s > 1e-8 * s[0]).sum() == 1

    def test_rank_three_unfoldings(self):
        sr = synth_load_tensor(SynthSpec(dims=(10, 16, 8), rank=3), seed=1)
        for n in (1, 2, 3):
            s = np.linalg.svd(unfold(sr.dataset.tensor, n), compute_uv=False)
            assert (s > 1e-8 * s[0]).sum() == 3

    def test_daily_autocorrelation_peak(self):
        slots = 48
        sr = synth_load_tensor(SynthSpec(dims=(14, slots, 6), rank=3, periodic=True), seed=2)
        y = sr.dataset.tensor.mean(axis=2).reshape(-1)
        y = y - y.mean()
        ac = np.correlate(y, y, mode="full")[len(y) - 1:]
        lags = np.arange(2, len(y) // 2)
        assert lags[np.argmax(ac[lags])] == slots

    def test_noise_perturbs_clean(self):
        noisy = synth_load_tensor(SynthSpec(dims=(6, 8, 4), rank=2, noise=0.1), seed=3)
        assert not np.array_equal(noisy.dataset.tensor, noisy.clean)
        clean = synth_load_tensor(SynthSpec(dims=(6, 8, 4), rank=2), seed=3)
        assert np.array_equal(clean.dataset.tensor, clean.clean)

    def test_weight_decay_orders_components(self):
        sr = synth_load_tensor(
            SynthSpec(dims=(10, 16, 8), rank=5, weight_decay=0.5), seed=4
        )
        norms = np.linalg.norm(sr.factors[2], axis=0)
        assert np.all(np.diff(norms) < 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(dims=(0, 2, 2))
        with pytest.raises(ValueError):
            SynthSpec(dims=(2, 2, 2), rank=0)
        with pytest.raises(ValueError):
            SynthSpec(dims=(2, 2, 2), weight_decay=0.0)

    def test_electrical_identity_and_layout(self):
        ds = synth_electrical_tensor(5, 24, seed=6)
        assert ds.layout == LAYOUT_MULTI_MEASUREMENT
        assert ds.channel_labels == ELECTRICAL_CHANNELS
        p, u, i, c = (ds.tensor[:, :, k] for k in range(4))
        assert np.array_equal(p, u * i * c)
        assert np.all((c >= 0.5) & (c <= 0.999))
        assert np.all(i > 0)


# Names that load_csv returns unchanged: nonempty and without surrounding whitespace.
_channel_names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1).filter(
    lambda name: name == name.strip()
)


@st.composite
def _round_trip_datasets(draw):
    """Grids up to 3x4x4 with any finite values and masks, and distinct channel
    names other than the electrical set, whose value ranges are checked on load."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)))
    size = dims[0] * dims[1] * dims[2]
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=size, max_size=size))
    mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(dims)
    names = draw(st.lists(_channel_names, min_size=dims[2], max_size=dims[2], unique=True)
                 .filter(lambda names: set(names) != set(ELECTRICAL_CHANNELS)))
    tensor = np.where(mask, np.array(values).reshape(dims), 0.0)
    return make_dataset(tensor, mask, channels=tuple(names))


class TestCsv:
    def test_roundtrip(self, tmp_path, rng):
        ds = make_dataset(rng.standard_normal((4, 6, 3)))
        masked = simulate_missing(ds, 0.25, seed=5)
        path = tmp_path / "data.csv"
        save_csv(masked, path)
        loaded = load_dataset(path)
        assert loaded.dims == masked.dims
        assert np.array_equal(loaded.mask, masked.mask)
        assert np.array_equal(loaded.tensor, masked.tensor)
        assert loaded.channel_labels == masked.channel_labels
        assert loaded.layout == LAYOUT_MULTI_USER

    def test_empty_value_is_missing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n1,1,a,2.5\n1,2,a,\n")
        cols = load_csv(path)
        assert cols.value[0] == 2.5
        assert np.isnan(cols.value[1])

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,chan,value\n1,1,a,2.5\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n1,1,a,2.5\n1,x,a,1.0\n")
        with pytest.raises(DataError, match=":3:"):
            load_csv(path)

    def test_line_after_multiline_field(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('day,slot,channel,value\n1,1,"a\nb",2.5\n1,x,a,1.0\n')
        with pytest.raises(DataError, match=":4:"):
            load_csv(path)

    def test_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n2,1,b,1.5\n1,3, a ,\n1,1,b,-2\n")
        cols = load_csv(path)
        assert cols.channels == ("b", "a")
        for col, want in zip(cols[:3], ([2, 1, 1], [1, 3, 1], [0, 1, 0])):
            assert col.dtype == np.int64 and col.tolist() == want
        assert cols.value.dtype == np.float64
        assert np.array_equal(cols.value, [1.5, np.nan, -2.0], equal_nan=True)

    def test_byte_order_mark_accepted(self, tmp_path):
        text = "day,slot,channel,value\n2,1,b,1.5\n1,3, a ,\n1,1,b,-2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_csv(plain), load_csv(marked)
        assert got.channels == want.channels
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b, equal_nan=True)

    def test_day_zero_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n0,1,a,1.0\n0,2,a,2.0\n")
        with pytest.raises(DataError, match="day=0, slot=1, channel='a' has a day or slot below 1"):
            load_dataset(path)

    def test_huge_day_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(f"day,slot,channel,value\n{2**63},1,a,1.0\n")
        with pytest.raises(DataError, match="64-bit"):
            load_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n1,1,a,abc\n")
        with pytest.raises(DataError, match=":2:"):
            load_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("day,slot,channel,value\n1,1,a,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_electrical_layout_inferred(self, tmp_path):
        ds = synth_electrical_tensor(3, 8, seed=1)
        path = tmp_path / "case2.csv"
        save_csv(ds, path)
        loaded = load_dataset(path)
        assert loaded.layout == LAYOUT_MULTI_MEASUREMENT

    def test_carriage_return_in_label_round_trips(self, tmp_path, rng):
        ds = make_dataset(rng.standard_normal((2, 3, 2)), channels=("a\rb", "c"))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_dataset(path)
        assert loaded.channel_labels == ds.channel_labels
        assert np.array_equal(loaded.tensor, ds.tensor)

    @given(ds=_round_trip_datasets())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_property(self, tmp_path, ds):
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_dataset(path)
        assert loaded.dims == ds.dims
        assert loaded.channel_labels == ds.channel_labels
        assert np.array_equal(loaded.mask, ds.mask)
        assert loaded.tensor.tobytes() == ds.tensor.tobytes()

    def test_infer_layout(self):
        assert infer_layout(("P", "U", "I", "cos_phi")) == LAYOUT_MULTI_MEASUREMENT
        assert infer_layout(("u1", "u2")) == LAYOUT_MULTI_USER


@dataclass(frozen=True)
class _Record:
    day: int
    slot: int
    channel: str
    value: float | None


def reference_save_csv(ds, path):
    """The triple-loop writer that the columnar save_csv replaced.

    Each row goes through a writer that ends lines with "\r\n", so that a
    bare carriage return is quoted like a newline, and then ends with "\n".
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:

        def writerow(fields):
            buf.seek(0)
            buf.truncate()
            writer.writerow(fields)
            fh.write(buf.getvalue()[:-2] + "\n")

        writerow(CSV_HEADER)
        for di, day in enumerate(ds.day_labels):
            for si, slot in enumerate(ds.slot_labels):
                for ci, chan in enumerate(ds.channel_labels):
                    value = repr(float(ds.tensor[di, si, ci])) if ds.mask[di, si, ci] else ""
                    writerow((day, slot, chan, value))


def reference_load_dataset(path):
    """The record-per-row reader and builder that the columnar path replaced,
    for files that pass every check (layout inferred, dims from the data)."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            raw = row[3].strip()
            value = None if raw == "" else float(raw)
            records.append(_Record(int(row[0]), int(row[1]), row[2].strip(), value))
    chan_order: dict[str, int] = {}
    for r in records:
        chan_order.setdefault(r.channel, len(chan_order))
    dims = (max(r.day for r in records), max(r.slot for r in records), len(chan_order))
    days = np.fromiter((r.day for r in records), dtype=np.int64, count=len(records))
    slots = np.fromiter((r.slot for r in records), dtype=np.int64, count=len(records))
    chans = np.fromiter(
        (chan_order[r.channel] for r in records), dtype=np.int64, count=len(records)
    )
    lin = np.ravel_multi_index((days - 1, slots - 1, chans), dims)
    observed = np.fromiter((r.value is not None for r in records), dtype=bool, count=len(records))
    values = np.fromiter(
        (r.value if r.value is not None else 0.0 for r in records),
        dtype=np.float64,
        count=len(records),
    )
    tensor = np.zeros(dims)
    mask = np.zeros(dims, dtype=bool)
    tensor.flat[lin[observed]] = values[observed]
    mask.flat[lin[observed]] = True
    return TensorDataset(
        tensor=tensor,
        mask=mask,
        day_labels=tuple(range(1, dims[0] + 1)),
        slot_labels=tuple(range(1, dims[1] + 1)),
        channel_labels=tuple(chan_order),
        layout=infer_layout(chan_order),
    )


def _edge_values_dataset():
    """Odd channel names, extreme and signed-zero values, and masked entries."""
    tensor = np.random.default_rng(3).standard_normal((2, 3, 3))
    edges = [-0.0, 1e-5, 1e16, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    tensor.flat[: len(edges)] = edges
    mask = np.ones(tensor.shape, dtype=bool)
    mask.flat[[6, 10, 17]] = False
    return make_dataset(
        np.where(mask, tensor, 0.0), mask, channels=("a,b", 'q"x', "user_001")
    )


def _quoting_dataset():
    """Channel names the csv module must quote."""
    mask = np.ones((2, 3, 5), dtype=bool)
    mask.flat[[1, 7, 29]] = False
    tensor = np.where(mask, np.random.default_rng(4).standard_normal(mask.shape), 0.0)
    return TensorDataset(
        tensor=tensor,
        mask=mask,
        channel_labels=("line\nbreak", "carriage\rreturn", "inner space", 'q"x', "a,b"),
        layout=LAYOUT_MULTI_USER,
    )


@pytest.fixture(scope="module")
def parity_datasets():
    synth = synth_load_tensor(SynthSpec(dims=(31, 48, 114), rank=3, noise=0.05), seed=7)
    return {
        "edge-values": _edge_values_dataset(),
        "synth-31x48x114": simulate_missing(synth.dataset, 0.5, seed=11),
        "electrical": simulate_missing(synth_electrical_tensor(3, 8, seed=1), 0.3, seed=2),
        "quoting": _quoting_dataset(),
    }


# Every parity dataset's file loads back: days and slots are positions, and
# channel names survive the reader.
READABLE_PARITY_IDS = ("edge-values", "synth-31x48x114", "electrical", "quoting")
PARITY_IDS = READABLE_PARITY_IDS


class TestParityWithRecordPath:
    @pytest.mark.parametrize("name", PARITY_IDS)
    def test_save_csv_bytes(self, tmp_path, parity_datasets, name):
        ds = parity_datasets[name]
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", READABLE_PARITY_IDS)
    def test_load_dataset(self, tmp_path, parity_datasets, name):
        path = tmp_path / "data.csv"
        reference_save_csv(parity_datasets[name], path)
        new, old = load_dataset(path), reference_load_dataset(path)
        assert np.array_equal(new.tensor, old.tensor)
        assert np.array_equal(new.mask, old.mask)
        for field in ("day_labels", "slot_labels", "channel_labels", "layout"):
            assert getattr(new, field) == getattr(old, field)

    def test_edge_values_round_trip(self, tmp_path, parity_datasets):
        ds = parity_datasets["edge-values"]
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert 'q""x' in path.read_text() and '"a,b"' in path.read_text()
        loaded = load_dataset(path)
        assert np.array_equal(loaded.tensor, ds.tensor)
        assert np.signbit(loaded.tensor.flat[0])
        assert loaded.channel_labels == ds.channel_labels


class TestStandardization:
    def test_observed_moments(self, rng):
        ds = make_dataset(10.0 + 5.0 * rng.standard_normal((6, 8, 3)))
        masked = simulate_missing(ds, 0.3, seed=2)
        scaled, means, stds = standardize_channels(masked)
        for c in range(3):
            vals = scaled.tensor[:, :, c][scaled.mask[:, :, c]]
            assert vals.mean() == pytest.approx(0.0, abs=1e-12)
            assert vals.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_channel_guard(self):
        t = np.ones((3, 4, 2))
        t[:, :, 1] = np.arange(12, dtype=float).reshape(3, 4)
        ds = make_dataset(t)
        scaled, means, stds = standardize_channels(ds)
        assert stds[0] == 1.0
        assert np.all(np.isfinite(scaled.tensor))


class TestDeriveSeed:
    def test_stable_value(self):
        # frozen so the mask protocol cannot drift silently
        assert derive_seed(0, "mask", "0.1") == 3658794742831358103

    def test_label_sensitivity(self):
        assert derive_seed(1, "mask", "0.1") != derive_seed(2, "mask", "0.1")
        assert derive_seed(1, "mask", "0.1") != derive_seed(1, "mask", "0.2")
        assert derive_seed(1, "a") != derive_seed(1, "b")
