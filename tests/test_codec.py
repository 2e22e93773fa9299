"""Codec tests: level building, quantizer, encoder, slope-matching decoder."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ajscc import codec
from ajscc.codec import (
    RANGE_TOL,
    CodecConfig,
    build_levels,
    check_decodable,
    decode_pairs,
    decode_stream,
    encode,
    quantize,
)
from ajscc.experiments import LinkConfig, run_link_point, run_noiseless
from ajscc.mosfet import MosfetParams, curve_slope, drain_current
import two_point

P = MosfetParams()
REF_LEVELS = np.arange(1.0, 6.0)
REF_CFG = CodecConfig(levels=REF_LEVELS, vds_range=(5.0, 10.0))
VDS_GRID = 5.0 + 0.1 * np.arange(50)


def decode_one(p, cfg, i1, i2, range_check=True):
    """(vgs_hat, vds_hat_1, vds_hat_2, corrected, in_range) of a single pair."""
    return tuple(a[0] for a in decode_pairs(p, cfg, [i1], [i2], range_check=range_check))


class TestBuildLevels:
    def test_reference_level_set(self):
        np.testing.assert_array_equal(build_levels((1.0, 5.0), 1.0), [1, 2, 3, 4, 5])

    def test_endpoints_only(self):
        np.testing.assert_array_equal(build_levels((5.0, 10.0), 5.0), [5.0, 10.0])

    def test_fractional_spacing_count_matches_enumeration(self):
        levels = build_levels((5.0, 10.0), 0.41)
        # oracle: enumerate lo + k*delta while <= hi
        expect = []
        k = 0
        while 5.0 + k * 0.41 <= 10.0 + 1e-12:
            expect.append(5.0 + k * 0.41)
            k += 1
        assert len(levels) == len(expect) == 13
        np.testing.assert_allclose(levels, expect)
        assert levels[0] == 5.0 and levels[-1] == pytest.approx(9.92)

    def test_never_exceeds_hi(self):
        for delta in (0.1, 0.3, 0.41, 0.7, 0.99):
            assert build_levels((5.0, 10.0), delta)[-1] <= 10.0

    def test_single_level_raises(self):
        with pytest.raises(ValueError, match=r"yields 1 level\(s\); need at least 2"):
            build_levels((1.0, 5.0), 6.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_levels((1.0, 5.0), 0.0)
        with pytest.raises(ValueError):
            build_levels((5.0, 1.0), 1.0)
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                build_levels((1.0, 5.0), delta)


class TestCodecConfig:
    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError, match="ascending"):
            CodecConfig(levels=[2.0, 1.0], vds_range=(5, 10))

    @pytest.mark.parametrize("levels", [[], [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0, 3.0]]],
                             ids=["empty", "2d", "ragged"])
    def test_rejects_empty_or_2d_levels(self, levels):
        with pytest.raises(ValueError, match="levels must be a non-empty 1-d sequence"):
            CodecConfig(levels=levels, vds_range=(5, 10))

    def test_rejects_bad_vds_range(self):
        for vds_range in ((10, 5), (5, math.inf), (-math.inf, 10), (math.nan, 10)):
            with pytest.raises(ValueError, match="vds_range"):
                CodecConfig(levels=[1.0, 2.0], vds_range=vds_range)

    def test_drain_range_starts_at_zero(self):
        # the device takes no negative drain voltage
        with pytest.raises(ValueError, match="vds_range must have finite lo < hi, lo >= 0"):
            CodecConfig(levels=[1.0, 2.0], vds_range=(-5.0, -1.0))
        assert CodecConfig(levels=[1.0, 2.0], vds_range=(0.0, 5.0)).vds_range == (0.0, 5.0)


class TestCheckDecodable:
    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-17])
    def test_curves_that_do_not_separate_the_range_are_rejected(self, lam):
        # 1 + lam * 5 and 1 + lam * 10 round to one float64
        with pytest.raises(ValueError, match="decoding needs lam > 0"):
            check_decodable(MosfetParams(lam=lam), (5.0, 10.0))

    @pytest.mark.parametrize("lam", [1e-15, 0.037])
    def test_separating_curves_are_accepted(self, lam):
        check_decodable(MosfetParams(lam=lam), (5.0, 10.0))

    def test_range_must_lie_above_minus_one_over_lam(self):
        with pytest.raises(ValueError, match="decoding needs vds_range above -1/lam"):
            check_decodable(MosfetParams(lam=2e6), (0.0, 5.0))


class TestQuantize:
    def test_nearest(self):
        assert quantize(2.4, REF_LEVELS) == 2.0

    def test_tie_breaks_low(self):
        assert quantize(2.5, REF_LEVELS) == 2.0
        assert quantize(3.5, REF_LEVELS) == 3.0

    def test_clamps_to_extremes(self):
        assert quantize(0.2, REF_LEVELS) == 1.0
        assert quantize(11.0, REF_LEVELS) == 5.0

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be non-empty"):
            quantize(2.4, [])

    # CodecConfig's rule: unsorted levels would snap 2.9 to 2.0, a NaN level
    # would return NaN
    @pytest.mark.parametrize("levels, match", [
        ([3.0, 1.0, 2.0], "levels must be strictly ascending"),
        ([1.0, 1.0, 2.0], "levels must be strictly ascending"),
        ([1.0, math.nan, 2.0], "levels must be finite"),
        ([1.0, 2.0, math.inf], "levels must be finite"),
        ([[1.0, 2.0], [3.0, 4.0]], "levels must be a non-empty 1-d sequence"),
        ([[1.0], [2.0, 3.0]], "levels must be a non-empty 1-d sequence"),
    ], ids=["unsorted", "repeated", "nan", "inf", "2d", "ragged"])
    def test_levels_outside_the_codec_rule_rejected(self, levels, match):
        with pytest.raises(ValueError, match=match):
            quantize(2.9, levels)

    @pytest.mark.parametrize("value", [math.nan, [1.2, math.nan]], ids=repr)
    def test_nan_value_rejected(self, value):
        with pytest.raises(ValueError, match="value must not be NaN"):
            quantize(value, REF_LEVELS)

    def test_array_input(self):
        out = quantize(np.array([0.2, 2.5, 4.9]), REF_LEVELS)
        np.testing.assert_array_equal(out, [1.0, 2.0, 5.0])

    @given(st.floats(-2.0, 8.0))
    def test_idempotent(self, x):
        q = quantize(x, REF_LEVELS)
        assert quantize(q, REF_LEVELS) == q

    @given(st.floats(1.0, 5.0))
    def test_error_bound_inside_span(self, x):
        assert abs(x - quantize(x, REF_LEVELS)) <= 0.5 + 1e-12


class TestEncode:
    def test_quantizes_then_applies_device(self):
        assert encode(P, REF_CFG, 1.2, 5.0) == pytest.approx(6.2082e-6, rel=1e-4)
        assert encode(P, REF_CFG, 3.0, 5.0) == pytest.approx(4.6907e-4, rel=1e-4)
        assert encode(P, REF_CFG, 3.0, 5.1) == pytest.approx(4.7053e-4, rel=1e-4)

    def test_vds_outside_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            encode(P, REF_CFG, 3.0, 4.0)

    def test_levels_below_threshold_rejected(self):
        cfg = CodecConfig(levels=[0.5, 1.0], vds_range=(5, 10))
        with pytest.raises(ValueError, match="v_th"):
            encode(P, cfg, 0.6, 5.0)

    def test_nan_inputs_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            encode(P, REF_CFG, math.nan, 7.0)
        with pytest.raises(ValueError, match="NaN"):
            encode(P, REF_CFG, [3.0, math.nan], 7.0)
        with pytest.raises(ValueError, match="range"):
            encode(P, REF_CFG, 3.0, math.nan)

    def test_infinite_vgs_takes_the_end_levels(self):
        assert encode(P, REF_CFG, math.inf, 7.0) == drain_current(P, 5.0, 7.0)
        assert encode(P, REF_CFG, -math.inf, 7.0) == drain_current(P, 1.0, 7.0)


class TestDecodePair:
    def test_round_trip_reference(self):
        g, v1, v2, _, _ = decode_one(P, REF_CFG, 4.6907e-4, 4.7053e-4)
        assert g == 3.0
        assert v1 == pytest.approx(5.0, abs=1e-3)
        assert v2 == pytest.approx(5.1, abs=1e-3)

    def test_clean_pair_needs_no_correction(self):
        g, _, _, corr, ok = decode_one(P, REF_CFG, drain_current(P, 1.0, 5.0),
                                       drain_current(P, 1.0, 5.1))
        assert g == 1.0 and not corr and ok

    def test_all_consecutive_pairs_decode_exactly(self):
        # every sliding pair on every curve, corrected decoding: 100 % recovery
        for lvl in REF_LEVELS:
            ids = drain_current(P, lvl, VDS_GRID)
            g, v1, v2, _, ok = decode_pairs(P, REF_CFG, ids[:-1], ids[1:])
            assert np.all(g == lvl)
            np.testing.assert_allclose(v1, VDS_GRID[:-1], atol=1e-6)
            np.testing.assert_allclose(v2, VDS_GRID[1:], atol=1e-6)
            assert np.all(ok)

    def test_uncorrected_failures_sit_at_curve_ends(self):
        # pure slope matching misdecodes a few high-vds pairs onto the next
        # curve up; they are exactly the pairs the range check corrects
        failures = []
        for lvl in REF_LEVELS:
            ids = drain_current(P, lvl, VDS_GRID)
            g, _, _, _, _ = decode_pairs(P, REF_CFG, ids[:-1], ids[1:],
                                         range_check=False)
            bad = g != lvl
            if np.any(bad):
                failures.append((lvl, VDS_GRID[:-1][bad], g[bad]))
        assert failures, "expected uncorrected misdecodes at these parameters"
        for lvl, vds_bad, g_bad in failures:
            assert np.all(vds_bad >= 9.5)
            assert np.all(g_bad == lvl + 1.0)

    def test_corrected_flag_marks_range_check_interventions(self):
        i1 = drain_current(P, 4.0, 9.8)
        i2 = drain_current(P, 4.0, 9.9)
        g, _, _, corr, ok = decode_one(P, REF_CFG, i1, i2)
        assert g == 4.0 and corr and ok
        g, _, _, corr, ok = decode_one(P, REF_CFG, i1, i2, range_check=False)
        assert g == 5.0 and not corr and not ok

    def test_degenerate_pair_picks_lowest_in_range(self):
        i = drain_current(P, 3.0, 7.0)
        g, v1, _, _, ok = decode_one(P, REF_CFG, i, i)
        assert g == 3.0 and ok
        assert v1 == pytest.approx(7.0, rel=1e-9)

    def test_garbage_currents_do_not_crash(self):
        i1, i2 = (1e-9, 1e-30, 0.0, -1e-6, 1e308), (2e-2, 1e-30, 1e-3, 1e-6, 1.7e308)
        *_, ok = decode_pairs(P, REF_CFG, i1, i2)
        assert not np.any(ok)

    @settings(max_examples=150)
    @given(st.floats(1e-7, 1e-2), st.floats(1e-7, 1e-2))
    def test_permutation_covariant(self, i1, i2):
        g, v1, v2, _, ok = decode_pairs(P, REF_CFG, [i1, i2], [i2, i1])
        assert g[0] == g[1]
        assert v1[0] == v2[1] and v2[0] == v1[1]
        assert ok[0] == ok[1]

    @pytest.mark.parametrize("i1, i2", [(np.ones((2, 3)), np.ones((2, 3))),
                                        (np.ones(3), np.ones(2)), (1e-3, [1e-3, 2e-3])])
    def test_pairs_must_be_1d_of_one_length(self, i1, i2):
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            decode_pairs(P, REF_CFG, i1, i2)

    def test_flat_curves_rejected(self):
        # lam = 0 is a valid device, but its curves carry no slope to match
        flat = MosfetParams(lam=0.0)
        ids = drain_current(flat, 3.0, 5.0)
        with pytest.raises(ValueError, match="lam"):
            decode_pairs(flat, REF_CFG, [ids], [ids])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        i1 = np.concatenate([rng.uniform(1e-6, 2e-3, 40), [1e-9, 5e-4, 5e-4]])
        i2 = np.concatenate([rng.uniform(1e-6, 2e-3, 40), [1e-2, 5e-4, 6e-4]])
        g, v1, v2, corr, ok = decode_pairs(P, REF_CFG, i1, i2)
        for k in range(i1.size):
            assert decode_one(P, REF_CFG, i1[k], i2[k]) == (g[k], v1[k], v2[k], corr[k], ok[k])

    def test_fine_spacing_alias_is_the_documented_selection(self):
        # with 0.41 V spacing over (5, 10) V the one-level-up candidate's
        # implied vds stays in range for high-vds pairs and wins the score;
        # exact recovery is only guaranteed for coarser spacing (see module
        # docstring for the condition)
        cfg = CodecConfig(build_levels((5.0, 10.0), 0.41), (5.0, 10.0))
        lvl = cfg.levels[11]  # 9.51
        g, _, _, _, ok = decode_one(P, cfg, drain_current(P, lvl, 9.9),
                                    drain_current(P, lvl, 10.0))
        assert g == pytest.approx(lvl + 0.41)
        assert ok


def pair_zoo(p, cfg, rng, n=16):
    """Current pairs of every kind the decoder meets: on one curve (inside
    and at the ends of the vds range), equal, nearly equal, out of range,
    non-positive or non-finite, and near-ties of two levels' scores."""
    base = 0.5 * p.k_gain * (cfg.levels - p.v_th) ** 2
    lo, hi = cfg.vds_range
    level = rng.integers(0, base.size, n)
    vds = np.concatenate([rng.uniform(max(lo - 1.0, 0.0), hi + 1.0, (2, n - 4)),
                          np.array([[lo, lo - RANGE_TOL, hi, hi + RANGE_TOL]] * 2)], axis=1)
    curve = base[level] * (1.0 + p.lam * vds)
    top = base[-1] * (1.0 + p.lam * (hi + 1.0))
    tie = rng.integers(0, base.size - 1, n)
    mid = (base[tie] + base[tie + 1]) / 2.0
    half = mid * rng.uniform(1e-4, 0.1, n)
    nearly = curve[0] * (1.0 + rng.integers(-4, 5, n) * 2.0 ** -52)
    i1 = np.concatenate([curve[0], curve[0], curve[0], rng.uniform(0.0, 2.0 * top, n),
                         -rng.uniform(0.0, top, n), np.zeros(2), [np.nan, np.inf], mid - half])
    i2 = np.concatenate([curve[1], curve[0], nearly, rng.uniform(0.0, 2.0 * top, n), curve[1],
                         [0.0, top], [top, top], mid + half])
    return i1, i2


class TestCandidateSearch:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 101), kind=st.sampled_from(["uniform", "random", "ulps"]),
           subnormal=st.booleans(), lo=st.floats(0.8, 5.0), spacing=st.floats(0.01, 1.0),
           lam=st.floats(1e-3, 0.2), vds_lo=st.floats(0.0, 8.0), vds_span=st.floats(0.1, 8.0),
           seed=st.integers(0, 2 ** 32 - 1), range_check=st.booleans())
    # multi-step walks: a chain of 12 levels on one float slope, where the
    # pick and both run ends move 9 to 12 levels, and two levels one ulp
    # apart, where both run-end estimates miss by two
    @example(n=79, kind="ulps", subnormal=True, lo=1.89, spacing=0.43, lam=0.06, vds_lo=5.2,
             vds_span=7.6, seed=267, range_check=True)
    @example(n=2, kind="ulps", subnormal=False, lo=3.27, spacing=0.44, lam=0.18, vds_lo=1.3,
             vds_span=1.1, seed=756, range_check=True)
    def test_equals_the_full_computation(self, n, kind, subnormal, lo, spacing, lam, vds_lo,
                                         vds_span, seed, range_check):
        rng = np.random.default_rng(seed)
        steps = spacing * (np.ones(n - 1) if kind == "uniform" else rng.exponential(size=n - 1))
        levels = lo + np.concatenate([[0.0], np.cumsum(steps)])
        if kind == "ulps":  # runs of levels one ulp apart: run-end estimates miss several
            for k in np.flatnonzero(rng.random(n - 1) < 0.7) + 1:
                levels[k] = np.nextafter(levels[k - 1], np.inf)
        assume(np.all(np.diff(levels) > 0))
        # subnormal slopes and currents keep few significant digits, so
        # chains of three and more nearby levels share a float curve slope
        p = MosfetParams(k_gain=1e-313 if subnormal else 155e-6, lam=lam)
        cfg = CodecConfig(levels, (vds_lo, vds_lo + vds_span))
        for i1, i2 in (pair_zoo(p, cfg, rng), (np.empty(0), np.empty(0))):
            got = decode_pairs(p, cfg, i1, i2, range_check=range_check)
            for g, w in zip(got, two_point.decode_curve(p, cfg, i1, i2, range_check)):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("range_check", [True, False])
    def test_bad_and_in_range_currents_equal_the_reference(self, range_check):
        cfg = CodecConfig(build_levels((5.0, 10.0), 0.2), (5.0, 10.0))
        i1, i2 = pair_zoo(P, cfg, np.random.default_rng(7), n=200)
        # pair_zoo's first draws: the levels and drain voltages of its 200 curve pairs
        replay = np.random.default_rng(7)
        replay.integers(0, cfg.levels.size, 200)
        vds = replay.uniform(4.0, 11.0, (2, 196))
        inside = np.all((vds > 5.0) & (vds < 10.0), axis=0)
        bad = ~(np.minimum(i1, i2) > 0) | ~np.isfinite(i1 + i2)
        assert bad.sum() > 10 and inside.sum() > 100
        got = decode_pairs(P, cfg, i1, i2, range_check=range_check)
        for g, w in zip(got, two_point.decode_curve(P, cfg, i1, i2, range_check)):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("range_check", [True, False])
    def test_tied_neighbour_falls_back(self, range_check):
        # levels one or two ulps apart can share a curve slope, and with it
        # the float score, so the pick falls back to the lower level, as the
        # stable sort takes it
        levels = [2.0, 3.0]
        for k in (1, 2, 1, 2):
            levels.append(levels[-1])
            for _ in range(k):
                levels[-1] = np.nextafter(levels[-1], np.inf)
        cfg = CodecConfig(np.append(levels, 4.0), (5.0, 10.0))
        i1, i2 = pair_zoo(P, cfg, np.random.default_rng(11), n=400)
        got = decode_pairs(P, cfg, i1, i2, range_check=range_check)
        # some picks are the lower of two levels on one slope
        level = np.searchsorted(cfg.levels, got[0])
        slope = np.append(curve_slope(P, cfg.levels), np.nan)
        assert np.any(slope[level] == slope[level + 1])
        for g, w in zip(got, two_point.decode_curve(P, cfg, i1, i2, range_check)):
            np.testing.assert_array_equal(g, w)


class TestTwoPointReference:
    """The decoder scores each level by its curve slope; the two-point slope
    between the pair's implied drain voltages (tests/two_point.py) is the
    same in exact arithmetic and decodes every pair of these inputs alike."""

    @staticmethod
    def link_pairs(monkeypatch):
        """(p, cfg, ids1, ids2) of every decode of small link points and the noiseless grid."""
        calls = []
        pairs = codec.decode_pairs

        def recording(p, cfg, ids1, ids2, range_check=True):
            calls.append((p, cfg, ids1, ids2))
            return pairs(p, cfg, ids1, ids2, range_check)
        monkeypatch.setattr(codec, "decode_pairs", recording)
        cfg = LinkConfig(nx=6, ny=6, nt=10, s_p=3, t_p=5, n_samples=512)
        gs, ds = cfg.fields(0)
        for delta in (0.05, 0.41, 1.25):
            for snr_db in (None, -20.0, math.inf):
                chan = None if snr_db is None else cfg.channel(snr_db=snr_db)
                run_link_point(cfg, gs, ds, delta, chan, (cfg.seed, 0))
        run_noiseless(P)
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("range_check", [True, False])
    def test_link_and_noiseless_pairs(self, monkeypatch, range_check):
        calls = self.link_pairs(monkeypatch)
        assert len(calls) == 11
        for p, cfg, i1, i2 in calls:
            got = decode_pairs(p, cfg, i1, i2, range_check=range_check)
            for g, w in zip(got, two_point.decode_full(p, cfg, i1, i2, range_check)):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("range_check", [True, False])
    @pytest.mark.parametrize("delta", [0.2, 1.0])
    def test_random_pairs(self, range_check, delta):
        rng = np.random.default_rng(19)
        cfg = CodecConfig(build_levels((1.0, 5.0), delta), (5.0, 10.0))
        top = drain_current(P, cfg.levels[-1], 11.0)
        i1 = rng.uniform(0.0, top, 100_000)
        i2 = i1 * (1.0 + rng.choice([-1.0, 1.0], i1.size) * 10.0 ** rng.uniform(-6, 0, i1.size))
        assert np.all(np.abs(i2 - i1) >= 1e-6 * np.maximum(i1, i2))
        got = decode_pairs(P, cfg, i1, i2, range_check=range_check)
        for g, w in zip(got, two_point.decode_full(P, cfg, i1, i2, range_check)):
            np.testing.assert_array_equal(g, w)

    def test_currents_ulps_apart_decode_alike(self):
        # the two-point slope of currents k ulps apart is rounding noise; the
        # curve slope decodes them by their mean whatever k is, to the level
        # sent except the documented 9.8 V alias of level 4 onto level 5
        level, vds = (a.ravel() for a in np.meshgrid(REF_LEVELS, np.linspace(5.5, 9.8, 6),
                                                     indexing="ij"))
        i = drain_current(P, level, vds)
        for k in (1, 2, 4):
            g, *_ = decode_pairs(P, REF_CFG, i, i * (1.0 + k * 2.0 ** -52), range_check=False)
            assert (level[g != level].tolist(), vds[g != level].tolist()) == ([4.0], [9.8])


def _alias_free(levels, lam, vds_range):
    # adjacent curves distinguishable across the whole vds interval
    lo, hi = vds_range
    window = (1.0 + lam * hi) / (1.0 + lam * lo)
    ratios = ((levels[1:] - 0.74) / (levels[:-1] - 0.74)) ** 2
    return np.all(ratios > window * 1.01)


class TestNoiselessIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.001, 0.2),
        delta=st.floats(0.5, 2.0),
        vgs_raw=st.floats(1.0, 5.0),
        v_lo=st.floats(5.0, 7.0),
        span=st.floats(0.5, 5.0),
    )
    def test_decode_of_encode_recovers_quantizer_output(self, lam, delta, vgs_raw,
                                                        v_lo, span):
        p = MosfetParams(lam=lam)
        levels = build_levels((1.0, 5.0), delta)
        vds_range = (v_lo, v_lo + span)
        assume(_alias_free(levels, lam, vds_range))
        cfg = CodecConfig(levels=levels, vds_range=vds_range)
        v1, v2 = v_lo + 0.25 * span, v_lo + 0.75 * span
        g, v1_hat, v2_hat, _, _ = decode_pairs(p, cfg, [encode(p, cfg, vgs_raw, v1)],
                                               [encode(p, cfg, vgs_raw, v2)])
        assert g[0] == quantize(vgs_raw, levels)
        assert v1_hat[0] == pytest.approx(v1, abs=1e-6)
        assert v2_hat[0] == pytest.approx(v2, abs=1e-6)


def stream_reference(cfg, ids, range_check=True):
    """Per-sample decode of streams along the last axis, one decode_pairs call per pair."""
    ids = np.asarray(ids, dtype=float)
    n = ids.shape[-1]
    rows = ids.reshape(-1, n)
    vgs, vds = np.empty(rows.shape), np.empty(rows.shape)
    corr, ok = np.empty(rows.shape, bool), np.empty(rows.shape, bool)
    for r, row in enumerate(rows):
        for a in range(0, n - 1, 2):
            g, v1, v2, c, k = decode_one(P, cfg, row[a], row[a + 1], range_check)
            vgs[r, a:a + 2], vds[r, a:a + 2] = g, (v1, v2)
            corr[r, a:a + 2], ok[r, a:a + 2] = c, k
        if n % 2:  # the tail pair (n-2, n-1) supplies the trailing sample only
            g, _, v2, c, k = decode_one(P, cfg, row[-2], row[-1], range_check)
            vgs[r, -1], vds[r, -1], corr[r, -1], ok[r, -1] = g, v2, c, k
    return tuple(a.reshape(ids.shape) for a in (vgs, vds, corr, ok))


class TestDecodeStream:
    def test_even_stream_decodes_blockwise(self):
        ids = drain_current(P, 3.0, VDS_GRID)
        vg, vd, corr, ok = decode_stream(P, REF_CFG, ids)
        assert vg.shape == vd.shape == corr.shape == ok.shape == (50,)
        assert np.all(vg == 3.0) and np.all(ok)
        np.testing.assert_allclose(vd, VDS_GRID, atol=1e-6)

    def test_odd_stream_reuses_last_pair_for_trailing_sample(self):
        vds = np.array([5.0, 5.1, 5.2, 5.3, 5.4])
        ids = drain_current(P, 2.0, vds)
        vg, vd, _, _ = decode_stream(P, REF_CFG, ids)  # pairs (0,1), (2,3), tail (3,4)
        assert np.all(vg == 2.0)
        np.testing.assert_allclose(vd, vds, atol=1e-6)

    def test_identical_current_pair_on_coarse_set(self):
        ids = np.full(2, drain_current(P, 4.0, 6.0))
        vg, _, _, _ = decode_stream(P, REF_CFG, ids)
        assert np.all(vg == 4.0)

    def test_too_short_sequence_rejected(self):
        for bad in ([], [1e-4], np.ones((3, 1)), 1e-4):
            with pytest.raises(ValueError, match="at least 2"):
                decode_stream(P, REF_CFG, bad)

    @pytest.mark.parametrize("shape", [(2,), (3,), (8,), (9,), (4, 6), (4, 7), (2, 3, 5)])
    @pytest.mark.parametrize("range_check", [True, False])
    def test_matches_per_pair_reference(self, shape, range_check):
        # curve currents, some near the top of the vds range where the
        # range check corrects, plus arbitrary currents that fail it
        rng = np.random.default_rng(sum(shape))
        ids = drain_current(P, rng.choice(REF_LEVELS, shape), rng.uniform(5.0, 10.0, shape))
        ids = np.where(rng.random(shape) < 0.2, rng.uniform(1e-6, 2e-3, shape), ids)
        got = decode_stream(P, REF_CFG, ids, range_check=range_check)
        want = stream_reference(REF_CFG, ids, range_check)
        for g, w in zip(got, want):
            assert g.shape == shape and g.dtype == w.dtype and g.flags.c_contiguous
            np.testing.assert_array_equal(g, w)

    def test_flags_follow_their_pair(self):
        ids = drain_current(P, 4.0, np.array([9.8, 9.9, 5.0, 5.1]))
        ids[2] = 1e-9
        _, _, corr, ok = decode_stream(P, REF_CFG, ids)
        assert corr.tolist() == [True, True, False, False]
        assert ok.tolist() == [True, True, False, False]
