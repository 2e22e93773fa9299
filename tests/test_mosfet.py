"""Device-model tests: reference points, algebraic inverses, slope identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajscc.mosfet import (
    MosfetParams,
    curve_slope,
    drain_current,
    in_saturation,
    invert_vds,
)

P = MosfetParams()

# independent direct evaluation of the current equation, used as the oracle
def _ids(k, vth, lam, vgs, vds):
    return 0.5 * k * (vgs - vth) ** 2 * (1.0 + lam * vds)


params_st = st.builds(
    MosfetParams,
    k_gain=st.floats(1e-6, 1e-2),
    v_th=st.floats(0.0, 2.0),
    lam=st.floats(1e-4, 0.5),
)


class TestDrainCurrent:
    def test_default_device(self):
        assert (P.k_gain, P.v_th, P.lam) == (155e-6, 0.74, 0.037)

    def test_reference_points(self):
        assert drain_current(P, 1.0, 5.0) == pytest.approx(6.2082e-6, rel=1e-4)
        assert drain_current(P, 5.0, 10.0) == pytest.approx(1.9268e-3, rel=1e-4)
        assert drain_current(P, 1.0, 5.0) == pytest.approx(
            _ids(155e-6, 0.74, 0.037, 1.0, 5.0), rel=1e-15)

    def test_gate_at_threshold_gives_zero(self):
        assert drain_current(P, 0.74, 7.0) == 0.0

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            drain_current(P, 0.5, 5.0)

    def test_negative_vds_rejected(self):
        with pytest.raises(ValueError, match="vds"):
            drain_current(P, 1.0, -0.1)

    def test_broadcasts(self):
        vds = np.array([5.0, 5.1, 9.9])
        out = drain_current(P, 3.0, vds)
        np.testing.assert_allclose(out, [_ids(155e-6, 0.74, 0.037, 3.0, v) for v in vds])

    def test_strictly_increasing_in_both_arguments(self):
        vgs = np.linspace(0.8, 10.0, 50)
        assert np.all(np.diff(drain_current(P, vgs, 5.0)) > 0)
        vds = np.linspace(0.0, 20.0, 50)
        assert np.all(np.diff(drain_current(P, 3.0, vds)) > 0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MosfetParams(k_gain=0.0)
        with pytest.raises(ValueError):
            MosfetParams(v_th=-0.1)
        with pytest.raises(ValueError):
            MosfetParams(lam=-0.01)
        for kw in (dict(v_th=float("nan")), dict(lam=float("nan"))):
            with pytest.raises(ValueError, match="must be non-negative, got nan"):
                MosfetParams(**kw)
        for name in ("k_gain", "lam"):
            with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
                MosfetParams(**{name: float("inf")})


class TestInvertVds:
    def test_reference_round_trips(self):
        assert invert_vds(P, 1.0, drain_current(P, 1.0, 5.0)) == pytest.approx(5.0, rel=1e-9)
        assert invert_vds(P, 5.0, drain_current(P, 5.0, 10.0)) == pytest.approx(10.0, rel=1e-9)

    def test_unity_clm_factor_maps_to_zero(self):
        # current equal to the vds=0 baseline forces 1 + lam*vds = 1
        assert invert_vds(P, 1.0, 0.5 * 155e-6 * 0.26**2) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_result_allowed(self):
        assert invert_vds(P, 1.0, 1e-9) < 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            invert_vds(P, 0.74, 1e-6)
        with pytest.raises(ValueError):
            invert_vds(P, 1.0, 0.0)
        with pytest.raises(ValueError):
            invert_vds(MosfetParams(lam=0.0), 1.0, 1e-6)

    @settings(max_examples=200)
    @given(params_st, st.floats(0.01, 10.0), st.floats(0.0, 20.0))
    def test_round_trip_property(self, p, dv, vds):
        vgs = p.v_th + dv
        ids = drain_current(p, vgs, vds)
        assert invert_vds(p, vgs, ids) == pytest.approx(vds, rel=1e-9, abs=1e-9)


class TestCurveSlope:
    def test_reference_point(self):
        assert curve_slope(P, 1.0) == pytest.approx(1.9384e-7, rel=1e-4)

    def test_zero_cases(self):
        assert curve_slope(P, 0.74) == 0.0
        assert curve_slope(MosfetParams(lam=0.0), 3.0) == 0.0

    def test_matches_central_difference(self):
        # the curve is linear in vds, so the central difference is exact
        h = 1e-4
        for vgs in (1.0, 2.5, 5.0, 9.0):
            fd = (drain_current(P, vgs, 5.0 + h) - drain_current(P, vgs, 5.0 - h)) / (2 * h)
            assert fd == pytest.approx(curve_slope(P, vgs), rel=1e-6)

    @settings(max_examples=100)
    @given(params_st, st.floats(0.05, 10.0), st.floats(0.0, 20.0))
    def test_clm_approximation_identity(self, p, dv, vds):
        # slope ~ lam * ids holds exactly up to the (1 + lam*vds) factor
        vgs = p.v_th + dv
        ids = drain_current(p, vgs, vds)
        assert p.lam * ids / curve_slope(p, vgs) == pytest.approx(
            1.0 + p.lam * vds, abs=1e-9)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            curve_slope(P, 0.5)


def test_in_saturation_diagnostic():
    assert in_saturation(P, 1.0, 5.0) is True
    assert in_saturation(P, 9.0, 5.0) is False  # vds < vgs - v_th
    flags = in_saturation(P, np.array([1.0, 9.0]), 5.0)
    assert flags.tolist() == [True, False]
