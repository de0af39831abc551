import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bound_oracle
from di_toolkit import entropy as ent
from reference_curves import SECRECY_CURVE


class TestBinaryEntropy:
    def test_half(self):
        assert ent.binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert ent.binary_entropy(0.0) == 0.0
        assert ent.binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert ent.binary_entropy(0.838048) == pytest.approx(0.63896,
                                                             abs=1e-5)

    def test_clamp_and_domain(self):
        assert ent.binary_entropy(1.0 + 5e-13) == 0.0
        with pytest.raises(ValueError):
            ent.binary_entropy(1.1)

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.1, -math.inf, math.inf])
    def test_outside_unit_interval_raises(self, p):
        # NaN once passed both comparisons and came out as a nan entropy
        with pytest.raises(ValueError, match="outside \\[0,1\\]$"):
            ent.binary_entropy(p)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert ent.binary_entropy(p) == pytest.approx(
            ent.binary_entropy(1.0 - p), abs=1e-12)


class TestSecrecyBound:
    @pytest.mark.parametrize("omega", [math.nan, np.float64("nan")])
    def test_nan_raises(self, omega):
        # NaN once passed both flat-extension comparisons and came out nan
        with pytest.raises(ValueError, match="^omega must not be NaN$"):
            ent.secrecy_bound(omega)

    def test_classical_endpoint(self):
        assert ent.secrecy_bound(0.75) == pytest.approx(0.0, abs=1e-12)

    def test_quantum_endpoint(self):
        assert ent.secrecy_bound(ent.OMEGA_QUANTUM) == pytest.approx(
            1.0, abs=1e-9)

    def test_reference_curve_all_points(self):
        for omega, expected in SECRECY_CURVE:
            assert ent.secrecy_bound(omega) == pytest.approx(expected,
                                                             abs=1e-4)

    def test_flat_extension(self):
        assert ent.secrecy_bound(0.6) == 0.0
        assert ent.secrecy_bound(0.99) == 1.0

    def test_monotone_and_convex(self):
        xs = np.linspace(ent.OMEGA_CLASSICAL, ent.OMEGA_QUANTUM, 1000)
        ys = np.array([ent.secrecy_bound(x) for x in xs])
        diffs = np.diff(ys)
        assert np.all(diffs > -1e-12)
        assert np.all(np.diff(diffs) > -1e-9)

    def test_slope_against_finite_differences(self):
        h = 1e-7
        for omega in np.linspace(0.76, 0.85, 25):
            numeric = (ent.secrecy_bound(omega + h)
                       - ent.secrecy_bound(omega - h)) / (2 * h)
            analytic = ent._bound_and_slope(omega)[1]
            assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_matches_retired_body_bitwise(self):
        """secrecy_bound takes its value from _bound_and_slope: the same
        floats as its retired body (tests/bound_oracle.py) on a dense grid
        across the regime, on the 2,000 floats either side of each end and
        of each end's clamp, and at the infinities."""
        c, q, clamp = ent.OMEGA_CLASSICAL, ent.OMEGA_QUANTUM, ent._CLAMP
        points = [np.linspace(0.74, 0.86, 100001), [-math.inf, math.inf]]
        for end in (c, q, c - clamp, q + clamp):
            for toward in (0.0, 1.0):
                walk = [end]
                for _ in range(2000):
                    walk.append(np.nextafter(walk[-1], toward))
                points.append(walk)
        points = np.concatenate(points).tolist()
        assert len(points) > 116000
        for w in points:
            assert (ent.secrecy_bound(w).hex()
                    == bound_oracle.secrecy_bound(w).hex()), w

    def test_array_forms_match_scalar(self):
        q, c = ent.OMEGA_QUANTUM, ent.OMEGA_CLASSICAL
        inside = np.linspace(c, q, 2001)[1:-1]
        got = ent._bound_and_slope(inside, np)[1]
        want = np.array([bound_oracle.secrecy_bound_slope(w) for w in inside])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _open_regime_points(rng):
    """Over 11,000 statistics inside the open quantum regime: 10,000
    uniform ones, and ones within 1e-12 of either end, down to the first
    float past it."""
    c, q = ent.OMEGA_CLASSICAL, ent.OMEGA_QUANTUM
    near = np.geomspace(1e-17, 1e-12, 1000)
    ends = [np.nextafter(c, 1.0), np.nextafter(q, 0.0)]
    points = np.concatenate([rng.uniform(c, q, 10000), c + near, q - near,
                             ends])
    return points[(points > c) & (points < q)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _hex(outcome):
    if isinstance(outcome[0], type):
        return outcome
    return tuple(float(x).hex() for x in outcome)


class TestBoundAndSlope:
    """_bound_and_slope is the retired texts (tests/bound_oracle.py)
    evaluated once: bit for bit the same numbers on the open regime."""

    def test_scalar_matches_retired_bodies_bitwise(self):
        points = _open_regime_points(np.random.default_rng(20231))
        assert points.size >= 10000
        for w in points.tolist():
            want = _outcome(lambda x: (bound_oracle.secrecy_bound(x),
                                       bound_oracle.secrecy_bound_slope(x)),
                            w)
            assert _hex(_outcome(ent._bound_and_slope, w)) == _hex(want), w

    def test_array_matches_retired_bodies_bitwise(self):
        points = _open_regime_points(np.random.default_rng(20232))
        assert points.size >= 10000
        bound, slope = ent._bound_and_slope(points, np)
        want_bound = bound_oracle._bound_open(points)
        want_slope = bound_oracle._slope(points, np)
        assert bound.tobytes() == want_bound.tobytes()
        assert slope.tobytes() == want_slope.tobytes()


class TestBellDiagBound:
    def test_quantum_endpoint(self):
        assert ent.bell_diag_bound(ent.OMEGA_QUANTUM) == pytest.approx(
            -1.0, abs=1e-9)

    def test_classical_endpoint(self):
        assert ent.bell_diag_bound(0.75) == pytest.approx(0.2020, abs=5e-4)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.7501, ent.OMEGA_QUANTUM - 1e-6, 200)
        ys = [ent.bell_diag_bound(x) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ent.bell_diag_bound(0.5)

    @pytest.mark.parametrize("omega", [0.9, math.nan, -math.inf, math.inf])
    def test_outside_regime_raises(self, omega):
        # NaN once passed the range check and came out as a nan bound
        with pytest.raises(ValueError, match="outside the quantum CHSH"):
            ent.bell_diag_bound(omega)
