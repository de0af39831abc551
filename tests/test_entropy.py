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
            want = _outcome(lambda x: (ent.secrecy_bound(x),
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


class TestBellEigenvalues:
    def test_max_violation(self):
        lams = ent.bell_opt_eigenvalues(2.0 * math.sqrt(2.0))
        assert lams == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-12)

    def test_sum_to_one_and_nonnegative(self):
        for beta in np.linspace(2.0, 2.0 * math.sqrt(2.0), 100):
            lams = ent.bell_opt_eigenvalues(beta)
            assert sum(lams) == pytest.approx(1.0, abs=1e-12)
            assert all(l >= 0 for l in lams)

    def test_entropy_identity(self):
        # H(lambda*) = 2 h(1/2 - beta/(4 sqrt(2)))
        for beta in np.linspace(2.0, 2.0 * math.sqrt(2.0) - 1e-9, 50):
            lams = ent.bell_opt_eigenvalues(beta)
            expected = 2.0 * ent.binary_entropy(
                0.5 - beta / (4.0 * math.sqrt(2.0)))
            assert ent.shannon_entropy(lams) == pytest.approx(expected,
                                                              abs=1e-10)

    def test_consistent_with_conditional_bound(self):
        # plugging the optimal eigenvalues into H - 1 reproduces the
        # Bell-diagonal conditional-entropy bound
        for omega in np.linspace(0.7501, ent.OMEGA_QUANTUM, 25):
            beta = 8.0 * omega - 4.0
            lams = ent.bell_opt_eigenvalues(beta)
            assert ent.shannon_entropy(lams) - 1.0 == pytest.approx(
                ent.bell_diag_bound(omega), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            ent.bell_opt_eigenvalues(1.9)


class TestAep:
    def test_nu_for_one_bit(self):
        assert ent.aep_nu(1.0) == pytest.approx(2.0 * math.sqrt(2.0) + 1.0)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            ent.aep_delta(math.sqrt(2.0), 3.0)

    def test_bounds_bracket_mean(self):
        for n in (10**3, 10**6):
            for eps in (1e-3, 1e-6):
                params = ent.AepParams(n=n, eps=eps, hmax_single=1.0)
                lo = ent.aep_min_lower(params, 0.5)
                hi = ent.aep_max_upper(params, 0.5)
                assert lo <= n * 0.5 <= hi

    def test_plug_in_value(self):
        params = ent.AepParams(n=10**6, eps=1e-5, hmax_single=1.0)
        nu = 2.0 * math.sqrt(2.0) + 1.0
        delta = 4.0 * math.log2(nu) * math.sqrt(math.log2(2.0 / 1e-10))
        assert ent.aep_min_lower(params, 0.5) == pytest.approx(
            0.5e6 - 1e3 * delta)


class TestDwRate:
    def test_equal_entropies(self):
        assert ent.dw_rate(0.7, 0.7) == 0.0

    def test_noiseless_quantum_optimum(self):
        assert ent.dw_rate(ent.secrecy_bound(ent.OMEGA_QUANTUM),
                           ent.binary_entropy(0.0)) == pytest.approx(1.0,
                                                                     abs=1e-9)

    def test_werner_composition(self):
        from di_toolkit.keyrates import honest_werner

        omega, q = honest_werner(0.1)
        rate = ent.dw_rate(ent.secrecy_bound(omega), ent.binary_entropy(q))
        assert rate == pytest.approx(
            ent.secrecy_bound(omega) - ent.binary_entropy(0.05))
