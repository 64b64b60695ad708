"""Bound formulas, the spectral diameter certificate and the literature baselines."""

import math
from fractions import Fraction

import pytest

from augoverlap.bounds import (
    BoundInputs,
    baseline_bounds,
    bounds_ci,
    bounds_no_ci,
    bounds_radius,
    bounds_spectral,
    collision_probability,
    coverage_probability,
    expected_log_collisions,
    full_report,
    spectral_diameter,
)

E = math.e
INF = math.inf


class TestBoundInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(cond_variance=-1.0)
        with pytest.raises(ValueError):
            BoundInputs(alpha=1.5)
        with pytest.raises(ValueError):
            BoundInputs(epsilon=-0.1)
        with pytest.raises(ValueError):
            BoundInputs(omega=1.5)
        with pytest.raises(ValueError):
            BoundInputs(lambda1=1.0, lambda2_abs=2.0)
        with pytest.raises(ValueError):
            BoundInputs(m_negatives=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("l_contr", math.nan, "l_contr must not be NaN"),
            ("cond_variance", math.nan, "cond_variance must be >= 0 and finite, got nan"),
            ("cond_variance", INF, "cond_variance must be >= 0 and finite, got inf"),
            ("epsilon", INF, "epsilon must be >= 0 and finite, got inf"),
            ("alpha", math.nan, "alpha must lie in [0, 1], got nan"),
            ("diameter", math.nan, "diameter must be >= 0 (inf allowed), got nan"),
            ("omega", math.nan, "omega must lie in [0, 1], got nan"),
            ("lambda1", math.nan, "lambda1 must dominate lambda2_abs, got nan and 0.0"),
        ],
    )
    def test_nan_and_inf_name_the_field(self, field, value, message):
        """A NaN fails every range check, so no bound is NaN; inf is rejected where
        the value is a variance or a distance, and allowed for the diameter."""
        with pytest.raises(ValueError) as exc:
            BoundInputs(**{field: value})
        assert str(exc.value) == message


class TestBoundsCi:
    def test_formula(self):
        inputs = BoundInputs(l_contr=1.0, cond_variance=0.5, m_negatives=4)
        lo, up = bounds_ci(inputs)
        assert up == pytest.approx(1.0 + E / 2.0)
        assert lo == pytest.approx(1.0 - 0.25 - E / 2.0)

    def test_error_shrinks_with_m(self):
        widths = []
        for m in (1, 16, 256):
            lo, up = bounds_ci(BoundInputs(l_contr=0.0, m_negatives=m))
            widths.append(up - lo)
        assert widths[0] > widths[1] > widths[2]


class TestBoundsNoCi:
    def test_wider_than_ci(self):
        inputs = BoundInputs(l_contr=1.0, cond_variance=0.5, alpha=0.1, m_negatives=4)
        ci_lo, ci_up = bounds_ci(inputs)
        no_lo, no_up = bounds_no_ci(inputs)
        assert no_up > ci_up and no_lo < ci_lo

    def test_reduces_when_clean(self):
        # alpha = 0 and Var = 0 leaves only the Monte-Carlo error on the upper side
        lo, up = bounds_no_ci(BoundInputs(l_contr=2.0, m_negatives=16))
        assert up == pytest.approx(2.0 + E / 4.0)
        assert lo == pytest.approx(2.0 - E / 4.0)


class TestBoundsRadius:
    def test_formula(self):
        inputs = BoundInputs(l_contr=0.0, epsilon=0.1, diameter=3.0, m_negatives=1)
        lo, up = bounds_radius(inputs)
        d_eps = 0.3
        assert up == pytest.approx(2.0 * d_eps + E)
        assert lo == pytest.approx(-(2.0 + 0.5 * d_eps) * d_eps - E)

    def test_zero_epsilon_ignores_infinite_diameter(self):
        lo, up = bounds_radius(BoundInputs(l_contr=1.0, epsilon=0.0, diameter=INF, m_negatives=1))
        assert up == pytest.approx(1.0 + E)
        assert lo == pytest.approx(1.0 - E)

    def test_infinite_diameter_propagates(self):
        lo, up = bounds_radius(BoundInputs(epsilon=0.5, diameter=INF))
        assert lo == -INF and up == INF


class TestSpectralDiameter:
    def test_disconnected(self):
        d, note = spectral_diameter(0.0, 2.0, 1.0)
        assert math.isinf(d) and "disconnected" in note

    def test_single_vertex(self):
        d, note = spectral_diameter(1.0, 0.0, 0.0)
        assert d == 0.0

    @pytest.mark.parametrize("lambda2_abs", [0.0, 1.0, 2.0])
    def test_single_vertex_omega_with_positive_lambda1(self, lambda2_abs):
        """omega = 1 means one vertex, whose lambda1 is 0: with lambda1 > 0 the
        error names both, directly and through BoundInputs' default omega = 1."""
        text = "^omega = 1 is a one-vertex subgraph, whose lambda1 is 0, got lambda1 = 2.0$"
        with pytest.raises(ValueError, match=text):
            spectral_diameter(1.0, 2.0, lambda2_abs)
        with pytest.raises(ValueError, match=text):
            bounds_spectral(BoundInputs(lambda1=2.0, lambda2_abs=lambda2_abs, epsilon=0.1))

    def test_edgeless_multi_vertex(self):
        d, note = spectral_diameter(0.5, 0.0, 0.0)
        assert math.isinf(d) and "edgeless" in note

    def test_bipartite_degenerate(self):
        d, note = spectral_diameter(0.5, 2.0, 2.0)
        assert math.isinf(d) and "bipartite" in note

    def test_lambda2_zero_complete_certificate(self):
        d, note = spectral_diameter(0.5, 2.0, 0.0)
        assert d == 1.0 and "one-hop" in note

    def test_k3_exact(self):
        # K3: lambda1 = 2, |lambda2| = 1, omega = 1/sqrt(3)
        d, note = spectral_diameter(1.0 / math.sqrt(3.0), 2.0, 1.0)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert note == ""

    def test_never_negative(self):
        d, _ = spectral_diameter(0.9, 2.0, 1.0)  # (1-w^2)/w^2 < 1 makes the log negative
        assert d == 0.0

    @pytest.mark.parametrize("omega", [1e-160, 1e-170, 5e-324])
    def test_tiny_omega_is_finite(self, omega):
        """Down to the least positive omega the certificate is -2 log(w) / log(l1/l2)
        to rounding, where w^2 underflows; (1 - w^2) / w^2 gave inf at 1e-160 and
        divided by zero below about 1.5e-162."""
        d, note = spectral_diameter(omega, 2.0, 1.0)
        assert d == pytest.approx(-2.0 * math.log(omega) / math.log(2.0), rel=1e-14)
        assert note == ""

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            spectral_diameter(1.2, 2.0, 1.0)

    @pytest.mark.parametrize(
        "lambda1, lambda2_abs, message",
        [
            (math.nan, 0.5, "lambda1 must be >= 0 and finite, got nan"),
            (2.0, math.nan, "lambda2_abs must be >= 0 and finite, got nan"),
            (math.inf, 0.5, "lambda1 must be >= 0 and finite, got inf"),
        ],
    )
    def test_spectrum_must_be_finite(self, lambda1, lambda2_abs, message):
        """A NaN or infinite eigenvalue is an error naming it, never a NaN certificate."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            spectral_diameter(0.5, lambda1, lambda2_abs)


class TestBoundsSpectral:
    def test_matches_radius_with_certificate(self):
        omega = 1.0 / math.sqrt(3.0)
        spec_inputs = BoundInputs(epsilon=0.2, omega=omega, lambda1=2.0, lambda2_abs=1.0)
        d_hat, _ = spectral_diameter(omega, 2.0, 1.0)
        radius_inputs = BoundInputs(epsilon=0.2, diameter=d_hat)
        assert bounds_spectral(spec_inputs) == pytest.approx(bounds_radius(radius_inputs))


class TestBaselineHelpers:
    def test_collision_probability(self):
        assert collision_probability(1, 2) == pytest.approx(0.5)
        assert collision_probability(10, 2) == pytest.approx(1.0 - 2.0**-10)

    def test_coverage_probability(self):
        assert coverage_probability(1, 2) == 0.0  # fewer draws than classes
        assert coverage_probability(2, 2) == pytest.approx(0.5)
        assert coverage_probability(200, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "m_plus_one, k_classes",
        [(1, 1), (5, 1), (2, 2), (17, 10), (50, 7), (150, 100), (4097, 10), (4097, 1000), (4097, 1100)],
    )
    def test_coverage_probability_matches_exact_fraction(self, m_plus_one, k_classes):
        """Within 1e-13 of the exact rational value, also where inclusion-exclusion in
        floats overflowed (K = 1100), gave 0.0 for 5.74e-16 (150, 100) or lost digits
        (4097, 1000)."""
        k = k_classes
        numerator = sum((-1) ** j * math.comb(k, j) * (k - j) ** m_plus_one for j in range(k + 1))
        exact = float(Fraction(numerator, k**m_plus_one))
        assert exact > 0.0
        assert coverage_probability(m_plus_one, k) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_expected_log_collisions(self):
        # Col ~ Binomial(1, 1/2): E log(Col+1) = 0.5 log 2
        assert expected_log_collisions(1, 2) == pytest.approx(0.5 * math.log(2.0))

    @pytest.mark.parametrize("m_negatives", [1, 4, 4096])
    def test_expected_log_collisions_one_class(self, m_negatives):
        # with one class every negative collides: Col = M
        assert expected_log_collisions(m_negatives, 1) == math.log(m_negatives + 1)


class TestBaselineBounds:
    def test_closed_forms(self):
        inputs = BoundInputs(m_negatives=16, k_classes=4)
        base = baseline_bounds(inputs, l_unsup=1.0)
        assert base.bao == pytest.approx(1.0 + 2.0 * math.log(math.cosh(1.0)))
        assert base.ours == pytest.approx(1.0 + E / 4.0)

    def test_coverage_failure_gives_inf(self):
        # M + 1 < K: the coverage event is impossible
        base = baseline_bounds(BoundInputs(m_negatives=2, k_classes=10), l_unsup=1.0)
        assert math.isinf(base.arora) and math.isinf(base.nozawa)

    def test_rare_coverage_gives_finite_bounds(self):
        # M + 1 = 150 draws cover K = 100 classes with probability 5.74e-16, not 0
        base = baseline_bounds(BoundInputs(m_negatives=149, k_classes=100), l_unsup=1.0)
        assert math.isfinite(base.arora) and math.isfinite(base.nozawa)

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="K >= 2"):
            baseline_bounds(BoundInputs(m_negatives=4, k_classes=1), l_unsup=0.0)

    @pytest.mark.parametrize("l_unsup", [math.nan, math.inf, -math.inf])
    def test_loss_must_be_finite(self, l_unsup):
        """A measured loss is finite: NaN or inf is an error naming l_unsup, never
        a row of NaN or infinite bounds."""
        with pytest.raises(ValueError, match=f"^l_unsup must be finite, got {l_unsup}$"):
            baseline_bounds(BoundInputs(k_classes=2, m_negatives=4), l_unsup)

    def test_ours_decreasing_in_m(self):
        vals = [baseline_bounds(BoundInputs(m_negatives=m, k_classes=10), 1.0).ours for m in (2, 8, 64, 1024)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFullReport:
    def test_ordering_where_finite(self):
        inputs = BoundInputs(
            l_contr=1.0,
            cond_variance=0.2,
            alpha=0.05,
            epsilon=0.1,
            diameter=2.0,
            omega=0.5,
            lambda1=3.0,
            lambda2_abs=1.0,
            m_negatives=16,
            k_classes=5,
        )
        rep = full_report(inputs, l_unsup=1.0)
        assert rep.ci_lower <= rep.ci_upper
        assert rep.noci_lower <= rep.noci_upper
        assert rep.radius_lower <= rep.radius_upper
        assert rep.spectral_lower <= rep.spectral_upper
        assert rep.baselines is not None

    def test_no_baselines_without_l_unsup(self):
        assert full_report(BoundInputs()).baselines is None
