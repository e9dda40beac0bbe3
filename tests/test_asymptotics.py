"""Asymptotic coefficients, inequality chain, graph statistics, curvature,
and growth of the return-mass coefficients."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

from treeot import (ChiValues, InvalidParams, PairGeometry, ball_AB, ball_d1_exact,
                    bundle_from_table, chi_tree, gamma_asymptotic, h_values,
                    interval_contains, interval_mid, kappa_curvature, sphere_AB, srw_AB,
                    srw_g_table, srw_return_sequence, verify_inequalities, w1_via_genfun)

from conftest import mpf_pair, to_mpf


class TestWalkCoefficients:
    def test_adjacent_specialization(self):
        for alpha, q in ((Fraction(0), 2), (Fraction(1, 2), 3), (Fraction(2, 3), 5)):
            ab = srw_AB(alpha, 1, q)
            assert ab.A == 2 * (1 - alpha) * Fraction((q - 1) ** 2, (q + 1) ** 2)
            assert ab.B == Fraction(q * q + 6 * q + 1, (q + 1) ** 2)

    def test_distance_two_specialization(self):
        for alpha, q in ((Fraction(1, 4), 2), (Fraction(0), 3)):
            ab = srw_AB(alpha, 2, q)
            assert ab.A == 2 * (1 - alpha) * Fraction((q - 1) ** 2, q * (q + 1))
            assert ab.B == Fraction(2 * (q + 1), q)

    def test_even_distance_closed_form(self):
        for alpha, d, q in ((Fraction(1, 3), 4, 2), (Fraction(0), 6, 3)):
            ab = srw_AB(alpha, d, q)
            qd = Fraction(1, q ** (d // 2))
            assert ab.A == 2 * (1 - alpha) * (1 - qd) * Fraction(q - 1, q + 1)
            assert ab.B == d * (1 + qd)

    def test_intercept_independent_of_laziness(self):
        for d in (1, 2, 5):
            for q in (2, 4):
                bs = {srw_AB(alpha, d, q).B for alpha in
                      (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(9, 10))}
                assert len(bs) == 1

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            srw_AB(Fraction(1, 2), 0, 2)
        with pytest.raises(InvalidParams):
            srw_AB(Fraction(1, 2), 1, 1)


class TestSphereCoefficients:
    def test_adjacent_specialization(self):
        for q in (2, 3, 7):
            ab = sphere_AB(1, q)
            assert ab.A == Fraction(2 * (q - 1), q + 1)
            assert ab.B == 1
            assert ab.exact_for_large_n

    def test_distance_two_value(self):
        ab = sphere_AB(2, 3)
        assert (ab.A, ab.B) == (Fraction(4, 3), Fraction(5, 3))

    def test_intercept_floor(self):
        # Intercept is at least 1, with equality exactly at d = 1.
        for d in range(1, 7):
            for q in range(2, 9):
                b = sphere_AB(d, q).B
                assert b >= 1
                assert (b == 1) == (d == 1)


class TestBallCoefficients:
    EXCEPTIONAL = {
        (1, 2): "1/3", (1, 3): "1/2", (1, 4): "3/5", (1, 5): "2/3", (1, 6): "5/7",
        (1, 7): "3/4", (1, 8): "7/9", (1, 9): "4/5", (2, 2): "2/3", (2, 3): "1",
        (2, 4): "6/5", (3, 2): "1", (4, 2): "3/2",
    }

    def test_exceptional_values(self):
        for (d, q), value in self.EXCEPTIONAL.items():
            assert ball_AB(d, q).B == Fraction(value), (d, q)

    def test_adjacent_asymptote_shape(self):
        for q in (2, 3, 5):
            ab = ball_AB(1, q)
            assert ab.A == Fraction(2 * (q - 1), q + 1)
            # A n + B = (q-1)/(q+1) (2n + 1): slope and intercept match.
            assert ab.B == Fraction(q - 1, q + 1)

    def test_distance_two_intercept(self):
        for q in (2, 3, 4):
            assert ball_AB(2, q).B == Fraction(2 * (q - 1), q + 1)

    def test_adjacent_exact_value_converges_to_asymptote(self):
        q = 3
        ab = ball_AB(1, q)
        gaps = [abs(ball_d1_exact(q, n) - ab.at(n)) for n in (3, 6, 12)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestHValues:
    def test_closed_values(self):
        hv = h_values(Fraction(0), 2)
        assert hv.h1_at_1 == Fraction(1, 9)
        assert hv.h1_at_1 - hv.h1_prime_at_1 == Fraction(4, 9)
        assert hv.h_at_1 == Fraction(2, 3)

    def test_h_independent_of_alpha(self):
        assert h_values(Fraction(0), 5).h_at_1 == h_values(Fraction(3, 4), 5).h_at_1 == Fraction(5, 6)

    def test_vanishing_with_laziness(self):
        assert h_values(Fraction(999, 1000), 3).h1_at_1 == Fraction(1, 1000) * Fraction(2, 16)

    def test_coefficients_drift_to_pole_data(self):
        # The x-derivative evaluation approaches h1(1) n + (h1(1) - h1'(1));
        # the plain evaluation approaches h(1).
        alpha, q = Fraction(0), 2
        bundle = bundle_from_table(srw_g_table(alpha, q, 48))
        hv = h_values(alpha, q)
        line = lambda n: hv.h1_at_1 * n + (hv.h1_at_1 - hv.h1_prime_at_1)
        gaps1 = [abs(bundle.g1_at_q[n] - line(n)) for n in (16, 32, 48)]
        gaps0 = [abs(bundle.g_at_q[n] - hv.h_at_1) for n in (16, 32, 48)]
        assert gaps1[0] > gaps1[1] > gaps1[2]
        assert gaps0[0] > gaps0[1] > gaps0[2]


class TestInequalities:
    def test_chain_on_grid(self):
        for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            for d in range(1, 7):
                for q in range(2, 11):
                    rep = verify_inequalities(alpha, d, q)
                    assert rep.passed, (alpha, d, q)
                    assert rep.ball_floor_equality == ((d, q) == (1, 2))

    def test_sphere_equals_ball_slope(self):
        for d in (1, 3, 6):
            for q in (2, 5):
                assert sphere_AB(d, q).A == ball_AB(d, q).A

    def test_strict_case(self):
        rep = verify_inequalities(Fraction(1, 2), 3, 5)
        assert rep.chain_a and rep.chain_b and not rep.ball_floor_equality

    def test_gap_witnesses(self):
        rep = verify_inequalities(Fraction(0), 4, 3)
        assert rep.b_srw - rep.b_sphere == rep.gap_srw_sphere
        assert rep.b_sphere - rep.b_ball == rep.gap_sphere_ball

    def test_walk_intercept_infimum_approached_not_attained(self):
        previous = None
        for q in (2, 4, 16, 256, 65536):
            b = srw_AB(Fraction(0), 1, q).B
            assert b > 1
            if previous is not None:
                assert b < previous
            previous = b
        assert previous - 1 < Fraction(1, 10 ** 4)


class TestLimitsAndBounds:
    def test_large_q_limits(self):
        # A_srw -> 2(1-alpha), A_sphere/A_ball -> 2, every B -> d.
        alpha, d = Fraction(1, 3), 3
        for q1, q2 in ((10 ** 3, 10 ** 6),):
            assert abs(srw_AB(alpha, d, q1).A - 2 * (1 - alpha)) > \
                   abs(srw_AB(alpha, d, q2).A - 2 * (1 - alpha))
            assert abs(sphere_AB(d, q1).A - 2) > abs(sphere_AB(d, q2).A - 2)
            assert abs(ball_AB(d, q1).A - 2) > abs(ball_AB(d, q2).A - 2)
            for make in (lambda q: srw_AB(alpha, d, q), lambda q: sphere_AB(d, q),
                         lambda q: ball_AB(d, q)):
                assert abs(make(q1).B - d) > abs(make(q2).B - d)

    def test_trivial_upper_bound(self):
        # Exact distances never exceed 2n + d, and neither does the asymptote
        # once n is past the intercept gap.
        q, d = 2, 2
        geom = PairGeometry(q, d)
        bundle = bundle_from_table(srw_g_table(Fraction(0), q, 20))
        for n in range(21):
            assert w1_via_genfun(bundle, geom, n) <= 2 * n + d
        ab = srw_AB(Fraction(0), d, q)
        assert all(ab.at(n) <= 2 * n + d for n in range(1, 50))

    def test_trivial_upper_bound_all_families(self):
        from treeot import ball_profile, sphere_profile, w1_radial_formula
        q, d = 3, 3
        geom = PairGeometry(q, d)
        for n in range(0, 12):
            assert w1_radial_formula(sphere_profile(q, n), geom) <= 2 * n + d
            assert w1_radial_formula(ball_profile(q, n), geom) <= 2 * n + d
        for make in (lambda: sphere_AB(d, q), lambda: ball_AB(d, q)):
            ab = make()
            assert all(ab.at(n) <= 2 * n + d for n in range(1, 50))


class TestChi:
    def test_closed_values(self):
        chi = chi_tree(Fraction(0), 2)
        assert chi == ChiValues(up_up=Fraction(2, 3), up_down=Fraction(2, 3),
                                down_up=Fraction(2, 9), down_down=Fraction(2, 9))

    def test_full_laziness_limit(self):
        chi = chi_tree(Fraction(999999, 1000000), 3)
        assert chi.up_up < Fraction(1, 100000)

    def test_matches_walk_slope_specializations(self):
        for alpha in (Fraction(0), Fraction(1, 2)):
            for q in (2, 3, 5):
                chi = chi_tree(alpha, q)
                assert chi.down_down == srw_AB(alpha, 1, q).A
                # d -> infinity drops both q-power terms from the slope.
                limit = 2 * (1 - alpha) * (q + 1) * Fraction(q - 1, (q + 1) ** 2)
                assert chi.up_up == limit

    def test_bounds(self):
        for alpha in (Fraction(0), Fraction(1, 2)):
            chi = chi_tree(alpha, 4)
            for value in (chi.up_up, chi.up_down, chi.down_up, chi.down_down):
                assert 0 <= value <= 2
            assert chi.down_down <= chi.up_up


class TestCurvature:
    def test_zero_scale(self):
        for d in (1, 3):
            assert kappa_curvature(Fraction(1, 2), d, 2, 0).exact == 0

    def test_one_step_against_lp_oracle(self):
        from treeot import (FiniteGraph, build_truncated_tree, radial_measure,
                            srw_profile, w1_lp)
        alpha, q, d, n = Fraction(0), 2, 1, 1
        tt = build_truncated_tree(q, d, n + d)
        profile = srw_profile(alpha, q, n)
        mu = radial_measure(tt, tt.x, profile)
        nu = radial_measure(tt, tt.y, profile)
        lp_value, _ = w1_lp(FiniteGraph.from_tree(tt.tree), mu, nu)
        kappa = kappa_curvature(alpha, d, q, n)
        assert kappa.exact == 1 - Fraction(lp_value, d)

    def test_large_scale_turns_negative_linearly(self):
        alpha, d, q = Fraction(0), 1, 2
        k20 = kappa_curvature(alpha, d, q, 20)
        k40 = kappa_curvature(alpha, d, q, 40)
        assert k40.exact < k20.exact < 0
        ab = srw_AB(alpha, d, q)
        assert k40.linear == 1 - ab.at(40) / d
        assert abs(k40.exact - k40.linear) < Fraction(1, 100)


class TestGammaGrowth:
    def test_lazy_growth_data_against_closed_radicals(self):
        ga = gamma_asymptotic(Fraction(1, 5), 3)
        assert ga.period == 1
        with mpmath.workdps(60):
            assert interval_contains(mpf_pair(ga.growth_base), (1 + 2 * mpmath.sqrt(3)) / 5)
            assert interval_contains(
                mpf_pair(ga.leading_constant),
                mpmath.sqrt((90 + 37 * mpmath.sqrt(3)) / (4 * mpmath.pi)))

    def test_second_noncommutative_expansion_constants(self):
        ga = gamma_asymptotic(Fraction(1, 7), 5)
        with mpmath.workdps(60):
            assert interval_contains(mpf_pair(ga.growth_base), (1 + 2 * mpmath.sqrt(5)) / 7)
            assert interval_contains(
                mpf_pair(ga.leading_constant),
                mpmath.mpf(3) / 16 * mpmath.sqrt((230 + 61 * mpmath.sqrt(5)) / mpmath.pi))

    def test_nonlazy_period_two_base(self):
        ga = gamma_asymptotic(Fraction(0), 2)
        assert ga.period == 2
        with mpmath.workdps(60):
            assert interval_contains(mpf_pair(ga.growth_base), mpmath.mpf(8) / 9)
            assert interval_contains(
                mpf_pair(ga.leading_constant), 2 * 3 / (mpmath.sqrt(mpmath.pi) * 1))
        assert interval_mid(ga.leading_term(7)) == 0

    def test_interval_precision(self):
        ga = gamma_asymptotic(Fraction(1, 5), 2)
        lo, hi = ga.growth_base
        assert hi - lo < Fraction(1, 10 ** 50)

    def test_ratio_tracks_leading_term(self):
        alpha, q = Fraction(1, 5), 2
        seq, base = srw_return_sequence(alpha, q, 256)
        ga = gamma_asymptotic(alpha, q)
        with mpmath.workdps(60):
            ratios = []
            for n in (64, 256):
                exact = mpmath.mpf(seq[n]) / mpmath.mpf(base) ** n
                ratios.append(exact / to_mpf(interval_mid(ga.leading_term(n))))
            assert abs(ratios[1] - 1) < abs(ratios[0] - 1)


class TestEnclosures:
    """The integer square roots, the Machin series for pi and the outward
    rounding, checked exactly and against mpmath at 100 digits."""

    WIDTH = Fraction(1, 10 ** 50)

    def test_square_and_fourth_roots_of_integers(self):
        from treeot.asymptotics import _sqrt
        with mpmath.workdps(100):
            for q in range(2, 51):
                root = _sqrt((Fraction(q),) * 2)
                lo, hi = root
                assert lo <= hi and lo ** 2 <= q <= hi ** 2 and hi - lo < self.WIDTH
                assert interval_contains(mpf_pair(root), mpmath.sqrt(q))
                fourth = _sqrt(root)
                lo, hi = fourth
                assert lo <= hi and lo ** 4 <= q <= hi ** 4 and hi - lo < self.WIDTH
                assert interval_contains(mpf_pair(fourth), mpmath.root(q, 4))

    @pytest.mark.parametrize("x", [(Fraction(2, 3), Fraction(5, 7)),
                                   (Fraction(1, 10 ** 80),) * 2,
                                   (Fraction(10 ** 80 + 1),) * 2, (Fraction(49, 4),) * 2])
    def test_square_roots_of_rational_endpoints(self, x):
        from treeot.asymptotics import _sqrt
        lo, hi = _sqrt(x)
        assert 0 < lo <= hi and lo ** 2 <= x[0] and x[1] <= hi ** 2
        if x[0] == x[1]:
            assert hi - lo < hi * Fraction(1, 2 ** 190)

    def test_pi(self):
        from treeot.asymptotics import _pi
        lo, hi = _pi()
        assert Fraction(333, 106) < lo <= hi < Fraction(355, 113) and hi - lo < self.WIDTH
        with mpmath.workdps(100):
            assert interval_contains(mpf_pair((lo, hi)), mpmath.pi)

    def test_power_encloses_the_exact_power_at_bounded_size(self):
        from treeot.asymptotics import INTERVAL_BITS, _power
        x = Fraction(9, 10)
        for n in (1, 2, 3, 7, 64, 1000):
            lo, hi = _power((x, x), n)
            assert lo <= x ** n <= hi and hi - lo < x ** n * Fraction(n + 1, 2 ** 190)
        for end in _power((x, x), 10 ** 6):
            assert end.numerator.bit_length() <= INTERVAL_BITS + 2
            assert end.denominator & (end.denominator - 1) == 0

    @pytest.mark.parametrize("alpha,q", [(Fraction(1, 5), 2), (Fraction(0), 3),
                                         (Fraction(999, 1000), 50)])
    def test_leading_term_contains_the_100_digit_value(self, alpha, q):
        ga = gamma_asymptotic(alpha, q)
        with mpmath.workdps(100):
            a, qq = to_mpf(alpha), mpmath.mpf(q)
            if alpha:
                base = (a * (qq + 1) + (1 - a) * 2 * mpmath.sqrt(qq)) / (qq + 1)
                t = a / (1 - a) * (qq + 1) + 2 * mpmath.sqrt(qq)
                constant = (t ** 1.5 * (qq + 1) * mpmath.root(qq, 4)
                            / ((qq - 1) ** 2 * mpmath.sqrt(4 * mpmath.pi)))
            else:
                base = 4 * qq / (qq + 1) ** 2
                constant = qq * (qq + 1) / (mpmath.sqrt(mpmath.pi) * (qq - 1) ** 2)
            assert interval_contains(mpf_pair(ga.growth_base), base)
            assert interval_contains(mpf_pair(ga.leading_constant), constant)
            for n in (2, 100, 400, 10 ** 5):
                k = n // ga.period
                term = ga.leading_term(n)
                assert interval_contains(mpf_pair(term), constant * base ** k * mpmath.mpf(k) ** -1.5)
                lo, hi = term
                assert hi - lo < hi * Fraction(k + 10, 2 ** 190)


@pytest.mark.parametrize("call", [
    lambda q: srw_return_sequence(Fraction(1, 2), q, 4),
    lambda q: PairGeometry(q, 1),
    lambda q: ball_d1_exact(q, 1),
    lambda q: h_values(Fraction(1, 2), q),
    lambda q: chi_tree(Fraction(1, 2), q),
    lambda q: gamma_asymptotic(Fraction(1, 2), q),
], ids=["family-params", "pair-geometry", "ball-d1-exact", "h-values", "chi-tree",
        "gamma-asymptotic"])
def test_branching_number_zero_refused(call):
    with pytest.raises(InvalidParams, match="^branching number q must be >= 2, got 0$"):
        call(0)
