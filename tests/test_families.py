"""Family tables, closed forms, the functional equation, and the
coefficient-extraction distance formula."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeot.errors import InvalidAlpha, InvalidParams, OrderExceeded
from treeot.families import (GTable, _check_family_params, _walk, ball_g_table, ball_gf,
                             bundle_from_table, check_functional_equation, sphere_g_table,
                             sphere_gf, srw_closed_form, srw_g_table, srw_profile,
                             srw_return_sequence, w1_via_genfun)
from treeot.rational import RationalLike
from treeot.regular import (PairGeometry, _check_alpha, build_truncated_tree, radial_measure,
                            sphere_size, w1_radial_formula)
from treeot.series import Series
from treeot.tree import w1_tree

from conftest import rng_for, rows_of, table_of


def column_mass(table, n: int) -> Fraction:
    """Total mass of the table's time-n measure under sphere-size weights."""
    return sum(m * sphere_size(table.q, ell)
               for ell, m in enumerate(table.column_profile(n).values))


def srw_closed_form_rows(alpha: RationalLike, q: int, order: int, count: int) -> list[Series]:
    """First ``count`` distance rows of the closed form.

    The bivariate function is geometric in x with ratio 2 (1-alpha) y / (P +
    R) = (P - R) / (2 q (1-alpha) y), so row l equals gamma times the l-th
    power of that ratio.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    poly, line, _, _, root, _, gamma = _walk(alpha, q, order)
    ratio = (line * (q + 1) - root) / poly(0, 2 * q * (1 - alpha))
    return list(accumulate([ratio] * (count - 1), mul, initial=gamma))


class TestWalkTable:
    def test_initial_conditions(self):
        t = srw_g_table(Fraction(1, 3), 2, 5)
        assert rows_of(t)[0][0] == 1
        assert rows_of(t)[1][0] == 0
        assert all(rows_of(t)[ell][n] == 0 for n in range(6) for ell in range(n + 1, 6))

    def test_one_updown_return(self):
        t = srw_g_table(Fraction(0), 2, 3)
        assert rows_of(t)[0][2] == Fraction(1, 3)

    def test_scaled_return_numbers(self):
        t = srw_g_table(Fraction(1, 5), 3, 4)
        scaled = [rows_of(t)[0][n] * 5 ** n for n in range(5)]
        assert scaled == [1, 1, 5, 13, 53]

    def test_probability_conservation(self):
        for alpha, q in ((Fraction(0), 2), (Fraction(1, 2), 3), (Fraction(9, 10), 5)):
            t = srw_g_table(alpha, q, 12)
            assert all(column_mass(t, n) == 1 for n in range(13))

    @pytest.mark.parametrize("n", [-1, 6])
    def test_column_outside_the_table_refused(self, n):
        with pytest.raises(InvalidParams, match=f"^time step {n} outside the table's 0..5$"):
            srw_g_table(Fraction(1, 3), 2, 5).column_profile(n)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            srw_g_table(Fraction(1), 2, 4)
        with pytest.raises(InvalidAlpha):
            srw_g_table(Fraction(-1, 2), 2, 4)

    def test_return_sequence_matches_table(self):
        alpha, q = Fraction(1, 3), 2
        seq, base = srw_return_sequence(alpha, q, 20)
        t = srw_g_table(alpha, q, 20)
        assert [Fraction(seq[n], base ** n) for n in range(21)] == list(rows_of(t)[0])


class TestSphereAndBallTables:
    def test_sphere_entries(self):
        t = sphere_g_table(2, 5)
        assert rows_of(t)[0][0] == 1
        assert rows_of(t)[3][3] == Fraction(1, 12)
        assert rows_of(t)[2][3] == 0
        assert all(column_mass(t, n) == 1 for n in range(6))

    def test_ball_entries(self):
        t = ball_g_table(2, 5)
        assert rows_of(t)[0][0] == 1
        assert all(rows_of(t)[ell][2] == Fraction(1, 10) for ell in range(3))
        assert rows_of(t)[3][2] == 0
        assert all(column_mass(t, n) == 1 for n in range(6))


class TestClosedForm:
    def test_zero_step_return(self):
        bundle = srw_closed_form(Fraction(1, 2), 2, 6)
        assert bundle.gammas[0][0] == 1

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 5), Fraction(1, 2)])
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_recurrence(self, alpha, q):
        order = 16
        table = bundle_from_table(srw_g_table(alpha, q, order))
        closed = srw_closed_form(alpha, q, order)
        assert closed.gammas[0] == table.gammas[0]
        assert closed.g_at_q == table.g_at_q
        assert closed.g1_at_q == table.g1_at_q

    def test_distance_rows_match_table_rows(self):
        alpha, q, order = Fraction(1, 3), 2, 12
        table = srw_g_table(alpha, q, order)
        rows = srw_closed_form_rows(alpha, q, order, 5)
        for ell in range(5):
            assert rows[ell].coefficients == rows_of(table)[ell]

    def test_float_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            srw_g_table(0.5, 2, 4)

    def test_default_truncation_order(self):
        from treeot.families import DEFAULT_ORDER
        assert DEFAULT_ORDER == 64
        assert srw_g_table(Fraction(1, 2), 2).order == DEFAULT_ORDER

    def test_nonlazy_even_coefficients_match_closed_generating_function(self):
        # 3^(2n)-scaled non-lazy return masses on the 3-regular tree equal the
        # coefficients of 4 / (1 + 3 sqrt(1 - 8x)).
        order = 15
        root = Series([1, -8], order=order).sqrt()
        closed = Fraction(4) / (1 + 3 * root)
        bundle = srw_closed_form(Fraction(0), 2, 2 * order)
        gamma = bundle.gammas[0]
        for n in range(order + 1):
            assert gamma[2 * n] * 9 ** n == closed[n]
        assert all(gamma[k] == 0 for k in range(1, 2 * order, 2))


WALK_ALPHAS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]


class TestClosedFormAgainstTable:
    """The closed form's return masses and bundle against the column
    recurrence. alpha = 1/2 drops the y^2 term of E = 2 (y-1)(1 + (1-2 alpha) y)
    and alpha > 1/2 makes it negative."""

    @pytest.mark.parametrize("alpha", WALK_ALPHAS)
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_return_sequence_is_the_tables_first_row(self, alpha, q):
        order = 160
        seq, base = srw_return_sequence(alpha, q, order)
        table = srw_g_table(alpha, q, order)
        assert seq == [col[0] for col in table.columns]
        assert table.scales == tuple(base ** n for n in range(order + 1))
        assert all(type(c) is int for c in seq)

    @pytest.mark.parametrize("alpha", WALK_ALPHAS)
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_bundle_is_the_tables_bundle(self, alpha, q):
        order = 96
        table = bundle_from_table(srw_g_table(alpha, q, order))
        closed = srw_closed_form(alpha, q, order)
        assert closed.gammas[0] == table.gammas[0]
        assert closed.g_at_q == table.g_at_q
        assert closed.g1_at_q == table.g1_at_q


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(lambda r: st.tuples(st.integers(0, r - 1), st.just(r))),
       st.integers(2, 7), st.integers(0, 40))
def test_closed_form_equals_table(pr, q, order):
    alpha = Fraction(*pr)
    table = srw_g_table(alpha, q, order)
    tabled = bundle_from_table(table)
    closed = srw_closed_form(alpha, q, order)
    assert closed.gammas[0] == tabled.gammas[0]
    assert closed.g_at_q == tabled.g_at_q
    assert closed.g1_at_q == tabled.g1_at_q
    count = min(order + 1, 4)
    rows = srw_closed_form_rows(alpha, q, order, count)
    assert [row.coefficients for row in rows] == list(rows_of(table)[:count])


class TestFunctionalEquation:
    @pytest.mark.parametrize("alpha,q", [(Fraction(1, 2), 2), (Fraction(0), 3)])
    def test_table_satisfies_identity(self, alpha, q):
        assert check_functional_equation(srw_g_table(alpha, q, 20), alpha)

    def test_closed_form_rows_satisfy_identity(self):
        alpha, q, order = Fraction(1, 2), 2, 20
        rows = srw_closed_form_rows(alpha, q, order, order + 1)
        assert check_functional_equation(table_of(q, [row.coefficients for row in rows]), alpha)

    def test_perturbed_table_rejected(self):
        alpha, q = Fraction(1, 2), 2
        table = srw_g_table(alpha, q, 10)
        rows = [list(row) for row in rows_of(table)]
        rows[2][4] += Fraction(1, 1000)
        assert not check_functional_equation(table_of(q, rows), alpha)


    @pytest.mark.parametrize("alpha,q", [(Fraction(1, 2), 2), (Fraction(0), 3),
                                         (Fraction(2, 9), 4)])
    def test_table_columns_read_as_integers(self, alpha, q):
        table = srw_g_table(alpha, q, 16)
        assert check_functional_equation(table, alpha)
        columns = [list(col) for col in table.columns]
        scales = list(table.scales)
        # Column 5 over 7 S^5 instead of S^5: the scales are no longer powers
        # of one base, and the identity still holds.
        columns[5] = [7 * x for x in columns[5]]
        scales[5] *= 7
        assert check_functional_equation(GTable(q, tuple(map(tuple, columns)), tuple(scales)),
                                         alpha)
        columns[5][3] += 1
        assert not check_functional_equation(
            GTable(q, tuple(map(tuple, columns)), tuple(scales)), alpha)

    @pytest.mark.parametrize("table", [ball_g_table(2, 6), sphere_g_table(3, 6),
                                       srw_g_table(Fraction(1, 3), 2, 6)],
                             ids=["ball", "sphere", "srw"])
    def test_only_the_walk_table_of_its_alpha_passes(self, table):
        for alpha in (Fraction(0), Fraction(1, 3)):
            assert (check_functional_equation(table, alpha)
                    == (table == srw_g_table(alpha, table.q, 6)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda r: st.tuples(st.integers(0, r - 1), st.just(r))),
       st.integers(2, 5), st.integers(1, 12), st.data())
def test_functional_equation_reads_every_entry(pr, q, order, data):
    alpha = Fraction(*pr)
    table = srw_g_table(alpha, q, order)
    closed = srw_closed_form_rows(alpha, q, order, order + 1)
    assert check_functional_equation(table, alpha)
    assert check_functional_equation(table_of(q, [row.coefficients for row in closed]), alpha)
    # The last row C_order enters the identity only as y C_order at x^order,
    # and the rows stop at y^order, so its y^order coefficient enters no
    # residual: no truncated check can see it. Every other entry is read.
    rows = [list(row) for row in rows_of(table)]
    unread = [list(row) for row in rows]
    unread[order][order] += 1
    assert check_functional_equation(table_of(q, unread), alpha)
    ell = data.draw(st.integers(0, order), label="row")
    n = data.draw(st.integers(0, order - 1 if ell == order else order), label="time")
    rows[ell][n] += data.draw(st.fractions(max_denominator=10 ** 6).filter(bool),
                              label="shift")
    assert not check_functional_equation(table_of(q, rows), alpha)


class TestSphereBundle:
    def test_displayed_coefficients(self):
        bundle = sphere_gf(2, 8)
        assert bundle.g_at_q[0] == 1
        assert all(bundle.g_at_q[n] == Fraction(2, 3) for n in range(1, 9))
        assert bundle.g1_at_q[5] == Fraction(5, 3)

    def test_matches_table_route(self):
        for q in (2, 3):
            direct = sphere_gf(q, 8)
            tabled = bundle_from_table(sphere_g_table(q, 8))
            assert direct.g_at_q == tabled.g_at_q
            assert direct.g1_at_q == tabled.g1_at_q
            assert list(direct.gammas) == list(tabled.gammas)


class TestBallBundle:
    def test_point_mass_column(self):
        bundle = ball_gf(2, 6)
        assert bundle.gammas[0][0] == 1
        assert bundle.g_at_q[0] == 1

    def test_g1_coefficient_drifts_to_affine_law(self):
        q = 2
        bundle = ball_gf(q, 40)
        target = lambda n: Fraction(n, q + 1) - Fraction(1, q * q - 1)
        gaps = [abs(bundle.g1_at_q[n] - target(n)) for n in (10, 20, 40)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < Fraction(1, 10 ** 9)


class TestDistanceFromCoefficients:
    def test_adjacent_centers_reduction(self):
        # For d = 1 the weights collapse to (2q-2, (q+1)/q, -1/q).
        q, order = 3, 10
        bundle = bundle_from_table(srw_g_table(Fraction(1, 3), q, order))
        geom = PairGeometry(q, 1)
        for n in range(order + 1):
            expected = ((2 * q - 2) * bundle.g1_at_q[n]
                        + Fraction(q + 1, q) * bundle.g_at_q[n]
                        - Fraction(1, q) * bundle.gammas[0][n])
            assert w1_via_genfun(bundle, geom, n) == expected

    def test_sphere_value_matches_exact_affine_law(self):
        q, d, n = 3, 2, 4
        bundle = sphere_gf(q, 6)
        geom = PairGeometry(q, d)
        expected = 2 * Fraction(q - 1, q) * n + 2 * Fraction(q * q + 1, q * (q + 1))
        assert w1_via_genfun(bundle, geom, n) == expected

    def test_matches_tree_route(self):
        alpha, q, d, n = Fraction(1, 3), 2, 3, 6
        table = srw_g_table(alpha, q, n)
        bundle = bundle_from_table(table)
        geom = PairGeometry(q, d)
        tt = build_truncated_tree(q, d, n + d)
        profile = table.column_profile(n)
        mu = radial_measure(tt, tt.x, profile)
        nu = radial_measure(tt, tt.y, profile)
        assert w1_via_genfun(bundle, geom, n) == w1_tree(tt.tree, mu, nu)

    def test_agrees_with_class_sums_across_grid(self):
        rng = rng_for(7)
        for q in (2, 3):
            for family, make in (("srw", lambda q, N: srw_g_table(Fraction(1, 4), q, N)),
                                 ("sphere", sphere_g_table),
                                 ("ball", ball_g_table)):
                table = make(q, 8)
                bundle = bundle_from_table(table)
                for d in (1, 2, 3, 4):
                    geom = PairGeometry(q, d)
                    n = rng.randint(0, 8)
                    assert (w1_via_genfun(bundle, geom, n)
                            == w1_radial_formula(table.column_profile(n), geom)), (family, q, d, n)

    def test_order_exceeded(self):
        bundle = sphere_gf(2, 4)
        with pytest.raises(OrderExceeded):
            w1_via_genfun(bundle, PairGeometry(2, 1), 5)

    def test_branching_mismatch_rejected(self):
        from treeot.errors import InvalidParams
        bundle = sphere_gf(2, 4)
        with pytest.raises(InvalidParams):
            w1_via_genfun(bundle, PairGeometry(3, 1), 2)

    def test_closed_form_bundle_lacks_rows_for_wide_geometry(self):
        from treeot.errors import InvalidParams
        bundle = srw_closed_form(Fraction(1, 2), 2, 8)
        with pytest.raises(InvalidParams):
            w1_via_genfun(bundle, PairGeometry(2, 4), 3)


class TestGammaSmallness:
    def test_walk_rows_shrink(self):
        bundle = bundle_from_table(srw_g_table(Fraction(1, 5), 2, 40))
        for i in range(3):
            tail = [abs(bundle.gammas[i][n]) for n in (20, 30, 40)]
            assert tail[0] > tail[1] > tail[2]

    def test_sphere_rows_vanish(self):
        bundle = sphere_gf(2, 10)
        for i in range(4):
            assert all(bundle.gammas[i][n] == 0 for n in range(i + 1, 11))

    def test_ball_rows_bounded_by_level_mass(self):
        q = 3
        table = ball_g_table(q, 12)
        bundle = bundle_from_table(table)
        for i in range(3):
            for n in range(i, 13):
                assert bundle.gammas[i][n] <= rows_of(table)[0][n]


def test_profile_reads_the_last_recurrence_column(monkeypatch):
    import treeot.families as families
    expected = {(alpha, q, n): srw_g_table(alpha, q, n).column_profile(n)
                for alpha in (Fraction(0), Fraction(2, 7)) for q in (2, 5) for n in (0, 1, 6)}

    def no_table(*args):
        raise AssertionError("srw_profile built the whole table")

    monkeypatch.setattr(families, "srw_g_table", no_table)
    for (alpha, q, n), profile in expected.items():
        assert srw_profile(alpha, q, n) == profile
        assert srw_profile(alpha, q, n).values == profile.values


def test_profile_column_total_is_one():
    profile = srw_profile(Fraction(1, 2), 2, 5)
    tt = build_truncated_tree(2, 1, 5)
    assert radial_measure(tt, tt.x, profile).total() == 1
