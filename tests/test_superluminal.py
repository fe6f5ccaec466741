import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelqs import (
    critical_fields,
    delay_set,
    intermediate,
    make_system,
    q_ad,
    q_db,
    q_imed_a,
    q_imed_b,
    q_nad,
    tabulate,
    zeta_qs,
    zeta_threshold_a,
)
from tunnelqs import cli
from tunnelqs.superluminal import d_imed_thick
from tunnelqs.atomic import BarrierSuppressionError, barrier_geometry
from tunnelqs.constants import c_au

frac_st = st.floats(min_value=1e-6, max_value=1.0)
zeta_st = st.floats(min_value=0.0, max_value=1.0)


class TestFieldFreeQuotients:
    def test_db_values(self):
        assert q_db(make_system(18.0)) == pytest.approx(0.9516388825277777,
                                                        rel=1e-14)
        assert q_db(make_system(17.0)) == pytest.approx(1.0076176403235293,
                                                        rel=1e-14)

    def test_db_boundary(self):
        # c/8 = 17.1295
        assert q_db(make_system(c_au / 8.0)) == pytest.approx(1.0, rel=1e-15)
        assert c_au / 8.0 == pytest.approx(17.1294998855, abs=1e-9)

    def test_ad_values(self):
        assert q_ad(make_system(35.0)) == pytest.approx(0.9788285648857142,
                                                        rel=1e-14)
        assert q_ad(make_system(34.0)) == pytest.approx(1.0076176403235293,
                                                        rel=1e-14)
        assert q_ad(make_system(c_au / 4.0)) == pytest.approx(1.0, rel=1e-15)

    def test_ad_is_twice_db(self):
        s = make_system(7.0)
        assert q_ad(s) == pytest.approx(2.0 * q_db(s), rel=1e-15)

    def test_independent_of_field_and_ip(self):
        # field-free quotients depend on Zeff alone
        a = make_system(50.0)
        b = make_system(50.0, relativistic=True)
        assert q_db(a) == q_db(b)
        assert q_ad(a) == q_ad(b)


class TestNonAdiabatic:
    def test_crosses_one_at_f_crit(self):
        s = make_system(50.0)
        f_c = (c_au / 16.0) ** 2 * s.Zeff
        assert q_nad(s, f_c) == pytest.approx(1.0, rel=1e-13)

    def test_decreases_with_field(self):
        s = make_system(35.0)
        assert q_nad(s, 10.0) > q_nad(s, 100.0) > q_nad(s, 1000.0)

    @given(frac=frac_st)
    @settings(max_examples=100)
    def test_matches_delay_over_light_time(self, frac):
        s = make_system(40.0)
        f = frac * s.f_atomic
        d = delay_set(s, f)
        g = barrier_geometry(s, f)
        assert q_nad(s, f) == pytest.approx(d.tau_dion / (g.x_top / c_au),
                                            rel=1e-12)


class TestIntermediate:
    def test_endpoints(self):
        s = make_system(18.0)
        f = 30.0
        d = delay_set(s, f)
        g = barrier_geometry(s, f)
        lo = intermediate(s, f, 0.0)
        hi = intermediate(s, f, 1.0)
        assert lo.tau_imed == pytest.approx(d.tau_dion, rel=1e-12)
        assert lo.d_imed == pytest.approx(g.x_top, rel=1e-12)
        assert hi.tau_imed == pytest.approx(d.tau_ad, rel=1e-12)
        assert hi.d_imed == pytest.approx(g.d_b, rel=1e-12)

    def test_frozen_midpoint(self):
        s = make_system(1.0)
        st_mid = intermediate(s, 0.03, 0.5)
        assert st_mid.d_imed == pytest.approx(8.896003471721446, rel=1e-13)

    @given(zeta=zeta_st)
    @settings(max_examples=100)
    def test_linear_interpolation(self, zeta):
        s = make_system(10.0)
        f = 0.4 * s.f_atomic
        g = barrier_geometry(s, f)
        pt = intermediate(s, f, zeta)
        assert pt.d_imed == pytest.approx(
            (1.0 - zeta) * g.x_top + zeta * g.d_b, rel=1e-12)

    def test_band_inversion_threshold(self):
        # d_b drops below x_top once F exceeds 0.8 F_a
        s = make_system(12.0)
        assert not intermediate(s, 0.799 * s.f_atomic, 0.5).band_inverted
        assert intermediate(s, 0.801 * s.f_atomic, 0.5).band_inverted

    def test_zeta_domain(self):
        s = make_system(1.0)
        with pytest.raises(ValueError):
            intermediate(s, 0.01, -0.1)
        with pytest.raises(ValueError):
            intermediate(s, 0.01, 1.0001)


class TestIntermediateQuotientA:
    def test_reduces_to_db(self):
        s = make_system(23.0)
        assert q_imed_a(s, 0.0) == pytest.approx(q_db(s), rel=1e-15)

    def test_reduces_to_ad(self):
        s = make_system(23.0)
        assert q_imed_a(s, 1.0) == pytest.approx(q_ad(s), rel=1e-15)

    def test_threshold_value(self):
        zi = zeta_threshold_a(make_system(20.0))
        assert zi == pytest.approx(0.1675764110854081, rel=1e-13)
        assert q_imed_a(make_system(20.0), zi) == pytest.approx(1.0, rel=1e-14)

    def test_threshold_absent(self):
        # below c/8 even zeta = 1 stays superluminal; above c/4 never
        assert zeta_threshold_a(make_system(10.0)) is None
        assert zeta_threshold_a(make_system(50.0)) is None


class TestIntermediateQuotientB:
    def test_reduces_to_nad(self):
        s = make_system(40.0)
        f = 0.3 * s.f_atomic
        assert q_imed_b(s, f, 0.0) == pytest.approx(q_nad(s, f), rel=1e-12)

    def test_zeta_one_form(self):
        s = make_system(40.0)
        f = 0.3 * s.f_atomic
        g = barrier_geometry(s, f)
        expected = c_au * (s.Ip + g.delta_z) / (8.0 * s.Zeff * g.delta_z)
        assert q_imed_b(s, f, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_point_is_infinite(self):
        # zeta = 1 at F = F_a: no barrier, zero distance, infinite quotient
        s = make_system(40.0)
        assert math.isinf(q_imed_b(s, s.f_atomic, 1.0))

    def test_thick_zeta_one(self):
        s = make_system(40.0)
        assert q_imed_b(s, 123.0, 1.0, thick=True) == pytest.approx(
            c_au / (4.0 * s.Zeff), rel=1e-15)

    def test_thick_survives_over_barrier(self):
        s = make_system(40.0)
        assert q_imed_b(s, 2.0 * s.f_atomic, 0.5, thick=True) > 0.0
        with pytest.raises(BarrierSuppressionError):
            q_imed_b(s, 2.0 * s.f_atomic, 0.5)

    @given(frac=st.floats(min_value=1e-6, max_value=3.0), zeta=zeta_st)
    @settings(max_examples=100)
    def test_thick_distance_is_the_scalar_formula(self, frac, zeta):
        # (1 - zeta) sqrt(Zeff/F) + zeta Ip/F, also beyond F_a
        s = make_system(40.0, relativistic=True)
        f = frac * s.f_atomic
        assert d_imed_thick(s, f, zeta) == (
            (1.0 - zeta) * math.sqrt(s.Zeff / f) + zeta * s.Ip / f)

    def test_thick_distance_domain(self):
        s = make_system(40.0)
        with pytest.raises(ValueError, match="too small .* got 1e-310"):
            d_imed_thick(s, 1e-310, 0.5)
        with pytest.raises(ValueError, match="zeta must lie in"):
            d_imed_thick(s, 1.0, 1.5)

    @given(frac=st.floats(min_value=1e-6, max_value=0.01), zeta=zeta_st)
    @settings(max_examples=100)
    def test_thick_approximates_exact_weak_field(self, frac, zeta):
        s = make_system(60.0)
        f = frac * s.f_atomic
        exact = q_imed_b(s, f, zeta)
        thick = q_imed_b(s, f, zeta, thick=True)
        assert thick == pytest.approx(exact, rel=0.05)


class TestZetaQs:
    def test_small_f_values(self):
        assert zeta_qs(make_system(35.0), mode="smallF").zeta == pytest.approx(
            0.9585350032594354, rel=1e-13)
        assert zeta_qs(make_system(50.0), mode="smallF").zeta == pytest.approx(
            0.5211207564786563, rel=1e-13)
        assert zeta_qs(make_system(100.0), mode="smallF").zeta == pytest.approx(
            0.20670202136867302, rel=1e-13)

    def test_small_f_absent(self):
        # 8 Zeff <= c: denominator closes the band
        assert zeta_qs(make_system(17.0), mode="smallF") is None
        assert zeta_qs(make_system(10.0), mode="smallF") is None
        # c/8 < Zeff < c/4: the root c/(8 Zeff - c) exceeds 1
        assert zeta_qs(make_system(20.0), mode="smallF") is None

    def test_small_f_limit_equation(self):
        # the F -> 0 quotient is c (1 + zeta)/(8 Zeff zeta); its root
        # balances the two sides exactly
        s = make_system(40.0)
        z = zeta_qs(s, mode="smallF").zeta
        assert c_au * (1.0 + z) == pytest.approx(8.0 * s.Zeff * z, rel=1e-13)

    def test_suppression_field_value(self):
        # at F = F_a the root is 1 - c/(4 Zeff), independent of Ip
        nonrel = make_system(50.0)
        rel = make_system(50.0, relativistic=True)
        r1 = zeta_qs(nonrel, nonrel.f_atomic)
        r2 = zeta_qs(rel, rel.f_atomic)
        expected = 1.0 - c_au / 200.0
        assert r1.zeta == pytest.approx(expected, rel=1e-10)
        assert r2.zeta == pytest.approx(expected, rel=1e-10)
        assert r1.zeta == pytest.approx(0.31482000458, abs=1e-9)

    def test_exact_no_root(self):
        # argon at 1 au: every zeta stays subluminal in time (Q > 1)
        assert zeta_qs(make_system(18.0), 1.0) is None

    def test_exact_root_bracketed(self):
        s = make_system(50.0)
        root = zeta_qs(s, 6000.0)
        assert root is not None
        assert 0.0 < root.zeta < 1.0
        assert root.residual <= 1e-9
        assert q_imed_b(s, 6000.0, root.zeta) == pytest.approx(1.0, abs=2e-9)

    def test_thick_monotone_in_z(self):
        roots = [zeta_qs(make_system(z), 1.0, mode="thick").zeta
                 for z in (35.0, 50.0, 100.0)]
        assert roots[0] > roots[1] > roots[2]

    def test_thick_tracks_small_f(self):
        s = make_system(50.0)
        small = zeta_qs(s, mode="smallF").zeta
        far = abs(zeta_qs(s, 1.0, mode="thick").zeta - small)
        near = abs(zeta_qs(s, 1e-4, mode="thick").zeta - small)
        assert near < far
        assert zeta_qs(s, 1e-4, mode="thick").zeta == pytest.approx(small,
                                                                    rel=1e-3)

    @given(z=st.floats(min_value=20.0, max_value=100.0), frac=frac_st)
    @settings(max_examples=150)
    def test_certified_when_found(self, z, frac):
        s = make_system(z)
        root = zeta_qs(s, frac * s.f_atomic)
        if root is not None:
            assert 0.0 <= root.zeta <= 1.0
            assert root.residual <= 1e-9

    @given(log_z=st.floats(min_value=0.0, max_value=math.log(136.0)),
           rel=st.booleans(), thick=st.booleans(),
           frac=st.floats(min_value=1e-300, max_value=1.0))
    @settings(max_examples=500)
    def test_root_exactly_at_sign_change(self, log_z, rel, thick, frac):
        # Z log-uniform in [1, 136]; F in (0, F_a] exact, (0, 3 F_a] thick
        s = make_system(math.exp(log_z), relativistic=rel)
        f = frac * s.f_atomic * (3.0 if thick else 1.0)
        q0 = q_imed_b(s, f, 0.0, thick=thick) - 1.0
        q1 = q_imed_b(s, f, 1.0, thick=thick) - 1.0
        sign_change = q0 < 0.0 < q1 or q1 < 0.0 < q0
        root = zeta_qs(s, f, mode="thick" if thick else "exact")
        # a sign change means a root, so None only where Q - 1 keeps its sign
        if sign_change:
            assert root is not None
            assert root.residual <= 1e-9

    def test_mode_validation(self):
        s = make_system(50.0)
        with pytest.raises(ValueError):
            zeta_qs(s, 1.0, mode="adiabatic")
        with pytest.raises(ValueError):
            zeta_qs(s, mode="exact")  # needs a field


class TestCriticalFields:
    def test_z50_relativistic(self):
        cf = critical_fields(make_system(50.0, relativistic=True))
        assert cf.f_atomic == pytest.approx(8380.28433080928, rel=1e-12)
        assert cf.f_crit == pytest.approx(3667.7470790918064, rel=1e-12)
        assert cf.f_zeta1 == pytest.approx(6104.476973049491, rel=1e-10)
        assert cf.window_nonempty

    def test_z50_nonrelativistic(self):
        cf = critical_fields(make_system(50.0))
        assert cf.f_atomic == pytest.approx(7812.5, rel=1e-14)
        assert cf.f_zeta1 == pytest.approx(5690.88404, rel=1e-7)

    @pytest.mark.parametrize("z", [35.0, 50.0, 80.0])
    def test_zeta1_closed_form_oracle(self, z):
        # at the zeta = 1 crossing, delta_z = c Ip/(8 Zeff - c); invert
        # the barrier relation for the field it implies
        s = make_system(z, relativistic=True)
        cf = critical_fields(s)
        delta = c_au * s.Ip / (8.0 * s.Zeff - c_au)
        f_oracle = (s.Ip * s.Ip - delta * delta) / (4.0 * s.Zeff)
        assert cf.f_zeta1 == pytest.approx(f_oracle, rel=1e-10)

    def test_z35_relativistic(self):
        cf = critical_fields(make_system(35.0, relativistic=True))
        assert cf.f_zeta1 == pytest.approx(225.0204063301486, rel=1e-9)

    def test_window_empty_light_atoms(self):
        for z in (1.0, 15.0, 30.0):
            cf = critical_fields(make_system(z))
            assert not cf.window_nonempty
            assert cf.f_crit > cf.f_atomic

    def test_window_condition(self):
        # nonrelativistic window opens exactly above Z = c/4
        assert not critical_fields(make_system(c_au / 4.0 - 0.01)).window_nonempty
        assert critical_fields(make_system(c_au / 4.0 + 0.01)).window_nonempty

    def test_zeta1_crossing_certified(self):
        s = make_system(50.0, relativistic=True)
        cf = critical_fields(s)
        assert q_imed_b(s, cf.f_zeta1, 1.0) == pytest.approx(1.0, abs=1e-11)


class TestReport:
    """Quotients and light times at one point, as ``scan.tabulate`` gives
    them (and ``delays`` prints them)."""

    def test_argon(self):
        s = make_system(18.0)
        row = tabulate(s, 1.0)[0]
        assert row["q_db"] < 1.0
        assert row["q_ad"] > 1.0  # q_ad = 2 q_db > 1 for Z = 18
        assert row["q_nad"] > 1.0
        assert row["q_db"] == pytest.approx(0.9516388825277777, rel=1e-13)
        g = barrier_geometry(s, 1.0)
        assert row["tau_c_db"] == pytest.approx(g.d_b / c_au, rel=1e-15)
        assert row["tau_c_nad"] == pytest.approx(g.x_top / c_au, rel=1e-15)

    def test_flags_match_quotients(self, capsys):
        argv = ["delays", "--Z", "50", "--F", "6000", "--zeta", "0.4", "--format", "json"]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        q = payload["quotients"]
        assert payload["superluminal"] == {
            "db": q["q_db"] < 1.0, "ad": q["q_ad"] < 1.0,
            "nad": q["q_nad"] < 1.0, "imed": q["q_imed_b"] < 1.0}
        row = tabulate(make_system(50.0), 6000.0, 0.4)[0]
        assert q == {k: row[k] for k in q}

    def test_light_time_consistency(self):
        s = make_system(35.0)
        row = tabulate(s, 100.0, 0.3)[0]
        d = delay_set(s, 100.0)
        imed = intermediate(s, 100.0, 0.3)
        assert row["q_imed_b"] == pytest.approx(imed.tau_imed / row["tau_c_imed"],
                                                rel=1e-12)
        assert row["q_nad"] == pytest.approx(d.tau_dion / row["tau_c_nad"],
                                             rel=1e-12)
