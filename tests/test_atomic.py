import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunnelqs import (
    BarrierSuppressionError,
    barrier_geometry,
    delay_set,
    keldysh_gamma,
    make_system,
    photon_absorption_delay,
)
from tunnelqs.atomic import AtomicSystem
from tunnelqs.superluminal import critical_fields, q_imed_b, q_nad
from tunnelqs.constants import au_time_as, c_au

# subatomic-field fraction F/F_a; the upper end touches barrier suppression
frac_st = st.floats(min_value=1e-6, max_value=1.0)
z_st = st.floats(min_value=1.0, max_value=100.0)


class TestSystem:
    def test_defaults(self):
        s = make_system(18.0)
        assert s.Zeff == 18.0
        assert s.Ip == pytest.approx(162.0)
        assert not s.relativistic

    def test_f_atomic(self):
        s = make_system(1.0)
        assert s.f_atomic == pytest.approx(0.0625, rel=1e-15)
        assert s.tau_atomic == pytest.approx(1.0, rel=1e-15)

    def test_f_crit(self):
        s = make_system(50.0, relativistic=True)
        assert s.f_crit == (c_au / 16.0) ** 2 * 50.0
        assert s.f_crit == critical_fields(s).f_crit
        # q_nad = (c/16) sqrt(Zeff/F) crosses 1 there
        assert q_nad(make_system(40.0), make_system(40.0).f_crit) == pytest.approx(1.0, rel=1e-12)
        zeff = np.array([1.0, 35.0, 136.0])
        arr = make_system(zeff).f_crit
        assert arr.tolist() == [make_system(z).f_crit for z in zeff]

    def test_relativistic_ip(self):
        s = make_system(50.0, relativistic=True)
        assert s.Ip == pytest.approx(1294.6261491881955, rel=1e-12)
        # Dirac level sits above Z^2/2
        assert s.Ip > 1250.0

    def test_relativistic_ip_squares_by_multiplication(self):
        # pow(Z/c, 2) is off by one ulp at this Z, and the error reached Ip
        z = 99.41704080530177
        x = z / c_au
        expect = c_au**2 * (1.0 - math.sqrt(1.0 - x * x))
        assert make_system(z, relativistic=True).Ip == expect
        assert make_system(np.array([z]), relativistic=True).Ip.tolist() == [expect]

    def test_relativistic_small_z_limit(self):
        s = make_system(1.0, relativistic=True)
        assert s.Ip == pytest.approx(0.5, rel=1e-4)

    def test_explicit_ip(self):
        s = make_system(1.0, Ip=0.579)  # SAE neon-like
        assert s.Ip == 0.579

    def test_validation(self):
        with pytest.raises(ValueError):
            make_system(0.0)
        with pytest.raises(ValueError):
            make_system(1.0, Zeff=-2.0)
        with pytest.raises(ValueError):
            make_system(1.0, Ip=0.0)
        with pytest.raises(ValueError):
            make_system(140.0, relativistic=True)

    @pytest.mark.parametrize("kwargs,message", [
        ({"Z": 1e308}, "Z = 1e+308 is too large"),
        ({"Z": np.array([1.0, 1e120])}, "Z = 1e+120, Zeff = 1e+120, Ip = 5e+239"),
        ({"Z": 1.0, "Zeff": 1e-320}, "Z = 1.0, Zeff = 1e-320, Ip = 0.5"),
        ({"Z": 1.0, "Ip": math.inf}, "Ip must be finite, got inf"),
        ({"Z": 1.0, "Zeff": np.array([1.0, 2.0]), "Ip": np.array([0.5, 1e160])},
         "Z = 1.0, Zeff = 2.0, Ip = 1e+160"),
    ])
    def test_overflowing_ip_or_f_atomic_rejected(self, kwargs, message):
        # F_a = Ip^2/(4 Zeff) used to come back inf, or Ip itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message.replace("+", r"\+")):
                make_system(**kwargs)

    def test_largest_finite_charges_accepted(self):
        z = np.array([1.0, 1e76])          # F_a = Z^3/16, still finite
        assert np.isfinite(make_system(z).f_atomic).all()

    def test_underflowing_f_atomic_rejected(self):
        # Ip^2 underflows: F_a was 0, and every field was then refused as
        # "field strength must be positive, got 0.0"
        with pytest.raises(ValueError, match=r"^Z = 1e-100, Zeff = 1e-100, Ip = 5e-201: the "
                           r"barrier-suppression field F_a = Ip\^2/\(4 Zeff\) underflows to 0$"):
            make_system(np.array([1.0, 1e-100]))


class TestGeometry:
    def test_frozen_point(self):
        # Z=1, F=0.05 sits exactly at F = 0.8 F_a where d_b meets x_top
        s = make_system(1.0)
        g = barrier_geometry(s, 0.05)
        assert g.delta_z == pytest.approx(0.22360679774997894, rel=1e-14)
        assert g.x_entry == pytest.approx(2.7639320225002106, rel=1e-14)
        assert g.x_exit == pytest.approx(7.236067977499789, rel=1e-14)
        assert g.x_top == pytest.approx(4.472135954999579, rel=1e-14)
        assert g.d_b == pytest.approx(g.x_top, rel=1e-14)
        assert g.d_c == pytest.approx(10.0, rel=1e-14)

    def test_barrier_suppression_limit(self):
        s = make_system(1.0)
        g = barrier_geometry(s, s.f_atomic)
        assert g.delta_z == 0.0
        assert g.x_entry == pytest.approx(g.x_exit, rel=1e-12)
        assert g.d_b == 0.0

    def test_over_barrier_raises(self):
        s = make_system(50.0, relativistic=True)
        with pytest.raises(BarrierSuppressionError) as exc:
            barrier_geometry(s, 9000.0)
        assert exc.value.f == 9000.0
        assert exc.value.f_atomic == pytest.approx(8380.28, rel=1e-4)
        assert "8380.28" in str(exc.value)

    def test_nonpositive_field(self):
        s = make_system(1.0)
        with pytest.raises(ValueError):
            barrier_geometry(s, 0.0)
        with pytest.raises(ValueError):
            barrier_geometry(s, -0.1)

    def test_subnormal_field_rejected(self):
        # Zeff/F overflows at F = 1e-310: x_top was inf and q_nad came out
        # 0, a superluminal verdict where (c/16) sqrt(Zeff/F) is huge
        s = make_system(1.0)
        with pytest.raises(ValueError, match="too small .* got 1e-310"):
            barrier_geometry(s, 1e-310)
        with pytest.raises(ValueError, match="got 1e-310"):
            q_nad(s, 1e-310)
        with pytest.raises(ValueError, match="got 1e-310"):
            q_imed_b(s, 1e-310, 0.5, thick=True)
        # an array names its first bad entry
        with pytest.raises(ValueError, match="got 1e-310"):
            barrier_geometry(s, np.array([0.01, 1e-310, 1e-320]))
        # the smallest fields that still have finite quotients pass
        assert barrier_geometry(s, 1e-300 * s.f_atomic).x_top > 1e150

    @pytest.mark.parametrize("zeff,f", [(1e-300, 1e-300), (1e-200, 1e-100)])
    def test_underflowing_zeff_f_rejected(self, zeff, f):
        # 8 Zeff F or 8 Zeff F x_top underflowed: the delays or Q_Nad were inf
        s = make_system(1.0, Zeff=zeff)
        message = rf"^Zeff = {zeff}, F = {f}: Ip/\(Zeff F\) or c Ip/\(Zeff F x_top\) is not finite$"
        for call in (barrier_geometry, delay_set, q_nad):
            with pytest.raises(ValueError, match=message):
                call(s, f)
        with pytest.raises(ValueError, match=message):
            q_imed_b(s, f, 0.0, thick=True)

    @given(z=z_st, frac=frac_st)
    @settings(max_examples=200)
    def test_consistency(self, z, frac):
        s = make_system(z)
        g = barrier_geometry(s, frac * s.f_atomic)
        # ordering up to a couple of ulps (all three coincide at F = F_a)
        tol = 4e-16 * g.x_exit
        assert 0.0 <= g.x_entry <= g.x_top + tol
        assert g.x_top <= g.x_exit + tol
        # d_b = x_exit - x_entry, checked in sum form to dodge cancellation
        assert g.x_entry + g.d_b == pytest.approx(g.x_exit, rel=1e-12)
        assert g.x_entry + g.x_exit == pytest.approx(g.d_c, rel=1e-12)
        # x_top is the geometric mean of the turning points
        assert g.x_top * g.x_top == pytest.approx(g.x_entry * g.x_exit,
                                                  rel=1e-12)


class TestDelays:
    def test_argon_one_au(self):
        s = make_system(18.0)
        d = delay_set(s, 1.0)
        assert d.tau_db == pytest.approx(1.1234557302260635, rel=1e-13)
        assert d.tau_db_as == pytest.approx(27.175094574567172, rel=1e-13)
        assert d.tau_a == pytest.approx(0.0030864197530864196, rel=1e-14)

    def test_argon_strong_field(self):
        s = make_system(18.0)
        d = delay_set(s, 50.0 / math.sqrt(2.0))
        assert d.tau_dion == pytest.approx(0.031819805153394644, rel=1e-13)
        assert d.tau_dion_as == pytest.approx(0.7696842796055718, rel=1e-13)

    def test_hydrogen_at_suppression(self):
        # F = F_a: the barrier vanishes and all dwell-type delays collapse
        # onto the atomic time
        s = make_system(1.0)
        d = delay_set(s, 0.0625)
        assert d.tau_ad == pytest.approx(1.0, rel=1e-12)
        assert d.tau_dion == pytest.approx(1.0, rel=1e-12)
        assert d.tau_ti == pytest.approx(1.0, rel=1e-12)
        assert d.tau_db == pytest.approx(0.0, abs=1e-12)
        assert d.tau_ad_as == pytest.approx(au_time_as, rel=1e-12)

    @given(z=z_st, frac=frac_st)
    @example(z=81.41952318440543, frac=1.0)  # Ip^2 - 4 z F rounds below 0
    @settings(max_examples=300)
    def test_identities(self, z, frac):
        s = make_system(z)
        f = frac * s.f_atomic
        d = delay_set(s, f)
        assert d.tau_ad == pytest.approx(d.tau_dion + d.tau_db, rel=1e-11)
        assert d.tau_ti * d.tau_ad == pytest.approx(1.0 / (16.0 * z * f),
                                                    rel=1e-11)
        assert d.tau_backr == pytest.approx(d.tau_ti, rel=1e-12)
        # two algebraic forms of the ionization time; at F = F_a the
        # barrier is closed at the top (delta = 0), as in barrier_geometry
        delta = math.sqrt(max(s.Ip * s.Ip - 4.0 * z * f, 0.0))
        assert d.tau_ti == pytest.approx(0.5 / (s.Ip + delta), rel=1e-11)

    @given(z=z_st, frac=frac_st)
    @settings(max_examples=200)
    def test_ranges(self, z, frac):
        s = make_system(z)
        d = delay_set(s, frac * s.f_atomic)
        # tau_ti lives in [tau_a/2, tau_a]; the others are positive and
        # ordered as tau_db, tau_dion < tau_ad
        assert 0.5 * s.tau_atomic <= d.tau_ti <= s.tau_atomic * (1 + 1e-12)
        assert d.tau_db >= 0.0
        assert d.tau_dion > 0.0
        assert d.tau_ad >= d.tau_dion

    @given(z=z_st, frac=st.floats(min_value=1e-8, max_value=0.01))
    @settings(max_examples=200)
    def test_thick_barrier_split(self, z, frac):
        # deep in the thick-barrier regime the Coulomb dwell splits evenly:
        # tau_db tracks tau_dion up to 1 - sqrt(1 - F/F_a)
        s = make_system(z)
        d = delay_set(s, frac * s.f_atomic)
        bound = 1.0 - math.sqrt(1.0 - frac) + 1e-12
        assert abs(d.tau_db - d.tau_dion) / d.tau_dion <= bound

    def test_monotone_in_field(self):
        s = make_system(18.0)
        fields = [0.01 * s.f_atomic, 0.1 * s.f_atomic, 0.5 * s.f_atomic,
                  0.9 * s.f_atomic]
        dsets = [delay_set(s, f) for f in fields]
        for a, b in zip(dsets, dsets[1:]):
            assert b.tau_dion < a.tau_dion
            assert b.tau_db < a.tau_db
            assert b.tau_ti > a.tau_ti


class TestPhotonDelay:
    def test_argon_xuv(self):
        s = make_system(18.0)
        pd = photon_absorption_delay(s, 50.0 / math.sqrt(2.0), omega=3.0)
        assert pd.n_photons == pytest.approx(54.0, rel=1e-14)
        # n tau_1ph telescopes back to the ionization dwell time
        d = delay_set(s, 50.0 / math.sqrt(2.0))
        assert pd.tau_nph == pytest.approx(d.tau_dion, rel=1e-12)

    @given(z=z_st, frac=frac_st,
           omega=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200)
    def test_sum_rule(self, z, frac, omega):
        s = make_system(z)
        f = frac * s.f_atomic
        pd = photon_absorption_delay(s, f, omega)
        assert pd.n_photons * pd.tau_1ph == pytest.approx(pd.tau_nph,
                                                          rel=1e-12)
        assert pd.tau_nph == pytest.approx(delay_set(s, f).tau_dion,
                                           rel=1e-11)

    def test_omega_validation(self):
        s = make_system(1.0)
        with pytest.raises(ValueError):
            photon_absorption_delay(s, 0.05, omega=0.0)

    @pytest.mark.parametrize("f,omega", [(0.05, 1e-320), (1e-300, 1e10)])
    def test_non_finite_photon_count_or_delay_rejected(self, f, omega):
        # n or tau_1ph overflowed, so tau_nph read inf, not tau_dion
        s = make_system(1.0)
        with pytest.raises(ValueError, match=f"omega = {omega} at F = {f} gives a photon"):
            photon_absorption_delay(s, f, omega)

    def test_field_validation(self):
        # Zeff/F overflows at F = 1e-310, which would make tau_nph inf
        s = make_system(1.0)
        with pytest.raises(ValueError, match="field strength must be positive"):
            photon_absorption_delay(s, 0.0, omega=0.05)
        with pytest.raises(ValueError, match="too small .* got 1e-310"):
            photon_absorption_delay(s, 1e-310, omega=0.05)


class TestKeldysh:
    def test_titanium_sapphire(self):
        s = make_system(1.0)
        assert keldysh_gamma(s, 0.05, 0.057) == pytest.approx(1.14, rel=1e-12)

    def test_heavy_ion(self):
        s = make_system(35.0)
        assert keldysh_gamma(s, 100.0, 3.0) == pytest.approx(1.05, rel=1e-12)

    def test_scaling(self):
        s = make_system(2.0)
        g1 = keldysh_gamma(s, 0.1, 0.5)
        assert keldysh_gamma(s, 0.2, 0.5) == pytest.approx(0.5 * g1, rel=1e-12)
        assert keldysh_gamma(s, 0.1, 1.0) == pytest.approx(2.0 * g1, rel=1e-12)

    def test_field_validation(self):
        # Zeff/F overflows at F = 1e-310, where gamma would be inf
        s = make_system(1.0)
        with pytest.raises(ValueError, match="field strength must be positive"):
            keldysh_gamma(s, -0.1, 0.05)
        with pytest.raises(ValueError, match="too small .* got 1e-310"):
            keldysh_gamma(s, 1e-310, 0.05)

    def test_charge_and_field_columns_match_scalar_calls(self):
        # math.sqrt refused a Z column with a TypeError
        z, f, omega = np.array([1.0, 2.0, 18.0]), np.array([0.01, 0.02, 1.0]), 0.1
        gamma = keldysh_gamma(make_system(z), f, omega)
        photon = photon_absorption_delay(make_system(z), f, omega)
        for i in range(len(z)):
            s = make_system(float(z[i]))
            assert gamma[i] == keldysh_gamma(s, float(f[i]), omega)
            scalar = photon_absorption_delay(s, float(f[i]), omega)
            for name in ("n_photons", "tau_1ph", "tau_nph"):
                assert getattr(photon, name)[i] == getattr(scalar, name)

    def test_non_finite_gamma_rejected(self):
        s = make_system(1.0)
        with pytest.raises(ValueError, match=r"omega = 10+\.0 at F = 1e-300 gives a Keldysh"):
            keldysh_gamma(s, 1e-300, 1e10)


def test_direct_dataclass_is_open():
    # power users can bypass make_system for exotic parameter sets
    s = AtomicSystem(Z=1.0, Zeff=0.9, Ip=0.9)
    assert s.f_atomic == pytest.approx(0.81 / 3.6, rel=1e-14)


def test_clight_in_ip():
    # the Dirac level uses the same c as the quotients
    s = make_system(c_au * 0.5, relativistic=True)
    expected = c_au * c_au * (1.0 - math.sqrt(0.75))
    assert s.Ip == pytest.approx(expected, rel=1e-14)
