import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from tunnelqs.atomic import AtomicSystem
from tunnelqs.constants import au_time_as
from tunnelqs.spectra import (
    MULTIMODAL_RATIO,
    AngularDistribution,
    MomentumDistribution,
    bound_states,
    continuum_waves,
    coulomb_phase,
    default_phi_grid,
    momentum_distribution,
    offset_angle_and_delay,
    project_scattering_states,
    radial_integrate,
    remove_bound,
    wrap_angle,
)
from tunnelqs.tdse import (
    PulseParams,
    RadialGrid,
    build_ground_state,
    channel_index,
)


class TestAngles:
    def test_wrap_range(self):
        assert wrap_angle(0.3) == pytest.approx(0.3)
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    @given(x=st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200)
    def test_wrap_periodic(self, x):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi + 1e-12
        assert wrap_angle(x + 2.0 * math.pi) == pytest.approx(w, abs=1e-9)

    def test_phi_grid(self):
        phi = default_phi_grid()
        assert len(phi) == 720
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(2.0 * math.pi * 719.0 / 720.0)
        with pytest.raises(ValueError):
            default_phi_grid(4)


class TestCoulombPhase:
    def test_neutral_limit(self):
        assert coulomb_phase(0, 0.0) == 0.0
        assert coulomb_phase(5, 0.0) == 0.0

    @given(eta=st.floats(min_value=-5.0, max_value=5.0),
           l=st.integers(min_value=0, max_value=10))
    @settings(max_examples=200)
    def test_gamma_recurrence(self, eta, l):
        # Gamma(z + 1) = z Gamma(z) adds atan2(eta, l+1) to the argument
        step = coulomb_phase(l + 1, eta) - coulomb_phase(l, eta)
        assert step == pytest.approx(math.atan2(eta, l + 1), abs=1e-12)

    def test_antisymmetric_in_eta(self):
        assert coulomb_phase(2, 1.3) == pytest.approx(-coulomb_phase(2, -1.3),
                                                      rel=1e-14)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(dr=0.1, r_max=60.0)


class TestContinuumWaves:
    def test_validation(self, grid):
        with pytest.raises(ValueError):
            continuum_waves(1.0, grid, 0, np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            continuum_waves(1.0, grid, 0, np.array([[0.5]]))
        with pytest.raises(ValueError):
            continuum_waves(1.0, grid, 0, np.array([]))

    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_free_waves_are_bessel(self, grid, l):
        p = np.array([0.3, 0.8, 1.5])
        u = continuum_waves(0.0, grid, l, p)
        r = grid.radii()
        for i, pi in enumerate(p):
            exact = math.sqrt(2.0 / (math.pi * pi)) * pi * r \
                * spherical_jn(l, pi * r)
            scale = math.sqrt(2.0 / (math.pi * pi))
            assert float(np.max(np.abs(u[i] - exact))) < 5e-3 * scale

    @pytest.mark.parametrize("l,p_val", [(0, 0.4), (0, 1.0), (0, 2.0),
                                         (1, 0.7), (3, 1.2)])
    def test_coulomb_waves_against_mpmath(self, grid, l, p_val):
        mpmath = pytest.importorskip("mpmath")
        p = np.array([p_val])
        u = continuum_waves(1.0, grid, l, p)[0]
        eta = -1.0 / p_val
        r = grid.radii()
        idx = np.arange(40, len(r), 37)  # sample across the box
        scale = math.sqrt(2.0 / (math.pi * p_val))
        for j in idx:
            exact = scale * float(mpmath.coulombf(l, eta, p_val * r[j]))
            assert abs(u[j] - exact) < 8e-3 * scale

    def test_wkb_amplitude(self, grid):
        p = np.array([0.6])
        u = continuum_waves(1.0, grid, 2, p)[0]
        r = grid.radii()
        j = 500  # r = 50.1, inside the normalization window
        k = math.sqrt(p[0] ** 2 + 2.0 / r[j] - 6.0 / r[j] ** 2)
        du = (u[j + 1] - u[j - 1]) / (2.0 * grid.dr)
        amp = math.sqrt(u[j] ** 2 + (du / k) ** 2)
        assert amp == pytest.approx(math.sqrt(2.0 / (math.pi * k)), rel=2e-2)

    def test_forbidden_window_returns_zero(self, grid):
        # l = 30 at p = 0.05: the normalization window is classically
        # forbidden, so the wave is declared absent rather than garbage
        u = continuum_waves(1.0, grid, 30, np.array([0.05]))
        assert float(np.abs(u).max()) == 0.0


class TestBoundStates:
    def test_hydrogen_levels(self, grid):
        basis = bound_states(1.0, grid, 0)
        assert basis.shape == (6, 600)  # this box supports six s levels

    def test_orthonormal(self, grid):
        basis = bound_states(1.0, grid, 1)
        overlap = basis @ basis.T * grid.dr
        np.testing.assert_allclose(overlap, np.eye(len(basis)), atol=1e-10)

    def test_free_box_has_no_bound_states(self, grid):
        assert bound_states(0.0, grid, 0).shape[0] == 0

    def test_matches_propagation_ground_state(self, grid):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        state, _ = build_ground_state(s, grid, l_max=0)
        u0 = np.real(state.channel(0, 0))
        basis = bound_states(1.0, grid, 0)
        overlap = abs(float(basis[0] @ u0) * grid.dr)
        assert overlap == pytest.approx(1.0, rel=1e-12)


class TestRemoveBound:
    def test_ground_state_fully_removed(self):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        cleaned, removed = remove_bound(state, 1.0)
        assert removed == pytest.approx(1.0, rel=1e-10)
        assert cleaned.norm() < 1e-8

    def test_idempotent(self, smoke_run, hydrogen):
        once, removed1 = remove_bound(smoke_run.state, hydrogen.Zeff)
        twice, removed2 = remove_bound(once, hydrogen.Zeff)
        assert removed2 < 1e-20
        np.testing.assert_allclose(twice.psi, once.psi, atol=1e-14)

    def test_smoke_bound_fraction(self, smoke_run, hydrogen):
        _, removed = remove_bound(smoke_run.state, hydrogen.Zeff)
        assert 0.8 < removed < 0.95


class TestProjection:
    def test_field_free_amplitudes_vanish(self):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        amps = project_scattering_states(state, s, np.linspace(0.1, 2.0, 50))
        assert float(np.abs(amps.a).max()) < 1e-8
        assert amps.total_ionized() < 1e-16

    def test_validation(self, smoke_run, hydrogen):
        with pytest.raises(ValueError):
            project_scattering_states(smoke_run.state, hydrogen,
                                      np.array([0.5]))
        with pytest.raises(ValueError):
            project_scattering_states(smoke_run.state, hydrogen,
                                      np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            project_scattering_states(smoke_run.state, hydrogen,
                                      np.array([-0.1, 0.5]))

    def test_plane_wave_oracle(self):
        # Zeff = 0 turns the scattering states into spherical Bessel
        # waves; a handmade packet in one channel then has a closed-form
        # amplitude
        free = AtomicSystem(Z=1.0, Zeff=0.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        r = grid.radii()
        u = np.exp(-((r - 15.0) ** 2) / 8.0)
        psi = np.zeros((9, grid.n_points), dtype=np.complex128)
        psi[channel_index(2, 1)] = u
        from tunnelqs.tdse import WavefunctionState
        state = WavefunctionState(grid=grid, l_max=2, psi=psi, t=0.0)
        p = np.linspace(0.3, 1.5, 40)
        amps = project_scattering_states(state, free, p)
        a_pkg = amps.a[channel_index(2, 1)]
        for i, pi in enumerate(p):
            wave = math.sqrt(2.0 / (math.pi * pi)) * pi * r \
                * spherical_jn(2, pi * r)
            a_ref = (-1j) ** 2 * float(wave @ u) * grid.dr / math.sqrt(pi)
            assert abs(a_pkg[i] - a_ref) < 5e-3 * float(np.abs(a_pkg).max())
        # every other channel stays empty
        others = np.delete(np.arange(9), channel_index(2, 1))
        assert float(np.abs(amps.a[others]).max()) == 0.0

    def test_smoke_completeness(self, smoke_run, smoke_amps):
        # norm split: bound + projected continuum should account for the
        # whole wavefunction to within the projection tolerance
        total = smoke_run.norm_final ** 2
        ionized_ref = total - smoke_amps.bound_removed
        got = smoke_amps.total_ionized()
        assert got == pytest.approx(ionized_ref, rel=0.02)

    def test_smoke_ionized_fraction(self, smoke_amps):
        # regression pin for this exact pulse and grid
        assert smoke_amps.total_ionized() == pytest.approx(0.12, abs=0.01)


class TestMomentumDistribution:
    def test_grid_mismatch(self, smoke_amps):
        with pytest.raises(ValueError):
            momentum_distribution(smoke_amps, np.linspace(0.02, 4.0, 399),
                                  default_phi_grid())

    def test_normalization_invariant(self, smoke_amps, smoke_momenta):
        dist = momentum_distribution(smoke_amps, smoke_momenta,
                                     default_phi_grid())
        assert dist.integrate() == pytest.approx(smoke_amps.total_ionized(),
                                                 rel=1e-12)
        assert float(dist.density.min()) >= 0.0

    def test_unnormalized_slice(self, smoke_amps, smoke_momenta):
        dist = momentum_distribution(smoke_amps, smoke_momenta,
                                     default_phi_grid())
        # the bare plane slice does not integrate to the 3-D total, so the
        # declared rescaling is a real factor
        assert abs(dist.scale - 1.0) > 1e-3

    def test_single_m_channel_is_isotropic(self):
        free = AtomicSystem(Z=1.0, Zeff=0.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        r = grid.radii()
        psi = np.zeros((4, grid.n_points), dtype=np.complex128)
        psi[channel_index(1, 1)] = np.exp(-((r - 12.0) ** 2) / 6.0)
        from tunnelqs.tdse import WavefunctionState
        state = WavefunctionState(grid=grid, l_max=1, psi=psi, t=0.0)
        p = np.linspace(0.2, 1.5, 30)
        amps = project_scattering_states(state, free, p)
        dist = momentum_distribution(amps, p, default_phi_grid(90))
        row = dist.density[10]
        assert (row.max() - row.min()) <= 1e-12 * row.max()

    def test_two_channel_interference_harmonic(self):
        # |a1 Y_1^1 + a2 Y_2^2|^2 on the equator has exactly one
        # azimuthal harmonic, e^{i phi}
        free = AtomicSystem(Z=1.0, Zeff=0.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        r = grid.radii()
        packet = np.exp(-((r - 12.0) ** 2) / 6.0)
        psi = np.zeros((9, grid.n_points), dtype=np.complex128)
        psi[channel_index(1, 1)] = packet
        psi[channel_index(2, 2)] = 0.7j * packet
        from tunnelqs.tdse import WavefunctionState
        state = WavefunctionState(grid=grid, l_max=2, psi=psi, t=0.0)
        p = np.linspace(0.2, 1.5, 30)
        dist = momentum_distribution(
            project_scattering_states(state, free, p), p,
            default_phi_grid(64))
        spectrum = np.abs(np.fft.rfft(dist.density[12]))
        assert spectrum[1] > 1e-6 * spectrum[0]
        assert float(spectrum[2:].max()) < 1e-10 * spectrum[0]


class TestAngularDistribution:
    def test_radial_integration_separable(self):
        p = np.linspace(0.1, 2.0, 120)
        phi = default_phi_grid(90)
        f = np.exp(-((p - 0.9) ** 2) / 0.1)
        g = 2.0 + np.cos(phi)
        dist = MomentumDistribution(p=p, phi=phi,
                                    density=f[:, None] * g[None, :])
        ang = radial_integrate(dist)
        expected = float(np.trapezoid(f * p, p)) * g
        np.testing.assert_allclose(ang.values, expected, rtol=1e-12)

    def test_linear_and_monotone(self):
        p = np.linspace(0.1, 2.0, 50)
        phi = default_phi_grid(32)
        rng = np.random.default_rng(3)
        a = rng.random((50, 32))
        b = rng.random((50, 32))
        ia = radial_integrate(MomentumDistribution(p, phi, a)).values
        ib = radial_integrate(MomentumDistribution(p, phi, b)).values
        isum = radial_integrate(MomentumDistribution(p, phi, a + b)).values
        np.testing.assert_allclose(isum, ia + ib, rtol=1e-12)
        assert np.all(radial_integrate(
            MomentumDistribution(p, phi, a + 1.0)).values >= ia)

    def test_integrate_matches_distribution(self, smoke_amps, smoke_momenta):
        dist = momentum_distribution(smoke_amps, smoke_momenta,
                                     default_phi_grid())
        ang = radial_integrate(dist)
        assert ang.integrate() == pytest.approx(dist.integrate(), rel=1e-12)


def ridge(phi, center, kappa=40.0):
    return np.exp(kappa * (np.cos(phi - center) - 1.0))


class TestOffsetReadout:
    def test_planted_angle_recovery(self):
        phi = default_phi_grid(720)
        theta_true = 0.1
        ang = AngularDistribution(phi=phi,
                                  values=ridge(phi, -math.pi / 2 + theta_true))
        res = offset_angle_and_delay(ang, 3.0)
        assert res.theta == pytest.approx(theta_true, abs=1e-3)
        assert not res.multimodal

    def test_grid_node_peak_is_exact(self):
        phi = default_phi_grid(720)
        center = phi[100]
        ang = AngularDistribution(phi=phi, values=ridge(phi, center))
        res = offset_angle_and_delay(ang, 1.0)
        assert res.phi_peak == pytest.approx(center, abs=1e-12)

    def test_delay_conversion(self):
        phi = default_phi_grid(720)
        ang = AngularDistribution(phi=phi, values=ridge(phi, -math.pi / 2 + 0.1))
        res = offset_angle_and_delay(ang, 3.0)
        assert res.tau == pytest.approx(res.theta / 3.0, rel=1e-15)
        assert res.tau_as == pytest.approx(0.8062947755285667, abs=1e-3)
        assert res.tau_as == pytest.approx(res.tau * au_time_as, rel=1e-15)

    def test_roll_equivariance(self):
        phi = default_phi_grid(720)
        base = ridge(phi, 1.234)
        r1 = offset_angle_and_delay(AngularDistribution(phi, base), 1.0)
        rolled = np.roll(base, 17)
        r2 = offset_angle_and_delay(AngularDistribution(phi, rolled), 1.0)
        dphi = 2.0 * math.pi / 720.0
        assert wrap_angle(r2.phi_peak - r1.phi_peak) == pytest.approx(
            17.0 * dphi, abs=1e-9)

    def test_mirror_parity(self):
        # reflecting the plane about the y axis maps phi -> pi - phi and
        # must negate the offset angle
        phi = default_phi_grid(720)
        base = ridge(phi, -math.pi / 2 + 0.23)
        mirrored = base[(360 - np.arange(720)) % 720]
        r1 = offset_angle_and_delay(AngularDistribution(phi, base), 1.0)
        r2 = offset_angle_and_delay(AngularDistribution(phi, mirrored), 1.0)
        assert r2.theta == pytest.approx(-r1.theta, abs=1e-9)

    def test_multimodal_flag(self):
        phi = default_phi_grid(720)
        lo = ridge(phi, 0.3, kappa=60.0)
        hi = ridge(phi, 0.3 + math.pi, kappa=60.0)
        res = offset_angle_and_delay(
            AngularDistribution(phi, hi + 0.96 * lo), 1.0)
        assert res.multimodal
        assert res.secondary_ratio == pytest.approx(0.96, abs=5e-3)
        res = offset_angle_and_delay(
            AngularDistribution(phi, hi + 0.90 * lo), 1.0)
        assert not res.multimodal
        assert MULTIMODAL_RATIO == 0.95

    def test_accepts_pulse_object(self):
        phi = default_phi_grid(720)
        ang = AngularDistribution(phi=phi, values=ridge(phi, 0.5))
        pulse = PulseParams(F0=0.5, omega=0.8)
        assert offset_angle_and_delay(ang, pulse).tau == pytest.approx(
            offset_angle_and_delay(ang, 0.8).tau, rel=1e-15)

    def test_omega_validation(self):
        phi = default_phi_grid(720)
        ang = AngularDistribution(phi=phi, values=ridge(phi, 0.5))
        with pytest.raises(ValueError):
            offset_angle_and_delay(ang, 0.0)


class TestRotationEquivariance:
    """Advancing the carrier phase rotates the whole readout rigidly."""

    def test_distribution_rotates(self, smoke_amps, smoke_amps_rotated,
                                  smoke_momenta):
        phi = default_phi_grid(720)
        base = radial_integrate(momentum_distribution(
            smoke_amps, smoke_momenta, phi)).values
        rot = radial_integrate(momentum_distribution(
            smoke_amps_rotated, smoke_momenta, phi)).values
        # carrier phase shift by 40 cells -> pattern moves 40 cells
        expected = np.roll(base, -40)
        assert float(np.max(np.abs(rot - expected))) < 1e-6 * base.max()

    def test_offset_shifts_by_carrier_phase(self, smoke_amps,
                                            smoke_amps_rotated,
                                            smoke_momenta, smoke_pulse):
        phi = default_phi_grid(720)
        shift = 40 * (2.0 * math.pi / 720.0)
        r0 = offset_angle_and_delay(radial_integrate(momentum_distribution(
            smoke_amps, smoke_momenta, phi)), smoke_pulse)
        r1 = offset_angle_and_delay(radial_integrate(momentum_distribution(
            smoke_amps_rotated, smoke_momenta, phi)), smoke_pulse)
        assert wrap_angle(r0.theta - r1.theta) == pytest.approx(shift,
                                                                abs=1e-6)
