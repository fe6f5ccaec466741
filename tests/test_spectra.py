import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y, spherical_jn

from tunnelqs import spectra
from tunnelqs.atomic import AtomicSystem
from tunnelqs.constants import au_time_as
from tunnelqs.spectra import (
    MULTIMODAL_RATIO,
    NO_IONIZATION_FLOOR,
    AngularDistribution,
    IonizationAmplitudes,
    MomentumDistribution,
    _wkb_window,
    attoclock_readout,
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
    TdseConfigError,
    WavefunctionState,
    _bound_levels,
    build_ground_state,
    channel_index,
    even_channels,
    even_index,
    run_pulse,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momenta_rejected(self, grid, bad):
        with pytest.raises(ValueError, match="finite"):
            continuum_waves(1.0, grid, 0, np.array([0.5, bad]))

    @pytest.mark.parametrize("p", [20.0, 25.0, 1e200])
    def test_momenta_beyond_the_band_edge_rejected(self, grid, p):
        # the lattice carries no wave at p >= 2/dr; Numerov went on to waves
        # of 1e15 at p = 25 and NaN at 1e200
        with pytest.raises(ValueError, match="band edge 2/dr = 20"):
            continuum_waves(1.0, grid, 0, np.array([0.5, p]))

    def test_momenta_below_the_band_edge_accepted(self, grid):
        assert np.isfinite(continuum_waves(1.0, grid, 0, np.array([0.5, 19.9]))).all()

    # frozen sha256 of continuum_waves(...).tobytes(): a faster recurrence
    # must reproduce the waves bit for bit
    FROZEN = [
        (0.0, 0.1, 120.0, 0, "c88ad6d3f894d2043f7307a3bc39fe89ed29dcaf71030da701e8084a66f19803"),
        (0.0, 0.1, 120.0, 5, "ae8ca1ec7a430921b9fd2bca4f0888577505595ad7d8aedb329eb7ab8a3932c7"),
        (0.0, 0.1, 120.0, 16, "52d97fd4a5c234f035c78aefb8d4bc7bde2be20cb2fafad6c809e56c4c3b00c1"),
        (1.0, 0.1, 120.0, 0, "de36930962966f38b6d09dbe8d7d8e64413729a921c922567cd320be472b5cf7"),
        (1.0, 0.1, 120.0, 5, "59dc4be56ced037682e366adb38e612ff6cc1e0b3111b3fcf6a17fb115709688"),
        (1.0, 0.1, 120.0, 16, "4a6c8621b745903d18ceb7db2e13d835a79c0b3c14f3a804740a947b3110e722"),
    ]

    @pytest.mark.parametrize("zeff,dr,r_max,l,digest", FROZEN)
    def test_frozen_values(self, zeff, dr, r_max, l, digest):
        u = continuum_waves(zeff, RadialGrid(dr=dr, r_max=r_max), l,
                            np.linspace(0.05, 2.5, 800))
        assert u.shape == (800, 1200) and u.flags.c_contiguous
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("dr,r_max,l,p,digest", [
        # deep under the barrier at p = 0.02, with no renormalization step
        (0.1, 60.0, 30, np.linspace(0.02, 1.0, 50),
         "18b3a698db8b72f79b10b0c3c7a177be99ffe1933ae9e0a0a0e41375a4db36eb"),
        # the growth guard renormalizes on two steps; p = 0.02 comes back
        # as a zero row (forbidden window), p = 0.5 and 2.0 as waves
        (0.5, 400.0, 150, np.array([0.02, 0.5, 2.0]),
         "2a4431697f913af572311d8123787802328af66fd95afbdb8a7c5f6958d0e22a"),
        # renormalized on 15 steps, several within one block of rows
        (1.0, 600.0, 180, np.linspace(0.3, 1.0, 20),
         "fa5727042de74c18c540e7fe6dc3210ada8c21682ac739005443ff4d38fbb5a2"),
    ])
    def test_frozen_values_under_the_barrier(self, dr, r_max, l, p, digest):
        u = continuum_waves(1.0, RadialGrid(dr=dr, r_max=r_max), l, p)
        assert hashlib.sha256(u.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("l", [0, 3, 8])
    def test_guard_limit_is_only_a_scale(self, grid, l, monkeypatch):
        # the guard divides each wave by a constant, so the normalized waves
        # do not depend on its limit; at 0.1 it fires on nearly every block,
        # inside the normalization window too
        p = np.linspace(0.05, 2.5, 50)
        want = continuum_waves(1.0, grid, l, p)
        for limit in (0.1, 1.0, 10.0, 1e6):
            monkeypatch.setattr(spectra, "_RENORM_LIMIT", limit)
            u = continuum_waves(1.0, grid, l, p)
            gap = np.abs(u - want).max(axis=1) / np.abs(want).max(axis=1)
            assert gap.max() <= 1e-12

    def test_memory_peak(self):
        grid = RadialGrid(dr=0.1, r_max=120.0)
        p = np.linspace(0.05, 2.5, 800)
        continuum_waves(1.0, grid, 3, p)   # warm caches outside the trace
        tracemalloc.start()
        try:
            u = continuum_waves(1.0, grid, 3, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the waves plus the sweep's block and window rows and the window's
        # normalization: 1.98x the result (whole coefficient arrays took 3.07x)
        assert peak <= 2.0 * u.nbytes

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

    @pytest.mark.parametrize("r_max", [0.2, 0.3, 0.4])
    def test_grid_without_a_window_rejected(self, r_max):
        # 2-4 points leave no interior point in [0.8, 0.9] r_max; every
        # wave used to come back zeroed, with a "Mean of empty slice" warning
        with pytest.raises(ValueError, match="no interior point"):
            continuum_waves(1.0, RadialGrid(dr=0.1, r_max=r_max), 0, np.array([0.5]))
        assert continuum_waves(1.0, RadialGrid(dr=0.1, r_max=0.5), 0, np.array([0.5])).any()

    def test_forbidden_window_returns_zero(self, grid):
        # l = 30 at p = 0.05: the normalization window is classically
        # forbidden, so the wave is declared absent rather than garbage
        u = continuum_waves(1.0, grid, 30, np.array([0.05]))
        assert float(np.abs(u).max()) == 0.0

    def test_window_values_past_the_square_limit(self):
        # at l = 200 the window values of 18 allowed momenta reach 1e154
        # and more, whose squares overflow: they must still be normalized
        # to the WKB amplitude, not zeroed with a RuntimeWarning
        grid = RadialGrid(dr=0.5, r_max=200.0)
        l, p = 200, np.linspace(0.5, 3.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = continuum_waves(1.0, grid, l, p)
        r = grid.radii()
        jw = np.nonzero((r >= 160.0) & (r <= 180.0))[0]
        k2 = (p * p)[:, None] + 2.0 / r[jw] - l * (l + 1) / r[jw] ** 2
        allowed = np.all(k2 > 0.0, axis=1)
        assert allowed.sum() == 35
        assert np.all(np.abs(u[~allowed]).max(axis=1) == 0.0)
        k = np.sqrt(k2[allowed])
        du = (u[allowed][:, jw + 1] - u[allowed][:, jw - 1]) / (2.0 * grid.dr)
        amp = np.sqrt(u[allowed][:, jw] ** 2 + (du / k) ** 2)
        ratio = np.mean(np.sqrt(2.0 / (math.pi * k)) / amp, axis=1)
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)

    def test_window_matches_the_radii_mask(self):
        # the window is bisected on dr (j + 1) instead of masked on the
        # radii array; the mask stays here as the reference
        def masked(grid):
            r = grid.radii()
            jw = np.flatnonzero((r >= 0.80 * grid.r_max) & (r <= 0.90 * grid.r_max))
            return jw[(jw > 0) & (jw < grid.n_points - 1)].tolist()

        counts = [*range(2, 80), *np.random.default_rng(29).integers(80, 100_000, 12)]
        checked = 0
        for dr in (0.1, 1.0 / 3.0, 0.07, 1e-3):
            for n in counts:
                try:
                    grid = RadialGrid(dr=dr, r_max=dr * int(n))
                except TdseConfigError:   # dr n rounds off an integer ratio
                    continue
                checked += 1
                want = masked(grid)
                if want:
                    assert list(_wkb_window(grid)) == want
                else:
                    with pytest.raises(TdseConfigError, match="no interior point"):
                        _wkb_window(grid)
        assert checked > 300
        # and it builds nothing the size of the grid (16 MB of radii here)
        grid = RadialGrid(dr=0.1, r_max=1e5)
        tracemalloc.start()
        try:
            jw = _wkb_window(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (jw[0], jw[-1], len(jw)) == (799999, 899999, 100001)
        assert peak < 1e4

    def test_renormalized_rows_stay_small(self):
        # the growth guard scales every row before a hit, not just the
        # rows at it: no row under the barrier may keep a peak far above
        # the asymptotic amplitude
        p = np.linspace(0.5, 3.0, 50)
        u = continuum_waves(1.0, RadialGrid(dr=0.5, r_max=200.0), 200, p)
        ratio = np.abs(u).max(axis=1) / np.sqrt(2.0 / (math.pi * p))
        assert ratio.max() <= 10.0


class TestBoundStates:
    def test_hydrogen_levels(self, grid):
        basis = bound_states(1.0, grid, 0)
        assert basis.shape == (6, 600)  # this box supports six s levels

    def test_orthonormal(self, grid):
        basis = bound_states(1.0, grid, 1)
        overlap = basis @ basis.T * grid.dr
        np.testing.assert_allclose(overlap, np.eye(len(basis)), atol=1e-10)

    def test_levels_frozen(self, grid):
        # SHA-256 of the rows for l = 0..8 as bound_states solved them on
        # its own, before the ground state and it shared one solver; l = 8
        # has none
        h = hashlib.sha256()
        counts = []
        for l in range(9):
            rows = _bound_levels(1.0, grid, l)[1]
            counts.append(len(rows))
            h.update(rows.tobytes())
        assert counts == [6, 5, 4, 4, 3, 2, 1, 1, 0]
        assert h.hexdigest() == (
            "83a634badb900270b9019cd1a1b822f720110d2360d8566ed8a013477621bbc2")

    def test_free_box_has_no_bound_states(self, grid):
        assert bound_states(0.0, grid, 0).shape[0] == 0

    def test_matches_propagation_ground_state(self, grid):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        state, _ = build_ground_state(s, grid, l_max=0)
        u0 = np.real(state.psi[even_index(0, 0)])
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

    def test_non_finite_total_is_arithmetic_error(self, hydrogen):
        # |a|^2 overflows: the readout used to read an angle next to an
        # inf or NaN ionized probability
        grid = RadialGrid(dr=0.1, r_max=20.0)
        state, _ = build_ground_state(hydrogen, grid, l_max=1)
        state.psi[even_index(1, 1)] = 1e200 * state.psi[even_index(0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="not finite"):
                attoclock_readout(state, hydrogen, PulseParams(F0=0.5, omega=0.8),
                                  np.linspace(0.1, 2.0, 20), default_phi_grid(180))

    @pytest.mark.parametrize("p", [[0.5, 1.0, np.inf], [np.nan, 0.5, 1.0],
                                   [0.5, np.nan]])
    def test_non_finite_momenta_rejected(self, hydrogen, p):
        state, _ = build_ground_state(hydrogen, RadialGrid(dr=0.1, r_max=20.0),
                                      l_max=1)
        with pytest.raises(ValueError, match="finite"):
            project_scattering_states(state, hydrogen, np.array(p))

    def test_plane_wave_oracle(self):
        # Zeff = 0 turns the scattering states into spherical Bessel
        # waves; a handmade packet in one channel then has a closed-form
        # amplitude
        free = AtomicSystem(Z=1.0, Zeff=0.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        r = grid.radii()
        u = np.exp(-((r - 15.0) ** 2) / 8.0)
        psi = np.zeros((6, grid.n_points), dtype=np.complex128)
        psi[even_index(2, 0)] = u
        state = WavefunctionState(grid=grid, l_max=2, psi=psi, t=0.0)
        p = np.linspace(0.3, 1.5, 40)
        amps = project_scattering_states(state, free, p)
        a_pkg = amps.a[even_index(2, 0)]
        for i, pi in enumerate(p):
            wave = math.sqrt(2.0 / (math.pi * pi)) * pi * r \
                * spherical_jn(2, pi * r)
            a_ref = (-1j) ** 2 * float(wave @ u) * grid.dr / math.sqrt(pi)
            assert abs(a_pkg[i] - a_ref) < 5e-3 * float(np.abs(a_pkg).max())
        # every other channel stays empty
        others = np.delete(np.arange(6), even_index(2, 0))
        assert float(np.abs(amps.a[others]).max()) == 0.0

    @pytest.mark.parametrize("rows, cols", [(9, 5), (5, 5), (6, 4)])
    def test_amplitude_table_shape_checked(self, rows, cols):
        # l_max 2 has six even channels; a (9, n_p) table would make
        # total_ionized rescale the distribution by the wrong total
        p = np.linspace(0.2, 1.5, 5)
        with pytest.raises(ValueError, match="amplitude table shape"):
            IonizationAmplitudes(p=p, l_max=2, a=np.ones((rows, cols), dtype=np.complex128),
                                 bound_removed=0.0)

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


def whole_wave_amplitudes(state, system, p):
    """The projection as whole continuum_waves arrays give it: each l's
    waves times its bound-cleaned rows, scaled by dr and phased."""
    cleaned, _ = remove_bound(state, system.Zeff)
    eta = -system.Zeff / p
    a = np.empty((len(state.psi), len(p)), dtype=np.complex128)
    for l in range(state.l_max + 1):
        i0 = even_index(l, -l)
        waves = continuum_waves(system.Zeff, state.grid, l, p)
        phase = (-1j) ** l * np.exp(1j * coulomb_phase(l, eta)) / np.sqrt(p)
        a[i0:i0 + l + 1] = cleaned.psi[i0:i0 + l + 1] @ waves.T * state.grid.dr * phase
    return a


def random_state(grid, l_max, seed=3):
    """Every even channel filled with a seeded packet around 0.4 r_max."""
    rng = np.random.default_rng(seed)
    shape = (even_channels(l_max)[0].size, grid.n_points)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    psi *= np.exp(-((grid.radii() - 0.4 * grid.r_max) / (0.2 * grid.r_max)) ** 2)
    return WavefunctionState(grid=grid, l_max=l_max, psi=psi, t=0.0)


class TestStreamedProjection:
    """The projection sums each block of Numerov rows into its products as
    the sweep goes, several l side by side, with no wave array."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """(l values, guard rescales) of every sweep, with the sweep itself unchanged."""
        calls = []
        sweep = spectra._numerov_sweep

        def spied(zeff, grid, ls, p, take):
            calls.append([list(ls), 0])

            def spy(k0, rows, divisor):
                calls[-1][1] += divisor is not None
                take(k0, rows, divisor)

            return sweep(zeff, grid, ls, p, spy)

        monkeypatch.setattr(spectra, "_numerov_sweep", spied)
        return calls

    @pytest.mark.parametrize("case", ["smoke", "guard", "groups", "l_max 0"])
    def test_equals_whole_waves(self, case, hydrogen, sweeps, monkeypatch):
        grid, l_max, p = RadialGrid(dr=0.1, r_max=60.0), 8, np.linspace(0.02, 4.0, 400)
        if case == "guard":
            # at the real limit the guard fires only beyond l ~ 100 on these
            # grids; at 1e8 it fires at low p from l = 8 on, inside mixed groups
            monkeypatch.setattr(spectra, "_RENORM_LIMIT", 1e8)
            l_max, p = 12, np.linspace(0.02, 2.0, 100)
        elif case == "groups":
            grid, l_max, p = RadialGrid(dr=0.2, r_max=40.0), 20, np.linspace(0.05, 3.0, 60)
        elif case == "l_max 0":
            l_max = 0
        state = random_state(grid, l_max)
        a = project_scattering_states(state, hydrogen, p).a
        streamed = list(sweeps)
        want = whole_wave_amplitudes(state, hydrogen, p)
        per_row = np.abs(a - want).max(axis=1) / np.abs(want).max(axis=1)
        assert per_row.max() <= 1e-13
        # consecutive l in groups of _group_size, one sweep each
        size = spectra._group_size(grid)
        assert [ls for ls, _ in streamed] == [list(range(l0, min(l0 + size, l_max + 1)))
                                              for l0 in range(0, l_max + 1, size)]
        assert len(streamed) == {"smoke": 2, "guard": 3, "groups": 11, "l_max 0": 1}[case]
        rescales = sum(n for _, n in streamed)
        assert (rescales > 0) == (case == "guard")

    def test_group_sizes(self):
        # the sweep's buffers stay within 3 n_points doubles per momentum
        assert spectra._group_size(RadialGrid(dr=0.1, r_max=120.0)) == 11
        assert spectra._group_size(RadialGrid(dr=0.1, r_max=60.0)) == 6
        assert spectra._group_size(RadialGrid(dr=0.1, r_max=0.5)) == 1

    @pytest.mark.parametrize("r_max, p, match", [
        (20.0, [0.5, 20.0], "band edge 2/dr = 20"),
        (0.3, [0.5, 1.0], "no interior point"),
    ])
    def test_rejected_before_the_sweep(self, hydrogen, sweeps, r_max, p, match):
        # checked up front, before the bound removal and the sweep
        state = random_state(RadialGrid(dr=0.1, r_max=r_max), 1)
        with pytest.raises(ValueError, match=match):
            project_scattering_states(state, hydrogen, np.array(p))
        assert sweeps == []

    def test_memory_peak(self, hydrogen):
        # l_max 16, r_max 120 and 800 momenta, as perfbench's
        # spectra_reprocess: 35.3 MB streamed, within the 36.7 MB that one
        # whole (p, r) wave array per l and its coefficient arrays took
        state = random_state(RadialGrid(dr=0.1, r_max=120.0), 16)
        p = np.linspace(0.05, 2.5, 800)
        project_scattering_states(state, hydrogen, p)   # warm caches outside the trace
        tracemalloc.start()
        try:
            project_scattering_states(state, hydrogen, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36.7e6


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

    def test_fourier_sum_is_the_ylm_sum(self):
        # random amplitudes on every channel; the odd l + m ones, which
        # vanish on the equator, enter only the direct sum
        l_max, p = 12, np.linspace(0.1, 2.0, 40)
        rng = np.random.default_rng(11)
        n_ch = (l_max + 1) ** 2
        a = rng.normal(size=(n_ch, len(p))) + 1j * rng.normal(size=(n_ch, len(p)))
        even = channel_index(*even_channels(l_max))
        amps = IonizationAmplitudes(p=p, l_max=l_max, a=a[even], bound_removed=0.0)
        phi = default_phi_grid(360)
        dist = momentum_distribution(amps, p, phi)
        ylm = np.array([sph_harm_y(l, m, math.pi / 2.0, phi)
                        for l in range(l_max + 1) for m in range(-l, l + 1)])
        direct = np.abs(a.T @ ylm) ** 2
        direct *= dist.scale
        np.testing.assert_allclose(dist.density, direct, rtol=0.0,
                                   atol=1e-13 * float(direct.max()))

    @pytest.mark.parametrize("phi", [
        np.r_[default_phi_grid(16)[:-1], np.nan],
        np.linspace(0.0, 1.0, 10),
        default_phi_grid(16)[::-1],
        np.linspace(0.0, 2.0 * math.pi, 16),      # endpoint included
        np.sort(np.random.default_rng(2).uniform(0.0, 2.0 * math.pi, 16)),
        default_phi_grid(16)[:, None],
        default_phi_grid(16)[:4],
    ])
    def test_phi_grid_validation(self, phi):
        p = np.linspace(0.2, 1.5, 5)
        amps = IonizationAmplitudes(p=p, l_max=1,
                                    a=np.ones((3, 5), dtype=np.complex128),
                                    bound_removed=0.0)
        with pytest.raises(ValueError, match="phi"):
            momentum_distribution(amps, p, phi)
        if phi.ndim == 1 and len(phi) >= 8:
            with pytest.raises(ValueError, match="phi"):
                offset_angle_and_delay(
                    AngularDistribution(phi, np.ones(len(phi))), 1.0)

    def test_offset_start_is_a_rotation(self):
        # a grid starting at 5 cells rotates the samples by 5 cells
        p = np.linspace(0.2, 1.5, 5)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        amps = IonizationAmplitudes(p=p, l_max=2, a=a, bound_removed=0.0)
        phi = default_phi_grid(64)
        base = momentum_distribution(amps, p, phi)
        shifted = momentum_distribution(amps, p, phi + phi[5])
        np.testing.assert_allclose(shifted.density,
                                   np.roll(base.density, -5, axis=1),
                                   rtol=1e-12)
        assert shifted.integrate() == pytest.approx(amps.total_ionized(),
                                                    rel=1e-12)

    def test_single_m_channel_is_isotropic(self):
        free = AtomicSystem(Z=1.0, Zeff=0.0, Ip=0.5)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        r = grid.radii()
        psi = np.zeros((3, grid.n_points), dtype=np.complex128)
        psi[even_index(1, 1)] = np.exp(-((r - 12.0) ** 2) / 6.0)
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
        psi = np.zeros((6, grid.n_points), dtype=np.complex128)
        psi[even_index(1, 1)] = packet
        psi[even_index(2, 2)] = 0.7j * packet
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

    def test_omega_validation(self):
        phi = default_phi_grid(720)
        ang = AngularDistribution(phi=phi, values=ridge(phi, 0.5))
        with pytest.raises(ValueError):
            offset_angle_and_delay(ang, 0.0)


class TestAttoclockReadout:
    def test_is_the_chain(self):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state = run_pulse(s, RadialGrid(dr=0.2, r_max=20.0), pulse, l_max=2,
                          dt=0.05).state
        p, phi = np.linspace(0.05, 2.5, 80), default_phi_grid(180)
        amps, dist, ang, offset = attoclock_readout(state, s, pulse, p, phi)
        want_amps = project_scattering_states(state, s, p)
        want_dist = momentum_distribution(want_amps, p, phi)
        want_ang = radial_integrate(want_dist)
        assert np.array_equal(amps.a, want_amps.a)
        assert np.array_equal(dist.density, want_dist.density)
        assert np.array_equal(ang.values, want_ang.values)
        assert offset.theta == offset_angle_and_delay(want_ang, pulse.omega).theta
        assert amps.total_ionized() > 1e-4

    def test_no_ionization_reads_no_angle(self):
        s = AtomicSystem(Z=1.0, Zeff=1.0, Ip=0.5)
        state, _ = build_ground_state(s, RadialGrid(dr=0.1, r_max=40.0), l_max=2)
        amps, *rest = attoclock_readout(state, s, PulseParams(F0=0.0, omega=0.8),
                                        np.linspace(0.1, 2.0, 50), default_phi_grid())
        assert rest == [None, None, None]
        assert amps.total_ionized() < NO_IONIZATION_FLOOR


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
            smoke_amps, smoke_momenta, phi)), smoke_pulse.omega)
        r1 = offset_angle_and_delay(radial_integrate(momentum_distribution(
            smoke_amps_rotated, smoke_momenta, phi)), smoke_pulse.omega)
        assert wrap_angle(r0.theta - r1.theta) == pytest.approx(shift,
                                                                abs=1e-6)
