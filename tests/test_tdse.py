import math

import numpy as np
import pytest

from tunnelqs import make_system
from tunnelqs.tdse import (
    DEFAULT_MAX_CHANNELS,
    PropagationError,
    Propagator,
    PulseParams,
    RadialGrid,
    TdseConfigError,
    WavefunctionState,
    atomic_diagonal,
    build_ground_state,
    channel_index,
    channel_list,
    coupling_operators,
    default_dt,
    envelope,
    load_checkpoint,
    plan_run,
    run_pulse,
    save_checkpoint,
    vector_potential,
)


class TestRadialGrid:
    def test_points(self):
        grid = RadialGrid(dr=0.1, r_max=60.0)
        assert grid.n_points == 600
        r = grid.radii()
        assert r[0] == pytest.approx(0.1)
        assert r[-1] == pytest.approx(60.0)
        assert len(r) == 600

    @pytest.mark.parametrize("dr, r_max", [(math.nan, 10.0), (0.1, math.inf)])
    def test_non_finite_rejected(self, dr, r_max):
        with pytest.raises(TdseConfigError, match="finite"):
            RadialGrid(dr=dr, r_max=r_max)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(dr=0.0, r_max=10.0)
        with pytest.raises(ValueError):
            RadialGrid(dr=0.3, r_max=0.2)
        with pytest.raises(ValueError):
            RadialGrid(dr=0.3, r_max=10.0)  # 33.33 spacings


class TestChannels:
    def test_index_layout(self):
        assert channel_index(0, 0) == 0
        assert channel_index(1, -1) == 1
        assert channel_index(1, 0) == 2
        assert channel_index(1, 1) == 3
        assert channel_index(5, -5) == 25

    def test_list_round_trip(self):
        chans = channel_list(6)
        assert len(chans) == 49
        for k, (l, m) in enumerate(chans):
            assert channel_index(l, m) == k


class TestPulse:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseParams(F0=-1.0, omega=1.0)
        with pytest.raises(ValueError):
            PulseParams(F0=1.0, omega=0.0)
        with pytest.raises(ValueError):
            PulseParams(F0=1.0, omega=1.0, ellipticity=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"F0": math.nan, "omega": 0.8},
        {"F0": 0.5, "omega": math.inf},
        {"F0": 0.5, "omega": 0.8, "ellipticity": math.nan},
        {"F0": 0.5, "omega": 0.8, "carrier_phase": -math.inf},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(TdseConfigError, match="finite"):
            PulseParams(**kwargs)

    def test_duration_two_cycles(self):
        pulse = PulseParams(F0=50.0, omega=3.0)
        assert pulse.duration == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_peak_field_circular(self):
        pulse = PulseParams(F0=50.0, omega=3.0)
        assert pulse.peak_field == pytest.approx(50.0 / math.sqrt(2.0),
                                                 rel=1e-15)

    def test_envelope_support(self):
        pulse = PulseParams(F0=1.0, omega=2.0)
        t1 = pulse.duration
        assert envelope(pulse, -0.1) == 0.0
        assert envelope(pulse, 0.0) == 0.0
        assert envelope(pulse, t1) == 0.0
        assert envelope(pulse, 0.5 * t1) == pytest.approx(1.0, rel=1e-15)

    def test_vector_potential_at_peak(self):
        # t = T1/2: carrier phase omega t = 2 pi, envelope = 1
        pulse = PulseParams(F0=50.0, omega=3.0)
        ax, ay = vector_potential(pulse, 0.5 * pulse.duration)
        assert ax == pytest.approx(-50.0 / (3.0 * math.sqrt(2.0)), rel=1e-12)
        assert ay == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_bound(self):
        pulse = PulseParams(F0=0.5, omega=0.8, ellipticity=0.6)
        bound = 0.5 / (0.8 * math.sqrt(1.36)) * (1.0 + 1e-12)
        for t in np.linspace(0.0, pulse.duration, 211):
            ax, ay = vector_potential(pulse, float(t))
            assert math.hypot(ax, ay) <= bound

    def test_carrier_phase_rotates_clockwise(self):
        base = PulseParams(F0=0.5, omega=0.8)
        phi = 0.7
        rot = PulseParams(F0=0.5, omega=0.8, carrier_phase=phi)
        for t in (2.0, 5.0, 9.0):
            ax0, ay0 = vector_potential(base, t)
            ax1, ay1 = vector_potential(rot, t)
            assert ax1 == pytest.approx(
                math.cos(phi) * ax0 + math.sin(phi) * ay0, abs=1e-14)
            assert ay1 == pytest.approx(
                -math.sin(phi) * ax0 + math.cos(phi) * ay0, abs=1e-14)


class TestDiscreteAtom:
    def test_hydrogen_ground_energy(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=100.0)
        _, e0 = build_ground_state(s, grid, l_max=0)
        assert e0 == pytest.approx(-0.5, abs=5e-5)

    def test_helium_like_ground_energy(self):
        s = make_system(2.0)
        grid = RadialGrid(dr=0.05, r_max=50.0)
        _, e0 = build_ground_state(s, grid, l_max=0)
        assert e0 == pytest.approx(-2.0, rel=5e-4)

    def test_cusp_calibrated_convergence(self):
        # the boundary-corrected ground level gains much more than the
        # plain second-order stencil per halving; the n = 2 level keeps
        # the uncorrected ratio of about 4
        from scipy.linalg import eigh_tridiagonal

        s = make_system(1.0)
        errs0, errs1 = [], []
        for dr in (0.2, 0.1):
            grid = RadialGrid(dr=dr, r_max=120.0)
            diag = atomic_diagonal(1.0, grid, 0)
            off = -0.5 / dr**2 * np.ones(grid.n_points - 1)
            w, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
            errs0.append(abs(w[0] + 0.5))
            errs1.append(abs(w[1] + 0.125))
        assert errs0[0] / errs0[1] > 3.9
        assert 3.4 < errs1[0] / errs1[1] < 4.6

    def test_centrifugal_term(self):
        grid = RadialGrid(dr=0.1, r_max=20.0)
        d0 = atomic_diagonal(1.0, grid, 0)
        d1 = atomic_diagonal(1.0, grid, 1)
        r = grid.radii()
        # l = 1 adds 1/r^2; the l = 0 column carries the cusp correction
        # in its first entry.  Differencing the diagonals cancels against
        # the 1/dr^2 stencil term, hence the absolute tolerance.
        np.testing.assert_allclose(d1[1:] - d0[1:], 1.0 / r[1:] ** 2,
                                   rtol=0.0, atol=1e-10 / grid.dr**2)
        assert d1[0] - d0[0] != pytest.approx(1.0 / r[0] ** 2, rel=1e-6)


class TestGroundState:
    def test_normalized_single_channel(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        state, e0 = build_ground_state(s, grid, l_max=3)
        assert state.norm() == pytest.approx(1.0, rel=1e-12)
        pops = state.populations()
        assert pops[0] == pytest.approx(1.0, rel=1e-12)
        assert float(np.sum(pops[1:])) == 0.0
        assert e0 < 0.0

    def test_deterministic_sign(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        u1 = build_ground_state(s, grid, 0)[0].channel(0, 0)
        u2 = build_ground_state(s, grid, 0)[0].channel(0, 0)
        assert float(np.real(u1[np.argmax(np.abs(u1))])) > 0.0
        np.testing.assert_array_equal(u1, u2)

    def test_state_shape_validation(self):
        grid = RadialGrid(dr=0.1, r_max=10.0)
        with pytest.raises(ValueError):
            WavefunctionState(grid=grid, l_max=1,
                              psi=np.zeros((4, 3), dtype=np.complex128),
                              t=0.0)


class TestInteraction:
    """The operators act on one parity sector's channels, psi[sec.idx]."""

    @pytest.fixture()
    def prop(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=20.0)
        return Propagator(s, grid, l_max=4, dt=0.02)

    def test_hermitian(self, prop):
        rng = np.random.default_rng(7)
        shape = (25, prop.grid.n_points)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        atilde = complex(0.3, -0.8)
        for sec in prop.sectors:
            hy = prop.apply_interaction(y[sec.idx], atilde, sec)
            hx = prop.apply_interaction(x[sec.idx], atilde, sec)
            lhs = np.vdot(x[sec.idx], hy)
            rhs = np.vdot(hx, y[sec.idx])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_atomic_hermitian(self, prop):
        rng = np.random.default_rng(8)
        shape = (25, prop.grid.n_points)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for sec in prop.sectors:
            xs, ys = x[sec.idx], y[sec.idx]
            assert np.vdot(xs, prop.apply_atomic(ys, sec)) == pytest.approx(
                np.vdot(prop.apply_atomic(xs, sec), ys), rel=1e-12)

    def test_zero_field_shortcut(self, prop):
        psi = np.ones((25, prop.grid.n_points), dtype=np.complex128)
        for sec in prop.sectors:
            assert not prop.apply_interaction(psi[sec.idx], 0.0, sec).any()
        # without a field a step is one atomic half-step solve per sector
        state, _ = build_ground_state(prop.system, prop.grid, prop.l_max)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state.t = pulse.duration
        assert prop.step(state, pulse) == (1, 0.0)

    def test_solve_inverts_atomic_half_step(self, prop):
        # (1 + i dt/2 H_atom) applied, then solved: any coupling across a
        # channel edge in the factorization would show at the block ends
        rng = np.random.default_rng(9)
        shape = (25, prop.grid.n_points)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for sec in prop.sectors:
            part = psi[sec.idx]
            back = prop._solve_implicit(
                part + 0.5j * prop.dt * prop.apply_atomic(part, sec), sec)
            np.testing.assert_allclose(back, part, rtol=0.0, atol=1e-12)

    def test_interaction_from_s_channel(self, prop):
        rng = np.random.default_rng(10)
        n = prop.grid.n_points
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = np.zeros((25, n), dtype=np.complex128)
        psi[channel_index(0, 0)] = u
        atilde = complex(0.3, -0.8)
        out = np.empty_like(psi)
        for sec in prop.sectors:
            out[sec.idx] = prop.apply_interaction(psi[sec.idx], atilde, sec)
        # central difference with u = 0 at r = 0 and beyond the box
        padded = np.concatenate([[0.0], u, [0.0]])
        radial = ((padded[2:] - padded[:-2]) / (2.0 * prop.grid.dr)
                  - u / prop.grid.radii())
        w = math.sqrt(2.0 / 3.0)
        expect = np.zeros_like(psi)
        expect[channel_index(1, 1)] = -0.5j * np.conj(atilde) * -w * radial
        expect[channel_index(1, -1)] = -0.5j * atilde * w * radial
        np.testing.assert_allclose(out, expect, rtol=0.0,
                                   atol=1e-13 * np.abs(expect).max())
        others = np.delete(out, [channel_index(1, 1), channel_index(1, -1)], axis=0)
        assert float(np.abs(others).max()) == 0.0

    def test_coupling_keeps_parity(self):
        # the Propagator's split into l + m parity sectors relies on this
        l_max = 4
        nch = (l_max + 1) ** 2
        parity = np.empty(nch, dtype=int)
        for l, m in channel_list(l_max):
            parity[channel_index(l, m)] = (l + m) % 2
        for op in coupling_operators(l_max):
            coo = op.tocoo()
            assert np.count_nonzero(coo.data) > 0
            mixed = parity[coo.row] != parity[coo.col % nch]
            assert not np.any(coo.data[mixed] != 0.0)


class TestSelectionRules:
    @pytest.fixture()
    def stepped(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state, _ = build_ground_state(s, grid, l_max=3)
        state.t = 0.45 * pulse.duration  # field well on
        Propagator(s, grid, 3, 0.02).step(state, pulse)
        return state.populations()

    def test_parity_of_l_plus_m_conserved(self, stepped):
        # A.p moves (l, m) by (+-1, +-1), so channels with odd l + m
        # stay exactly empty when starting from (0, 0)
        for l, m in [(1, 0), (2, 1), (2, -1), (3, 0), (3, 2), (3, -2)]:
            assert stepped[channel_index(l, m)] == 0.0

    def test_first_order_channels(self, stepped):
        assert stepped[channel_index(1, 1)] > 1e-7
        assert stepped[channel_index(1, -1)] > 1e-7
        # one midpoint-field step gives symmetric +-m weights
        assert stepped[channel_index(1, 1)] == pytest.approx(
            stepped[channel_index(1, -1)], rel=1e-10)

    def test_order_hierarchy(self, stepped):
        first = stepped[channel_index(1, 1)]
        second = stepped[channel_index(2, 2)]
        third = stepped[channel_index(3, 3)]
        assert first > 1e3 * second > 0.0
        assert second > 1e3 * third > 0.0


class TestParitySectors:
    """A . p keeps l + m parity, so the even and odd channels are two
    independent problems; a step propagates each occupied one."""

    @pytest.fixture()
    def setup(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        return grid, pulse, Propagator(s, grid, 3, 0.02)

    @staticmethod
    def _state(grid, pulse, channels):
        r = grid.radii()
        psi = np.zeros((16, grid.n_points), dtype=np.complex128)
        for l, m in channels:
            psi[channel_index(l, m)] = r ** (l + 1) * np.exp(-r / (l + 1))
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dr)
        # field well on
        return WavefunctionState(grid=grid, l_max=3, psi=psi, t=0.45 * pulse.duration)

    def test_odd_sector_propagated(self, setup):
        grid, pulse, prop = setup
        state = self._state(grid, pulse, [(1, 0)])
        norm0 = state.norm()
        for _ in range(20):
            prop.step(state, pulse)
        pops = state.populations()
        assert abs(state.norm() - norm0) < 1e-8
        assert pops[channel_index(2, 1)] > 1e-7
        assert pops[channel_index(2, -1)] > 1e-7
        even = [channel_index(l, m) for l, m in channel_list(3) if (l + m) % 2 == 0]
        assert np.all(state.psi[even] == 0.0)

    def test_mixed_state_steps_as_sum_of_sectors(self, setup):
        grid, pulse, prop = setup
        mixed = self._state(grid, pulse, [(0, 0), (1, 0)])
        parts = []
        for parity in (0, 1):
            part = mixed.copy()
            for l, m in channel_list(3):
                if (l + m) % 2 != parity:
                    part.psi[channel_index(l, m)] = 0.0
            prop.step(part, pulse)
            parts.append(part.psi)
        prop.step(mixed, pulse)
        np.testing.assert_allclose(mixed.psi, parts[0] + parts[1],
                                   rtol=0.0, atol=prop.tol)


class TestPropagation:
    def test_field_free_survival(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        u0 = state.channel(0, 0).copy()
        pulse = PulseParams(F0=0.0, omega=0.8)
        prop = Propagator(s, grid, 2, 0.02)
        norm0 = state.norm()
        for _ in range(100):
            prop.step(state, pulse)
        overlap = abs(np.sum(np.conj(u0) * state.channel(0, 0)) * grid.dr)
        assert overlap >= 0.9999
        assert abs(state.norm() - norm0) < 1e-10

    def test_smoke_metadata(self, smoke_run, smoke_pulse):
        res = smoke_run
        assert res.energy0 == pytest.approx(-0.5, abs=5e-4)
        assert res.steps == 786
        assert res.state.t == pytest.approx(smoke_pulse.duration, rel=1e-12)
        assert abs(res.norm_final - res.norm_initial) <= 1e-6
        assert res.max_defect <= 1e-10
        assert res.max_iterations <= 50
        assert res.tail_fraction < 1e-6
        assert res.warnings == []

    def test_smoke_populations(self, smoke_run):
        pops = smoke_run.populations_by_l
        assert pops.shape == (9,)
        assert pops.sum() == pytest.approx(smoke_run.norm_final ** 2,
                                           rel=1e-10)
        # angular ladder decays over many orders at this intensity
        assert pops[0] > 0.5
        assert pops[8] < 1e-8

    def test_remainder_step_lands_on_t1(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        res = run_pulse(s, grid, pulse, l_max=1, dt=0.03)
        assert res.state.t == pytest.approx(pulse.duration, rel=1e-12)
        assert res.steps == math.ceil(pulse.duration / 0.03)

    def test_divergence_reports_position(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=10.0, omega=1.0)
        with pytest.raises(PropagationError) as exc:
            run_pulse(s, grid, pulse, l_max=1, dt=0.5)
        err = exc.value
        assert err.defect > err.tol
        assert err.step >= 0
        assert err.t_last == pytest.approx(err.step * 0.5, rel=1e-12)
        assert "defect" in str(err)


class TestPlanning:
    def test_default_dt(self):
        assert default_dt(1.0) == 0.02
        assert default_dt(0.5) == 0.02
        assert default_dt(2.0) == pytest.approx(0.005)
        assert default_dt(18.0) == pytest.approx(0.02 / 324.0)

    def test_step_count(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=60.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        n_steps, nch, warnings = plan_run(s, grid, pulse, l_max=8, dt=0.02)
        assert n_steps == 786
        assert nch == 81
        assert warnings == []

    def test_channel_guard(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=60.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        with pytest.raises(TdseConfigError) as exc:
            plan_run(s, grid, pulse, l_max=200)
        assert "40401" in str(exc.value)
        assert str(DEFAULT_MAX_CHANNELS) in str(exc.value)
        # explicit override admits the same configuration
        plan_run(s, grid, pulse, l_max=200, max_channels=50000)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_step_rejected(self, bad):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=10.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        for call in (lambda: Propagator(s, grid, 1, bad),
                     lambda: Propagator(s, grid, 1, 0.02, tol=bad),
                     lambda: plan_run(s, grid, pulse, 1, dt=bad)):
            with pytest.raises(TdseConfigError, match="finite"):
                call()

    @pytest.mark.parametrize("bad", [0.0, -1e-10])
    def test_non_positive_tol_rejected(self, bad):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=10.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        for call in (lambda: Propagator(s, grid, 1, 0.02, tol=bad),
                     lambda: plan_run(s, grid, pulse, 1, dt=0.02, tol=bad)):
            with pytest.raises(TdseConfigError, match="tol must be positive"):
                call()

    def test_max_iter_below_one_rejected(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=10.0)
        with pytest.raises(TdseConfigError, match="max_iter"):
            Propagator(s, grid, 1, 0.02, max_iter=0)

    def test_published_scale_warns(self):
        s = make_system(18.0)
        grid = RadialGrid(dr=0.1, r_max=400.0)
        pulse = PulseParams(F0=50.0, omega=3.0)
        _, nch, warnings = plan_run(s, grid, pulse, l_max=100)
        assert nch == 10201
        assert len(warnings) == 1
        assert "not desk scale" in warnings[0]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        s = make_system(2.0, relativistic=False)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        state.t = 3.25
        path = tmp_path / "state.npz"
        save_checkpoint(path, state, s)
        loaded, sys2 = load_checkpoint(path)
        assert loaded.t == 3.25
        assert loaded.l_max == 2
        assert loaded.grid == grid
        assert sys2 == s
        np.testing.assert_array_equal(loaded.psi, state.psi)

    def test_version_guard(self, tmp_path):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        state, _ = build_ground_state(s, grid, l_max=0)
        path = tmp_path / "state.npz"
        save_checkpoint(path, state, s)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_periodic_checkpoints_during_run(self, tmp_path):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        path = tmp_path / "ck.npz"
        res = run_pulse(s, grid, pulse, l_max=1, dt=0.03,
                        checkpoint_path=path, checkpoint_every=50)
        loaded, _ = load_checkpoint(path)
        # final write happens at the end of the run
        assert loaded.t == pytest.approx(res.state.t, rel=1e-12)

    def test_checkpoint_on_failure(self, tmp_path):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=10.0, omega=1.0)
        path = tmp_path / "crash"   # no suffix: the reported path must exist as given
        with pytest.raises(PropagationError) as exc:
            run_pulse(s, grid, pulse, l_max=1, dt=0.5, checkpoint_path=path)
        loaded, _ = load_checkpoint(path)
        assert loaded.t == pytest.approx(exc.value.t_last, rel=1e-12)
        assert exc.value.checkpoint == path
        assert str(path) in str(exc.value)
