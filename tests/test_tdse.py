import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tunnelqs import make_system, tdse
from tunnelqs.spectra import attoclock_readout, default_phi_grid
from tunnelqs.tdse import (
    DEFAULT_MAX_CHANNELS,
    DEFAULT_TOL,
    MAX_ZEFF_DR,
    PropagationError,
    Propagator,
    PulseParams,
    RadialGrid,
    TdseConfigError,
    WavefunctionState,
    build_ground_state,
    channel_index,
    coupling_operators,
    default_dt,
    envelope,
    even_channels,
    even_index,
    load_checkpoint,
    plan_run,
    radial_hamiltonian,
    run_pulse,
    save_checkpoint,
    vector_potential,
)


@pytest.fixture()
def propagators_made(monkeypatch):
    """Every Propagator that run_pulse constructs, in order."""
    made = []

    class Recorded(Propagator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(tdse, "Propagator", Recorded)
    return made


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
        chans = [(l, m) for l in range(7) for m in range(-l, l + 1)]
        assert len(chans) == 49
        for k, (l, m) in enumerate(chans):
            assert channel_index(l, m) == k

    def test_even_index_layout(self):
        # the rows of a state: the even l + m channels of the full layout, in order
        even = [(l, m) for l in range(7) for m in range(-l, l + 1) if (l + m) % 2 == 0]
        l, m = even_channels(6)
        assert l.dtype.kind == m.dtype.kind == "i"
        assert list(zip(l.tolist(), m.tolist())) == even
        assert len(even) == 7 * 8 // 2
        assert even_index(l, m).tolist() == list(range(len(even)))
        assert even_index(2, -2) == 3

    @pytest.mark.parametrize("l_max", [-1, -4])
    def test_negative_l_max_rejected(self, l_max):
        with pytest.raises(TdseConfigError, match="l_max must be >= 0"):
            even_channels(l_max)


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
            diag, off = radial_hamiltonian(1.0, grid, 0)
            np.testing.assert_array_equal(off, np.full(grid.n_points - 1, -0.5 / dr**2))
            w, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
            errs0.append(abs(w[0] + 0.5))
            errs1.append(abs(w[1] + 0.125))
        assert errs0[0] / errs0[1] > 3.9
        assert 3.4 < errs1[0] / errs1[1] < 4.6

    def test_centrifugal_term(self):
        grid = RadialGrid(dr=0.1, r_max=20.0)
        d0, _ = radial_hamiltonian(1.0, grid, 0)
        d1, _ = radial_hamiltonian(1.0, grid, 1)
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
        u1 = build_ground_state(s, grid, 0)[0].psi[even_index(0, 0)]
        u2 = build_ground_state(s, grid, 0)[0].psi[even_index(0, 0)]
        assert float(np.real(u1[np.argmax(np.abs(u1))])) > 0.0
        np.testing.assert_array_equal(u1, u2)

    def test_sign_rule_flips_a_negative_level(self, monkeypatch):
        # LAPACK hands this level over positive at its maximum, so the flip
        # runs only when the solver's levels come back negated
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=40.0)
        u = build_ground_state(s, grid, 0)[0].psi[even_index(0, 0)]
        bound_levels = tdse._bound_levels

        def negated(*args):
            energies, levels = bound_levels(*args)
            return energies, -levels

        level = negated(s.Zeff, grid, 0)[1][0]
        assert level[np.argmax(np.abs(level))] < 0.0
        monkeypatch.setattr(tdse, "_bound_levels", negated)
        flipped = build_ground_state(s, grid, 0)[0].psi[even_index(0, 0)]
        assert float(np.real(flipped[np.argmax(np.abs(flipped))])) > 0.0
        np.testing.assert_array_equal(flipped, u)

    def test_box_without_bound_s_level_refused(self):
        # r_max = 1 holds no E < 0 level for Zeff = 1: the run stops before
        # propagating instead of starting from the lowest, unbound, level
        grid = RadialGrid(dr=0.1, r_max=1.0)
        with pytest.raises(TdseConfigError, match=r"^the radial box \(dr = 0.1, r_max = 1\) "
                           r"holds no bound s level for Zeff = 1; use a larger r_max$"):
            run_pulse(make_system(1.0), grid, PulseParams(F0=0.5, omega=0.8), l_max=2, dt=0.05)

    def test_state_shape_validation(self):
        grid = RadialGrid(dr=0.1, r_max=10.0)
        with pytest.raises(ValueError):
            WavefunctionState(grid=grid, l_max=1,
                              psi=np.zeros((4, 3), dtype=np.complex128),
                              t=0.0)

    @pytest.mark.parametrize("l_max, rows", [(-4, 3), (-1, 0)])
    def test_negative_l_max_rejected(self, l_max, rows):
        # (l_max + 1)(l_max + 2)/2 is 3 at l_max = -4, and (l_max + 1)^2 is
        # 0 at -1: both shapes used to pass for a state's
        grid = RadialGrid(dr=0.1, r_max=6.0)
        with pytest.raises(TdseConfigError, match="l_max must be >= 0"):
            WavefunctionState(grid, l_max, np.ones((rows, grid.n_points)))

    def test_real_psi_steps_like_complex(self):
        # a state holds complex128, so a step writes its imaginary part back
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state, _ = build_ground_state(s, grid, l_max=3)
        state.t = 0.45 * pulse.duration
        real = WavefunctionState(grid, 3, state.psi.real, state.t)
        assert real.psi.dtype == np.complex128
        for st in (state, real):
            prop = Propagator(s, grid, 3, 0.02)
            for _ in range(3):
                prop.step(st, pulse)
        assert np.array_equal(real.psi, state.psi)


class TestInteraction:
    """The operators act on an array shaped like a state's psi."""

    @pytest.fixture()
    def prop(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=20.0)
        return Propagator(s, grid, l_max=4, dt=0.02)

    @pytest.fixture()
    def shape(self, prop):
        return build_ground_state(prop.system, prop.grid, prop.l_max)[0].psi.shape

    def test_hermitian(self, prop, shape):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        atilde = complex(0.3, -0.8)
        hy = prop.apply_interaction(y, atilde)
        hx = prop.apply_interaction(x, atilde)
        assert np.vdot(x, hy) == pytest.approx(np.vdot(hx, y), rel=1e-12)

    def test_atomic_hermitian(self, prop, shape):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.vdot(x, prop.apply_atomic(y)) == pytest.approx(
            np.vdot(prop.apply_atomic(x), y), rel=1e-12)

    def test_zero_field_shortcut(self, prop, shape):
        psi = np.ones(shape, dtype=np.complex128)
        assert not prop.apply_interaction(psi, 0.0).any()
        # without a field a step is one atomic half-step solve: q =
        # dt |Atilde| N/4 is zero, so the first iteration's solve ends the
        # step, with no second coupling product
        state, _ = build_ground_state(prop.system, prop.grid, prop.l_max)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state.t = pulse.duration
        start = state.psi.copy()
        assert prop.step(state, pulse) == (1, 0.0)
        assert prop.solves == 1
        fresh = Propagator(prop.system, prop.grid, prop.l_max, prop.dt)
        assert state.psi.tobytes() == (fresh._solve_implicit(2.0 * start) - start).tobytes()

    def test_solve_inverts_atomic_half_step(self, prop, shape):
        # (1 + i dt/2 H_atom) applied, then solved: any coupling across a
        # channel edge in the factorization would show at the block ends
        rng = np.random.default_rng(9)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = prop._solve_implicit(psi + 0.5j * prop.dt * prop.apply_atomic(psi))
        np.testing.assert_allclose(back, psi, rtol=0.0, atol=1e-12)

    def test_atomic_is_the_per_row_tridiagonal(self, prop, shape):
        # the flat kernel zeroes the terms across channel edges; row by
        # row it must give the same bytes as each channel's tridiagonal
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        even = [(l, m) for l in range(prop.l_max + 1) for m in range(-l, l + 1, 2)]
        expect = np.empty_like(psi)
        for row, (l, _) in enumerate(even):
            d, e = radial_hamiltonian(prop.system.Zeff, prop.grid, l)
            u = psi[row]
            expect[row] = d.astype(np.complex128) * u
            expect[row, :-1] += e * u[1:]
            expect[row, 1:] += e * u[:-1]
        assert prop.apply_atomic(psi).tobytes() == expect.tobytes()

    def test_non_contiguous_psi(self, prop, shape):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fortran = np.asfortranarray(psi)
        assert not fortran.flags.c_contiguous
        for kernel in (prop.apply_atomic,
                       lambda u: prop.apply_interaction(u, complex(0.3, -0.8))):
            assert kernel(fortran).tobytes() == kernel(psi).tobytes()

    def test_non_contiguous_out_works_or_raises(self, prop, shape):
        # never a result written into a reshaped copy and lost
        rng = np.random.default_rng(13)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kernels = (prop.apply_atomic,
                   lambda u, out: prop.apply_interaction(u, complex(0.3, -0.8), out=out))
        for kernel in kernels:
            expect = kernel(psi, out=np.empty(shape, dtype=np.complex128)).copy()
            outs = (np.empty(shape[::-1], dtype=np.complex128).T,
                    np.empty((shape[0], 2 * shape[1]), dtype=np.complex128)[:, ::2])
            for out in outs:
                try:
                    got = kernel(psi, out=out)
                except ValueError:
                    continue
                assert got is out
                assert np.array_equal(out, expect)

    def test_interaction_from_s_channel(self, prop, shape):
        rng = np.random.default_rng(10)
        n = prop.grid.n_points
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = np.zeros(shape, dtype=np.complex128)
        psi[even_index(0, 0)] = u
        atilde = complex(0.3, -0.8)
        out = prop.apply_interaction(psi, atilde)
        # central difference with u = 0 at r = 0 and beyond the box
        padded = np.concatenate([[0.0], u, [0.0]])
        radial = ((padded[2:] - padded[:-2]) / (2.0 * prop.grid.dr)
                  - u / prop.grid.radii())
        w = math.sqrt(2.0 / 3.0)
        expect = np.zeros_like(psi)
        expect[even_index(1, 1)] = -0.5j * np.conj(atilde) * -w * radial
        expect[even_index(1, -1)] = -0.5j * atilde * w * radial
        np.testing.assert_allclose(out, expect, rtol=0.0,
                                   atol=1e-13 * np.abs(expect).max())
        others = np.delete(out, [even_index(1, 1), even_index(1, -1)], axis=0)
        assert float(np.abs(others).max()) == 0.0

    def test_coupling_keeps_parity(self):
        # why a state need only hold the even l + m channels: every edge
        # moves (l, m) by (+-1, +1) in the D+ half and by (+-1, -1) in D-
        l_max = 4
        l, m = even_channels(l_max)
        rows = l.size
        coo = coupling_operators(l_max).tocoo()
        assert coo.shape == (2 * rows, 2 * rows)
        assert np.count_nonzero(coo.data) == coo.nnz > 0
        dst, src = coo.row % rows, coo.col % rows
        assert np.array_equal(np.abs(l[dst] - l[src]), np.ones(coo.nnz, dtype=int))
        assert np.array_equal(m[dst] - m[src], np.where(coo.row < rows, 1, -1))

    # SHA-256 of (indptr, indices, data) of Propagator.couple at dr = 0.1,
    # recorded from the full-layout assembly cut to the even rows
    COUPLE_SHA256 = {
        4: ("765f0ecd88036be9435f293692bed5e71ebebd16d52ec9fa7b38e3ef693693fa",
            "00414e545039a9e42e7c8fe5751a95fc7da2ccacca20fdc79c842febcb04eaa4",
            "9f21a9fe19399e4a32b4e5a99c5efbbdafa21a870317e64a3e69daa8a8d17bde"),
        8: ("0086811646be6f8e6c80732ccf2355828624601ee50158cda398df926088b412",
            "c7406c1162c03e5d56245d9e8b7b1f4f6de774c7d3d3f420077fc44d7bfa6448",
            "9750090cd32e3480182f4ed5c83f7417a9c02031eec4655c2ae057f11b8c2479"),
    }

    @pytest.mark.parametrize("l_max", sorted(COUPLE_SHA256))
    def test_couple_frozen(self, l_max):
        couple = Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=6.0), l_max, 0.02).couple
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (couple.indptr, couple.indices, couple.data))
        assert got == self.COUPLE_SHA256[l_max]


class TestCrankNicolsonOracle:
    """A step is (1 + i dt/2 H)^-1 (1 - i dt/2 H) psi, with H assembled as a
    dense matrix from the Propagator's own operators on unit vectors."""

    @pytest.fixture()
    def prop(self):
        return Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=3.0), l_max=2, dt=0.02)

    @staticmethod
    def _dense(apply, shape):
        size = shape[0] * shape[1]
        columns = [apply(np.eye(1, size, k, dtype=np.complex128).reshape(shape)).ravel()
                   for k in range(size)]
        return np.array(columns).T

    @pytest.mark.parametrize("f0", [0.5, 0.0])
    def test_step_is_crank_nicolson(self, prop, f0):
        pulse = PulseParams(F0=f0, omega=0.8)
        shape = (even_channels(prop.l_max)[0].size, prop.grid.n_points)
        rng = np.random.default_rng(14)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi /= math.sqrt(np.vdot(psi, psi).real * prop.grid.dr)
        state = WavefunctionState(grid=prop.grid, l_max=prop.l_max, psi=psi.copy(),
                                  t=0.4 * pulse.duration)
        atilde = complex(*vector_potential(pulse, state.t + 0.5 * prop.dt))
        h = (self._dense(prop.apply_atomic, shape)
             + self._dense(lambda u: prop.apply_interaction(u, atilde), shape))
        half = 0.5j * prop.dt * h
        one = np.eye(len(h))
        expect = np.linalg.solve(one + half, (one - half) @ psi.ravel()).reshape(shape)
        iterations, defect = prop.step(state, pulse)
        if f0 == 0.0:       # q = 0: the first solve is certified
            assert (iterations, defect) == (1, 0.0)
        else:
            assert iterations > 1
        np.testing.assert_allclose(state.psi, expect, rtol=0.0, atol=10 * prop.tol)


class TestStoppingRule:
    """From the second iteration on, a step stops on the residual of its
    midpoint iterate, which bounds the next update, before it solves
    again."""

    @pytest.fixture(scope="class")
    def mid_pulse(self):
        s = make_system(1.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state, _ = build_ground_state(s, RadialGrid(dr=0.1, r_max=60.0), l_max=8)
        prop = Propagator(s, state.grid, 8, 0.02)
        while state.t < 0.45 * pulse.duration:
            prop.step(state, pulse)
        return prop, pulse, state

    def test_fewer_solves_than_iterations(self, mid_pulse, monkeypatch):
        prop, pulse, state = mid_pulse
        calls = []
        solve = prop._solve_implicit

        def counted(rhs):
            calls.append(len(rhs))
            return solve(rhs)

        monkeypatch.setattr(prop, "_solve_implicit", counted)
        before = prop.solves
        iterations = sum(prop.step(state, pulse)[0] for _ in range(20))
        assert len(calls) < iterations
        assert prop.solves - before == len(calls)

    def test_next_update_within_tol(self, mid_pulse):
        # one more fixed-point update from the returned midpoint moves the
        # step's result 2 m - psi by at most tol
        prop, pulse, state = mid_pulse
        oracle = Propagator(prop.system, prop.grid, prop.l_max, prop.dt)
        half = 0.5j * prop.dt
        for _ in range(20):
            psi, t = state.psi.copy(), state.t
            prop.step(state, pulse)
            m = 0.5 * (state.psi + psi)
            atilde = complex(*vector_potential(pulse, t + 0.5 * prop.dt))
            moved = oracle._solve_implicit(psi - half * oracle.apply_interaction(m, atilde)) - m
            assert 2.0 * math.sqrt(np.vdot(moved, moved).real * prop.grid.dr) <= prop.tol


class TestNormBound:
    """After a solve that misses the tolerance, a step stops when
    q = dt |Atilde| N/4 times the solve's change meets it, N a bound on
    the coupling's norm: the next residual test would then have returned
    the same iterate, so the bound saves a coupling product and no bit."""

    @pytest.mark.parametrize("dr", [0.1, 0.2])
    @pytest.mark.parametrize("l_max", [1, 2, 3, 4])
    def test_bound_is_a_close_upper_bound(self, l_max, dr):
        # above the norm, and within 2x of it: a bound without the 1/r or
        # the edge-stencil terms falls below, a useless one above
        prop = Propagator(make_system(1.0), RadialGrid(dr=dr, r_max=2.0), l_max, 0.02)
        n = prop.grid.n_points
        for blocks in range(1, l_max + 2):
            rows = blocks * (blocks + 1) // 2
            # H_int at Atilde = 1 is -(i/2) (D+ + D-)
            h = TestCrankNicolsonOracle._dense(lambda u: prop.apply_interaction(u, 1.0),
                                               (rows, n))
            sigma = 2.0 * np.linalg.norm(h, 2)
            assert sigma <= prop._by_rows[rows][2] <= 2.0 * sigma

    def test_certified_steps_change_no_bits(self, monkeypatch):
        # one stepper with the bound, one whose infinite N certifies no
        # step, through most of a pulse and a field-free tail
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=20.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        bounded, unbounded = (Propagator(s, grid, 3, 0.02) for _ in range(2))
        monkeypatch.setattr(unbounded, "_by_rows", {
            rows: (couple, lu, math.inf) for rows, (couple, lu, _) in unbounded._by_rows.items()})
        calls = {}
        for prop in (bounded, unbounded):
            for name in ("apply_interaction", "_solve_implicit"):
                def counted(*args, kernel=getattr(prop, name), key=(prop, name), **kwargs):
                    calls[key] = calls.get(key, 0) + 1
                    return kernel(*args, **kwargs)
                monkeypatch.setattr(prop, name, counted)
        state, _ = build_ground_state(s, grid, 3)
        # where |Atilde| is 3e-9, the fresh start's first solve misses tol
        # and q times its change meets it, but the window grows: the step
        # must go on
        state.t = 0.1 * pulse.duration
        twin = state.copy()
        while state.t < pulse.duration:
            bounded.step(state, pulse)
            unbounded.step(twin, pulse)
            assert state.psi.tobytes() == twin.psi.tobytes()
        for _ in range(5):
            assert bounded.step(state, pulse) == (1, 0.0)
            assert unbounded.step(twin, pulse) == (2, 0.0)
            assert state.psi.tobytes() == twin.psi.tobytes()
        assert bounded.certified > 0 == unbounded.certified
        assert (calls[bounded, "apply_interaction"]
                < calls[unbounded, "apply_interaction"])
        assert calls[bounded, "_solve_implicit"] == calls[unbounded, "_solve_implicit"]
        assert bounded.solves == unbounded.solves == calls[bounded, "_solve_implicit"]


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
        # A.p moves (l, m) by (+-1, +-1), so from (0, 0) the channels with
        # odd l + m stay exactly empty: a state holds a row for each even
        # channel, l by l, and none for the odd ones
        even = [(l, m) for l in range(4) for m in range(-l, l + 1, 2)]
        assert stepped.shape == (len(even),) == (10,)
        assert [even_index(l, m) for l, m in even] == list(range(10))

    def test_first_order_channels(self, stepped):
        assert stepped[even_index(1, 1)] > 1e-7
        assert stepped[even_index(1, -1)] > 1e-7
        # one midpoint-field step gives symmetric +-m weights
        assert stepped[even_index(1, 1)] == pytest.approx(
            stepped[even_index(1, -1)], rel=1e-10)

    def test_order_hierarchy(self, stepped):
        first = stepped[even_index(1, 1)]
        second = stepped[even_index(2, 2)]
        third = stepped[even_index(3, 3)]
        assert first > 1e3 * second > 0.0
        assert second > 1e3 * third > 0.0

    def test_odd_amplitude_rejected(self):
        # a psi in the full channel_index layout keeps its even rows, and
        # amplitude in an odd one is refused when the state is made
        grid = RadialGrid(dr=0.1, r_max=30.0)
        state, _ = build_ground_state(make_system(1.0), grid, l_max=3)
        full = np.zeros((16, grid.n_points), dtype=np.complex128)
        full[channel_index(0, 0)] = state.psi[even_index(0, 0)]
        assert np.array_equal(WavefunctionState(grid, 3, full.copy()).psi, state.psi)
        full[channel_index(2, 1)] = 1e-3 * full[channel_index(0, 0)]
        with pytest.raises(ValueError, match="odd l \\+ m"):
            WavefunctionState(grid, 3, full)


class TestPredictorHistory:
    """A step starts its iteration from an extrapolation of the states
    this Propagator produced.  Any other state starts from psi itself, so
    its step is exactly the one a fresh Propagator takes."""

    @pytest.fixture()
    def setup(self):
        # propagated from t = 0 through the smooth turn-on, as run_pulse
        # does: a ground state dropped into the field mid-pulse excites
        # lattice modes that a high-order extrapolation amplifies
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state, _ = build_ground_state(s, grid, l_max=3)
        prop = Propagator(s, grid, 3, 0.02)
        while state.t < 0.45 * pulse.duration:   # until the field is well on
            prop.step(state, pulse)
            # the ring's newest entry is the state the step produced
            assert prop.states[prop.head].tobytes() == state.psi.tobytes()
        assert prop.history == tdse.ORDER
        return prop, pulse, state

    @staticmethod
    def _step_as_fresh(prop, pulse, state):
        twin = state.copy()
        expect = Propagator(prop.system, prop.grid, prop.l_max, prop.dt).step(twin, pulse)
        assert prop.step(state, pulse) == expect
        np.testing.assert_allclose(state.psi, twin.psi, rtol=0.0, atol=10 * prop.tol)

    def test_ownership_compares_as_complex(self):
        # the float64 view of a C-contiguous psi and the complex compare of
        # any other layout agree: -0 equals 0, NaN equals nothing
        prop = Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=3.0), 2, 0.02)
        head = prop.states[prop.head]
        rng = np.random.default_rng(18)
        head[:] = rng.standard_normal(head.shape) + 1j * rng.standard_normal(head.shape)
        head[0, :3] = 0.0
        psi = head.copy()
        psi[0, :3] = complex(-0.0, -0.0)
        for layout in (psi, np.asfortranarray(psi)):
            assert prop._is_head(layout)
        psi[1, 1] = head[1, 1] = complex(math.nan, 0.0)
        for layout in (psi, np.asfortranarray(psi)):
            assert not prop._is_head(layout)

    def test_continued_state_uses_history(self, setup):
        # the counterpart of the tests below: a continued step is no fresh
        # start, so it needs fewer iterations
        prop, pulse, state = setup
        twin = state.copy()
        fresh = Propagator(prop.system, prop.grid, prop.l_max, prop.dt).step(twin, pulse)
        assert prop.step(state, pulse)[0] < fresh[0]
        np.testing.assert_allclose(state.psi, twin.psi, rtol=0.0, atol=10 * prop.tol)

    def test_two_states_alternately(self, setup):
        prop, pulse, a = setup
        b = a.copy()
        b.psi[even_index(1, 1)] += 0.1 * b.psi[even_index(0, 0)]
        # b starts where the last step ended, so only its contents tell it
        # apart; later steps of either state follow one of the other
        for _ in range(3):
            self._step_as_fresh(prop, pulse, b)
            self._step_as_fresh(prop, pulse, a)

    @pytest.mark.parametrize("edit", ["psi", "t"])
    def test_edited_state(self, setup, edit):
        prop, pulse, state = setup
        if edit == "psi":
            state.psi[even_index(2, 2)] *= 0.5
        else:
            state.t += 0.25 * prop.dt
        self._step_as_fresh(prop, pulse, state)

    def test_restart_ramps_up_like_fresh(self, setup):
        # after a reset the ring refills from its first entry, and no
        # stale entry enters the start: step for step, the same bytes as
        # a fresh Propagator
        prop, pulse, state = setup
        state.psi[even_index(2, 2)] *= 0.5
        twin = state.copy()
        fresh = Propagator(prop.system, prop.grid, prop.l_max, prop.dt)
        for _ in range(tdse.ORDER + 2):
            assert prop.step(state, pulse) == fresh.step(twin, pulse)
        assert np.array_equal(state.psi, twin.psi)

    def test_field_free_step_continues(self, setup):
        # no special case without a field: the history carries on through
        # the field-free step, which its first solve ends, and the field
        # step after it
        prop, pulse, state = setup
        idle = PulseParams(F0=0.0, omega=pulse.omega)
        assert prop.step(state, idle) == (1, 0.0)
        assert prop.history == tdse.ORDER
        assert prop.states[prop.head].tobytes() == state.psi.tobytes()
        twin = state.copy()
        Propagator(prop.system, prop.grid, prop.l_max, prop.dt).step(twin, pulse)
        prop.step(state, pulse)
        assert prop.history == tdse.ORDER
        np.testing.assert_allclose(state.psi, twin.psi, rtol=0.0, atol=10 * prop.tol)


class TestWindow:
    """A step propagates only the l blocks 0..L the field has reached, a
    prefix of the rows, and carries the rows above it over unchanged."""

    @staticmethod
    def _graded_state(grid, l_max, seed):
        # random in every row, each block 1e-12 the amplitude of the one
        # below, so the window starts at blocks 0..2 and grows from there
        l, _ = even_channels(l_max)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((l.size, grid.n_points)) + 1j * rng.standard_normal(
            (l.size, grid.n_points))
        psi *= (1e-12 ** l)[:, None]
        psi /= math.sqrt(np.vdot(psi, psi).real * grid.dr)
        return WavefunctionState(grid=grid, l_max=l_max, psi=psi, t=0.0)

    def test_window_step_is_the_full_step(self, monkeypatch):
        # over the step's 7 iterations the window grows from blocks 0..2 to
        # 0..7 of 0..10
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=20.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state = self._graded_state(grid, 10, seed=15)
        state.t = 0.45 * pulse.duration
        assert (state.populations_by_l() > 0.0).all()
        window = Propagator(s, grid, 10, 0.02)
        twin = state.copy()
        window.step(state, pulse)
        assert window.blocks < 11         # the blocks above were not propagated
        monkeypatch.setattr(tdse, "REACH", -math.inf)   # every block reached
        full = Propagator(s, grid, 10, 0.02)
        full.step(twin, pulse)
        assert full.blocks == 11
        np.testing.assert_allclose(state.psi, twin.psi, rtol=0.0, atol=10 * full.tol)

    def test_prefix_solve_is_the_full_solve(self):
        prop = Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=10.0), 4, 0.02)
        rng = np.random.default_rng(16)
        shape = (even_channels(4)[0].size, prop.grid.n_points)
        for blocks in range(1, 6):
            rows = blocks * (blocks + 1) // 2
            rhs = np.zeros(shape, dtype=np.complex128)
            rhs[:rows] = rng.standard_normal((rows, shape[1])) + 1j * rng.standard_normal(
                (rows, shape[1]))
            prefix = prop._solve_implicit(rhs[:rows].copy())
            full = prop._solve_implicit(rhs)
            assert prefix.shape == (rows, shape[1])
            assert prefix.tobytes() == full[:rows].tobytes()
            assert not full[rows:].any()

    def test_prefix_interaction_is_the_full_product(self):
        prop = Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=10.0), 4, 0.02)
        psi = self._graded_state(prop.grid, 4, seed=17).psi
        psi[6:] = 0.0                     # blocks 0..2 hold amplitude
        atilde = complex(0.3, -0.8)
        full = prop.apply_interaction(psi, atilde)
        prefix = prop.apply_interaction(psi[:10], atilde)   # blocks 0..3
        assert prefix.tobytes() == full[:10].tobytes()
        assert not full[10:].any()

    def test_window_grows_from_the_ground_state(self, monkeypatch):
        blocks = []

        class Recorded(Propagator):
            def step(self, *args, **kwargs):
                done = super().step(*args, **kwargs)
                blocks.append(self.blocks)
                return done

        monkeypatch.setattr(tdse, "Propagator", Recorded)
        res = run_pulse(make_system(1.0), RadialGrid(dr=0.2, r_max=30.0),
                        PulseParams(F0=0.5, omega=0.8), l_max=8, dt=0.05)
        assert blocks[0] == 2             # block 0 and the one it feeds
        assert (np.diff(blocks) >= 0).all()
        assert blocks[-1] == 9            # l_max reached on the smoke pulse
        rows = [b * (b + 1) // 2 for b in blocks]
        assert res.propagated_row_fraction == pytest.approx(sum(rows) / (45 * res.steps))
        assert res.propagated_row_fraction < 0.9


class TestPropagation:
    def test_field_free_survival(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        u0 = state.psi[even_index(0, 0)].copy()
        pulse = PulseParams(F0=0.0, omega=0.8)
        prop = Propagator(s, grid, 2, 0.02)
        norm0 = state.norm()
        for _ in range(100):
            prop.step(state, pulse)
        overlap = abs(np.sum(np.conj(u0) * state.psi[even_index(0, 0)]) * grid.dr)
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
        # the order-4 start and the norm bound (1,071); the quadratic start
        # took 2,001, and the order-4 start without the bound 1,440
        assert res.steps <= res.iterations_total < 1200
        # the residual test ends most two-iteration steps without a second solve
        assert res.steps <= res.solves_total < res.iterations_total
        # the norm bound ends 369 of the steps
        assert res.certified_steps > 0
        assert res.tail_fraction < 1e-6
        assert res.warnings == []
        # the window leaves about a quarter of the row-steps out (0.761)
        assert 0.5 < res.propagated_row_fraction < 0.8

    def test_coarse_dt_iterations(self, hydrogen, smoke_grid, smoke_pulse):
        # at dt 0.05 the quadratic start took 958 iterations
        res = run_pulse(hydrogen, smoke_grid, smoke_pulse, l_max=8, dt=0.05)
        assert res.iterations_total < 958

    def test_smoke_populations(self, smoke_run):
        pops = smoke_run.populations_by_l
        assert pops.shape == (9,)
        assert pops.sum() == pytest.approx(smoke_run.norm_final ** 2,
                                           rel=1e-10)
        # angular ladder decays over many orders at this intensity
        assert pops[0] > 0.5
        assert pops[8] < 1e-8

    def test_equal_steps_land_on_t1(self, propagators_made):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        res = run_pulse(s, grid, pulse, l_max=1, dt=0.03)
        assert res.steps == math.ceil(pulse.duration / 0.03)
        assert propagators_made[0].dt == pulse.duration / res.steps
        assert res.state.t == pytest.approx(pulse.duration, rel=1e-12)

    def test_plan_is_the_run(self):
        # dt = T1/(k + eps) near a whole step count, where a remainder
        # below 1e-12 T1 is dropped, and T1 < dt, where only a shortened
        # step is taken: the plan counts the steps the run takes
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=5.0)
        cases = [(PulseParams(F0=0.0, omega=8.0), 100 + eps)
                 for eps in (0.0, 2e-12, 5e-11, -5e-11)]
        cases.append((PulseParams(F0=0.0, omega=1e300), None))
        for pulse, k in cases:
            dt = None if k is None else pulse.duration / k
            n_steps, _, _ = plan_run(s, grid, pulse, l_max=0, dt=dt)
            res = run_pulse(s, grid, pulse, l_max=0, dt=dt)
            assert res.steps == n_steps, k
            assert res.state.t == pytest.approx(pulse.duration, rel=1e-12)

    def test_one_propagator_alive(self, propagators_made):
        # T1/dt is not whole, yet every step has the same length
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=30.0)
        pulse = PulseParams(F0=0.1, omega=4.0)
        assert pulse.duration / 0.02 % 1.0 > 0.05
        run_pulse(s, grid, pulse, l_max=6, dt=0.02)
        assert len(propagators_made) == 1

    @pytest.mark.parametrize("grid, l_max", [(RadialGrid(dr=0.2, r_max=12.0), 2),
                                             (RadialGrid(dr=0.1, r_max=6.0), 3)])
    def test_step_refuses_a_foreign_state(self, grid, l_max):
        # a state on another grid with as many points used to be stepped
        # with this grid's operators
        s = make_system(1.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        prop = Propagator(s, RadialGrid(dr=0.1, r_max=6.0), 2, 0.02)
        state, _ = build_ground_state(s, grid, l_max)
        state.t = 0.45 * pulse.duration
        before = state.psi.copy()
        with pytest.raises(ValueError, match="does not fit the propagator"):
            prop.step(state, pulse)
        assert np.array_equal(state.psi, before)
        assert state.t == 0.45 * pulse.duration

    def test_divergence_reports_position(self):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=10.0, omega=1.0)
        with pytest.raises(PropagationError) as exc:
            run_pulse(s, grid, pulse, l_max=1, dt=0.5)
        err = exc.value
        assert err.defect > err.tol
        assert err.step >= 0
        n_steps = plan_run(s, grid, pulse, l_max=1, dt=0.5)[0]
        assert err.t_last == pytest.approx(err.step * pulse.duration / n_steps, rel=1e-12)
        assert "defect" in str(err)


class TestZScaling:
    """A Z = 2 ion on hydrogen's grid, step and pulse scaled by r/Z, t/Z^2,
    F Z^3 and omega Z^2 is the same discrete problem: E0 scales by Z^2,
    u(r) by sqrt(Z), and the spectrum at p_Z = Z p_H has the same angles
    and ionized fraction."""

    @staticmethod
    def _run(z, dr, r_max, dt, f0, omega):
        system = make_system(z)
        pulse = PulseParams(F0=f0, omega=omega)
        res = run_pulse(system, RadialGrid(dr=dr, r_max=r_max), pulse, l_max=4, dt=dt)
        p = z * np.linspace(0.05, 1.5, 60)
        amps, _, _, offset = attoclock_readout(res.state, system, pulse, p,
                                               default_phi_grid(180))
        return res, amps.total_ionized(), offset

    def test_z2_ion_is_scaled_hydrogen(self):
        res_h, ion_h, off_h = self._run(1.0, 0.2, 30.0, 0.04, 0.3, 0.8)
        res_z, ion_z, off_z = self._run(2.0, 0.1, 15.0, 0.01, 2.4, 3.2)
        assert res_z.steps == res_h.steps
        assert res_z.energy0 / res_h.energy0 == pytest.approx(4.0, rel=1e-12)
        psi_gap = np.abs(res_z.state.psi - math.sqrt(2.0) * res_h.state.psi).max()
        assert psi_gap <= 10 * DEFAULT_TOL
        assert ion_h > 1e-4
        assert ion_z == pytest.approx(ion_h, rel=1e-9)
        assert off_z.theta == pytest.approx(off_h.theta, abs=1e-9)


class TestStepAllocations:
    def test_mid_pulse_steps_allocate_little(self):
        # every array of the even block's size lives in the Propagator's buffers;
        # fresh temporaries per step used to reach six times psi
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=60.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        state, _ = build_ground_state(s, grid, l_max=8)
        state.t = 0.45 * pulse.duration
        prop = Propagator(s, grid, 8, 0.02)
        for _ in range(3):
            prop.step(state, pulse)
        block_bytes = state.psi.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                prop.step(state, pulse)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block_bytes

    def test_buffers_fit_the_planned_working_set(self):
        # plan_run's working-set factor counts these arrays (15.77 psi at
        # this size); a buffer added here has to raise that factor too
        prop = Propagator(make_system(1.0), RadialGrid(dr=0.1, r_max=60.0), 8, 0.02)
        rows = even_channels(8)[0].size
        arrays = [a for a in vars(prop).values() if isinstance(a, np.ndarray)]
        arrays += prop._by_rows[rows][1]     # the full-row LU factors
        psi_bytes = rows * prop.grid.n_points * 16
        assert sum(a.nbytes for a in arrays) <= 16 * psi_bytes


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

    # -200 gives (l_max + 1)^2 above the channel guard: the sign is checked first
    @pytest.mark.parametrize("l_max", [-1, -200])
    def test_negative_l_max_rejected(self, l_max):
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=10.0)
        with pytest.raises(TdseConfigError, match=rf"^l_max must be >= 0, got {l_max}$"):
            plan_run(s, grid, PulseParams(F0=0.5, omega=0.8), l_max=l_max)

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

    def test_settings_after_l_max_are_keyword_only(self):
        # run_pulse read a sixth positional argument as tol and plan_run as
        # max_channels, so (..., 2, 0.05, 16384) ran with tol = 16384
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=20.0)
        pulse = PulseParams(F0=0.5, omega=0.8)
        for entry in (plan_run, run_pulse):
            with pytest.raises(TypeError, match="positional argument"):
                entry(s, grid, pulse, 2, 0.05, 16384)

    def test_published_scale_warns(self):
        s = make_system(18.0)
        grid = RadialGrid(dr=0.1, r_max=400.0)
        pulse = PulseParams(F0=50.0, omega=3.0)
        _, nch, warnings = plan_run(s, grid, pulse, l_max=100)
        assert nch == 10201
        assert len(warnings) == 2
        assert "not desk scale" in warnings[0]
        # Zeff dr = 1.8: hydrogen on dr 1.8
        assert warnings[1] == ("under-resolved radial grid: Zeff dr = 1.8 exceeds 0.2; "
                               "dr = 0.0111 would meet it")

    def test_working_set_estimate_builds_no_channel_list(self):
        # a state's rows are counted, not listed: building the (l, m)
        # arrays peaked at 20.1 MB for l_max = 1000
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=60.0)
        tracemalloc.start()
        try:
            _, nch, warnings = plan_run(s, grid, PulseParams(F0=0.5, omega=0.8), l_max=1000,
                                        max_channels=2 * 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert nch == 1002001
        assert warnings == ["not desk scale: 786 steps, 1002001 channels x 600 points "
                            "(roughly 86659 MB of working set)"]

    @pytest.mark.parametrize("f0, warned", [(0.5, True), (0.0, False)])
    def test_field_with_l_max_0_warns(self, f0, warned):
        # (0, 0) couples only to l = 1, so at l_max = 0 a field does nothing
        s = make_system(1.0)
        grid = RadialGrid(dr=0.1, r_max=20.0)
        _, _, warnings = plan_run(s, grid, PulseParams(F0=f0, omega=0.8), l_max=0)
        assert warnings == (["l_max = 0 leaves the field nothing to couple: A . p takes "
                             "(0, 0) only to l = 1, so the run cannot ionize"] if warned else [])

    @pytest.mark.parametrize("z, dr, warned", [(10.0, 0.1, True), (2.0, 0.1, False),
                                               (10.0, 0.02, False), (3.0, 0.1, True)])
    def test_under_resolved_grid_warns(self, z, dr, warned):
        # Z 10 on dr 0.1 is hydrogen on dr 1: E0 2.4% and theta 0.056 rad off
        s = make_system(z)
        grid = RadialGrid(dr=dr, r_max=20.0)
        _, _, warnings = plan_run(s, grid, PulseParams(F0=0.5, omega=0.8), l_max=2)
        assert [w for w in warnings if "under-resolved" in w] == (
            [f"under-resolved radial grid: Zeff dr = {z * dr:.3g} exceeds 0.2; "
             f"dr = {0.2 / z:.3g} would meet it"] if warned else [])
        assert MAX_ZEFF_DR == 0.2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        s = make_system(2.0, relativistic=False)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        state.t = 3.25
        path = tmp_path / "state.npz"
        save_checkpoint(path, state, s)
        with np.load(path) as data:
            assert int(data["version"]) == 2
            assert data["psi"].shape == (3 * 4 // 2, grid.n_points)
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
        # version 1 held psi in the full (l_max + 1)^2 layout; no writer makes it now
        for version in (0, 1, 3, 99):
            data["version"] = np.int64(version)
            np.savez(path, **data)
            with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}$"):
                load_checkpoint(path)

    @pytest.mark.parametrize("key,value,match", [
        ("psi", None, "psi and t must be finite"),
        ("t", math.nan, "psi and t must be finite"),
        ("Z", math.nan, "Z must be positive"),
        ("Zeff", -1.0, "Zeff must be positive"),
        ("Ip", math.nan, "Ip must be positive"),
    ])
    def test_bad_contents_rejected(self, tmp_path, key, value, match):
        # each used to load silently, and spectra then gave NaN
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        state, _ = build_ground_state(s, grid, l_max=1)
        path = tmp_path / "state.npz"
        save_checkpoint(path, state, s)
        data = dict(np.load(path))
        if key == "psi":
            data["psi"][0, 3] = complex(math.nan, 0.0)
        else:
            data[key] = np.float64(value)
        np.savez(path, **data)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_npz_without_checkpoint_fields_rejected(self, tmp_path):
        # it used to raise KeyError: 'version is not a file in the archive'
        path = tmp_path / "other.npz"
        np.savez(path, psi=np.zeros(3), t=0.0)
        with pytest.raises(ValueError, match="is not a checkpoint: it lacks Ip, Z, Zeff, "
                                             "dr, l_max, r_max, relativistic, version$"):
            load_checkpoint(path)

    def test_interrupted_write_keeps_the_previous(self, tmp_path, monkeypatch):
        # the file used to be truncated before numpy wrote to it, so an
        # interrupt mid-write destroyed the last good checkpoint
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        state, _ = build_ground_state(s, grid, l_max=1)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state, s)
        later = state.copy()
        later.t = 5.0

        def torn(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", torn)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, later, s)
        monkeypatch.undo()
        loaded, _ = load_checkpoint(path)
        assert loaded.t == 0.0
        np.testing.assert_array_equal(loaded.psi, state.psi)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

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

    def test_negative_l_max_rejected(self, tmp_path):
        # such a file used to load, and its projection read an unfilled table
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=8.0)
        path = tmp_path / "state.npz"
        save_checkpoint(path, build_ground_state(s, grid, l_max=1)[0], s)
        data = dict(np.load(path))
        data["l_max"] = np.int64(-4)
        np.savez(path, **data)
        with pytest.raises(TdseConfigError, match="l_max must be >= 0, got -4"):
            load_checkpoint(path)

    def test_checkpoint_every_needs_a_path(self):
        # it used to run to the end and write nothing
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        with pytest.raises(TdseConfigError, match="checkpoint_every = 5 needs a checkpoint_path"):
            run_pulse(s, grid, pulse, l_max=1, dt=0.1, checkpoint_every=5)

    def test_negative_checkpoint_every_rejected(self, tmp_path):
        # steps_done % -3 == 0 used to write a checkpoint every 3 steps
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        path = tmp_path / "ck.npz"
        with pytest.raises(TdseConfigError, match="checkpoint_every must be >= 0, got -3"):
            run_pulse(s, grid, pulse, l_max=1, dt=0.1,
                      checkpoint_path=path, checkpoint_every=-3)
        assert not path.exists()

    def test_plan_run_rejects_negative_checkpoint_every(self):
        # the one place the rule is written: run_pulse and tdse --dry-run both plan
        s = make_system(1.0)
        grid = RadialGrid(dr=0.5, r_max=10.0)
        pulse = PulseParams(F0=0.05, omega=1.1)
        with pytest.raises(TdseConfigError, match="checkpoint_every must be >= 0, got -1"):
            plan_run(s, grid, pulse, l_max=1, dt=0.1, checkpoint_every=-1)

    def test_non_finite_defect_fails_at_once(self, tmp_path):
        # F0 = 1e200 overflows the coupling product; the step used to warn
        # and iterate to the limit on a NaN iterate
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=20.0)
        pulse = PulseParams(F0=1e200, omega=0.8)
        path = tmp_path / "crash"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError) as exc:
                run_pulse(s, grid, pulse, l_max=2, dt=0.05, checkpoint_path=path)
        err = exc.value
        assert not math.isfinite(err.defect)
        assert (err.step, err.iteration, err.t_last) == (0, 1, 0.0)
        assert "is not finite at iteration 1" in str(err)
        assert load_checkpoint(path)[0].t == 0.0

    def test_direct_step_failure_numbers_the_step(self):
        # a Propagator numbers the steps it completes; a direct step used
        # to report step 0 whatever came before it
        s = make_system(1.0)
        grid = RadialGrid(dr=0.2, r_max=20.0)
        state, _ = build_ground_state(s, grid, l_max=2)
        idle = PulseParams(F0=0.0, omega=0.8)
        state.t = 0.45 * idle.duration
        prop = Propagator(s, grid, 2, 0.05)
        for _ in range(2):
            prop.step(state, idle)
        with pytest.raises(PropagationError) as exc:
            prop.step(state, PulseParams(F0=1e200, omega=0.8))
        assert (exc.value.step, exc.value.iteration) == (2, 1)
        assert str(exc.value).startswith("step 2: ")
        assert prop.steps == 2

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
