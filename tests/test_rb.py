"""Convection simulator: known solutions, symmetries, failure modes."""

from dataclasses import replace

import numpy as np
import pytest

from lrdmd import InvalidInput, SimulationBlowup
from lrdmd import rb
from lrdmd.benchmarks import physical_config
from lrdmd.rb import (
    InitCondition,
    RBConfig,
    analytic_buoyancy,
    degenerate_kappa_b,
    lorenz_init,
    simulate_fields,
    simulate_linear_fields,
    simulate_rb,
    simulate_rb_linear,
    split_state,
    taylor_decay_rate,
)

TWO_PI = 2 * np.pi


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rb.cell_mesh((3, 8)), "grid too small: \\(3, 8\\)"),
        (lambda: rb.cell_mesh((8, 3)), "grid too small: \\(8, 3\\)"),
        (lambda: split_state(np.ones(31), (4, 4)), "state of length 32 expected, got shape \\(31,\\)"),
        (lambda: split_state(np.ones((2, 16)), (4, 4)), "state of length 32 expected"),
        # complex initial fields are rejected, not cut to their real part
        (lambda: rb._as_batch((2, 2), np.ones((2, 2)) + 1j), "initial fields must be real, got complex entries"),
    ],
    ids=["grid-rows", "grid-columns", "state-length", "state-matrix", "fields-complex"],
)
def test_input_checks(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def _degenerate_ic(sigma=1.0, a_b=TWO_PI, **kw):
    return InitCondition(a_b=a_b, a_tau=TWO_PI, kappa_b=degenerate_kappa_b(sigma, a_b), **kw)


def _stack(count):
    """(count, 16, 32) stacks of b and tau: Lorenz fields plus a random third sine mode in tau."""
    rng = np.random.default_rng(4)
    S1 = np.arange(16)[:, None] / 16
    S2 = np.arange(32)[None, :] / 32
    pairs = []
    for j in range(count):
        ic = InitCondition(a_b=TWO_PI * (1 + j % 2), a_tau=TWO_PI * (1 + j), kappa_b=0.1 + 0.1 * j,
                           kappa_tau1=0.2, kappa_tau2=0.05 * j)
        b, tau = split_state(lorenz_init(ic), (16, 32))
        tau = tau + 0.02 * rng.random() * np.sin(TWO_PI * S1) * np.sin(3 * np.pi * S2)
        pairs.append((b, tau))
    return np.stack([b for b, _ in pairs]), np.stack([tau for _, tau in pairs])


class _OddExtended:
    """Oracle: the full-period ``rfft2`` discretisation of the odd extension to s2 in [0, 2)."""

    def __init__(self, grid):
        n1, n2 = grid
        self.n2, self.shape = n2, (n1, 2 * n2)
        f1 = (np.fft.fftfreq(n1) * n1)[:, None]
        f2 = (np.fft.rfftfreq(2 * n2) * (2 * n2))[None, :]
        k1, k2 = TWO_PI * f1, np.pi * f2
        self.lap = -(k1**2 + k2**2)
        inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap != 0.0)
        self.d1 = 1j * np.where(f1 == -n1 / 2, 0.0, k1) * np.ones_like(k2)
        d2 = 1j * np.where(f2 == n2, 0.0, k2) * np.ones_like(k1)
        self.velocity = np.stack([d2 * inv_lap, -self.d1 * inv_lap])  # v = (d_s2, -d_s1) Lap^-1 b
        self.grad = np.stack([self.d1, d2])
        self.forcing = self.d1 * inv_lap
        self.dealias = (np.abs(f1) < n1 / 3.0) & (f2 < 2 * n2 / 3.0)

    def spectrum(self, f):
        ext = np.zeros(f.shape[:-1] + (2 * self.n2,))
        ext[..., : self.n2] = f
        ext[..., self.n2 + 1 :] = -f[..., :0:-1]
        return np.fft.rfft2(ext)

    def grid(self, F):
        return np.fft.irfft2(F, s=self.shape)

    def advection(self, v1, v2, F):
        fx, fy = self.grid(self.grad[:, None] * F)
        return self.dealias * np.fft.rfft2(v1 * fx + v2 * fy)

    def states(self, F):
        return self.grid(F)[..., : self.n2].reshape(len(F), -1)


def _oracle_fields(cfg, b0, tau0, n_samples):
    o = _OddExtended(cfg.grid)

    def rhs(U, t):
        B, T = U
        v1, v2 = o.grid(o.velocity[:, None] * B)
        return np.stack([cfg.sigma * cfg.nu * o.d1 * T - o.advection(v1, v2, B),
                         o.forcing * B - o.advection(v1, v2, T)])

    decay = np.stack([cfg.sigma * o.lap, o.lap])[:, None]
    return rb._integrate(cfg, o.spectrum(np.stack([b0, tau0])), decay, rhs,
                         lambda U, t: o.states(U.swapaxes(0, 1)), n_samples)


def _oracle_linear(cfg, ic, tau0, n_samples):
    o = _OddExtended(cfg.grid)
    rate = taylor_decay_rate(cfg.sigma, ic.a_b)
    b0 = analytic_buoyancy(cfg, ic, 0.0)
    B0 = o.spectrum(b0)
    v1, v2 = o.grid(o.velocity * B0)

    def rhs(T, t):
        return np.exp(-rate * t) * (o.forcing * B0 - o.advection(v1, v2, T))

    def sample(T, t):
        tau = o.states(T)
        return np.concatenate([np.broadcast_to(np.exp(-rate * t) * b0.ravel(), tau.shape), tau], axis=1)

    return rb._integrate(cfg, o.spectrum(tau0), o.lap, rhs, sample, n_samples)


class TestInitCondition:
    def test_zero_amplitudes_zero_state(self):
        ic = InitCondition(kappa_b=0.0, kappa_tau1=0.0, kappa_tau2=0.0)
        np.testing.assert_array_equal(lorenz_init(ic, (16, 32)), np.zeros(1024))

    def test_kappa_tau2_only(self):
        ic = InitCondition(kappa_tau2=1.0)
        state = lorenz_init(ic, (16, 32))
        b, tau = split_state(state, (16, 32))
        np.testing.assert_array_equal(b, np.zeros((16, 32)))
        s2 = np.arange(32) / 32
        expected = -np.sin(TWO_PI * s2)
        for i in range(16):
            np.testing.assert_allclose(tau[i], expected, atol=1e-14)

    def test_buoyancy_mean_zero_for_periodic_wavenumber(self):
        ic = InitCondition(a_b=2 * TWO_PI, kappa_b=0.7)
        b, _ = split_state(lorenz_init(ic, (16, 32)), (16, 32))
        assert abs(np.mean(b)) <= 1e-14

    def test_rejects_nonperiodic_wavenumber(self):
        with pytest.raises(InvalidInput):
            InitCondition(a_b=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            InitCondition(kappa_b=np.inf)


class TestTaylorVortex:
    def test_zero_initial_state_stays_zero(self):
        cfg = RBConfig()
        ic = InitCondition(kappa_b=0.0, kappa_tau1=0.0, kappa_tau2=0.0)
        states = simulate_rb(cfg, ic, 4)
        np.testing.assert_array_equal(states, np.zeros((4, 1024)))

    def test_buoyancy_matches_analytic_decay(self):
        cfg = RBConfig(sigma=1.0, nu=0.0)
        ic = _degenerate_ic(sigma=cfg.sigma, kappa_tau1=0.05, kappa_tau2=0.03)
        states = simulate_rb(cfg, ic, 11)
        for s in range(11):
            t_phys = s * cfg.dt * cfg.sample_stride
            b_sim, _ = split_state(states[s], cfg.grid)
            b_ana = analytic_buoyancy(cfg, ic, t_phys)
            rel = np.linalg.norm(b_sim - b_ana) / np.linalg.norm(b_ana)
            assert rel <= 1e-4

    def test_decay_rate_formula(self):
        assert taylor_decay_rate(2.0, TWO_PI) == pytest.approx(2.0 * (TWO_PI**2 + np.pi**2))

    def test_linear_simulator_buoyancy_is_exact(self):
        cfg = RBConfig()
        ic = _degenerate_ic(kappa_tau1=0.02)
        states = simulate_rb_linear(cfg, ic, 6)
        for s in range(6):
            t_phys = s * cfg.dt * cfg.sample_stride
            b_sim, _ = split_state(states[s], cfg.grid)
            np.testing.assert_allclose(b_sim, analytic_buoyancy(cfg, ic, t_phys), atol=1e-13)

    def test_cross_simulator_agreement(self):
        cfg = RBConfig()
        ic = _degenerate_ic(kappa_tau1=0.05, kappa_tau2=0.02)
        a = simulate_rb(cfg, ic, 7)
        b = simulate_rb_linear(cfg, ic, 7)
        for s in range(7):
            rel = np.linalg.norm(a[s] - b[s]) / max(np.linalg.norm(a[s]), 1e-300)
            assert rel <= 1e-4

    def test_temperature_forced_from_zero(self):
        cfg = RBConfig()
        ic = _degenerate_ic(kappa_tau1=0.0, kappa_tau2=0.0)
        states = simulate_rb_linear(cfg, ic, 3)
        _, tau1 = split_state(states[1], cfg.grid)
        assert np.linalg.norm(tau1) > 0


class TestDiffusionRegime:
    def test_tau_energy_non_increasing(self):
        # b = 0 forces v = 0; nu = 0: pure temperature diffusion
        cfg = RBConfig(nu=0.0)
        ic = InitCondition(kappa_b=0.0, kappa_tau1=0.08, kappa_tau2=0.05)
        states = simulate_rb(cfg, ic, 8)
        energies = [float(np.sum(split_state(states[s], cfg.grid)[1] ** 2)) for s in range(8)]
        assert all(energies[i + 1] <= energies[i] + 1e-15 for i in range(7))
        b_fields = [split_state(states[s], cfg.grid)[0] for s in range(8)]
        assert max(np.max(np.abs(b)) for b in b_fields) <= 1e-14

    def test_diffusion_rate_matches_heat_kernel(self):
        # single sine mode under pure diffusion: exact exponential decay
        cfg = RBConfig(nu=0.0)
        ic = InitCondition(kappa_b=0.0, kappa_tau1=0.0, kappa_tau2=1.0)  # -sin(2 pi s2)
        states = simulate_rb(cfg, ic, 5)
        rate = (TWO_PI) ** 2  # |k|^2 of the sin(2 pi s2) mode
        for s in range(5):
            t_phys = s * cfg.dt * cfg.sample_stride
            _, tau = split_state(states[s], cfg.grid)
            s2 = np.arange(32) / 32
            expected = -np.exp(-rate * t_phys) * np.sin(TWO_PI * s2)
            for i in range(16):
                np.testing.assert_allclose(tau[i], expected, atol=1e-10)


def _random_fields():
    rng = np.random.default_rng(0)
    return 0.1 * rng.standard_normal((16, 32)), 0.1 * rng.standard_normal((16, 32))


class TestStability:
    # Diffusion is integrated exactly, so only the explicit coupling sigma nu d_s1 can make a
    # step unstable: at nu = 1e6 and dt = 5e-3 it is far outside RK4's stability interval.
    UNSTABLE = RBConfig(sigma=1.0, nu=1e6, dt=5e-3, sample_stride=50)

    def test_blowup_detected_with_step_index(self):
        b0, tau0 = _random_fields()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowup) as exc:
            simulate_fields(self.UNSTABLE, b0, tau0, 40)
        assert exc.value.step > 0

    def test_blowup_detected_in_a_stack(self):
        # the unstable input of the test above, between two tame trajectories
        b0, tau0 = _random_fields()
        tame = np.zeros((16, 32))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowup) as exc:
            simulate_fields(self.UNSTABLE, np.stack([tame, b0, tame]), np.stack([tame, tau0, tame]), 40)
        assert exc.value.step > 0

    def test_diffusive_step_limit_is_gone(self):
        # dt = 5e-3 puts |Lap|_max dt near 60, far outside explicit RK4's stability interval.
        cfg = RBConfig(sigma=1.0, nu=0.0, dt=5e-3, sample_stride=50)
        states = simulate_fields(cfg, *_random_fields(), 40)
        assert np.all(np.isfinite(states))
        energies = [float(np.sum(split_state(x, cfg.grid)[1] ** 2)) for x in states]
        assert all(energies[i + 1] <= energies[i] for i in range(len(energies) - 1))

    def test_determinism(self):
        cfg = RBConfig(nu=6000.0)
        ic = _degenerate_ic(kappa_tau1=0.2, kappa_tau2=0.1)
        a = simulate_rb(cfg, ic, 5)
        b = simulate_rb(cfg, ic, 5)
        assert a.tobytes() == b.tobytes()

    def test_bad_sample_count(self):
        with pytest.raises(InvalidInput):
            simulate_rb(RBConfig(), InitCondition(), 0)


class TestTemporalAccuracy:
    """Each physical setting's step against the same integrator at a step 8x smaller.

    Measured errors (of max|state|): 6.0e-12 linear over three samples, 2.9e-11
    nonlinear over one; the bounds allow 5x that.
    """

    @staticmethod
    def _error(cfg, run, n_samples):
        fine = replace(cfg, dt=cfg.dt / 8, sample_stride=8 * cfg.sample_stride)
        want = run(fine, n_samples)
        return np.max(np.abs(run(cfg, n_samples) - want)) / np.max(np.abs(want))

    def test_linear_setting_step(self):
        _, tau0 = _stack(3)
        ic = _degenerate_ic()
        error = self._error(physical_config("iv"), lambda cfg, ns: simulate_linear_fields(cfg, ic, tau0, ns), 4)
        assert error <= 3e-11

    def test_nonlinear_setting_step(self):
        b0, tau0 = _stack(3)
        assert self._error(physical_config("vi"), lambda cfg, ns: simulate_fields(cfg, b0, tau0, ns), 2) <= 1.5e-10


class TestLawsonStages:
    """``_integrate`` forms its stages in place on float pairs; the values are those of the complex formulas."""

    @staticmethod
    def _reference(cfg, U, decay, rhs, n_samples):
        """Lawson RK4 written on complex arrays, one new array per stage."""
        h, t = cfg.dt, 0.0
        E, E2 = np.exp(h * decay), np.exp(0.5 * h * decay)
        out = [U.copy()]
        for _ in range(1, n_samples):
            for _ in range(cfg.sample_stride):
                k1 = rhs(U, t)
                k2 = rhs(E2 * (U + 0.5 * h * k1), t + 0.5 * h)
                k3 = E2 * rhs(E2 * U + 0.5 * h * k2, t + 0.5 * h)
                k4 = rhs(E * U + h * k3, t + h)
                U = E * U + (h / 6.0) * (((E * k1 + 2 * E2 * k2) + 2 * k3) + k4)
                rb._flush_tiny(U)
                t += h
            out.append(U.copy())
        return np.stack(out)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_complex_formulas_bit_for_bit(self, batch):
        rng = np.random.default_rng(11)
        shape = (7, 2, batch, 5)
        U0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        decay = -rng.uniform(0.0, 400.0, (7, 2, 1, 5))
        couple = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def rhs(U, t):
            return couple * U[:, ::-1] - np.cos(t) * U * U

        cfg = RBConfig(dt=1e-3, sample_stride=7)
        want = self._reference(cfg, U0.copy(), decay, rhs, 4)
        got = rb._integrate(cfg, U0.copy(), decay, rhs, lambda U, t: U.view(np.float64).copy(), 4)
        assert got.tobytes() == want.view(np.float64).tobytes()

    def test_rhs_may_return_its_own_buffer(self):
        # the simulators' right-hand sides return one buffer, overwritten at every call
        rng = np.random.default_rng(12)
        shape = (2, 7, 5, 5)
        U0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        decay = -rng.uniform(0.0, 400.0, (2, 7, 1, 5))
        couple = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = np.empty_like(U0)

        def fresh(U, t):
            return couple * U[::-1] - np.cos(t) * U * U

        def reused(U, t):
            out[...] = fresh(U, t)
            return out

        cfg = RBConfig(dt=1e-3, sample_stride=7)
        want = rb._integrate(cfg, U0.copy(), decay, fresh, lambda U, t: U.view(np.float64).copy(), 4)
        got = rb._integrate(cfg, U0.copy(), decay, reused, lambda U, t: U.view(np.float64).copy(), 4)
        assert got.tobytes() == want.tobytes()


class TestBatch:
    """A stack of N fields is stepped as N independent single-field runs."""

    @pytest.mark.parametrize("count", [1, 5])  # 5: the rb-vi batch
    def test_simulate_fields_batch_equals_single_runs(self, count):
        cfg = RBConfig(nu=6000.0, sample_stride=20)
        b0, tau0 = _stack(count)
        batch = simulate_fields(cfg, b0, tau0, 5)
        assert batch.shape == (5, count, cfg.n)
        scale = np.max(np.abs(batch))
        for j in range(count):
            single = simulate_fields(cfg, b0[j], tau0[j], 5)
            assert single.shape == (5, cfg.n)
            assert np.max(np.abs(batch[:, j] - single)) <= 1e-13 * scale

    @pytest.mark.parametrize("count", [1, 5])
    def test_simulate_linear_fields_batch_equals_single_runs(self, count):
        cfg = RBConfig(sample_stride=20)
        ic = _degenerate_ic(sigma=cfg.sigma)
        _, tau0 = _stack(count)
        batch = simulate_linear_fields(cfg, ic, tau0, 5)
        assert batch.shape == (5, count, cfg.n)
        scale = np.max(np.abs(batch))
        for j in range(count):
            single = simulate_linear_fields(cfg, ic, tau0[j], 5)
            assert single.shape == (5, cfg.n)
            assert np.max(np.abs(batch[:, j] - single)) <= 1e-13 * scale

    def test_rejects_mismatched_fields(self):
        b0, tau0 = _stack(2)
        with pytest.raises(InvalidInput):
            simulate_fields(RBConfig(), b0, tau0[0], 2)
        with pytest.raises(InvalidInput):
            simulate_fields(RBConfig(), b0[:, :, :16], tau0[:, :, :16], 2)


class TestSineFourier:
    """The sine-Fourier stepping against the odd-extended oracle, and the wall-column contract."""

    @pytest.mark.parametrize("count", [1, 5])  # 5: the rb-vi batch
    def test_simulate_fields_matches_odd_extended_oracle(self, count):
        cfg = RBConfig(nu=6000.0, sample_stride=20)
        b0, tau0 = _stack(count)
        got = simulate_fields(cfg, b0, tau0, 5)
        want = _oracle_fields(cfg, b0, tau0, 5)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("count", [1, 5])
    def test_simulate_linear_fields_matches_odd_extended_oracle(self, count):
        cfg = RBConfig(sample_stride=20)
        ic = _degenerate_ic(sigma=cfg.sigma)
        _, tau0 = _stack(count)
        got = simulate_linear_fields(cfg, ic, tau0, 5)
        want = _oracle_linear(cfg, ic, tau0, 5)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_wall_column_is_projected_out(self):
        cfg = RBConfig(nu=6000.0, sample_stride=20)
        b0, tau0 = _stack(3)
        rng = np.random.default_rng(7)
        b_wall, tau_wall = b0.copy(), tau0.copy()
        b_wall[..., 0] = rng.standard_normal((3, 16))
        tau_wall[..., 0] = rng.standard_normal((3, 16))
        ic = _degenerate_ic(sigma=cfg.sigma)
        for clean, spiked in ((simulate_fields(cfg, b0, tau0, 4), simulate_fields(cfg, b_wall, tau_wall, 4)),
                              (simulate_linear_fields(cfg, ic, tau0, 4), simulate_linear_fields(cfg, ic, tau_wall, 4))):
            np.testing.assert_array_equal(spiked, clean)
            assert not np.any(spiked.reshape(4, 3, 2, 16, 32)[..., 0])


class TestS1Matrices:
    """The s1 synthesis and analysis matrices against ``np.fft`` at the stepping batch shapes."""

    @staticmethod
    def _half_spectra(shape, seed):
        rng = np.random.default_rng(seed)
        C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.all(C[..., 0].imag != 0) and np.all(C[..., -1].imag != 0)
        return C

    # (F, 2, j, N, f1) of grad_grid in the nonlinear (rb-vi) and linear (rb-iv) regimes
    @pytest.mark.parametrize("grid", [(16, 32), (15, 8)])
    @pytest.mark.parametrize("batch", [(3, 2, 31, 5), (1, 2, 31, 50)])
    def test_synthesis_matches_irfft(self, grid, batch):
        sp = rb._SineFourier(grid)
        n1 = grid[0]
        C = self._half_spectra(batch[:2] + (grid[1] - 1,) + batch[3:] + (n1 // 2 + 1,), seed=n1)
        pairs = C.view(np.float64)
        F, f1_pairs = len(C), pairs.shape[-1]
        for got, want in (
            (rb._s1(pairs, sp.synth), np.fft.irfft(C, n=n1)),
            (rb._s1(pairs, sp.synth_grad1[1]), np.fft.irfft(sp.d1 * C, n=n1)),
            (np.matmul(pairs.reshape(F, 2, -1, f1_pairs), sp.synth_grad1).reshape(C.shape[:-1] + (n1,)),
             np.fft.irfft(np.stack([C[:, 0], sp.d1 * C[:, 1]], axis=1), n=n1)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    # (F, j, N) grid arrays in the same two regimes
    @pytest.mark.parametrize("grid", [(16, 32), (15, 8)])
    @pytest.mark.parametrize("batch", [(3, 31, 5), (1, 31, 50)])
    def test_analysis_matches_rfft(self, grid, batch):
        sp = rb._SineFourier(grid)
        g = np.random.default_rng(grid[0]).standard_normal(batch + (grid[0],))
        want = np.fft.rfft(g)
        full = rb._s1(g, sp.analysis1).view(np.complex128)
        dealiased = rb._s1(g, sp.analysis1_dealiased).view(np.complex128)
        assert np.max(np.abs(full - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(dealiased - want[..., : sp.keep_f1])) <= 1e-14 * np.max(np.abs(want))

    def test_fft_calls_do_not_grow_with_steps(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=real, **k: calls.append(1) or _f(*a, **k))
        cfg = RBConfig(nu=6000.0, sample_stride=3)
        b0, tau0 = _stack(2)
        ic = _degenerate_ic(sigma=cfg.sigma)
        counts = []
        for n_samples in (2, 5):
            calls.clear()
            simulate_fields(cfg, b0, tau0, n_samples)
            simulate_linear_fields(cfg, ic, tau0, n_samples)
            counts.append(len(calls))
        assert counts[0] == counts[1]
