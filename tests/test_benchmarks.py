"""Benchmark generators and the error sweep: determinism, expected method orderings."""

import json

import numpy as np
import pytest

import lrdmd
from lrdmd import io as lio
from lrdmd.cli import main
from lrdmd import (
    InvalidInput,
    SnapshotPair,
    ToyConfig,
    add_noise_psnr,
    error_sweep,
    gen_spectral_truth,
    gen_toy,
    optimal_lowrank,
    projected_dmd_baseline,
    truncated_baseline,
)
from lrdmd.benchmarks import physical_config
from lrdmd.linalg import thin_svd
from lrdmd.rb import InitCondition, degenerate_kappa_b, simulate_fields, simulate_linear_fields, split_state

from conftest import rel_close


def _loop_spectral_truth(base, N: int, T: int, seed: int) -> SnapshotPair:
    """Oracle: the spectral ground truth stepped state by state, ``x_t = Re(zeta Lambda xi^T x_{t-1})``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    zeta, xi = base.complex_modes()
    col_scale = np.linalg.norm(zeta, axis=0)
    z_re, z_im = zeta.real / col_scale, zeta.imag / col_scale
    trajectories = []
    for _ in range(N):
        theta = z_re @ rng.standard_normal(3) + z_im @ rng.standard_normal(3)
        theta = theta + 0.02 * rng.standard_normal(base.n) / np.sqrt(base.n)
        states = np.empty((T, base.n))
        states[0] = theta
        for t in range(1, T):
            coeff = base.eigvals * (xi.T @ states[t - 1].astype(complex))
            states[t] = (zeta @ coeff).real
        trajectories.append(states)
    return SnapshotPair.from_trajectories(trajectories)


def _loop_noise(data: SnapshotPair, psnr_db: float, seed: int) -> SnapshotPair:
    """Oracle: one noise draw per snapshot, trajectory by trajectory, added column by column."""
    peak = max(float(np.max(np.abs(data.X))), float(np.max(np.abs(data.Y))))
    sigma = peak / (10.0 ** (psnr_db / 20.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    steps = data.traj_len - 1
    X, Y = data.X.copy(), data.Y.copy()
    for i in range(data.n_traj):
        for t in range(data.traj_len):
            noise = sigma * rng.standard_normal(data.n)
            if t < steps:
                X[:, i * steps + t] += noise
            if t >= 1:
                Y[:, i * steps + t - 1] += noise
    return SnapshotPair(X=X, Y=Y, n_traj=data.n_traj, traj_len=data.traj_len)


class TestGenToy:
    def test_determinism(self):
        cfg = ToyConfig(setting="iii", seed=21)
        a, b = gen_toy(cfg), gen_toy(cfg)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()
        c = gen_toy(ToyConfig(setting="iii", seed=22))
        assert a.X.tobytes() != c.X.tobytes()

    def test_defaults_and_layout(self):
        data = gen_toy(ToyConfig(setting="ii", seed=0))
        assert (data.n, data.m) == (50, 40)
        assert (data.n_traj, data.traj_len) == (40, 2)

    def test_setting_ii_rank_r(self):
        data = gen_toy(ToyConfig(setting="ii", seed=7))
        # Y = F X with F of rank 30 and X full rank: rank(Y) = 30
        s = thin_svd(data.Y).S
        assert int(np.sum(s > 1e-10 * s[0])) == 30

    def test_setting_i_companion_property(self, toy_datasets):
        data = toy_datasets["i"]
        Ac, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
        rel = np.linalg.norm(data.Y - data.X @ Ac) / np.linalg.norm(data.Y)
        assert rel <= 1e-8

    def test_setting_i_projects_setting_ii_onto_span_of_x(self):
        # Same seed, same F and X: setting i is X X^+ applied to setting ii's Y = F X.
        a, b = gen_toy(ToyConfig(setting="i", seed=4)), gen_toy(ToyConfig(setting="ii", seed=4))
        assert a.X.tobytes() == b.X.tobytes()
        oracle = a.X @ (np.linalg.pinv(a.X, rcond=1e-12) @ b.Y)
        assert np.linalg.norm(a.Y - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_setting_i_projected_matches_optimal(self, toy_datasets):
        data = toy_datasets["i"]
        ny = np.linalg.norm(data.Y)
        for k in range(1, 41):
            e_o = optimal_lowrank(data, k).residual_fro(data) / ny
            e_p = projected_dmd_baseline(data, k).residual_fro(data) / ny
            assert rel_close(e_o, e_p, rtol=1e-8, floor=1e-12)

    def test_setting_ii_recovery_at_r(self, toy_datasets):
        data = toy_datasets["ii"]
        e = optimal_lowrank(data, 30).residual_fro(data) / np.linalg.norm(data.Y)
        assert e <= 1e-8

    def test_setting_iii_cubic_term(self):
        cfg = ToyConfig(setting="iii", seed=3)
        data = gen_toy(cfg)
        # regenerate the map and check Y = F (X + X^3) columnwise
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        phi = rng.standard_normal((cfg.r, cfg.n))
        F = phi.T @ phi
        np.testing.assert_allclose(data.Y, F @ (data.X + data.X**3), atol=1e-9)

    def test_invalid_config(self):
        with pytest.raises(InvalidInput):
            ToyConfig(setting="iv")
        with pytest.raises(InvalidInput):
            ToyConfig(setting="i", n=10, m=20, r=5)


class TestGenPhysical:
    def test_shapes_and_layout(self, rb_datasets):
        for setting, (N, T) in (("iv", (50, 2)), ("v", (5, 11)), ("vi", (5, 11))):
            data = rb_datasets[setting]
            assert (data.n, data.m) == (1024, 50)
            assert (data.n_traj, data.traj_len) == (N, T)

    def test_determinism(self):
        a = lrdmd.gen_physical("iv", seed=3)
        b = lrdmd.gen_physical("iv", seed=3)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.Y.tobytes() == b.Y.tobytes()

    @pytest.mark.parametrize("setting", ["iv", "vi"])
    def test_matches_single_trajectory_runs(self, setting):
        # Each trajectory re-run alone from its first snapshot.
        data = lrdmd.gen_physical(setting, seed=3)
        cfg = physical_config(setting)
        buoyancy = InitCondition(a_b=2 * np.pi, kappa_b=degenerate_kappa_b(cfg.sigma, 2 * np.pi))
        steps = data.traj_len - 1
        scale = np.max(np.abs(data.X))
        for j in range(data.n_traj):
            b0, tau0 = split_state(data.X[:, j * steps], cfg.grid)
            if setting == "iv":
                states = simulate_linear_fields(cfg, buoyancy, tau0, data.traj_len)
            else:
                states = simulate_fields(cfg, b0, tau0, data.traj_len)
            cols = slice(j * steps, (j + 1) * steps)
            assert np.max(np.abs(data.X[:, cols] - states[:-1].T)) <= 1e-12 * scale
            assert np.max(np.abs(data.Y[:, cols] - states[1:].T)) <= 1e-12 * scale

    def test_setting_iv_exact_low_rank(self, rb_datasets):
        data = rb_datasets["iv"]
        ny = np.linalg.norm(data.Y)
        for k in (10, 12, 20):
            e = optimal_lowrank(data, k).residual_fro(data) / ny
            assert e <= 1e-6
        # below the initial-condition dimensionality the fit cannot be exact
        assert optimal_lowrank(data, 6).residual_fro(data) / ny > 1e-4

    def test_setting_v_near_low_rank(self, rb_datasets):
        data = rb_datasets["v"]
        ny = np.linalg.norm(data.Y)
        for k in (10, 15, 25):
            assert optimal_lowrank(data, k).residual_fro(data) / ny <= 1e-3

    def test_setting_vi_projected_floor(self, rb_datasets):
        data = rb_datasets["vi"]
        ny = np.linalg.norm(data.Y)
        e_o45 = optimal_lowrank(data, 45).residual_fro(data) / ny
        e_p45 = projected_dmd_baseline(data, 45).residual_fro(data) / ny
        e_p50 = projected_dmd_baseline(data, 50).residual_fro(data) / ny
        assert e_p45 > 2.0 * e_o45  # strictly sub-optimal at large k
        assert e_p50 > 0.5 * e_p45  # saturating, not vanishing
        assert e_p50 > 1e-8

    def test_unknown_setting(self):
        with pytest.raises(InvalidInput):
            lrdmd.gen_physical("ix", seed=0)


class TestSpectralTruth:
    def test_base_is_rank3_normalised(self, spectral_datasets):
        base = spectral_datasets["base"]
        assert base.r == 3
        pair = np.sum(base.left_vecs * base.right_vecs, axis=0)
        np.testing.assert_allclose(pair, np.ones(3), atol=1e-9)

    def test_noiseless_rank3_vanishing_error(self, spectral_datasets):
        data = spectral_datasets["clean"]
        ny = np.linalg.norm(data.Y)
        for k in (3, 4, 10):
            assert optimal_lowrank(data, k).residual_fro(data) / ny <= 1e-8

    def test_k1_error_matches_closed_form(self, spectral_datasets):
        data = spectral_datasets["clean"]
        cf = lrdmd.optimal_error_closed_form(data, 1)
        direct_sq = optimal_lowrank(data, 1).residual_fro(data) ** 2
        assert abs(cf - direct_sq) <= 1e-7 * max(1.0, cf)

    def test_recovered_triples_match_base(self, spectral_datasets):
        data = spectral_datasets["clean"]
        base = spectral_datasets["base"]
        model = lrdmd.build_spectral_model(optimal_lowrank(data, 3))
        assert model.r == 3
        for lam in base.eigvals:
            assert np.min(np.abs(model.eigvals - lam)) <= 1e-7 * max(1.0, abs(lam))

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_matches_step_by_step_oracle(self, spectral_datasets, seed):
        base = spectral_datasets["base"]
        got, want = gen_spectral_truth(base, N=5, T=11, seed=seed), _loop_spectral_truth(base, 5, 11, seed)
        scale = float(np.max(np.abs(want.X)))
        assert np.max(np.abs(got.X - want.X)) <= 1e-13 * scale
        assert np.max(np.abs(got.Y - want.Y)) <= 1e-13 * scale
        np.testing.assert_array_equal(got.X[:, :: 10], want.X[:, :: 10])  # each trajectory starts at theta itself

    def test_requires_rank3_base(self, spectral_datasets):
        base = spectral_datasets["base"]
        bad = lrdmd.SpectralModel(
            eigvals=base.eigvals[:2], right_vecs=base.right_vecs[:, :2], left_vecs=base.left_vecs[:, :2]
        )
        with pytest.raises(InvalidInput):
            gen_spectral_truth(bad, N=2, T=3, seed=0)

    @pytest.mark.parametrize("scale", [2.0, 1 + 1e-5, -1.0])
    def test_requires_normalised_base(self, spectral_datasets, scale):
        base = spectral_datasets["base"]
        bad = lrdmd.SpectralModel(base.eigvals, base.right_vecs, base.left_vecs * np.array([1.0, scale, 1.0]))
        with pytest.raises(InvalidInput, match="not normalised"):
            gen_spectral_truth(bad, N=2, T=3, seed=0)


class TestGenerate:
    @pytest.mark.parametrize("name", lrdmd.GENERATORS)
    def test_returns_what_the_cli_writes(self, name, tmp_path):
        out = tmp_path / name
        assert main(["generate", name, "--seed", "3", "--out", str(out), "--quiet"]) == 0
        data, manifest, truth = lrdmd.generate(name, 3)
        written, written_manifest = lio.read_dataset(out)
        np.testing.assert_array_equal(written.X, data.X)
        np.testing.assert_array_equal(written.Y, data.Y)
        io_fields = dict(schema_version=lio.SCHEMA_VERSION, n=data.n, m=data.m, N=data.n_traj, T=data.traj_len)
        assert written_manifest == {**json.loads(lio.dump_json(manifest)), **io_fields}
        assert not io_fields.keys() & manifest.keys()
        if truth is None:
            assert not name.startswith("spectral-") and not (out / "truth-spectral.json").exists()
        else:
            saved, kind, _ = lio.load_model(out / "truth-spectral.json")
            assert kind == "spectral"
            np.testing.assert_array_equal(saved.eigvals, truth.eigvals)
            np.testing.assert_array_equal(saved.right_vecs, truth.right_vecs)
            np.testing.assert_array_equal(saved.left_vecs, truth.left_vecs)

    @pytest.mark.parametrize("psnr", ["30", "inf"])
    def test_psnr_matches_the_cli(self, psnr, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "3", f"--psnr={psnr}", "--out", str(out), "--quiet"]) == 0
        data, manifest, _ = lrdmd.generate("toy-ii", 3, psnr_db=float(psnr))
        written, written_manifest = lio.read_dataset(out)
        np.testing.assert_array_equal(written.X, data.X)
        np.testing.assert_array_equal(written.Y, data.Y)
        assert written_manifest.get("psnr_db") == manifest.get("psnr_db") == (30.0 if psnr == "30" else None)

    def test_spectral_viii_is_the_clean_pair_at_20db_from_seed_plus_2(self, spectral_datasets):
        data, manifest, truth = lrdmd.generate("spectral-viii", 5)
        np.testing.assert_array_equal(data.X, spectral_datasets["noisy"].X)
        np.testing.assert_array_equal(data.Y, spectral_datasets["noisy"].Y)
        np.testing.assert_array_equal(truth.eigvals, spectral_datasets["base"].eigvals)
        assert manifest["psnr_db"] == 20.0
        assert manifest["base_model"] == {"fitted_from": "rb-vi", "k": 3, "seed": 5}

    @pytest.mark.parametrize("name", ["toy-iv", "rb-vii", "spectral-ix", "toy"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(InvalidInput):
            lrdmd.generate(name, 0)


class TestNoise:
    def _small_pair(self, seed=0):
        rng = np.random.default_rng(seed)
        trajs = [rng.standard_normal((4, 6)) for _ in range(3)]
        return SnapshotPair.from_trajectories(trajs)

    def test_infinite_psnr_is_identity(self):
        data = self._small_pair()
        out = add_noise_psnr(data, np.inf, seed=1)
        np.testing.assert_array_equal(out.X, data.X)

    @pytest.mark.parametrize("psnr", [-np.inf, np.nan])
    def test_non_finite_psnr_other_than_plus_inf_rejected(self, psnr):
        with pytest.raises(InvalidInput):
            add_noise_psnr(self._small_pair(), psnr, seed=1)

    def test_sigma_formula_20db(self):
        data = self._small_pair(1)
        peak = max(np.max(np.abs(data.X)), np.max(np.abs(data.Y)))
        out = add_noise_psnr(data, 20.0, seed=2)
        # empirical noise std close to peak/10 (few hundred samples: loose check)
        noise = np.concatenate([(out.X - data.X).ravel(), (out.Y[:, -3:] - data.Y[:, -3:]).ravel()])
        assert np.std(noise) == pytest.approx(peak / 10.0, rel=0.25)

    def test_empirical_std_large_sample(self):
        rng = np.random.default_rng(3)
        trajs = [rng.standard_normal((2, 500_000))]
        data = SnapshotPair.from_trajectories(trajs)
        peak = max(np.max(np.abs(data.X)), np.max(np.abs(data.Y)))
        out = add_noise_psnr(data, 20.0, seed=4)
        noise = np.concatenate([(out.X - data.X).ravel(), (out.Y - data.Y).ravel()])
        assert noise.size >= 1_000_000
        assert abs(np.std(noise) - peak / 10.0) <= 0.01 * (peak / 10.0)

    def test_shared_snapshot_consistency(self):
        data = self._small_pair(5)
        out = add_noise_psnr(data, 10.0, seed=6)
        # within each trajectory, X column t+1 and Y column t hold the same snapshot
        steps = data.traj_len - 1
        for i in range(data.n_traj):
            for t in range(steps - 1):
                xi = i * steps + t + 1
                yi = i * steps + t
                np.testing.assert_array_equal(out.X[:, xi], out.Y[:, yi])

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_bitwise_equal_to_per_snapshot_loop(self, seed):
        for n_traj, length in ((3, 6), (1, 2), (4, 3)):
            rng = np.random.default_rng(seed)
            data = SnapshotPair.from_trajectories([rng.standard_normal((length, 5)) for _ in range(n_traj)])
            got, want = add_noise_psnr(data, 15.0, seed), _loop_noise(data, 15.0, seed)
            assert got.X.tobytes() == want.X.tobytes()
            assert got.Y.tobytes() == want.Y.tobytes()

    def test_zero_data_rejected(self):
        data = SnapshotPair(X=np.zeros((3, 4)), Y=np.zeros((3, 4)), n_traj=2, traj_len=3)
        with pytest.raises(InvalidInput):
            add_noise_psnr(data, 20.0, seed=0)

    def test_needs_layout(self):
        data = SnapshotPair(X=np.ones((3, 4)), Y=np.ones((3, 4)))
        with pytest.raises(InvalidInput):
            add_noise_psnr(data, 20.0, seed=0)

    def test_noisy_rank3_optimal_beats_truncated(self, spectral_datasets):
        data = spectral_datasets["noisy"]
        ny = np.linalg.norm(data.Y)
        e_o = optimal_lowrank(data, 3).residual_fro(data) / ny
        e_t = truncated_baseline(data, 3).residual_fro(data) / ny
        assert e_o < e_t


class TestErrorSweep:
    def test_full_sweep_invariants(self, toy_datasets):
        data = toy_datasets["ii"]
        curve = error_sweep(data, range(1, 41))
        assert curve.ks.size == 40
        e = curve.errors
        assert np.all(e["optimal"] <= e["truncated"] + 1e-10)
        assert np.all(e["optimal"] <= e["projected"] + 1e-10)
        assert np.all(np.diff(e["optimal"]) <= 1e-10)  # monotone non-increasing
        assert np.all(np.isfinite(curve.closed_form))
        assert np.nanmax(curve.closed_form_gap) <= 1e-7

    def test_setting_i_series_overlap(self, toy_datasets):
        curve = error_sweep(toy_datasets["i"], range(1, 41), methods=("optimal", "projected"))
        for eo, ep in zip(curve.errors["optimal"], curve.errors["projected"]):
            assert rel_close(eo, ep, rtol=1e-8, floor=1e-12)

    def test_subset_methods_and_krange(self, toy_datasets):
        curve = error_sweep(toy_datasets["ii"], [1, 5, 9], methods=("truncated",))
        assert curve.methods == ["truncated"]
        assert curve.closed_form is None
        assert curve.ks.tolist() == [1, 5, 9]

    def test_bad_krange(self, toy_datasets):
        with pytest.raises(InvalidInput):
            error_sweep(toy_datasets["ii"], [0, 3])
        with pytest.raises(InvalidInput):
            error_sweep(toy_datasets["ii"], [41])

    def test_unknown_method_rejected(self, toy_datasets):
        with pytest.raises(InvalidInput, match="unknown methods: \\['exact'\\]"):
            error_sweep(toy_datasets["ii"], [1, 2], methods=("optimal", "exact"))

    def test_failing_fit_leaves_its_cells_flagged(self, toy_datasets, monkeypatch):
        def boom(data):
            raise lrdmd.InvalidInput("synthetic failure")

        monkeypatch.setitem(lrdmd.benchmarks.SOLVERS, "truncated", boom)
        curve = error_sweep(toy_datasets["ii"], [1, 2, 3])
        assert np.all(np.isnan(curve.errors["truncated"]))
        assert curve.flags["truncated"] == ["error:InvalidInput"] * 3
        for name in ("optimal", "projected"):
            assert np.all(np.isfinite(curve.errors[name])), name
        assert np.all(np.isfinite(curve.closed_form))

    def test_full_sweep_forms_no_operator_per_k(self):
        # Every k's residual is read off one orthogonal split of Y per method; one operator and product per cell
        # counted 228.5 n m^2.  The sweep counts 14.1 n m^2, all of it real: per method G = Q^T X, H = P^T Y and P H.
        from lrdmd import audit

        rng = np.random.default_rng(0)
        n, m = 2000, 40
        data = SnapshotPair(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))
        with audit.tally() as t:
            error_sweep(data, range(1, m + 1))
        assert t.multiply_adds <= 16 * n * m * m
        assert t.max_elements <= n * m

    def test_repeated_k_and_methods_kept_once(self, toy_datasets):
        curve = error_sweep(toy_datasets["ii"], [5, 2, 5], methods=("projected", "optimal", "projected"))
        assert curve.ks.tolist() == [2, 5]
        assert curve.methods == ["projected", "optimal"]
        assert all(len(curve.flags[name]) == 2 for name in curve.methods)

    def test_noisy_sweep_optimal_below_truncated_at_3(self, spectral_datasets):
        curve = error_sweep(spectral_datasets["noisy"], [3], methods=("optimal", "truncated"))
        assert curve.errors["optimal"][0] < curve.errors["truncated"][0]
