"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8 and 9 are also checked over a range of seeds, beside their
fixed-seed tests.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here exactly as stated.
"""

import time
import tracemalloc

import numpy as np
import pytest

import lrdmd
from lrdmd import audit
from lrdmd.rb import RBConfig, analytic_buoyancy, degenerate_kappa_b, simulate_rb, split_state

from conftest import dense, match_multisets, random_instance, rel_close


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _instances(count=100):
    return [random_instance(seed) for seed in range(count)]


def test_criterion_01_theorem_consistency():
    """Closed-form error matches the direct residual on >= 100 mixed instances."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for data, m in _instances(100):
        for k in range(1, m + 1):
            cf = lrdmd.optimal_error_closed_form(data, k)
            direct_sq = lrdmd.optimal_lowrank(data, k).residual_fro(data) ** 2
            gap = abs(direct_sq - cf) / max(1.0, cf)
            worst = max(worst, gap)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    _report(
        "criterion 1 (Theorem-1 consistency)",
        ok,
        f"worst |direct^2-closed|/max(1,closed) = {worst:.3e} over {checked} solves, {elapsed:.1f}s",
    )


def test_criterion_02_optimality_dominance():
    """Optimal error never above either baseline, nor any random candidate."""
    worst_t = worst_p = -np.inf
    for data, m in _instances(100):
        for k in range(1, m + 1):
            e_o = lrdmd.optimal_lowrank(data, k).residual_fro(data)
            e_t = lrdmd.truncated_baseline(data, k).residual_fro(data)
            e_p = lrdmd.projected_dmd_baseline(data, k).residual_fro(data)
            worst_t = max(worst_t, e_o - e_t)
            worst_p = max(worst_p, e_o - e_p)
    ok = worst_t <= 1e-10 and worst_p <= 1e-10
    # random-candidate oracle on small instances
    worst_c = -np.inf
    rng = np.random.default_rng(1234)
    for seed in range(5):
        n, m = 18, 9
        data = lrdmd.SnapshotPair(
            X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m))
        )
        for k in (1, 2, 3):
            e_o = lrdmd.optimal_lowrank(data, k).residual_fro(data)
            for _ in range(1000):
                P = rng.standard_normal((n, k))
                Q = rng.standard_normal((n, k))
                e = float(np.linalg.norm(data.Y - P @ (Q.T @ data.X)))
                worst_c = max(worst_c, e_o - e)
    ok = ok and worst_c <= 1e-10
    _report(
        "criterion 2 (optimality dominance)",
        ok,
        f"max excess vs truncated {worst_t:.2e}, vs projected {worst_p:.2e}, "
        f"vs 15000 random candidates {worst_c:.2e}",
    )


def test_criterion_03_full_rank_reduction():
    """With full-rank X the closed form reduces to the tail energy of Y."""
    rng = np.random.default_rng(77)
    worst = 0.0
    worst_resid = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 80))
        m = int(rng.integers(2, min(n, 41)))
        data = lrdmd.SnapshotPair(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))
        s_y = lrdmd.thin_svd(data.Y).S
        for k in range(1, m + 1):
            cf = lrdmd.optimal_error_closed_form(data, k)
            tail = float(np.sum(s_y[k:] ** 2))
            worst = max(worst, abs(cf - tail) / max(tail, 1e-10 * s_y[0] ** 2))
        resid = lrdmd.unconstrained_solution(data).residual_fro(data)
        worst_resid = max(worst_resid, resid / np.linalg.norm(data.Y))
    ok = worst <= 1e-10 and worst_resid <= 1e-9
    _report(
        "criterion 3 (full-rank reduction)",
        ok,
        f"worst relative tail gap {worst:.3e}, worst k=m residual {worst_resid:.3e}",
    )


def test_criterion_04_lemma1_residual():
    """First-order stationarity of the optimal output on criterion-1 instances."""
    worst = 0.0
    for data, m in _instances(100):
        for k in range(1, m + 1, max(1, m // 6)):
            worst = max(worst, lrdmd.first_order_residual(lrdmd.optimal_lowrank(data, k), data))
    ok = worst <= 1e-8
    _report("criterion 4 (Lemma-1 residual)", ok, f"worst residual {worst:.3e} (tol 1e-08)")


def test_criterion_05_proposition2_eigentriples():
    """Eigen residuals, Rayleigh identity, dense-oracle eigenvalue match."""
    rng = np.random.default_rng(4321)
    worst_res = worst_ray = worst_multiset = 0.0
    for case in range(50):
        n = int(rng.integers(8, 51))
        m = int(rng.integers(3, 21))
        k = int(rng.integers(1, min(10, m) + 1))
        data = lrdmd.SnapshotPair(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))
        op = lrdmd.optimal_lowrank(data, k)
        model = lrdmd.build_spectral_model(op)
        a_norm = op.fro_norm()
        Pc, Qc = op.P.astype(complex), op.Q.astype(complex)
        for lam, zeta, xi in zip(model.eigvals, *(v.T for v in model.complex_modes())):
            worst_res = max(worst_res, np.linalg.norm(Pc @ (Qc.T @ zeta) - lam * zeta) / a_norm)
            ray = complex(np.sum(xi * (Pc @ (Qc.T @ zeta))))
            worst_ray = max(worst_ray, abs(ray - lam) / max(1.0, abs(lam)))
        if model.r:
            A = dense(op)
            lam_all = np.linalg.eig(A)[0]
            lam_top = lam_all[np.argsort(-np.abs(lam_all))][: model.r]
            scale = max(np.abs(lam_top).max(), 1e-300)
            worst_multiset = max(
                worst_multiset, match_multisets(model.eigvals, lam_top, tol=1e-8 * scale) / scale
            )
    ok = worst_res <= 1e-8 and worst_ray <= 1e-8 and worst_multiset <= 1e-8
    _report(
        "criterion 5 (Proposition-2 eigentriples)",
        ok,
        f"worst residual/||A||_F {worst_res:.2e}, Rayleigh gap {worst_ray:.2e}, "
        f"eigenvalue multiset distance {worst_multiset:.2e}",
    )


def test_criterion_06_representation_equivalence():
    """Dense application, reduced recursion and spectral recursion agree (T=11)."""
    rng = np.random.default_rng(999)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(15, 80))
        m = int(rng.integers(4, 15))
        k = int(rng.integers(1, min(8, m) + 1))
        data = lrdmd.SnapshotPair(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))
        op = lrdmd.optimal_lowrank(data, k)
        reduced = lrdmd.build_svd_reduced_model(op)
        spectral = lrdmd.build_spectral_model(op)
        theta = rng.standard_normal(n)
        a = lrdmd.simulate_operator(op, theta, 11).states
        b = lrdmd.simulate_reduced(reduced, theta, 11).states
        c = lrdmd.simulate_spectral(spectral, theta, 11).states
        scale = max(np.abs(a[1:]).max(), 1e-300)
        worst = max(
            worst,
            np.max(np.abs(a[1:] - b[1:])) / scale,
            np.max(np.abs(a[1:] - c[1:])) / scale,
            np.max(np.abs(b[1:] - c[1:])) / scale,
        )
    ok = worst <= 1e-8
    _report("criterion 6 (representation equivalence)", ok, f"worst pairwise gap {worst:.3e}")


def test_criterion_07_toy_reproduction():
    """Setting i: projected = optimal; settings ii/iii: projected off by >10% beyond k=10."""
    t0 = time.perf_counter()
    data_i = lrdmd.gen_toy(lrdmd.ToyConfig(setting="i", seed=11))
    ny = np.linalg.norm(data_i.Y)
    worst_gap = 0.0
    for k in range(1, 41):
        e_o = lrdmd.optimal_lowrank(data_i, k).residual_fro(data_i) / ny
        e_p = lrdmd.projected_dmd_baseline(data_i, k).residual_fro(data_i) / ny
        if not rel_close(e_o, e_p, rtol=1e-8, floor=1e-12):
            worst_gap = max(worst_gap, abs(e_o - e_p) / max(e_o, e_p))
    ok_i = worst_gap == 0.0
    ratios = {}
    for setting in ("ii", "iii"):
        data = lrdmd.gen_toy(lrdmd.ToyConfig(setting=setting, seed=11))
        nyy = np.linalg.norm(data.Y)
        best = 0.0
        for k in range(11, 41):
            e_o = lrdmd.optimal_lowrank(data, k).residual_fro(data) / nyy
            e_p = lrdmd.projected_dmd_baseline(data, k).residual_fro(data) / nyy
            best = max(best, e_p / max(e_o, 1e-300))
        ratios[setting] = best
    elapsed = time.perf_counter() - t0
    ok = ok_i and ratios["ii"] > 1.1 and ratios["iii"] > 1.1 and elapsed < 10.0
    _report(
        "criterion 7 (toy settings i-iii)",
        ok,
        f"setting-i worst gap {worst_gap:.1e}; projected/optimal max ratio "
        f"ii {ratios['ii']:.2f}, iii {ratios['iii']:.2f}; {elapsed:.1f}s",
    )


def test_criterion_07_over_seeds():
    """Criterion 7 at gen_toy seeds 0-9, not at seed 11 alone."""
    worst_gap, least_ratio = 0.0, {"ii": np.inf, "iii": np.inf}
    for seed in range(10):
        data_i = lrdmd.gen_toy(lrdmd.ToyConfig(setting="i", seed=seed))
        ny = np.linalg.norm(data_i.Y)
        for k in range(1, 41):
            e_o = lrdmd.optimal_lowrank(data_i, k).residual_fro(data_i) / ny
            e_p = lrdmd.projected_dmd_baseline(data_i, k).residual_fro(data_i) / ny
            if not rel_close(e_o, e_p, rtol=1e-8, floor=1e-12):
                worst_gap = max(worst_gap, abs(e_o - e_p) / max(e_o, e_p))
        for setting in least_ratio:
            data = lrdmd.gen_toy(lrdmd.ToyConfig(setting=setting, seed=seed))
            nyy = np.linalg.norm(data.Y)
            best = 0.0
            for k in range(11, 41):
                e_o = lrdmd.optimal_lowrank(data, k).residual_fro(data) / nyy
                e_p = lrdmd.projected_dmd_baseline(data, k).residual_fro(data) / nyy
                best = max(best, e_p / max(e_o, 1e-300))
            least_ratio[setting] = min(least_ratio[setting], best)
    ok = worst_gap == 0.0 and all(v > 1.1 for v in least_ratio.values())
    _report(
        "criterion 7 over seeds 0-9",
        ok,
        f"setting-i worst gap {worst_gap:.1e}; least projected/optimal max ratio "
        f"ii {least_ratio['ii']:.2e}, iii {least_ratio['iii']:.2e}",
    )


def test_criterion_08_rb_linear_settings(rb_datasets):
    """Settings iv/v: optimal error vanishes from k = 10; truncated 10x worse there."""
    gen_seconds = rb_datasets["gen_seconds"]
    results = {}
    for setting, bound in (("iv", 1e-6), ("v", 1e-3)):
        data = rb_datasets[setting]
        ny = np.linalg.norm(data.Y)
        worst = max(
            lrdmd.optimal_lowrank(data, k).residual_fro(data) / ny for k in range(10, 51, 5)
        )
        e_o10 = lrdmd.optimal_lowrank(data, 10).residual_fro(data) / ny
        e_t10 = lrdmd.truncated_baseline(data, 10).residual_fro(data) / ny
        results[setting] = (worst, bound, e_t10 / max(e_o10, 1e-300))
    ok = (
        all(worst <= bound for worst, bound, _ in results.values())
        and all(ratio >= 10.0 for _, _, ratio in results.values())
        and gen_seconds <= 300.0
    )
    _report(
        "criterion 8 (convection settings iv/v)",
        ok,
        f"optimal max err k>=10: iv {results['iv'][0]:.2e} (<=1e-6), "
        f"v {results['v'][0]:.2e} (<=1e-3); truncated/optimal at k=10: "
        f"iv {results['iv'][2]:.0f}x, v {results['v'][2]:.0f}x; generation {gen_seconds:.0f}s",
    )


def test_criterion_08_over_seeds(generated):
    """Criterion 8's bounds at gen_physical seeds 0-9 for settings iv and v, not at seed 5 alone."""
    worst_err, least_ratio = {}, {}
    for setting, bound in (("iv", 1e-6), ("v", 1e-3)):
        for seed in range(10):
            data = generated(f"rb-{setting}", seed)[0]
            ny = np.linalg.norm(data.Y)
            worst = max(lrdmd.optimal_lowrank(data, k).residual_fro(data) / ny for k in range(10, 51, 5))
            e_o10 = lrdmd.optimal_lowrank(data, 10).residual_fro(data) / ny
            e_t10 = lrdmd.truncated_baseline(data, 10).residual_fro(data) / ny
            ratio = e_t10 / max(e_o10, 1e-300)
            worst_err[setting] = max(worst_err.get(setting, 0.0), worst / bound)
            least_ratio[setting] = min(least_ratio.get(setting, np.inf), ratio)
    ok = all(v <= 1.0 for v in worst_err.values()) and all(v >= 10.0 for v in least_ratio.values())
    _report(
        "criterion 8 over seeds 0-9",
        ok,
        f"worst optimal err / bound: iv {worst_err['iv']:.2e}, v {worst_err['v']:.2e}; "
        f"least truncated/optimal at k=10: iv {least_ratio['iv']:.0f}x, v {least_ratio['v']:.0f}x",
    )


def test_criterion_09_noise_study(spectral_datasets):
    """Rank-3 data: exact recovery noiseless; under 20 dB noise the optimal fit
    stays ahead of truncation in error and in eigenvector recovery."""
    base = spectral_datasets["base"]
    clean = spectral_datasets["clean"]
    noisy = spectral_datasets["noisy"]
    e_clean = lrdmd.optimal_lowrank(clean, 3).residual_fro(clean) / np.linalg.norm(clean.Y)
    ny = np.linalg.norm(noisy.Y)
    e_o = lrdmd.optimal_lowrank(noisy, 3).residual_fro(noisy) / ny
    e_t = lrdmd.truncated_baseline(noisy, 3).residual_fro(noisy) / ny

    def zeta3_angle(op):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # noisy baselines may be near-defective
            model = lrdmd.build_spectral_model(op)
        lam3 = base.eigvals[2]
        j = int(np.argmin(np.abs(model.eigvals - lam3)))
        z_hat, z_true = model.complex_modes()[0][:, j], base.complex_modes()[0][:, 2]
        cos = abs(np.vdot(z_hat, z_true)) / (np.linalg.norm(z_hat) * np.linalg.norm(z_true))
        return float(np.arccos(min(cos, 1.0)))

    ang_o = zeta3_angle(lrdmd.optimal_lowrank(noisy, 3))
    ang_t = zeta3_angle(lrdmd.truncated_baseline(noisy, 3))
    ok = e_clean <= 1e-8 and e_o < e_t and ang_o < ang_t
    _report(
        "criterion 9 (noise robustness)",
        ok,
        f"noiseless err {e_clean:.2e} (<=1e-8); 20dB err optimal {e_o:.3f} < truncated {e_t:.3f}; "
        f"zeta3 angle optimal {ang_o:.3f} < truncated {ang_t:.3f} rad",
    )


def test_criterion_09_over_seeds(generated):
    """At spectral-viii seeds 0-4 (k = 3), optimal beats truncation in error and in the worst-recovered eigenvalue.

    Each true eigenvalue is matched to its nearest fitted one.  Criterion 9's zeta_3-angle claim is not
    extended: it fails at seeds 9 and 28.
    """
    import warnings

    def worst_eig_error(op, truth):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # noisy baselines may be near-defective
            fitted = lrdmd.build_spectral_model(op).eigvals
        return max(float(np.min(np.abs(fitted - lam))) for lam in truth.eigvals)

    lines, ok = [], True
    for seed in range(5):
        data, _, truth = generated("spectral-viii", seed)
        ny = np.linalg.norm(data.Y)
        op_o, op_t = lrdmd.optimal_lowrank(data, 3), lrdmd.truncated_baseline(data, 3)
        e_o, e_t = op_o.residual_fro(data) / ny, op_t.residual_fro(data) / ny
        d_o, d_t = worst_eig_error(op_o, truth), worst_eig_error(op_t, truth)
        ok = ok and e_o < e_t and d_o < d_t
        lines.append(f"seed {seed}: err {e_o:.3f} < {e_t:.3f}, worst |dlambda| {d_o:.3f} < {d_t:.3f}")
    _report("criterion 9 over seeds 0-4", ok, "; ".join(lines))


def test_criterion_10_taylor_vortex():
    """Simulated buoyancy tracks the analytic Taylor-vortex field to 1e-4."""
    cfg = RBConfig(sigma=1.0, nu=0.0)
    a_b = 2 * np.pi
    ic = lrdmd.InitCondition(
        a_b=a_b,
        a_tau=2 * np.pi,
        kappa_b=degenerate_kappa_b(cfg.sigma, a_b),
        kappa_tau1=0.05,
        kappa_tau2=0.03,
    )
    states = simulate_rb(cfg, ic, 11)
    worst = 0.0
    for s in range(1, 11):  # 10 sample times past the initial condition
        t_phys = s * cfg.dt * cfg.sample_stride
        b_sim, _ = split_state(states[s], cfg.grid)
        b_ana = analytic_buoyancy(cfg, ic, t_phys)
        worst = max(worst, np.linalg.norm(b_sim - b_ana) / np.linalg.norm(b_ana))
    ok = worst <= 1e-4
    _report("criterion 10 (Taylor-vortex physics)", ok, f"worst relative field error {worst:.3e}")


def test_criterion_11_complexity_contract():
    """Theta(rn) per spectral step; no n-by-n array anywhere in a n=1024 solve."""
    # per-step multiply-adds scale linearly in n
    per_step = {}
    r = 5
    for n in (600, 1200):
        rng = np.random.default_rng(5)
        data = lrdmd.SnapshotPair(X=rng.standard_normal((n, 12)), Y=rng.standard_normal((n, 12)))
        op = lrdmd.optimal_lowrank(data, r)
        model = lrdmd.build_spectral_model(op)
        theta = rng.standard_normal(n)
        T = 21
        with audit.tally() as t:
            lrdmd.simulate_spectral(model, theta, T)
        per_step[n] = t.multiply_adds / (T - 1)
    linear_ok = (
        r * 600 <= per_step[600] <= 3 * r * 600
        and r * 1200 <= per_step[1200] <= 3 * r * 1200
        and 1.6 <= per_step[1200] / per_step[600] <= 2.4
    )

    # allocation audit on an n = 1024 solve
    n = 1024
    rng = np.random.default_rng(6)
    data = lrdmd.SnapshotPair(X=rng.standard_normal((n, 50)), Y=rng.standard_normal((n, 50)))
    tracemalloc.start()
    tracemalloc.reset_peak()
    with audit.tally() as t:
        op = lrdmd.optimal_lowrank(data, 10)
        model = lrdmd.build_spectral_model(op)
        lrdmd.simulate_spectral(model, rng.standard_normal(n), 11)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    nxn_bytes = n * n * 8
    alloc_ok = t.max_elements < n * n and peak < nxn_bytes
    ok = linear_ok and alloc_ok
    _report(
        "criterion 11 (complexity contract)",
        ok,
        f"spectral per-step madds n=600: {per_step[600]:.0f}, n=1200: {per_step[1200]:.0f} "
        f"(ratio {per_step[1200] / per_step[600]:.2f}); solver max intermediate "
        f"{t.max_elements} < {n * n} elems, traced peak {peak / 1e6:.1f} MB < {nxn_bytes / 1e6:.1f} MB",
    )
