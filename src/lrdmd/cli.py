"""Command-line interface: generate, fit, sweep, simulate, verify.

Exit codes are a stable contract for harness scripting: 0 success, 2 bad
usage or input, 3 simulation blowup, 4 spectral pairing failure, 5
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as lio
from .benchmarks import (
    PHYSICAL_LAYOUT,
    RNG_NAME,
    SOLVERS,
    ToyConfig,
    add_noise_psnr,
    error_sweep,
    gen_physical,
    gen_toy,
    physical_config,
    spectral_ground_truth,
)
from .errors import InvalidInput, LrdmdError, PairingFailure, SimulationBlowup
from .linalg import numerical_rank, thin_svd
from .reduced import (
    ReducedModel,
    SpectralModel,
    build_spectral_model,
    build_svd_reduced_model,
    simulate_operator,
    simulate_reduced,
    simulate_spectral,
)
from .solver import FactoredOperator, error_report, first_order_residual, fit_optimal
from .svgplot import error_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_PAIRING = 4
EXIT_VERIFY = 5

GENERATORS = (
    "toy-i",
    "toy-ii",
    "toy-iii",
    "rb-iv",
    "rb-v",
    "rb-vi",
    "spectral-vii",
    "spectral-viii",
)


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _scheme_metadata(cfg) -> dict:
    return {
        "space": "pseudo-spectral, periodic s1, odd extension (sine modes) in s2",
        "dealias": "2/3 rule",
        "time": "explicit RK4",
        "dt": cfg.dt,
        "sample_stride": cfg.sample_stride,
        "grid": list(cfg.grid),
        "poisson_gauge": "zero mode of inverse Laplacian set to 0",
    }


def cmd_generate(args) -> int:
    name = args.generator
    out = Path(args.out)
    seed = args.seed
    manifest: dict = {"schema_version": lio.SCHEMA_VERSION, "generator": name, "seed": seed, "rng": RNG_NAME}
    truth = None
    if name.startswith("toy-"):
        cfg = ToyConfig(setting=name.split("-", 1)[1], seed=seed)
        data = gen_toy(cfg)
        manifest["config"] = dataclasses.asdict(cfg)
    elif name.startswith("rb-"):
        setting = name.split("-", 1)[1]
        cfg = physical_config(setting)
        data = gen_physical(setting, seed, cfg)
        manifest["config"] = dataclasses.asdict(cfg)
        manifest["scheme"] = _scheme_metadata(cfg)
    else:  # spectral-vii / spectral-viii
        cfg = physical_config("vi")
        truth, data = spectral_ground_truth(seed, cfg)
        manifest["config"] = dataclasses.asdict(cfg)
        manifest["scheme"] = _scheme_metadata(cfg)
        manifest["base_model"] = {"fitted_from": "rb-vi", "k": 3, "seed": seed}
        if name == "spectral-viii":
            psnr = args.psnr if args.psnr is not None else 20.0
            data = add_noise_psnr(data, psnr, seed + 2)
            manifest["psnr_db"] = psnr
    if args.psnr is not None and name != "spectral-viii":
        data = add_noise_psnr(data, args.psnr, seed + 2)
        manifest["psnr_db"] = args.psnr
    manifest.update({"n": data.n, "m": data.m, "N": data.n_traj, "T": data.traj_len})
    lio.write_dataset(out, data, manifest)
    if truth is not None:
        lio.save_spectral(out / "truth-spectral.json", truth, {"role": "ground truth", "seed": seed})
    _say(args, f"wrote dataset {name} to {out} (n={data.n}, m={data.m}, N={data.n_traj}, T={data.traj_len})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _provenance(manifest: dict, method: str, k: int, rank_tol: float) -> dict:
    return {
        "dataset_hash": lio.manifest_hash(manifest),
        "generator": manifest.get("generator"),
        "method": method,
        "k": k,
        "rank_tol": rank_tol,
    }


def cmd_fit(args) -> int:
    data, manifest = lio.read_dataset(args.dataset)
    if args.method not in SOLVERS:
        raise InvalidInput(f"unknown method {args.method!r}")
    if not (1 <= args.k <= data.m):
        raise InvalidInput(f"k must lie in [1, {data.m}]")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = _provenance(manifest, args.method, args.k, args.rank_tol)
    fit = SOLVERS[args.method](data, args.rank_tol)
    op = fit.operator(args.k)
    cf_sq = fit.error_sq(args.k) if args.method == "optimal" else None
    rep = error_report(op, data, closed_form_sq=cf_sq)
    lio.save_factored(out / "model-factored.json", op, prov)
    _say(
        args,
        f"method={args.method} k={args.k} direct_error={rep.direct_error:.8e} "
        f"normalized={rep.normalized:.8e} effective_rank={op.r} flags={','.join(op.flags) or '-'}",
    )
    if args.method != "optimal":
        return EXIT_OK
    _say(
        args,
        f"closed_form_error={rep.closed_form_error:.8e} gap={rep.closed_form_gap:.3e}",
    )
    reduced = build_svd_reduced_model(op)
    lio.save_reduced(out / "model-reduced.json", reduced, prov)
    try:
        spectral = build_spectral_model(op)
    except PairingFailure as exc:
        print(f"spectral pairing failed: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    lio.save_spectral(out / "model-spectral.json", spectral, prov)
    if spectral.flags:
        _say(args, f"spectral flags: {','.join(spectral.flags)}")
    _say(args, f"wrote models to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_k_range(text: str, m: int) -> list[int]:
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise InvalidInput(f"bad k range {text!r}")
        return list(range(lo, hi + 1, step))
    if text == "all":
        return list(range(1, m + 1))
    return [int(p) for p in text.split(",")]


def cmd_sweep(args) -> int:
    data, manifest = lio.read_dataset(args.dataset)
    ks = _parse_k_range(args.k_range, data.m)
    methods = tuple(args.methods.split(","))
    curve = error_sweep(data, ks, methods, args.rank_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,method,normalized_error,closed_form_error,flags"]
    succeeded = 0
    for j, k in enumerate(curve.ks):
        for name in methods:
            err = curve.errors[name][j]
            cf = curve.closed_form[j] if (name == "optimal" and curve.closed_form is not None) else None
            err_s = format(err, ".17g") if np.isfinite(err) else ""
            cf_s = format(cf, ".17g") if cf is not None and np.isfinite(cf) else ""
            lines.append(f"{k},{name},{err_s},{cf_s},{curve.flags[name][j]}")
            if np.isfinite(err):
                succeeded += 1
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    title = f"{manifest.get('generator', 'dataset')}: normalized error vs k"
    (out / "sweep.svg").write_text(error_chart(curve.ks, curve.errors, title=title))
    _say(args, f"wrote sweep.csv and sweep.svg to {out} ({succeeded} cells)")
    return EXIT_OK if succeeded > 0 else EXIT_USAGE


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_theta(args, n: int) -> np.ndarray:
    if args.theta_file:
        M = lio.read_matrix_csv(args.theta_file)
        theta = M.ravel()
    elif args.dataset is not None and args.column is not None:
        X = lio.read_matrix_csv(Path(args.dataset) / lio.X_NAME)  # the initial state is a column of X alone
        if not (0 <= args.column < X.shape[1]):
            raise InvalidInput(f"column must lie in [0, {X.shape[1]})")
        theta = X[:, args.column]
    else:
        raise InvalidInput("need --theta-file or --dataset with --column")
    if theta.size != n:
        raise InvalidInput(f"initial condition has length {theta.size}, model expects {n}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInput("initial condition contains non-finite entries")
    return theta


def cmd_simulate(args) -> int:
    obj, kind, _prov = lio.load_model(args.model)
    theta = _load_theta(args, obj.n)
    if kind == "factored":
        traj = simulate_operator(obj, theta, args.steps)
    elif kind == "reduced":
        traj = simulate_reduced(obj, theta, args.steps)
    else:
        traj = simulate_spectral(obj, theta, args.steps)
    lio.write_matrix_csv(args.out, traj.states)
    residue = "" if traj.max_imag_residue is None else f" max_imag_residue={traj.max_imag_residue:.3e}"
    _say(args, f"wrote {args.steps} x {obj.n} trajectory ({kind} model) to {args.out}{residue}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    data, _manifest = lio.read_dataset(args.dataset)
    k = args.k
    checks: list[tuple[str, bool, str]] = []

    fit = fit_optimal(data, args.rank_tol)
    op = fit.operator(k)
    cf_sq = fit.error_sq(k)
    direct = op.residual_fro(data)
    gap = abs(direct**2 - cf_sq)
    tol = 1e-7 * max(1.0, cf_sq)
    checks.append(("theorem-error-consistency", gap <= tol, f"|direct^2-closed|={gap:.3e} tol={tol:.3e}"))

    res1 = first_order_residual(op, data)
    checks.append(("first-order-residual", res1 <= 1e-8, f"residual={res1:.3e} tol=1e-08"))

    rank_x = numerical_rank(data.svd_x, args.rank_tol)
    rank_y = numerical_rank(thin_svd(data.Y), args.rank_tol) if np.any(data.Y) else 0
    bound = min(k, rank_x, rank_y)
    checks.append(("rank-bound", op.r <= bound, f"effective_rank={op.r} bound={bound}"))

    checks.append(("row-space-leakage", True, f"||Y(I-P_rows(X))||_F={np.sqrt(fit.leak_sq):.6e}"))

    a_norm = op.fro_norm()
    try:
        if args.spectral_model:
            spectral, kind, _ = lio.load_model(args.spectral_model)
            if kind != "spectral":
                raise InvalidInput(f"--spectral-model file has kind {kind!r}")
        else:
            spectral = build_spectral_model(op)
        worst_res, worst_rayleigh = _eigen_residuals(op, spectral)
        checks.append(
            (
                "eigen-residual",
                worst_res <= 1e-8 * max(a_norm, 1e-300),
                f"max ||A z - lam z|| / ||A||_F = {worst_res / max(a_norm, 1e-300):.3e} tol=1e-08",
            )
        )
        checks.append(
            (
                "eigen-rayleigh",
                worst_rayleigh <= 1e-8,
                f"max |xi^T A zeta - lam| / max(1,|lam|) = {worst_rayleigh:.3e} tol=1e-08",
            )
        )
    except PairingFailure as exc:
        checks.append(("eigen-pairing", False, str(exc)))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        _say(args, f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
        return EXIT_VERIFY
    _say(args, f"all checks passed for k={k}")
    return EXIT_OK


def _eigen_residuals(op: FactoredOperator, spectral: SpectralModel) -> tuple[float, float]:
    """Worst ``||A zeta - lam zeta||`` and ``|xi^T A zeta - lam| / max(1, |lam|)`` over all eigentriples."""
    lam, zeta = spectral.eigvals, spectral.right_vecs
    AZ = op.P @ (op.Q.T @ zeta)
    res = np.linalg.norm(AZ - zeta * lam, axis=0)
    ray = np.abs(np.sum(spectral.left_vecs * AZ, axis=0) - lam) / np.maximum(1.0, np.abs(lam))
    return float(np.max(res, initial=0.0)), float(np.max(ray, initial=0.0))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrdmd", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--rank-tol", type=float, default=1e-12, help="relative numerical-rank cutoff")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a benchmark dataset")
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--psnr", type=float, default=None, help="corrupt snapshots at this PSNR (dB)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", parents=[common], help="fit a low-rank operator to a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--method", default="optimal", choices=sorted(SOLVERS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output model directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", parents=[common], help="error-vs-k sweep across methods")
    p.add_argument("dataset")
    p.add_argument("--k-range", default="all", help='"lo:hi[:step]", "k1,k2,..." or "all"')
    p.add_argument("--methods", default="optimal,truncated,projected")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common], help="run a saved model forward in time")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--theta-file", default=None, help="CSV file holding the initial condition")
    p.add_argument("--dataset", default=None, help="dataset directory to take the initial condition from")
    p.add_argument("--column", type=int, default=None, help="X column index for the initial condition")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="consistency checks at a given rank")
    p.add_argument("dataset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--spectral-model", default=None, help="check a saved spectral model instead")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SimulationBlowup as exc:
        print(f"simulation blowup: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except PairingFailure as exc:
        print(f"spectral pairing failure: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except (InvalidInput, LrdmdError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
