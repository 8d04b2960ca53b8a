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

from . import audit
from . import io as lio
from .benchmarks import GENERATORS, SOLVERS, error_sweep, generate
from .errors import InvalidInput, LrdmdError, PairingFailure, SimulationBlowup
from .linalg import DEFAULT_RANK_TOL
from .reduced import (
    SpectralModel,
    build_spectral_model,
    build_svd_reduced_model,
    modal_block,
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

# verify's tolerances, each used by its comparison and its printed message
_GAP_TOL = 1e-7
_RESIDUAL_TOL = 1e-8
_EIGEN_RESIDUAL_TOL = 1e-8
_RAYLEIGH_TOL = 1e-8


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    data, manifest, truth = generate(args.generator, args.seed, args.psnr)
    out = Path(args.out)
    lio.write_dataset(out, data, manifest)
    if truth is not None:
        lio.save_spectral(out / "truth-spectral.json", truth, {"role": "ground truth", "seed": args.seed})
    _say(args, f"wrote dataset {args.generator} to {out} (n={data.n}, m={data.m}, N={data.n_traj}, T={data.traj_len})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _provenance(manifest: dict, method: str, k: int) -> dict:
    return {
        "dataset_hash": lio.manifest_hash(manifest),
        "generator": manifest.get("generator"),
        "method": method,
        "k": k,
        "rank_tol": DEFAULT_RANK_TOL,
    }


def cmd_fit(args) -> int:
    data, manifest = lio.read_dataset(args.dataset)
    fit = SOLVERS[args.method](data)
    op = fit.operator(args.k)
    rep = error_report(op, data, closed_form_sq=fit.error_sq(args.k))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prov = _provenance(manifest, args.method, args.k)
    lio.save_factored(out / "model-factored.json", op, prov)
    _say(
        args,
        f"method={args.method} k={args.k} direct_error={rep.direct_error:.8e} "
        f"normalized={rep.normalized:.8e} effective_rank={op.r} flags={','.join(op.flags) or '-'}",
    )
    if args.method != "optimal":
        return EXIT_OK
    _say(args, f"closed_form_error={rep.closed_form_error:.8e} gap={rep.closed_form_gap:.3e}")
    reduced = build_svd_reduced_model(op)
    lio.save_reduced(out / "model-reduced.json", reduced, prov)
    spectral = build_spectral_model(op)  # a PairingFailure leaves the two models above and exits 4
    lio.save_spectral(out / "model-spectral.json", spectral, prov)
    if spectral.flags:
        _say(args, f"spectral flags: {','.join(spectral.flags)}")
    _say(args, f"wrote models to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_k_range(text: str, m: int) -> list[int]:
    if text == "all":
        return list(range(1, m + 1))
    ks = []
    for part in text.split(":" if ":" in text else ","):
        try:
            ks.append(int(part))
        except ValueError:
            raise InvalidInput(f"bad k range {text!r}: {part!r} is not an integer") from None
    if ":" not in text:
        return ks
    if len(ks) > 3:
        raise InvalidInput(f"bad k range {text!r}: expected lo:hi or lo:hi:step")
    lo, hi, step = (*ks, 1)[:3]
    if step < 1:
        raise InvalidInput(f"bad k range {text!r}: step {step} is below 1")
    if lo > hi:
        raise InvalidInput(f"bad k range {text!r}: lo {lo} exceeds hi {hi}")
    ks = range(lo, hi + 1, step)
    # Bounds first, at O(1) on the range: a huge hi must not be listed.
    if ks[0] < 1 or ks[-1] > m:
        raise InvalidInput(f"k range must lie within [1, {m}]")
    return list(ks)


def cmd_sweep(args) -> int:
    data, manifest = lio.read_dataset(args.dataset)
    ks = _parse_k_range(args.k_range, data.m)
    curve = error_sweep(data, ks, args.methods.split(","))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,method,normalized_error,closed_form_error,flags"]
    for j, k in enumerate(curve.ks):
        for name in curve.methods:
            cf = curve.closed_form[j] if name == "optimal" else np.nan
            cells = ",".join(format(v, ".17g") if np.isfinite(v) else "" for v in (curve.errors[name][j], cf))
            lines.append(f"{k},{name},{cells},{curve.flags[name][j]}")
    succeeded = sum(np.isfinite(curve.errors[name]).sum() for name in curve.methods)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    title = f"{manifest.get('generator', 'dataset')}: normalized error vs k"
    (out / "sweep.svg").write_text(error_chart(curve.ks, curve.errors, title=title))
    _say(args, f"wrote sweep.csv and sweep.svg to {out} ({succeeded} cells)")
    return EXIT_OK if succeeded > 0 else EXIT_USAGE


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_theta(args) -> np.ndarray:
    if args.theta_file:
        theta = lio.read_matrix_csv(args.theta_file)
        if 1 not in theta.shape:
            raise InvalidInput(f"{args.theta_file} is {theta.shape[0]}x{theta.shape[1]}, not one row or one column")
        theta = theta.ravel()
    elif args.dataset is not None and args.column is not None:
        X, _manifest = lio.read_dataset_x(args.dataset)  # the initial state is a column of X alone
        if not (0 <= args.column < X.shape[1]):
            raise InvalidInput(f"column must lie in [0, {X.shape[1]})")
        theta = X[:, args.column]
    else:
        raise InvalidInput("need --theta-file or --dataset with --column")
    if not np.all(np.isfinite(theta)):
        raise InvalidInput("initial condition contains non-finite entries")
    return theta


def _load_model(path):
    """``io.load_model`` of a file whose every array is finite: a nan or inf in a model is bad input, not a blowup."""
    obj, kind, _prov = lio.load_model(path)
    arrays = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if not all(np.all(np.isfinite(M)) for M in arrays if isinstance(M, np.ndarray)):
        raise InvalidInput(f"{path}: model contains non-finite entries")
    return obj, kind


def cmd_simulate(args) -> int:
    obj, kind = _load_model(args.model)
    theta = _load_theta(args)
    simulate = {"factored": simulate_operator, "reduced": simulate_reduced, "spectral": simulate_spectral}[kind]
    traj = simulate(obj, theta, args.steps)
    lio.write_matrix_csv(args.out, traj.states)
    _say(args, f"wrote {args.steps} x {obj.n} trajectory ({kind} model) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    data, _manifest = lio.read_dataset(args.dataset)
    k = args.k
    checks: list[tuple[str, bool, str]] = []

    fit = fit_optimal(data)
    op = fit.operator(k)
    gap = error_report(op, data, closed_form_sq=fit.error_sq(k)).closed_form_gap
    checks.append(("theorem-error-consistency", gap <= _GAP_TOL, f"relative gap={gap:.3e} tol={_GAP_TOL:.0e}"))

    res1 = first_order_residual(op, data)
    checks.append(("first-order-residual", res1 <= _RESIDUAL_TOL, f"residual={res1:.3e} tol={_RESIDUAL_TOL:.0e}"))

    rank_y = int(np.linalg.matrix_rank(data.Y, rtol=DEFAULT_RANK_TOL))  # singular values only; 0 for Y = 0
    bound = min(k, data.rank_x, rank_y)
    checks.append(("rank-bound", op.r <= bound, f"effective_rank={op.r} bound={bound}"))

    checks.append(("row-space-leakage", True, f"||Y(I-P_rows(X))||_F={np.sqrt(fit.leak_sq):.6e}"))

    a_norm = op.fro_norm()
    try:
        if args.spectral_model:
            spectral, kind = _load_model(args.spectral_model)
            if kind != "spectral":
                raise InvalidInput(f"--spectral-model file has kind {kind!r}")
            if spectral.n != data.n:
                raise InvalidInput(f"{args.spectral_model} has n={spectral.n} but the dataset has n={data.n}")
        else:
            spectral = build_spectral_model(op)
        worst_res, worst_rayleigh = _eigen_residuals(op, spectral)
        checks.append(
            (
                "eigen-residual",
                worst_res <= _EIGEN_RESIDUAL_TOL * max(a_norm, 1e-300),
                f"max ||A z - lam z|| / ||A||_F = {worst_res / max(a_norm, 1e-300):.3e} tol={_EIGEN_RESIDUAL_TOL:.0e}",
            )
        )
        checks.append(
            (
                "eigen-rayleigh",
                worst_rayleigh <= _RAYLEIGH_TOL,
                f"max |xi^T A zeta - lam| / max(1,|lam|) = {worst_rayleigh:.3e} tol={_RAYLEIGH_TOL:.0e}",
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
    """Worst column of ``||A R - R B||`` and of ``max|L^T A R - B| / max(1, |lam|)``, B the modal block."""
    R, B = spectral.right_vecs, modal_block(spectral.eigvals)
    AR = op.apply_matrix(R)
    res = np.linalg.norm(AR - audit.mm(R, B), axis=0)
    ray = np.max(np.abs(audit.mm(spectral.left_vecs.T, AR) - B), axis=0, initial=0.0)
    ray /= np.maximum(1.0, np.abs(spectral.eigvals))
    return float(np.max(res, initial=0.0)), float(np.max(ray, initial=0.0))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrdmd", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a benchmark dataset")
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
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
    p.add_argument("--methods", default=",".join(SOLVERS))
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
    except (LrdmdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
