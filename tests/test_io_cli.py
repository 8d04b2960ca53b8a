"""Persistence round-trips and the command-line surface (exit-code contract)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdmd
from lrdmd import io as lio
from lrdmd.cli import main
from lrdmd.svgplot import error_chart


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 9, size=(7, 5))
        p = tmp_path / "m.csv"
        lio.write_matrix_csv(p, M)
        back = lio.read_matrix_csv(p)
        assert back.tobytes() == M.tobytes()

    def test_header_carries_dims(self, tmp_path):
        p = tmp_path / "m.csv"
        lio.write_matrix_csv(p, np.ones((3, 4)))
        assert p.read_text().splitlines()[0] == "3,4"

    def test_bad_blocks_rejected(self):
        with pytest.raises(lrdmd.InvalidInput):
            lio.block_to_matrix("2,2\n1.0,2.0\n")
        with pytest.raises(lrdmd.InvalidInput):
            lio.block_to_matrix("2,2\n1.0,2.0\n3.0\n")


class TestDatasetRoundTrip:
    def test_round_trip(self, tmp_path):
        data = lrdmd.gen_toy(lrdmd.ToyConfig(setting="ii", seed=1))
        manifest = {"schema_version": 1, "generator": "toy-ii", "seed": 1, "N": 40, "T": 2}
        lio.write_dataset(tmp_path / "ds", data, manifest)
        back, mf = lio.read_dataset(tmp_path / "ds")
        assert back.X.tobytes() == data.X.tobytes()
        assert back.Y.tobytes() == data.Y.tobytes()
        assert (back.n_traj, back.traj_len) == (40, 2)
        assert mf["generator"] == "toy-ii"

    def test_manifest_hash_stable(self):
        m = {"b": 2, "a": [1.5, np.float64(2.25)]}
        assert lio.manifest_hash(m) == lio.manifest_hash(json.loads(lio.dump_json(m)))


class TestModelRoundTrip:
    def test_factored(self, tmp_path):
        data = lrdmd.gen_toy(lrdmd.ToyConfig(setting="ii", seed=2))
        op = lrdmd.optimal_lowrank(data, 4)
        p = tmp_path / "f.json"
        lio.save_factored(p, op, {"method": "optimal", "k": 4})
        back, kind, prov = lio.load_model(p)
        assert kind == "factored" and prov["k"] == 4
        assert back.P.tobytes() == op.P.tobytes()
        assert back.Q.tobytes() == op.Q.tobytes()

    def test_reduced_and_spectral(self, tmp_path):
        data = lrdmd.gen_toy(lrdmd.ToyConfig(setting="ii", seed=3))
        op = lrdmd.optimal_lowrank(data, 4)
        rm = lrdmd.build_svd_reduced_model(op)
        sm = lrdmd.build_spectral_model(op)
        lio.save_reduced(tmp_path / "r.json", rm, {})
        lio.save_spectral(tmp_path / "s.json", sm, {})
        rm2, kind_r, _ = lio.load_model(tmp_path / "r.json")
        sm2, kind_s, _ = lio.load_model(tmp_path / "s.json")
        assert (kind_r, kind_s) == ("reduced", "spectral")
        assert rm2.S.tobytes() == rm.S.tobytes()
        assert sm2.eigvals.tobytes() == sm.eigvals.tobytes()
        assert sm2.right_vecs.tobytes() == sm.right_vecs.tobytes()


class TestSvg:
    def test_deterministic_and_wellformed(self):
        ks = np.arange(1, 11)
        series = {
            "optimal": np.logspace(-1, -9, 10),
            "truncated": np.logspace(-0.5, -4, 10),
            "projected": np.concatenate([np.logspace(-1, -3, 9), [np.nan]]),
        }
        a = error_chart(ks, series, title="demo")
        b = error_chart(ks, series, title="demo")
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
        assert a.count("<polyline") >= 3
        import xml.etree.ElementTree as ET

        ET.fromstring(a)  # parses as XML


class TestCli:
    @pytest.fixture()
    def toy_ds(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(out), "--quiet"]) == 0
        return out

    def test_generate_manifest_contents(self, toy_ds):
        mf = json.loads((toy_ds / "manifest.json").read_text())
        assert mf["config"]["n"] == 50 and mf["config"]["m"] == 40 and mf["config"]["r"] == 30
        assert mf["seed"] == 7 and mf["N"] == 40 and mf["T"] == 2

    def test_generate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "toy-iii", "--seed", "9", "--out", str(a), "--quiet"]) == 0
        assert main(["generate", "toy-iii", "--seed", "9", "--out", str(b), "--quiet"]) == 0
        for name in ("manifest.json", "X.csv", "Y.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fit_writes_models_and_reports(self, toy_ds, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "5", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "closed_form_error" in captured and "direct_error" in captured
        for name in ("model-factored.json", "model-reduced.json", "model-spectral.json"):
            assert (out / name).exists()
        # baseline writes only the factored model
        out2 = tmp_path / "fit2"
        assert main(["fit", str(toy_ds), "--method", "truncated", "--k", "5", "--out", str(out2)]) == 0
        assert (out2 / "model-factored.json").exists()
        assert not (out2 / "model-spectral.json").exists()

    def test_fit_invalid_k_exit2(self, toy_ds, tmp_path):
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "99", "--out", str(tmp_path / "x")]) == 2

    def test_fit_dominance_in_reports(self, toy_ds, tmp_path, capsys):
        assert main(["fit", str(toy_ds), "--method", "truncated", "--k", "7", "--out", str(tmp_path / "t")]) == 0
        e_t = float(capsys.readouterr().out.split("normalized=")[1].split()[0])
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "7", "--out", str(tmp_path / "o")]) == 0
        e_o = float(capsys.readouterr().out.split("normalized=")[1].split()[0])
        assert e_o <= e_t + 1e-10

    def test_sweep_outputs(self, toy_ds, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", str(toy_ds), "--k-range", "1:40", "--out", str(out), "--quiet"]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "k,method,normalized_error,closed_form_error,flags"
        assert len(rows) - 1 == 40 * 3
        svg = (out / "sweep.svg").read_text()
        assert "<svg" in svg and "optimal" in svg
        # determinism of sweep artifacts
        out2 = tmp_path / "sw2"
        assert main(["sweep", str(toy_ds), "--k-range", "1:40", "--out", str(out2), "--quiet"]) == 0
        assert (out / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out / "sweep.svg").read_bytes() == (out2 / "sweep.svg").read_bytes()

    def test_simulate_reduced_vs_spectral_agree(self, toy_ds, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "4", "--out", str(fit), "--quiet"]) == 0
        tr = tmp_path / "tr.csv"
        ts = tmp_path / "ts.csv"
        for model, path in (("model-reduced.json", tr), ("model-spectral.json", ts)):
            rc = main(
                [
                    "simulate",
                    str(fit / model),
                    "--dataset",
                    str(toy_ds),
                    "--column",
                    "0",
                    "--steps",
                    "11",
                    "--out",
                    str(path),
                    "--quiet",
                ]
            )
            assert rc == 0
        a = lio.read_matrix_csv(tr)
        b = lio.read_matrix_csv(ts)
        assert a.shape == (11, 50)
        scale = max(np.abs(a[1:]).max(), 1e-300)
        assert np.max(np.abs(a[1:] - b[1:])) <= 1e-8 * scale
        # the spectral summary line reports the imaginary residue of the conjugate-pair sums
        assert main(["simulate", str(fit / "model-spectral.json"), "--dataset", str(toy_ds),
                     "--column", "0", "--steps", "11", "--out", str(ts)]) == 0
        residue = float(capsys.readouterr().out.split("max_imag_residue=")[1].split()[0])
        assert 0.0 <= residue <= 1e-8

    def test_simulate_T1_returns_theta(self, toy_ds, tmp_path):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "4", "--out", str(fit), "--quiet"]) == 0
        out = tmp_path / "one.csv"
        rc = main(
            [
                "simulate",
                str(fit / "model-reduced.json"),
                "--dataset",
                str(toy_ds),
                "--column",
                "3",
                "--steps",
                "1",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert rc == 0
        traj = lio.read_matrix_csv(out)
        data, _ = lio.read_dataset(toy_ds)
        np.testing.assert_array_equal(traj[0], data.X[:, 3])

    def test_simulate_dimension_mismatch_exit2(self, toy_ds, tmp_path):
        fit = tmp_path / "fit"
        main(["fit", str(toy_ds), "--method", "optimal", "--k", "4", "--out", str(fit), "--quiet"])
        theta = tmp_path / "theta.csv"
        lio.write_matrix_csv(theta, np.ones((1, 7)))
        rc = main(
            ["simulate", str(fit / "model-reduced.json"), "--theta-file", str(theta),
             "--steps", "3", "--out", str(tmp_path / "o.csv"), "--quiet"]
        )
        assert rc == 2

    def test_simulate_reads_only_x_and_rejects_nonfinite_theta(self, toy_ds, tmp_path):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--method", "optimal", "--k", "4", "--out", str(fit), "--quiet"]) == 0
        (toy_ds / lio.Y_NAME).unlink()
        X = lio.read_matrix_csv(toy_ds / lio.X_NAME)

        def simulate(column):
            return main(["simulate", str(fit / "model-reduced.json"), "--dataset", str(toy_ds),
                         "--column", str(column), "--steps", "1", "--out", str(tmp_path / "o.csv"), "--quiet"])

        assert simulate(3) == 0
        np.testing.assert_array_equal(lio.read_matrix_csv(tmp_path / "o.csv")[0], X[:, 3])
        assert simulate(X.shape[1]) == 2
        assert simulate(-1) == 2
        X[5, 2] = np.nan
        lio.write_matrix_csv(toy_ds / lio.X_NAME, X)
        assert simulate(2) == 2
        assert simulate(3) == 0
        theta = tmp_path / "theta.csv"
        lio.write_matrix_csv(theta, X[:, 2:3].T)
        assert main(["simulate", str(fit / "model-reduced.json"), "--theta-file", str(theta),
                     "--steps", "1", "--out", str(tmp_path / "o.csv"), "--quiet"]) == 2

    def test_verify_ok(self, toy_ds, capsys):
        assert main(["verify", str(toy_ds), "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "theorem-error-consistency: ok" in out
        assert "first-order-residual: ok" in out
        assert "eigen-residual: ok" in out

    def test_verify_full_rank_row_term_zero(self, toy_ds, capsys):
        assert main(["verify", str(toy_ds), "--k", "40"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "row-space-leakage" in ln][0]
        assert float(line.split("=")[-1].rstrip(")")) <= 1e-9

    def test_verify_k_beyond_rank_x_exit0(self, tmp_path, capsys):
        # rank(X) = 12, singular values down to 1e-7, Y = G X: verify at k = 20
        # must not let noise directions past rank(X) fail its own rank bound
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((200, 12)))
        V, _ = np.linalg.qr(rng.standard_normal((30, 12)))
        X = (U * np.logspace(0, -7, 12)) @ V.T
        data = lrdmd.SnapshotPair(X=X, Y=rng.standard_normal((200, 200)) @ X)
        lio.write_dataset(tmp_path / "ds", data, {"schema_version": 1, "generator": "rank-12"})
        assert main(["verify", str(tmp_path / "ds"), "--k", "20"]) == 0
        assert "rank-bound: ok (effective_rank=12 bound=12)" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["factored", "reduced", "spectral"])
    def test_simulate_blowup_exit3(self, kind, tmp_path, capsys):
        # A = 1e200 e_1 e_1^T overflows at the third state for every model kind
        n = 5
        e1 = np.eye(n)[:, :1]
        op = lrdmd.FactoredOperator(P=e1, Q=1e200 * e1)
        path = tmp_path / f"{kind}.json"
        if kind == "factored":
            lio.save_factored(path, op, {})
        elif kind == "reduced":
            lio.save_reduced(path, lrdmd.build_svd_reduced_model(op), {})
        else:
            lio.save_spectral(path, lrdmd.build_spectral_model(op), {})
        theta = tmp_path / "theta.csv"
        lio.write_matrix_csv(theta, e1.T)
        out = tmp_path / "traj.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", str(path), "--theta-file", str(theta), "--steps", "5", "--out", str(out)])
        assert rc == 3
        assert "non-finite state at step 2" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_corrupted_model_exit5(self, toy_ds, tmp_path, capsys):
        fit = tmp_path / "fit"
        main(["fit", str(toy_ds), "--method", "optimal", "--k", "4", "--out", str(fit), "--quiet"])
        doc = json.loads((fit / "model-spectral.json").read_text())
        block = doc["blocks"]["zeta_re"].splitlines()
        vals = block[1].split(",")
        vals[0] = format(float(vals[0]) + 0.5, ".17g")
        block[1] = ",".join(vals)
        doc["blocks"]["zeta_re"] = "\n".join(block) + "\n"
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(doc))
        rc = main(["verify", str(toy_ds), "--k", "4", "--spectral-model", str(corrupted)])
        assert rc == 5
        out = capsys.readouterr()
        assert "eigen-residual: FAIL" in out.out
        assert "verification failed" in out.err

    def test_unknown_generator_exit2(self, tmp_path):
        assert main(["generate", "toy-ix", "--out", str(tmp_path / "x")]) == 2

    def test_unwritable_path_exit2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["generate", "toy-i", "--out", str(blocker / "sub"), "--quiet"])
        assert rc == 2

    def test_pairing_failure_exit4_keeps_factored_model(self, toy_ds, tmp_path, monkeypatch):
        import lrdmd.cli as cli_mod
        from lrdmd.errors import PairingFailure

        def boom(op):
            raise PairingFailure("synthetic failure")

        monkeypatch.setattr(cli_mod, "build_spectral_model", boom)
        out = tmp_path / "fit4"
        rc = main(["fit", str(toy_ds), "--method", "optimal", "--k", "3", "--out", str(out), "--quiet"])
        assert rc == 4
        assert (out / "model-factored.json").exists()
        assert not (out / "model-spectral.json").exists()

    def test_missing_dataset_exit2(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope"), "--method", "optimal", "--k", "2", "--out", str(tmp_path / "o")]) == 2

    def test_console_entrypoint_subprocess(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "ds"
        proc = subprocess.run(
            [sys.executable, "-m", "lrdmd.cli", "generate", "toy-i", "--seed", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "X.csv").exists()


class TestCliConvectionDataset:
    def test_generate_rb_iv_manifest_and_verify(self, tmp_path, capsys):
        out = tmp_path / "rb"
        assert main(["generate", "rb-iv", "--seed", "1", "--out", str(out), "--quiet"]) == 0
        mf = json.loads((out / "manifest.json").read_text())
        assert (mf["n"], mf["m"], mf["N"], mf["T"]) == (1024, 50, 50, 2)
        assert mf["scheme"]["grid"] == [16, 32]
        assert "rng" in mf and "dt" in mf["scheme"]
        assert main(["verify", str(out), "--k", "10"]) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestCliSpectralDatasets:
    # one end-to-end pass over the spectral generators (heavier: builds rb-vi)
    def test_generate_spectral_vii_fit_and_replay(self, tmp_path, capsys):
        out = tmp_path / "vii"
        assert main(["generate", "spectral-vii", "--seed", "5", "--out", str(out), "--quiet"]) == 0
        assert (out / "truth-spectral.json").exists()
        mf = json.loads((out / "manifest.json").read_text())
        assert mf["n"] == 1024 and mf["m"] == 50
        fit = tmp_path / "m"
        assert main(["fit", str(out), "--method", "optimal", "--k", "3", "--out", str(fit)]) == 0
        rep = capsys.readouterr().out
        norm = float(rep.split("normalized=")[1].split()[0])
        assert norm <= 1e-8
        # replaying the training initial condition reproduces the training
        # trajectory (t >= 2; the spectral model projects at t = 1)
        traj_csv = tmp_path / "replay.csv"
        rc = main(
            ["simulate", str(fit / "model-spectral.json"), "--dataset", str(out),
             "--column", "0", "--steps", "11", "--out", str(traj_csv), "--quiet"]
        )
        assert rc == 0
        replay = lio.read_matrix_csv(traj_csv)
        data, _ = lio.read_dataset(out)
        training = np.column_stack([data.X[:, :10], data.Y[:, 9]]).T  # trajectory 0
        scale = np.linalg.norm(training, axis=1).max()
        assert np.max(np.abs(replay[1:] - training[1:])) <= 1e-6 * scale


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported only where it is used; loading it costs most of the CLI start-up.
    code = "import sys, lrdmd.cli; sys.exit('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(lrdmd.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_eigen_residuals_match_per_eigenpair_loop():
    from lrdmd.cli import _eigen_residuals

    def loop(op, spectral):
        worst_res = worst_ray = 0.0
        for lam, zeta, xi in zip(spectral.eigvals, spectral.right_vecs.T, spectral.left_vecs.T):
            az = op.P.astype(complex) @ (op.Q.T.astype(complex) @ zeta)
            worst_res = max(worst_res, float(np.linalg.norm(az - lam * zeta)))
            worst_ray = max(worst_ray, abs(complex(np.sum(xi * az)) - lam) / max(1.0, abs(lam)))
        return worst_res, worst_ray

    rng = np.random.default_rng(21)
    data = lrdmd.SnapshotPair(X=rng.standard_normal((30, 12)), Y=rng.standard_normal((30, 12)))
    op = lrdmd.optimal_lowrank(data, 6)
    spectral = lrdmd.build_spectral_model(op)
    assert np.max(np.abs(spectral.eigvals.imag)) > 0  # conjugate pairs as well as real eigenvalues
    # A perturbed model, so that both residuals are far from roundoff.
    off = lrdmd.SpectralModel(spectral.eigvals * 1.01, spectral.right_vecs, spectral.left_vecs * 0.99)
    for model in (spectral, off):
        np.testing.assert_allclose(_eigen_residuals(op, model), loop(op, model), rtol=1e-9, atol=1e-14)
    empty = lrdmd.build_spectral_model(lrdmd.FactoredOperator(P=np.zeros((30, 0)), Q=np.zeros((30, 0))))
    assert _eigen_residuals(op, empty) == (0.0, 0.0)
