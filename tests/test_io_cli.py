"""Persistence round-trips and the command-line surface (exit-code contract)."""

import argparse
import csv
import hashlib
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


def _oracle_block(M):
    """The per-value writer the whole-matrix codec replaced."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]},{M.shape[1]}"]
    lines.extend(",".join(format(float(v), ".17g") for v in row) for row in M)
    return "\n".join(lines) + "\n"


def _oracle_matrix(text):
    """The per-value reader the whole-matrix codec replaced."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    rows, cols = (int(p) for p in lines[0].split(","))
    out = np.empty((rows, cols))
    for i, ln in enumerate(lines[1:]):
        out[i] = [float(p) for p in ln.split(",")]
    return out


_EDGE = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         0.1, 1 / 3, -2.5e-17, 123456789.0, np.inf, -np.inf]


class TestMatrixCsv:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (13, 13), (40, 7), (3, 0)])
    def test_codec_matches_per_value_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        flat = M.ravel()
        flat[: len(_EDGE)] = _EDGE[: flat.size]
        if flat.size == 1:
            M = np.array([[-0.0]])
        text = lio.matrix_to_block(M)
        assert text == _oracle_block(M)
        back = lio.block_to_matrix(text)
        assert back.shape == M.shape and back.dtype == np.float64
        assert back.tobytes() == M.tobytes() == _oracle_matrix(text).tobytes()

    def test_vector_and_nan_written_like_oracle(self):
        v = np.array([np.nan, -0.0, 5e-324])
        assert lio.matrix_to_block(v) == _oracle_block(v) == "1,3\nnan,-0,4.9406564584124654e-324\n"

    def test_complex_model_blocks_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        right = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        left = rng.standard_normal((9, 3)) * 1e-300 - 1j * rng.standard_normal((9, 3)) * 1e300
        right[0, 0], left[1, 1] = complex(-0.0, 5e-324), complex(2.2e-308, -0.0)
        sm = lrdmd.SpectralModel(eigvals=np.array([0.9 + 0.1j, 0.9 - 0.1j, -0.5 + 0j]), right_vecs=right,
                                 left_vecs=left)
        lio.save_spectral(tmp_path / "s.json", sm, {})
        blocks = json.loads((tmp_path / "s.json").read_text())["blocks"]
        assert blocks["zeta_im"] == _oracle_block(right.imag) and blocks["xi_re"] == _oracle_block(left.real)
        back, kind, _ = lio.load_model(tmp_path / "s.json")
        assert kind == "spectral"
        for got, want in ((back.eigvals, sm.eigvals), (back.right_vecs, right), (back.left_vecs, left)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("2,2\n1.0,2.0\n3.0\n", "row 1 has 1 values, expected 2"),
            ("3,2\n1.0,2.0\n3.0,4.0,5.0\n6.0,7.0\n", "row 1 has 3 values, expected 2"),
            ("2,2\n1.0,2.0,3.0\n4.0\n", "row 0 has 3 values, expected 2"),
            ("3,2\n1.0,2.0\n3.0,4.0\n", "expected 3 data rows, found 2"),
            ("1,2\n1.0,2.0\n3.0,4.0\n", "expected 1 data rows, found 2"),
            ("2;2\n1.0,2.0\n3.0,4.0\n", "bad matrix header"),
            ("  \n\n", "empty matrix block"),
            ("1,0\n1.0\n", "row 0 has 1 values, expected 0"),
            ("-1,0\n", "bad matrix header"),
        ],
    )
    def test_malformed_blocks_rejected(self, text, message):
        with pytest.raises(lrdmd.InvalidInput, match=message):
            lio.block_to_matrix(text)

    @pytest.mark.parametrize("text", ["2,2\n1.0,2.0\n#3.0,4.0\n", "2,2\n1.0,2.0 # note\n3.0,4.0\n",
                                      "1,2\n1.0,\n", "1,2\n1.0,x\n"])
    def test_hash_is_not_a_comment_and_bad_values_rejected(self, text):
        with pytest.raises(lrdmd.InvalidInput, match="bad value"):
            lio.block_to_matrix(text)

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

    def test_title_and_series_names_escaped(self):
        import xml.etree.ElementTree as ET

        svg = error_chart(np.arange(1, 4), {"x<y>&z": np.array([1e-1, 1e-2, 1e-3])}, title="a<b & c\x01\x1f\t")
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b & c\ufffd\ufffd\t" in texts and "x<y>&z" in texts

    def test_sweep_svg_parses_for_any_generator_name(self, tmp_path):
        import xml.etree.ElementTree as ET

        lio.write_dataset(tmp_path / "ds", lrdmd.gen_toy(lrdmd.ToyConfig(seed=2)), {"generator": "a<b & c"})
        assert main(["sweep", str(tmp_path / "ds"), "--k-range", "1:3", "--out", str(tmp_path / "sw")]) == 0
        root = ET.fromstring((tmp_path / "sw" / "sweep.svg").read_text())
        assert root.find("{http://www.w3.org/2000/svg}text").text == "a<b & c: normalized error vs k"


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

    def test_fit_projected_writes_k_columns(self, toy_ds, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--method", "projected", "--k", "3", "--out", str(out)]) == 0
        assert "effective_rank=3 " in capsys.readouterr().out
        assert json.loads((out / "model-factored.json").read_text())["dims"]["r"] == 3

    def test_parser_argument_sets(self):
        from lrdmd.cli import build_parser

        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {a.option_strings[0] if a.option_strings else a.dest for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert got == {
            "generate": {"generator", "--seed", "--out", "--psnr", "--quiet"},
            "fit": {"dataset", "--method", "--k", "--out", "--quiet"},
            "sweep": {"dataset", "--k-range", "--methods", "--out", "--quiet"},
            "simulate": {"model", "--theta-file", "--dataset", "--column", "--steps", "--out", "--quiet"},
            "verify": {"dataset", "--k", "--spectral-model", "--quiet"},
        }

    def test_removed_options_exit2(self, toy_ds, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(out), "--rank-tol", "1e-9"]) == 2
        assert not out.exists()
        assert main(["verify", str(toy_ds), "--k", "3", "--seed", "1", "--quiet"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["verify", str(toy_ds), "--k", "3", "--quiet"]) == 0

    def test_provenance_records_fixed_rank_tol(self, toy_ds, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(out), "--quiet"]) == 0
        _op, kind, prov = lio.load_model(out / "model-factored.json")
        assert kind == "factored" and prov["rank_tol"] == lrdmd.DEFAULT_RANK_TOL == 1e-12

    def test_generate_infinite_psnr_manifest_is_strict_json(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-finite constant {name}")

        clean, inf = tmp_path / "clean", tmp_path / "inf"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(clean), "--quiet"]) == 0
        assert main(["generate", "toy-ii", "--seed", "7", "--psnr=inf", "--out", str(inf), "--quiet"]) == 0
        manifest = json.loads((inf / "manifest.json").read_text(), parse_constant=reject)
        assert "psnr_db" not in manifest
        for name in ("manifest.json", "X.csv", "Y.csv"):
            assert (inf / name).read_bytes() == (clean / name).read_bytes()

    def test_generate_negative_infinite_psnr_exit2(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--psnr=-inf", "--out", str(out), "--quiet"]) == 2
        assert not (out / "manifest.json").exists()

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

    def test_sweep_flags_stay_in_one_column(self, tmp_path):
        # X of rank 3 and Y = F X: projected DMD runs outside its assumption and its rank is 3 < k
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6))
        data = lrdmd.SnapshotPair(X=X, Y=rng.standard_normal((10, 10)) @ X)
        lio.write_dataset(tmp_path / "ds", data, {"schema_version": 1})
        out = tmp_path / "sw"
        assert main(["sweep", str(tmp_path / "ds"), "--k-range", "all", "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["k", "method", "normalized_error", "closed_form_error", "flags"]
        assert len(rows) - 1 == 6 * 3 and all(len(row) == 5 for row in rows)
        flags = {(row[0], row[1]): row[4] for row in rows[1:]}
        assert [flags[str(k), "projected"] for k in (3, 4, 6)] == [
            "rank_deficient_x",
            "rank_deficient_x;rank_deficient",
            "rank_deficient_x;rank_deficient",
        ]

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

    def test_rank_zero_models_round_trip(self, tmp_path):
        # Y = 0: every model has r = 0, its n x 0 blocks written as a header and empty rows.
        X = np.random.default_rng(4).standard_normal((8, 5))
        lio.write_dataset(tmp_path / "ds", lrdmd.SnapshotPair(X=X, Y=np.zeros((8, 5))), {"schema_version": 1})
        assert main(["fit", str(tmp_path / "ds"), "--k", "2", "--out", str(tmp_path / "fit"), "--quiet"]) == 0
        for kind in ("factored", "reduced", "spectral"):
            out = tmp_path / f"{kind}.csv"
            argv = ["simulate", str(tmp_path / "fit" / f"model-{kind}.json"), "--dataset", str(tmp_path / "ds")]
            assert main(argv + ["--column", "0", "--steps", "3", "--out", str(out), "--quiet"]) == 0
            states = lio.read_matrix_csv(out)
            assert states.shape == (3, 8) and not np.any(states[1:])

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
        env = {**os.environ, "PYTHONPATH": str(Path(lrdmd.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "lrdmd.cli", "generate", "toy-i", "--seed", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
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


class TestEachCheckHasOneOwner:
    """The CLI reads each check from the module that owns it: ``io`` for files, ``solver`` for k and the gap."""

    @pytest.fixture()
    def toy_ds(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(out), "--quiet"]) == 0
        return out

    @staticmethod
    def _edit(path, edit):
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(edit(doc)))

    @pytest.mark.parametrize("command", ["fit", "sweep", "verify"])
    @pytest.mark.parametrize(
        "edit, message",
        [(lambda doc: {**doc, "schema_version": 99}, "unsupported schema version 99"), (list, "not a JSON object")],
        ids=["schema-99", "list"],
    )
    def test_other_manifest_document_exit2(self, toy_ds, tmp_path, capsys, command, edit, message):
        self._edit(toy_ds / lio.MANIFEST_NAME, edit)
        out = str(tmp_path / "out")
        options = {"fit": ["--k", "3", "--out", out], "sweep": ["--out", out], "verify": ["--k", "3"]}[command]
        assert main([command, str(toy_ds), *options, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [lambda doc: {**doc, "n": 7}, lambda doc: {**doc, "m": 39}, lambda doc: {**doc, "n": None}],
        ids=["n", "m", "no-n"],
    )
    def test_manifest_layout_mismatch_exit2(self, toy_ds, tmp_path, capsys, edit):
        self._edit(toy_ds / lio.MANIFEST_NAME, edit)
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(tmp_path / "fit"), "--quiet"]) == 2
        assert "but X is 50x40" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["factored", "reduced", "spectral"])
    @pytest.mark.parametrize(
        "edit",
        [lambda doc: {**doc, "dims": {**doc["dims"], "n": 7}}, lambda doc: {**doc, "dims": {"n": 50}}, list],
        ids=["n", "no-r", "list"],
    )
    def test_model_dims_mismatch_exit2(self, toy_ds, tmp_path, kind, edit):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
        model = fit / f"model-{kind}.json"
        self._edit(model, edit)
        argv = ["simulate", str(model), "--dataset", str(toy_ds), "--column", "0", "--steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"]) == 2
        assert not (tmp_path / "traj.csv").exists()

    def test_fit_and_verify_print_the_same_gap(self, toy_ds, tmp_path, capsys):
        assert main(["fit", str(toy_ds), "--k", "5", "--out", str(tmp_path / "fit")]) == 0
        fit_gap = capsys.readouterr().out.split(" gap=")[1].split()[0]
        assert main(["verify", str(toy_ds), "--k", "5"]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "theorem-error-consistency" in ln]
        assert line.split("=")[1].split()[0] == fit_gap
        assert float(fit_gap) <= 1e-7

    def test_rank_x_decided_once_per_pair(self, toy_ds, monkeypatch):
        import lrdmd.cli as cli_mod
        import lrdmd.solver as solver_mod
        from lrdmd.linalg import numerical_rank

        data, manifest = lio.read_dataset(toy_ds)
        seen = []

        def counting(svd):
            seen.append(svd)
            return numerical_rank(svd)

        monkeypatch.setattr(solver_mod, "numerical_rank", counting)
        monkeypatch.setattr(cli_mod, "numerical_rank", counting, raising=False)
        monkeypatch.setattr(lio, "read_dataset", lambda directory: (data, manifest))
        for fit in (lrdmd.fit_optimal, lrdmd.fit_truncated, lrdmd.fit_projected):
            fit(data)
        assert main(["verify", str(toy_ds), "--k", "3", "--quiet"]) == 0
        assert sum(svd is data.svd_x for svd in seen) == 1

    def test_fit_k_checked_by_the_fit_before_any_output(self, toy_ds, tmp_path, capsys):
        out = tmp_path / "fit"
        for k in ("0", "41", "99"):
            assert main(["fit", str(toy_ds), "--k", k, "--out", str(out), "--quiet"]) == 2
            assert f"k must satisfy 1 <= k <= m=40, got {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_theta_length_checked_by_the_simulator(self, toy_ds, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
        theta = tmp_path / "theta.csv"
        lio.write_matrix_csv(theta, np.ones((1, 7)))
        argv = ["simulate", str(fit / "model-spectral.json"), "--theta-file", str(theta), "--steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"]) == 2
        assert "initial condition of length 50 expected" in capsys.readouterr().err


class TestParsedCopies:
    """``write_dataset`` saves each CSV's parsed matrix under the CSV's hash; readers load it instead of parsing."""

    @pytest.fixture()
    def toy_ds(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(out), "--quiet"]) == 0
        return out

    @staticmethod
    def _copies(directory, name):
        return sorted(directory.glob(f"{name}.*.npy"))

    @pytest.mark.parametrize("name", [lio.X_NAME, lio.Y_NAME])
    def test_generate_writes_one_copy_per_csv(self, toy_ds, name):
        (copy,) = self._copies(toy_ds, name)
        text = (toy_ds / name).read_bytes()
        assert copy.name == f"{name}.{hashlib.sha256(text).hexdigest()}.npy"
        saved = np.load(copy, allow_pickle=False)
        parsed = lio.block_to_matrix(text.decode())
        assert saved.flags.c_contiguous and saved.dtype == np.float64
        assert saved.shape == parsed.shape and saved.tobytes() == parsed.tobytes()

    def test_cli_reads_parse_no_dataset_block(self, toy_ds, tmp_path, monkeypatch):
        shapes = []
        parse = lio.block_to_matrix

        def recording(text):
            M = parse(text)
            shapes.append(M.shape)
            return M

        monkeypatch.setattr(lio, "block_to_matrix", recording)
        fit = tmp_path / "fit"
        assert main(["sweep", str(toy_ds), "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
        assert main(["verify", str(toy_ds), "--k", "3", "--quiet"]) == 0
        argv = ["simulate", str(fit / "model-factored.json"), "--dataset", str(toy_ds), "--column", "2", "--steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"]) == 0
        assert shapes and (50, 40) not in shapes  # the model blocks (n x k) are still parsed
        X = lio.read_matrix_csv(toy_ds / lio.X_NAME)
        np.testing.assert_array_equal(lio.read_matrix_csv(tmp_path / "traj.csv")[0], X[:, 2])

    def test_edited_csv_is_read_with_its_new_value(self, toy_ds, tmp_path):
        path = toy_ds / lio.X_NAME
        lines = path.read_text().splitlines(keepends=True)
        row = lines[4].split(",")
        row[2] = "12345.5"
        lines[4] = ",".join(row)
        path.write_text("".join(lines))
        data, _ = lio.read_dataset(toy_ds)
        assert data.X[3, 2] == 12345.5
        assert data.X.tobytes() == lio.block_to_matrix(path.read_text()).tobytes()
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
        argv = ["simulate", str(fit / "model-reduced.json"), "--dataset", str(toy_ds), "--column", "2", "--steps", "1"]
        assert main(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"]) == 0
        assert lio.read_matrix_csv(tmp_path / "traj.csv")[0, 3] == 12345.5

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(b"not an array\n" * 10),
            lambda p: np.save(p, np.zeros((50, 40), dtype=object), allow_pickle=True),
            lambda p: np.save(p, np.zeros((50, 40), dtype=np.int64)),
            lambda p: np.save(p, np.zeros(2000)),
            lambda p: np.save(p, np.asfortranarray(np.zeros((50, 40)))),
            lambda p: (p.unlink(), p.mkdir()),
            lambda p: p.unlink(),
        ],
        ids=["truncated", "empty", "garbage", "pickle", "int", "1-d", "fortran", "directory", "deleted"],
    )
    def test_spoilt_copy_falls_back_to_the_csv(self, toy_ds, spoil):
        expected = lio.block_to_matrix((toy_ds / lio.X_NAME).read_text())
        (copy,) = self._copies(toy_ds, lio.X_NAME)
        spoil(copy)
        data, _ = lio.read_dataset(toy_ds)
        assert data.X.tobytes() == expected.tobytes()

    def test_rewritten_dataset_keeps_one_copy_per_csv(self, toy_ds):
        before = self._copies(toy_ds, lio.X_NAME) + self._copies(toy_ds, lio.Y_NAME)
        assert main(["generate", "toy-ii", "--seed", "8", "--out", str(toy_ds), "--quiet"]) == 0
        for name in (lio.X_NAME, lio.Y_NAME):
            (copy,) = self._copies(toy_ds, name)
            assert copy not in before
            assert np.load(copy).tobytes() == lio.block_to_matrix((toy_ds / name).read_text()).tobytes()

    def test_matrix_csv_written_alone_gets_no_copy(self, tmp_path):
        lio.write_matrix_csv(tmp_path / "m.csv", np.ones((3, 4)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]


class TestManifestFieldTypes:
    """A manifest's ``schema_version`` is the integer 1, and its ``N``, ``T`` are both null or both integers."""

    @pytest.fixture()
    def toy_ds(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(out), "--quiet"]) == 0
        return out

    @pytest.mark.parametrize("command", ["fit", "sweep", "verify"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"schema_version": True}, "unsupported schema version True"),
            ({"schema_version": 1.0}, "unsupported schema version 1.0"),
            ({"N": None}, "N=None, T=2"),
            ({"T": None}, "N=40, T=None"),
            ({"N": {}}, "N={}, T=2"),
            ({"T": "2"}, "N=40, T='2'"),
            ({"N": 40.0}, "N=40.0, T=2"),
            ({"N": True, "T": 41}, "N=True, T=41"),
            ({"N": -40, "T": 0}, "N=-40, T=0"),
        ],
        ids=["version-true", "version-float", "N-null", "T-null", "N-dict", "T-str", "N-float", "N-bool", "negative"],
    )
    def test_bad_manifest_field_exit2(self, toy_ds, tmp_path, capsys, command, edit, message):
        path = toy_ds / lio.MANIFEST_NAME
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        out = str(tmp_path / "out")
        options = {"fit": ["--k", "3", "--out", out], "sweep": ["--out", out], "verify": ["--k", "3"]}[command]
        assert main([command, str(toy_ds), *options, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deleted_n_traj_exit2(self, toy_ds, tmp_path, capsys):
        path = toy_ds / lio.MANIFEST_NAME
        doc = json.loads(path.read_text())
        del doc["N"]
        path.write_text(json.dumps(doc))
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(tmp_path / "fit"), "--quiet"]) == 2
        assert "N=None, T=2" in capsys.readouterr().err

    def test_model_schema_version_true_exit2(self, toy_ds, tmp_path):
        fit = tmp_path / "fit"
        assert main(["fit", str(toy_ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
        model = fit / "model-factored.json"
        model.write_text(json.dumps({**json.loads(model.read_text()), "schema_version": True}))
        argv = ["simulate", str(model), "--dataset", str(toy_ds), "--column", "0", "--steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"]) == 2

    def test_bare_pair_layout_reads_back(self, tmp_path):
        X = np.random.default_rng(3).standard_normal((6, 4))
        lio.write_dataset(tmp_path / "ds", lrdmd.SnapshotPair(X=X, Y=2 * X), {})
        data, manifest = lio.read_dataset(tmp_path / "ds")
        assert manifest["N"] is None and manifest["T"] is None
        assert (data.n_traj, data.traj_len) == (None, None)
        assert data.X.tobytes() == X.tobytes()


@pytest.fixture(scope="module")
def toy_fit(tmp_path_factory):
    """A toy-ii dataset (seed 7) and its three k = 3 models, shared by tests that only read them."""
    root = tmp_path_factory.mktemp("toy-fit")
    assert main(["generate", "toy-ii", "--seed", "7", "--out", str(root / "ds"), "--quiet"]) == 0
    assert main(["fit", str(root / "ds"), "--k", "3", "--out", str(root / "fit"), "--quiet"]) == 0
    return root / "ds", root / "fit"


#: The block of each kind that a mutation replaces, and the one it deletes (for spectral, one half of a pair).
_REPLACED_BLOCK = {"factored": "P", "reduced": "L", "spectral": "zeta_re"}
_DELETED_BLOCK = {"factored": "Q", "reduced": "S", "spectral": "zeta_im"}


def _set(key, value):
    return lambda doc, kind: {**doc, key: value}


def _set_block(value):
    return lambda doc, kind: {**doc, "blocks": {**doc["blocks"], _REPLACED_BLOCK[kind]: value}}


def _drop_block(doc, kind):
    return {**doc, "blocks": {k: v for k, v in doc["blocks"].items() if k != _DELETED_BLOCK[kind]}}


class TestModelFileTypes:
    """A model file whose blocks or flags have the wrong type, or that lacks a block, exits 2 naming file and key."""

    MUTATIONS = {
        "blocks-list": (lambda doc, kind: {**doc, "blocks": list(doc["blocks"].values())}, "'blocks' must be an object"),
        "blocks-str": (_set("blocks", "abc"), "'blocks' must be an object"),
        "blocks-null": (_set("blocks", None), "'blocks' must be an object"),
        "blocks-missing": (lambda doc, kind: {k: v for k, v in doc.items() if k != "blocks"}, "'blocks' must be"),
        "block-number": (_set_block(1.5), "is not a string"),
        "block-list": (_set_block(["1,1", "0"]), "is not a string"),
        "block-missing": (_drop_block, "is missing"),
        "flags-number": (_set("flags", 3), "'flags' must be a list of strings"),
        "flags-str": (_set("flags", "abc"), "'flags' must be a list of strings"),
        "flags-dict": (_set("flags", {"rank_deficient": 1}), "'flags' must be a list of strings"),
        "flags-number-item": (_set("flags", ["rank_deficient", 1]), "'flags' must be a list of strings"),
        "not-json": (None, "is not valid JSON"),
    }

    @staticmethod
    def _mutated(toy_fit, tmp_path, kind, mutation):
        source = toy_fit[1] / f"model-{kind}.json"
        model = tmp_path / source.name
        edit, message = TestModelFileTypes.MUTATIONS[mutation]
        if edit is None:
            model.write_text(source.read_text()[:-3])
        else:
            model.write_text(json.dumps(edit(json.loads(source.read_text()), kind)))
        return model, message

    @staticmethod
    def _assert_exit2(argv, capsys, model, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(model) in err and message in err, err

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    @pytest.mark.parametrize("kind", ["factored", "reduced", "spectral"])
    def test_simulate_exit2(self, toy_fit, tmp_path, capsys, kind, mutation):
        model, message = self._mutated(toy_fit, tmp_path, kind, mutation)
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        self._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, message)
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_verify_spectral_model_exit2(self, toy_fit, tmp_path, capsys, mutation):
        model, message = self._mutated(toy_fit, tmp_path, "spectral", mutation)
        argv = ["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]
        self._assert_exit2(argv, capsys, model, message)

    @pytest.mark.parametrize("block", ["zeta_im", "xi_re"])
    def test_pair_halves_of_other_shapes_exit2(self, toy_fit, tmp_path, capsys, block):
        # A 1x1 half would broadcast over the other one.
        model = tmp_path / "model-spectral.json"
        doc = json.loads((toy_fit[1] / model.name).read_text())
        model.write_text(json.dumps({**doc, "blocks": {**doc["blocks"], block: "1,1\n0\n"}}))
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        self._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, "differ in shape")

    def test_manifest_not_json_exit2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(ds), "--quiet"]) == 0
        manifest = ds / lio.MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:-3])
        argv = ["fit", str(ds), "--k", "3", "--out", str(tmp_path / "fit"), "--quiet"]
        self._assert_exit2(argv, capsys, manifest, "is not valid JSON")


class TestKRange:
    """``sweep --k-range`` in its list and step forms, and a malformed range exiting 2 with its reason."""

    @pytest.mark.parametrize("text, ks", [("1,3,5", [1, 3, 5]), ("1:9:4", [1, 5, 9])])
    def test_forms_write_exactly_their_rows(self, toy_fit, tmp_path, text, ks):
        out = tmp_path / "sweep"
        assert main(["sweep", str(toy_fit[0]), "--k-range", text, "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(int(r["k"]), r["method"]) for r in rows] == [
            (k, name) for k in ks for name in ("optimal", "truncated", "projected")
        ]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1:5:0", "step 0 is below 1"),
            ("1:5:-2", "step -2 is below 1"),
            ("a:b", "'a' is not an integer"),
            ("1,,2", "'' is not an integer"),
            ("1:", "'' is not an integer"),
            ("5:1", "lo 5 exceeds hi 1"),
            ("1:2:3:4", "expected lo:hi or lo:hi:step"),
        ],
    )
    def test_bad_range_exit2(self, toy_fit, tmp_path, capsys, text, reason):
        out = tmp_path / "sweep"
        assert main(["sweep", str(toy_fit[0]), "--k-range", text, "--out", str(out), "--quiet"]) == 2
        assert f"error: bad k range {text!r}: {reason}" in capsys.readouterr().err
        assert not out.exists()


class TestCliPaths:
    """CLI branches that report a condition: a wrong model kind, a missing θ, a pairing failure, flagged models."""

    def test_verify_spectral_model_of_another_kind_exit2(self, toy_fit, capsys):
        model = toy_fit[1] / "model-factored.json"
        assert main(["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]) == 2
        assert "--spectral-model file has kind 'factored'" in capsys.readouterr().err

    def test_simulate_without_initial_condition_exit2(self, toy_fit, tmp_path, capsys):
        argv = ["simulate", str(toy_fit[1] / "model-reduced.json"), "--steps", "3", "--out", str(tmp_path / "t.csv")]
        for source in ([], ["--dataset", str(toy_fit[0])], ["--column", "0"]):
            assert main(argv + source) == 2, source
            assert "need --theta-file or --dataset with --column" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_verify_pairing_failure_exit5(self, toy_fit, monkeypatch, capsys):
        import lrdmd.cli as cli_mod
        from lrdmd.errors import PairingFailure

        def boom(op):
            raise PairingFailure("synthetic failure")

        monkeypatch.setattr(cli_mod, "build_spectral_model", boom)
        assert main(["verify", str(toy_fit[0]), "--k", "3"]) == 5
        captured = capsys.readouterr()
        assert "check eigen-pairing: FAIL (synthetic failure)" in captured.out
        assert "verification failed: eigen-pairing" in captured.err

    def test_fit_reports_spectral_flags(self, toy_fit, tmp_path, monkeypatch, capsys):
        import dataclasses

        import lrdmd.cli as cli_mod

        def flagged(op):
            return dataclasses.replace(lrdmd.build_spectral_model(op), flags=("ill_conditioned_eigenbasis",))

        monkeypatch.setattr(cli_mod, "build_spectral_model", flagged)
        assert main(["fit", str(toy_fit[0]), "--k", "3", "--out", str(tmp_path / "fit")]) == 0
        assert "spectral flags: ill_conditioned_eigenbasis" in capsys.readouterr().out
        spectral, _, _ = lio.load_model(tmp_path / "fit" / "model-spectral.json")
        assert spectral.flags == ("ill_conditioned_eigenbasis",)
