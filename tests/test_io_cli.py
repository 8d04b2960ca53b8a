"""Persistence round-trips and the command-line surface (exit-code contract)."""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _switch_and_edge_values():
    """Every power of ten and its neighbours, subnormals, the ``g`` layout's switch points, zeros, inf and nan."""
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    subnormal_bits = np.unique(np.concatenate([np.arange(1, 2049), 2 ** np.arange(53), (2 ** np.arange(1, 53)) - 1,
                                               np.geomspace(1, 2**52, 4000).astype(np.int64)])).astype(np.uint64)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), subnormal_bits.view(np.float64),
        switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf), [0.0, np.inf, np.nan],
    ])
    return np.concatenate([values, -values])


class TestMatrixCsv:
    # (1000, 7) holds more values than the encoder's block and a row count that is not a multiple of
    # the rows per block; (2, 4100) has rows longer than a block.
    @pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (13, 13), (40, 7), (3, 0), (1000, 7), (2, 4100)])
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

    def test_strided_matrix_written_like_oracle(self):
        # Blocks are cut from views that are not C-contiguous, each one raveled into a copy.
        M = np.random.default_rng(5).standard_normal((300, 9)).T
        for view in (M, M[::2, ::3], M[:, ::-1]):
            assert lio.matrix_to_block(view) == _oracle_block(view)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern_written_like_oracle(self, bits):
        row = np.array(bits, dtype=np.uint64).view(np.float64).reshape(1, -1)
        assert lio.matrix_to_block(row) == _oracle_block(row)
        assert lio.matrix_to_block(row.T) == _oracle_block(row.T)

    def test_powers_of_ten_subnormals_and_switch_points_written_like_oracle(self):
        values = _switch_and_edge_values()
        assert lio.matrix_to_block(values.reshape(-1, 2)) == _oracle_block(values.reshape(-1, 2))

    def test_vector_and_nan_written_like_oracle(self):
        v = np.array([np.nan, -0.0, 5e-324])
        assert lio.matrix_to_block(v) == _oracle_block(v) == "1,3\nnan,-0,4.9406564584124654e-324\n"

    def test_complex_model_blocks_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        right = rng.standard_normal((9, 3))
        left = rng.standard_normal((9, 3)) * 1e-300
        right[0, 0], right[1, 0], left[1, 1], left[2, 2] = -0.0, 5e-324, 2.2e-308, np.inf
        lam = np.array([complex(np.inf, 5e-324), complex(np.inf, -5e-324), complex(-0.5, -0.0)])
        sm = lrdmd.SpectralModel(eigvals=lam, right_vecs=right, left_vecs=left)
        lio.save_spectral(tmp_path / "s.json", sm, {})
        blocks = json.loads((tmp_path / "s.json").read_text())["blocks"]
        assert sorted(blocks) == ["eigvals", "xi", "zeta"]
        assert blocks["eigvals"] == _oracle_block(np.column_stack((lam.real, lam.imag)))
        assert blocks["zeta"] == _oracle_block(right) and blocks["xi"] == _oracle_block(left)
        back, kind, _ = lio.load_model(tmp_path / "s.json")
        assert kind == "spectral"
        for got, want in ((back.eigvals, lam), (back.right_vecs, right), (back.left_vecs, left)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    def test_streamed_file_is_dump_json_of_the_document(self, tmp_path):
        # A block longer than the encoder's block, negative zero, inf, nan and a provenance that needs escaping.
        P = np.random.default_rng(0).standard_normal((700, 3))
        P[:4, 0] = [-0.0, np.inf, -np.inf, np.nan]
        op = lrdmd.FactoredOperator(P=P, Q=np.ones((700, 3)), flags=("rank_deficient_x",))
        provenance = {"dataset": 'a "b"\né', "k": 3, "psnr_db": None}
        lio.save_factored(tmp_path / "f.json", op, provenance)
        doc = {"schema_version": lio.SCHEMA_VERSION, "kind": "factored", "dims": {"n": 700, "r": 3},
               "flags": ["rank_deficient_x"], "provenance": provenance,
               "blocks": {"Q": lio.matrix_to_block(op.Q), "P": _oracle_block(P)}}
        assert (tmp_path / "f.json").read_text() == lio.dump_json(doc)


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

    @pytest.mark.parametrize(
        "ks, value, circles, polylines",
        [([4], 1e-3, 3, 0), ([1, 2, 3, 4, 5], 1e-3, 0, 3), ([1, 2, 3], 0.0, 0, 3)],
        ids=["single-k", "all-equal", "all-zero"],
    )
    def test_degenerate_axes(self, ks, value, circles, polylines):
        import xml.etree.ElementTree as ET

        series = {name: np.full(len(ks), value) for name in ("optimal", "truncated", "projected")}
        svg = error_chart(np.array(ks), series, title="flat")
        ET.fromstring(svg)
        assert svg.count("<circle") == circles and svg.count("<polyline") == polylines
        assert "nan" not in svg and "inf" not in svg

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

    def test_simulate_reduced_vs_spectral_agree(self, toy_ds, tmp_path):
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
        block = doc["blocks"]["zeta"].splitlines()
        vals = block[1].split(",")
        vals[0] = format(float(vals[0]) + 0.5, ".17g")
        block[1] = ",".join(vals)
        doc["blocks"]["zeta"] = "\n".join(block) + "\n"
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


def _assert_factored_and_reduced_write_the_same_bytes(ds, fit, tmp_path):
    """``simulate`` of a fit's factored and reduced models: the reduced file's L and R are Q and P, and the CSVs agree."""
    blocks = {kind: json.loads((fit / f"model-{kind}.json").read_text())["blocks"] for kind in ("factored", "reduced")}
    assert (blocks["reduced"]["L"], blocks["reduced"]["R"]) == (blocks["factored"]["Q"], blocks["factored"]["P"])
    trajectories = []
    for kind in ("factored", "reduced"):
        out = tmp_path / f"traj-{kind}.csv"
        argv = ["simulate", str(fit / f"model-{kind}.json"), "--dataset", str(ds), "--column", "0", "--steps", "11"]
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        trajectories.append(out.read_bytes())
    assert trajectories[0] == trajectories[1]


def test_toy_ii_factored_and_reduced_write_the_same_bytes(tmp_path):
    ds, fit = tmp_path / "ds", tmp_path / "fit"
    assert main(["generate", "toy-ii", "--seed", "1", "--out", str(ds), "--quiet"]) == 0
    assert main(["fit", str(ds), "--k", "3", "--out", str(fit), "--quiet"]) == 0
    _assert_factored_and_reduced_write_the_same_bytes(ds, fit, tmp_path)


@pytest.fixture(scope="module")
def rb_iv_fit(tmp_path_factory):
    """An rb-iv dataset (seed 1) and its three k = 10 models, shared by tests that only read them."""
    root = tmp_path_factory.mktemp("rb-iv-fit")
    assert main(["generate", "rb-iv", "--seed", "1", "--out", str(root / "ds"), "--quiet"]) == 0
    assert main(["fit", str(root / "ds"), "--k", "10", "--out", str(root / "fit"), "--quiet"]) == 0
    return root / "ds", root / "fit"


class TestCliConvectionDataset:
    def test_generate_rb_iv_manifest_and_verify(self, rb_iv_fit, capsys):
        out = rb_iv_fit[0]
        mf = json.loads((out / "manifest.json").read_text())
        assert (mf["n"], mf["m"], mf["N"], mf["T"]) == (1024, 50, 50, 2)
        assert mf["scheme"]["grid"] == [16, 32]
        assert "rng" in mf and "dt" in mf["scheme"]
        assert main(["verify", str(out), "--k", "10"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_factored_and_reduced_write_the_same_bytes(self, rb_iv_fit, tmp_path):
        _assert_factored_and_reduced_write_the_same_bytes(*rb_iv_fit, tmp_path)

    def test_verify_spectral_model_of_another_n_exit2(self, rb_iv_fit, toy_fit):
        # rb-iv's model has n = 1024, the toy dataset n = 50: a usage error naming the file, not a traceback.
        model = rb_iv_fit[1] / "model-spectral.json"
        env = {**os.environ, "PYTHONPATH": str(Path(lrdmd.__file__).parents[1])}
        argv = [sys.executable, "-m", "lrdmd.cli", "verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert str(model) in proc.stderr and "n=1024" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout

    @pytest.mark.parametrize("name", ["rb-iv", "rb-vi"])
    def test_sweep_same_under_threaded_blas(self, tmp_path, name):
        # One and two OpenBLAS threads: the same rows and flags, and the optimal cells within 1e-12.
        # The baselines' cells are not bounded: on rb-iv a 2e-16 perturbation moves them by up to 8e-7.
        data, manifest, _ = lrdmd.generate(name, 1)
        lio.write_dataset(tmp_path / "ds", data, manifest)
        rows = {}
        for threads in ("1", "2"):
            out = tmp_path / f"sweep-{threads}"
            env = {**os.environ, "PYTHONPATH": str(Path(lrdmd.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads}
            argv = [sys.executable, "-m", "lrdmd.cli", "sweep", str(tmp_path / "ds"), "--k-range", "all",
                    "--out", str(out), "--quiet"]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            with open(out / "sweep.csv", newline="") as f:
                rows[threads] = list(csv.DictReader(f))
        one, two = rows["1"], rows["2"]
        assert [(r["k"], r["method"], r["flags"]) for r in one] == [(r["k"], r["method"], r["flags"]) for r in two]
        for a, b in zip(one, two):
            if a["method"] == "optimal":
                for col in ("normalized_error", "closed_form_error"):
                    assert abs(float(a[col]) - float(b[col])) <= 1e-12, (a, b)


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


def test_matrix_encoder_loads_on_the_first_write():
    # A process that writes no matrix neither compiles the encoder nor builds its tables.
    code = ("import sys, lrdmd.cli, lrdmd.io; assert 'lrdmd._floattext' not in sys.modules; "
            "lrdmd.io.matrix_to_block([[1.5]]); from lrdmd._floattext import _tables; "
            "sys.exit(_tables.cache_info().currsize != 1)")
    env = {**os.environ, "PYTHONPATH": str(Path(lrdmd.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_eigen_residuals_match_per_eigenpair_loop():
    from lrdmd.cli import _eigen_residuals

    def loop(op, spectral):
        worst_res = worst_ray = 0.0
        for lam, zeta, xi in zip(spectral.eigvals, *(v.T for v in spectral.complex_modes())):
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
        (res, ray), (loop_res, loop_ray) = _eigen_residuals(op, model), loop(op, model)
        # A pair's two columns hold the real and imaginary parts of its complex residual, and its complex
        # Rayleigh error is half of (D00 + D11) + i (D01 - D10) for its 2x2 block D of L^T A R - B.
        assert loop_res / np.sqrt(2) - 1e-14 <= res <= loop_res * (1 + 1e-9) + 1e-14
        assert ray >= loop_ray / 2 * (1 - 1e-9) - 1e-14
    assert _eigen_residuals(op, off)[0] > 1e-3 and _eigen_residuals(op, off)[1] > 1e-3
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
        err = capsys.readouterr().err
        assert f"{toy_ds / lio.MANIFEST_NAME}: " in err and "but X is 50x40" in err

    @pytest.mark.parametrize("manifest", ["missing", "schema-7"])
    def test_simulate_reads_the_dataset_manifest(self, toy_ds, toy_fit, tmp_path, capsys, manifest):
        path = toy_ds / lio.MANIFEST_NAME
        if manifest == "missing":
            path.unlink()
        else:
            self._edit(path, lambda doc: {**doc, "schema_version": 7, "n": 999})
        argv = ["simulate", str(toy_fit[1] / "model-reduced.json"), "--dataset", str(toy_ds), "--column", "0"]
        out = tmp_path / "traj.csv"
        assert main(argv + ["--steps", "3", "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, err
        assert not out.exists()

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
        err = capsys.readouterr().err
        assert f"{path}: " in err and "N=None, T=2" in err

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


#: The block of each kind that a mutation replaces, and the one it deletes.
_REPLACED_BLOCK = {"factored": "P", "reduced": "L", "spectral": "zeta"}
_DELETED_BLOCK = {"factored": "Q", "reduced": "S", "spectral": "xi"}


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
        "kind-bogus": (_set("kind", "bogus"), "unknown model kind 'bogus'"),
        "kind-number": (_set("kind", 3), "unknown model kind 3"),
        "kind-missing": (lambda doc, kind: {k: v for k, v in doc.items() if k != "kind"}, "unknown model kind None"),
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

    def test_manifest_not_json_exit2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["generate", "toy-ii", "--seed", "7", "--out", str(ds), "--quiet"]) == 0
        manifest = ds / lio.MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:-3])
        argv = ["fit", str(ds), "--k", "3", "--out", str(tmp_path / "fit"), "--quiet"]
        self._assert_exit2(argv, capsys, manifest, "is not valid JSON")


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_spectral_file_of_the_complex_layout_exit2(toy_fit, tmp_path, capsys, command):
    # Spectral files once held complex arrays as _re/_im halves; such a file must be refit.
    model, _, _ = lio.load_model(toy_fit[1] / "model-spectral.json")
    zeta, xi = model.complex_modes()
    old = tmp_path / "model-spectral.json"
    lio.save_spectral(old, model, {})
    doc = json.loads(old.read_text())
    doc["blocks"] = {
        f"{name}_{part}": lio.matrix_to_block(getattr(M, attr))
        for name, M in (("eigvals", model.eigvals), ("zeta", zeta), ("xi", xi))
        for part, attr in (("re", "real"), ("im", "imag"))
    }
    old.write_text(json.dumps(doc))
    argv = {
        "simulate": ["simulate", str(old), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3",
                     "--out", str(tmp_path / "traj.csv")],
        "verify": ["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(old)],
    }[command]
    TestModelFileTypes._assert_exit2(argv + ["--quiet"], capsys, old, "block 'eigvals' is missing")
    assert not (tmp_path / "traj.csv").exists()


class TestModelShapes:
    """A model whose blocks parse but do not fit together exits 2, naming the file and the blocks."""

    @staticmethod
    def _model(toy_fit, tmp_path, kind, blocks):
        source = toy_fit[1] / f"model-{kind}.json"
        model = tmp_path / source.name
        doc = json.loads(source.read_text())
        narrow = lio.matrix_to_block(np.zeros((50, 2)))
        model.write_text(json.dumps({**doc, "blocks": {**doc["blocks"], **dict.fromkeys(blocks, narrow)}}))
        return model

    @pytest.mark.parametrize(
        "kind, blocks, message",
        [
            ("reduced", ["L"], "L and R must be n-by-r and S r-by-r, got L (50, 2), R (50, 3), S (3, 3)"),
            ("spectral", ["xi"], "got eigvals (3,), zeta (50, 3), xi (50, 2)"),
        ],
        ids=["reduced", "spectral"],
    )
    def test_simulate_exit2(self, toy_fit, tmp_path, capsys, kind, blocks, message):
        model = self._model(toy_fit, tmp_path, kind, blocks)
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        TestModelFileTypes._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, message)
        assert not (tmp_path / "traj.csv").exists()

    def test_verify_spectral_model_exit2(self, toy_fit, tmp_path, capsys):
        model = self._model(toy_fit, tmp_path, "spectral", ["xi"])
        argv = ["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]
        TestModelFileTypes._assert_exit2(argv, capsys, model, f"{model}: eigvals must have length r and zeta, xi be")

    def test_eigvals_not_r_by_2_exit2(self, toy_fit, tmp_path, capsys):
        source = toy_fit[1] / "model-spectral.json"
        model = tmp_path / source.name
        doc = json.loads(source.read_text())
        wide = lio.matrix_to_block(np.zeros((3, 3)))
        model.write_text(json.dumps({**doc, "blocks": {**doc["blocks"], "eigvals": wide}}))
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        message = "block 'eigvals' must be r-by-2 (real part, imaginary part), got 3 columns"
        TestModelFileTypes._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, message)


class TestRealFactors:
    """A factored or reduced model whose real factor is stored as a ``_re``/``_im`` pair exits 2 naming the file."""

    @pytest.mark.parametrize(
        "kind, block, message",
        [("factored", "P", "block 'P' is missing"), ("reduced", "S", "block 'S' is missing")],
        ids=["factored", "reduced"],
    )
    def test_simulate_exit2(self, toy_fit, tmp_path, capsys, kind, block, message):
        source = toy_fit[1] / f"model-{kind}.json"
        model = tmp_path / source.name
        doc = json.loads(source.read_text())
        text = doc["blocks"].pop(block)
        model.write_text(json.dumps({**doc, "blocks": {**doc["blocks"], f"{block}_re": text, f"{block}_im": text}}))
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        TestModelFileTypes._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, message)
        assert not (tmp_path / "traj.csv").exists()


class TestNonFiniteModel:
    """A model file holding nan or inf exits 2 naming the file: bad input, not a simulation blowup (exit 3)."""

    @staticmethod
    def _model(toy_fit, tmp_path, kind, block, value):
        source = toy_fit[1] / f"model-{kind}.json"
        doc = json.loads(source.read_text())
        M = lio.block_to_matrix(doc["blocks"][block])
        M[-1, -1] = value
        model = tmp_path / source.name
        model.write_text(json.dumps({**doc, "blocks": {**doc["blocks"], block: lio.matrix_to_block(M)}}))
        return model

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", ["factored", "reduced", "spectral"])
    def test_simulate_exit2(self, toy_fit, tmp_path, capsys, kind, value):
        model = self._model(toy_fit, tmp_path, kind, _REPLACED_BLOCK[kind], value)
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        TestModelFileTypes._assert_exit2(
            argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, "model contains non-finite entries"
        )
        assert not (tmp_path / "traj.csv").exists()

    def test_verify_spectral_model_exit2(self, toy_fit, tmp_path, capsys):
        model = self._model(toy_fit, tmp_path, "spectral", "xi", np.nan)
        argv = ["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]
        TestModelFileTypes._assert_exit2(argv, capsys, model, "model contains non-finite entries")


def test_failed_eigendecomposition_exits_2(tmp_path, capsys, monkeypatch):
    """A LAPACK eig failure is an ``EigFailure``: ``fit`` and ``verify`` exit 2, ``fit`` keeping its first two models."""

    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    ds, fit = tmp_path / "ds", tmp_path / "fit"
    assert main(["generate", "toy-ii", "--seed", "1", "--out", str(ds), "--quiet"]) == 0
    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(lrdmd.EigFailure, match="^eigendecomposition failed: Eigenvalues did not converge$"):
        lrdmd.eig_nonsymmetric(np.eye(2))
    for argv in (["fit", str(ds), "--k", "5", "--out", str(fit)], ["verify", str(ds), "--k", "5"]):
        assert main(argv + ["--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: eigendecomposition failed")
    assert sorted(p.name for p in fit.iterdir()) == ["model-factored.json", "model-reduced.json"]


class TestMalformedBlockText:
    """A model block whose CSV text is malformed exits 2, naming the file and the block."""

    CASES = {
        "bad-header": ("x,y\n", "bad matrix header 'x,y'"),
        "short-row": ("2,2\n1,2\n3\n", "row 1 has 1 values, expected 2"),
        "non-numeric": ("2,2\n1,2\n3,z\n", "bad value in matrix block"),
    }

    @staticmethod
    def _model(toy_fit, tmp_path, kind, case):
        source = toy_fit[1] / f"model-{kind}.json"
        model = tmp_path / source.name
        text, reason = TestMalformedBlockText.CASES[case]
        model.write_text(json.dumps(_set_block(text)(json.loads(source.read_text()), kind)))
        return model, f"{model}: block {_REPLACED_BLOCK[kind]!r}: {reason}"

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("kind", ["factored", "reduced", "spectral"])
    def test_simulate_exit2(self, toy_fit, tmp_path, capsys, kind, case):
        model, message = self._model(toy_fit, tmp_path, kind, case)
        argv = ["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3"]
        TestModelFileTypes._assert_exit2(argv + ["--out", str(tmp_path / "traj.csv"), "--quiet"], capsys, model, message)
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("case", list(CASES))
    def test_verify_spectral_model_exit2(self, toy_fit, tmp_path, capsys, case):
        model, message = self._model(toy_fit, tmp_path, "spectral", case)
        argv = ["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]
        TestModelFileTypes._assert_exit2(argv, capsys, model, message)


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

    def test_repeated_k_written_once(self, toy_fit, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(toy_fit[0]), "--k-range", "3,3,1", "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(int(r["k"]), r["method"]) for r in rows] == [
            (k, name) for k in (1, 3) for name in ("optimal", "truncated", "projected")
        ]

    def test_repeated_method_written_once(self, toy_fit, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", str(toy_fit[0]), "--k-range", "1:2", "--methods", "optimal,optimal", "--out", str(out)]
        assert main(argv) == 0
        assert "(2 cells)" in capsys.readouterr().out
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(int(r["k"]), r["method"]) for r in rows] == [(1, "optimal"), (2, "optimal")]

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

    @pytest.mark.parametrize("hi", [2**62, 2**64])
    def test_huge_hi_exit2_without_listing(self, toy_fit, tmp_path, capsys, hi):
        # The bound is checked on the range itself: listing 2**62 ints raised MemoryError, 2**64 OverflowError.
        out = tmp_path / "sweep"
        assert main(["sweep", str(toy_fit[0]), "--k-range", f"1:{hi}", "--out", str(out), "--quiet"]) == 2
        assert "error: k range must lie within [1, 40]" in capsys.readouterr().err
        assert not out.exists()

    def test_step_past_m_keeps_lo(self, toy_fit, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(toy_fit[0]), "--k-range", "1:45:50", "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as f:
            assert {int(r["k"]) for r in csv.DictReader(f)} == {1}


class TestCliPaths:
    """CLI branches that report a condition: a wrong model kind, a missing θ, a pairing failure, flagged models."""

    def test_verify_spectral_model_of_another_kind_exit2(self, toy_fit, capsys):
        model = toy_fit[1] / "model-factored.json"
        assert main(["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]) == 2
        assert "--spectral-model file has kind 'factored'" in capsys.readouterr().err

    def test_verify_spectral_model_of_another_n_exit2(self, toy_fit, tmp_path, capsys):
        spectral, _, _ = lio.load_model(toy_fit[1] / "model-spectral.json")
        model = tmp_path / "model-spectral.json"
        shorter = lrdmd.SpectralModel(spectral.eigvals, spectral.right_vecs[1:], spectral.left_vecs[1:])
        lio.save_spectral(model, shorter, {})
        assert main(["verify", str(toy_fit[0]), "--k", "3", "--spectral-model", str(model), "--quiet"]) == 2
        assert f"{model} has n=49 but the dataset has n=50" in capsys.readouterr().err

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


class TestCliInputsExit2:
    """Inputs that numpy or the UTF-8 codec reject with a ``ValueError`` exit 2 as ``InvalidInput``, naming the cause."""

    @pytest.mark.parametrize("raw", [b"\xff\xfe1,1\n2\n", "1,1\n\xe9\n".encode("latin-1")], ids=["utf-16-bom", "latin-1"])
    def test_csv_that_is_not_utf8_exit2(self, toy_fit, tmp_path, capsys, raw):
        ds = tmp_path / "ds"
        shutil.copytree(toy_fit[0], ds)
        (ds / lio.X_NAME).write_bytes(raw)  # its parsed copy is named by the old hash, so the text is parsed
        theta = tmp_path / "theta.csv"
        theta.write_bytes(raw)
        model = str(toy_fit[1] / "model-factored.json")
        for argv, path in (
            (["fit", str(ds), "--k", "3", "--out", str(tmp_path / "fit")], ds / lio.X_NAME),
            (["simulate", model, "--theta-file", str(theta), "--steps", "3", "--out", str(tmp_path / "t.csv")], theta),
        ):
            assert main(argv + ["--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{path}: 'utf-8' codec can't decode" in err, err

    @pytest.mark.parametrize("shape, code", [((1, 50), 0), ((50, 1), 0), ((5, 10), 2), ((2, 25), 2)])
    def test_theta_file_is_one_row_or_one_column(self, toy_fit, tmp_path, capsys, shape, code):
        theta = tmp_path / "theta.csv"
        lio.write_matrix_csv(theta, np.ones(shape))
        argv = ["simulate", str(toy_fit[1] / "model-factored.json"), "--theta-file", str(theta), "--steps", "3"]
        assert main(argv + ["--out", str(tmp_path / "t.csv"), "--quiet"]) == code
        if code:
            assert f"{theta} is {shape[0]}x{shape[1]}, not one row or one column" in capsys.readouterr().err
            assert not (tmp_path / "t.csv").exists()

    def test_negative_seed_exit2(self, tmp_path, capsys):
        assert main(["generate", "toy-ii", "--seed", "-1", "--out", str(tmp_path / "ds"), "--quiet"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [10**20, 2**62])
    def test_steps_no_array_can_hold_exit2(self, toy_fit, tmp_path, capsys, steps):
        argv = ["simulate", str(toy_fit[1] / "model-factored.json"), "--dataset", str(toy_fit[0]), "--column", "0"]
        assert main(argv + ["--steps", str(steps), "--out", str(tmp_path / "t.csv"), "--quiet"]) == 2
        assert f"a {steps} x 50 trajectory cannot be allocated" in capsys.readouterr().err

    @pytest.mark.parametrize("psnr", ["1e308", "-1e6"])
    def test_psnr_outside_the_float_range_exit2(self, tmp_path, capsys, psnr):
        # 10^(psnr/20) overflows at 1e308 and underflows to 0 at -1e6
        out = tmp_path / "ds"
        assert main(["generate", "toy-ii", f"--psnr={psnr}", "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "puts the noise scale for peak" in err and "outside the float range" in err
        assert not (out / "manifest.json").exists()

    def test_deeply_nested_document_exit2(self, toy_fit, tmp_path, capsys):
        ds, fit = tmp_path / "ds", tmp_path / "fit"
        shutil.copytree(toy_fit[0], ds)
        (ds / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
        fit.mkdir()
        model = fit / "model-factored.json"
        model.write_text("[" * 100_000 + "]" * 100_000)
        for argv, path in (
            (["fit", str(ds), "--k", "3", "--out", str(tmp_path / "refit")], ds / "manifest.json"),
            (["simulate", str(model), "--dataset", str(toy_fit[0]), "--column", "0", "--steps", "3",
              "--out", str(tmp_path / "t.csv")], model),
        ):
            assert main(argv + ["--quiet"]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {path} nests its JSON too deeply to parse\n", err


_DELETED = object()

#: Keys the readers require: the manifest's version and layout, and a model's version, kind, dims and blocks.
_REQUIRED_KEYS = {("schema_version",), ("n",), ("m",), ("N",), ("T",), ("kind",), ("dims",), ("dims", "n"),
                  ("dims", "r"), ("blocks",)}


def _key_paths(doc: dict) -> list[tuple[str, ...]]:
    """Each top-level key of ``doc``, and each key of its dict-valued keys."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return sorted(paths)


class TestStructuralMutations:
    """A manifest or model document with a key deleted or replaced: every CLI call returns an exit code."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(document=st.sampled_from(["manifest", "factored", "reduced", "spectral"]), data=st.data())
    def test_every_call_exits_and_a_broken_required_key_exits2(self, toy_fit, tmp_path_factory, document, data):
        ds, fit = toy_fit
        source = ds / lio.MANIFEST_NAME if document == "manifest" else fit / f"model-{document}.json"
        doc = json.loads(source.read_text())
        path = data.draw(st.sampled_from(_key_paths(doc)), label="key")
        value = data.draw(st.sampled_from([_DELETED, None, "x", 3, 1.5, [], {}, [1, 2], True]), label="value")
        parent = doc if len(path) == 1 else doc[path[0]]
        old = parent[path[-1]]
        if value is _DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value

        work = tmp_path_factory.mktemp("mutation")
        out = ["--out", str(work / "out"), "--quiet"]
        if document == "manifest":
            shutil.copytree(ds, work / "ds")
            (work / "ds" / lio.MANIFEST_NAME).write_text(json.dumps(doc))
            target = str(work / "ds")
            calls = [["fit", target, "--k", "3", *out], ["sweep", target, *out], ["verify", target, "--k", "3", "--quiet"]]
        else:
            model = work / source.name
            model.write_text(json.dumps(doc))
            calls = [["simulate", str(model), "--dataset", str(ds), "--column", "0", "--steps", "3", *out]]
            if document == "spectral":
                calls.append(["verify", str(ds), "--k", "3", "--spectral-model", str(model), "--quiet"])
        broken = (path in _REQUIRED_KEYS or path[0] == "blocks") and (value is _DELETED or type(value) is not type(old))
        for argv in calls:
            code = main(argv)
            assert code in (0, 2), (argv[0], code)
            assert code == 2 or not broken, argv[0]
