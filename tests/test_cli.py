import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import barydeg as bd
from barydeg import cli
from barydeg.asymptotic import cutoff_radius
from barydeg.benchmarks import CSV_HEADER
from barydeg.cli import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    model_from_json,
    model_to_json,
    report_schema,
)

from conftest import chain_samples


def run(*argv):
    return main(list(argv))


def generate_fwd2(tmp_path, **extra):
    path = tmp_path / "fwd2.csv"
    args = ["generate", "--chain", "2", "--forward", "--wmin", "1e-2",
            "--wmax", "1", "--count", "200", "-o", str(path)]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    assert run(*args) == EXIT_OK
    return path


class TestGenerate:
    def test_writes_samples_and_echoes_degree(self, tmp_path, capsys):
        path = generate_fwd2(tmp_path)
        out = capsys.readouterr().out
        assert "expected relative degree: -4" in out
        ss = bd.load_samples(path)
        assert len(ss) == 200

    def test_inverted_degree_echo(self, tmp_path, capsys):
        path = tmp_path / "inv3.csv"
        assert run("generate", "--chain", "3", "--inverted", "--wmin", "1e-2",
                   "--wmax", "1.3", "-o", str(path)) == EXIT_OK
        assert "expected relative degree: +6" in capsys.readouterr().out

    @pytest.mark.parametrize("chain, inverted, noise", [(2, False, 0.0), (3, True, 1e-6)])
    def test_csv_matches_mass_chain_samples(self, tmp_path, chain, inverted, noise):
        path = tmp_path / "cli.csv"
        assert run("generate", "--chain", str(chain), "--inverted" if inverted else "--forward",
                   "--wmin", "1e-2", "--wmax", "1.3", "--count", "50", "--spacing", "linear",
                   "--noise", str(noise), "--seed", "5", "-o", str(path)) == EXIT_OK
        ref = tmp_path / "ref.csv"
        bd.save_samples(bd.mass_chain_samples(chain, forward=not inverted, omega_min=1e-2,
                                              omega_max=1.3, count=50, spacing="linear",
                                              noise=noise, seed=5), ref)
        assert path.read_bytes() == ref.read_bytes()

    def test_noise_seed_determinism(self, tmp_path):
        a = generate_fwd2(tmp_path, noise="1e-6", seed="7")
        data_a = a.read_bytes()
        b_path = tmp_path / "again.csv"
        assert run("generate", "--chain", "2", "--forward", "--wmin", "1e-2",
                   "--wmax", "1", "--count", "200", "--noise", "1e-6",
                   "--seed", "7", "-o", str(b_path)) == EXIT_OK
        assert b_path.read_bytes() == data_a

    def test_chain_too_small(self, tmp_path, capsys):
        code = run("generate", "--chain", "1", "--wmin", "0.1", "--wmax", "1",
                   "-o", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1e-3", "nan", "inf"])
    def test_bad_noise_rejected(self, tmp_path, capsys, noise):
        path = tmp_path / "x.csv"
        assert run("generate", "--chain", "2", "--wmin", "1e-2", "--wmax", "1",
                   f"--noise={noise}", "-o", str(path)) == EXIT_USAGE
        assert "noise level must be finite and nonnegative" in capsys.readouterr().err
        assert not path.exists()

    def test_band_beyond_the_double_range_rejected(self, tmp_path, capsys):
        # the forward map underflows to 0 out there, so its inverse has no value
        assert run("generate", "--chain", "2", "--inverted", "--wmin", "1e-2",
                   "--wmax", "1e90", "--count", "20", "-o", str(tmp_path / "x.csv")) == EXIT_USAGE
        assert "is beyond the double range" in capsys.readouterr().err


class TestFit:
    def test_prescribed_degree_report(self, tmp_path):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "fit.json"
        model_path = tmp_path / "model.json"
        code = run("fit", str(data), "--backend", "aaa", "--tol", "1e-6",
                   "--degree", "-4", "-o", str(report_path),
                   "--model-out", str(model_path))
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["schema_version"] == "1"
        assert doc["result"]["classified_rdeg"] == -4
        assert doc["result"]["converged"] is True
        assert doc["result"]["constraint_residual"] <= 1e-10
        assert doc["result"]["piecewise_error"] is None
        assert doc["timing_ms"] >= 0

    def test_vf_backend(self, tmp_path):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "fit.json"
        code = run("fit", str(data), "--backend", "vf", "--tol", "1e-4",
                   "--degree", "-4", "-o", str(report_path))
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["classified_rdeg"] == -4

    def test_constant_data_single_term(self, tmp_path):
        path = tmp_path / "const.csv"
        pts = bd.sample_grid(1.0, 10.0, 20)
        bd.save_samples(bd.SampleSet(pts, np.full(20, 3.0)), path)
        report_path = tmp_path / "fit.json"
        assert run("fit", str(path), "--degree", "0", "-o", str(report_path)) == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["result"]["terms"] == 1
        assert doc["result"]["linf_rel_error"] == 0.0

    def test_zero_data_reports_piecewise_error(self, tmp_path, capsys):
        # the exact fit of all-zero data is trivial: no degree, no piecewise model
        path = tmp_path / "zero.csv"
        bd.save_samples(bd.SampleSet(bd.sample_grid(1.0, 10.0, 20), np.zeros(20)), path)
        report_path = tmp_path / "fit.json"
        model_path = tmp_path / "model.json"
        code = run("fit", str(path), "-o", str(report_path), "--model-out", str(model_path))
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert "trivial" in doc["result"]["piecewise_error"]
        assert doc["result"]["classified_rdeg"] is None and doc["result"]["cutoff"] is None
        assert not model_path.exists()
        assert "trivial" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = run("fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_header_only_input(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(f"{CSV_HEADER}\n")
        code = run("fit", str(path), "-o", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        assert f"{path}: no sample rows" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path):
        path = tmp_path / "noisy.csv"
        bd.save_samples(chain_samples(2, noise=1e-4, seed=0), path)
        report_path = tmp_path / "r.json"
        code = run("fit", str(path), "--tol", "1e-12", "--max-terms", "6",
                   "-o", str(report_path))
        assert code == EXIT_NOT_CONVERGED
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["converged"] is False


class TestIdentify:
    def test_forward_chain(self, tmp_path):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "id.json"
        code = run("identify", str(data), "--tol", "1e-6", "-o", str(report_path))
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["best_degree"] == -4
        assert doc["result"]["identified"] is True
        assert any(c["degree"] == 0 for c in doc["candidates"])

    def test_vf_backend_on_noisy_data(self, tmp_path):
        path = tmp_path / "noisy.csv"
        bd.save_samples(chain_samples(2, noise=1e-6, seed=1), path)
        report_path = tmp_path / "id.json"
        code = run("identify", str(path), "--backend", "vf", "--tol", "1e-4",
                   "-o", str(report_path))
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["best_degree"] == -4
        assert doc["result"]["cutoff"] >= 1.0

    def test_identification_failure_exit_code(self, tmp_path):
        path = tmp_path / "noisy.csv"
        bd.save_samples(chain_samples(2, noise=1e-3, seed=5), path)
        report_path = tmp_path / "id.json"
        code = run("identify", str(path), "--tol", "1e-12", "--max-terms", "4",
                   "--max-abs-degree", "2", "-o", str(report_path))
        assert code == EXIT_NOT_CONVERGED
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["identified"] is False
        assert doc["candidates"]


    def test_candidates_show_their_term_cap(self, tmp_path):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "id.json"
        assert run("identify", str(data), "--tol", "1e-6", "-o", str(report_path)) == EXIT_OK
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        result = bd.identify(bd.load_samples(data), bd.aaa_backend(tol=1e-6))
        caps = [c["max_terms"] for c in doc["candidates"]]
        assert caps == [c.max_terms for c in result.candidates]
        assert caps[0] is None and all(cap is not None for cap in caps[1:])

    def test_vf_term_cap_below_the_degree(self, tmp_path):
        # four terms hold degree 3 at most; the sweep ends there, not in an error
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "id.json"
        code = run("identify", str(data), "--backend", "vf", "--tol", "1e-4",
                   "--max-terms", "4", "-o", str(report_path))
        assert code == EXIT_NOT_CONVERGED
        doc = json.loads(report_path.read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["result"]["identified"] is False
        assert all(c["terms"] <= 4 and abs(c["degree"]) <= 3 for c in doc["candidates"])


class TestEval:
    def fit_model(self, tmp_path):
        data = generate_fwd2(tmp_path)
        model_path = tmp_path / "model.json"
        assert run("fit", str(data), "--degree", "-4", "--tol", "1e-6",
                   "-o", str(tmp_path / "r.json"), "--model-out", str(model_path)) == EXIT_OK
        return model_path

    def test_branch_switches_at_cutoff(self, tmp_path):
        model_path = self.fit_model(tmp_path)
        doc = json.loads(model_path.read_text())
        # the file's cutoff bounds the switch radius, which its fit derives
        switch = model_from_json(doc).switch
        assert doc["train_T"] <= switch < doc["cutoff"]
        out_path = tmp_path / "sweep.csv"
        assert run("eval", "--model", str(model_path), "--wmin", "1e-2",
                   "--wmax", "1e3", "--count", "60", "-o", str(out_path)) == EXIT_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        for s_abs, _, _, _, branch in rows:
            expected = "bary" if float(s_abs) <= switch else "asym"
            assert branch == expected
        assert {r[-1] for r in rows} == {"bary", "asym"}

    def test_poor_fit_keeps_the_band_barycentric(self, tmp_path, capsys):
        # a 2-term fit of noisy data errs by 8.7, which puts the cutoff radius
        # at 0.82, inside the band; the cutoff stays at the band edge instead
        data = generate_fwd2(tmp_path, noise="1e-3", seed="0")
        model_path = tmp_path / "model.json"
        code = run("fit", str(data), "--max-terms", "2", "--tol", "1e-12",
                   "-o", str(tmp_path / "r.json"), "--model-out", str(model_path))
        assert code == EXIT_NOT_CONVERGED
        doc = json.loads(model_path.read_text())
        assert doc["train_eps"] > 1 and doc["cutoff"] == doc["train_T"] == 1.0
        out_path = tmp_path / "sweep.csv"
        assert run("eval", "--model", str(model_path), "--wmin", "1e-2",
                   "--wmax", "1", "--count", "50", "-o", str(out_path)) == EXIT_OK
        assert {line.split(",")[-1] for line in out_path.read_text().splitlines()[1:]} == {"bary"}
        # a file that stores the radius itself is rejected
        pm = model_from_json(doc)
        doc["cutoff"] = cutoff_radius(pm.train_T, pm.train_eps, pm.asym.rdeg, pm.asym.order)
        assert doc["cutoff"] < 1.0
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--wmin", "1e-2",
                   "--wmax", "1", "--count", "50", "-o", str(out_path)) == EXIT_USAGE
        assert "'cutoff'" in capsys.readouterr().err

    def test_rows_match_per_point_formatting(self, tmp_path):
        # the column-wise writer gives the same bytes as formatting each
        # point's numpy scalars on its own
        model_path = self.fit_model(tmp_path)
        out_path = tmp_path / "sweep.csv"
        assert run("eval", "--model", str(model_path), "--wmin", "1e-2",
                   "--wmax", "1e6", "--count", "10000", "-o", str(out_path)) == EXIT_OK
        pm = model_from_json(json.loads(model_path.read_text()))
        grid = bd.sample_grid(1e-2, 1e6, 10000)
        lines = ["s_abs,r_re,r_im,r_abs,branch\n"]
        for s, v, near in zip(grid, bd.eval_piecewise(pm, grid), pm.near(grid)):
            branch = "bary" if near else "asym"
            lines.append(f"{abs(s):.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g},{branch}\n")
        assert out_path.read_bytes() == "".join(lines).encode("utf-8")

    def test_constant_model_sweep(self, tmp_path):
        path = tmp_path / "const.csv"
        pts = bd.sample_grid(1.0, 10.0, 20)
        bd.save_samples(bd.SampleSet(pts, np.full(20, 3.0)), path)
        model_path = tmp_path / "m.json"
        assert run("fit", str(path), "-o", str(tmp_path / "r.json"),
                   "--model-out", str(model_path)) == EXIT_OK
        out_path = tmp_path / "sweep.csv"
        assert run("eval", "--model", str(model_path), "--wmin", "0.1",
                   "--wmax", "100", "--count", "30", "-o", str(out_path)) == EXIT_OK
        mags = [float(line.split(",")[3]) for line in out_path.read_text().splitlines()[1:]]
        assert np.allclose(mags, 3.0, rtol=1e-10)

    @pytest.mark.parametrize("key, value", [
        ("rdeg", 0), ("order", 3), ("kind", None), ("kind", "rational"), ("supports", 5),
        ("cutoff", "far"),
        ("scale", "inf"), ("cutoff", "inf"), ("train_eps", "inf"),
        ("cutoff", 1e3), ("scale", 7.0), ("schema_version", "7"), ("schema_version", None),
        pytest.param("num_moments_scaled", lambda pairs: [*pairs[:-1], [np.nextafter(
            pairs[-1][0], np.inf), pairs[-1][1]]], id="num_moments_scaled-last-entry"),
        pytest.param("object", [], id="top-level-list"),
        ("train_T", str), ("train_eps", str), ("extra", 1),
        # a bool where the file holds a number: train_T is 1.0, nu is 0
        ("train_T", True), ("nu", False),
        pytest.param("asymptotic", lambda section: {**section, "extra": 0}, id="asymptotic-extra"),
    ])
    def test_tampered_degree_or_order_rejected(self, tmp_path, capsys, key, value):
        # a tampered or malformed model file exits 2 and names the bad entry;
        # value None deletes the entry, a callable maps the stored one, key
        # "object" replaces the whole file
        model_path = self.fit_model(tmp_path)
        doc = json.loads(model_path.read_text())
        if key == "object":
            doc = value
        else:
            section = doc["asymptotic"] if key in doc["asymptotic"] else doc
            if value is None:
                del section[key]
            else:
                section[key] = value(section[key]) if callable(value) else value
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--wmin", "1e-2",
                   "--wmax", "1e6", "--count", "10", "-o", str(tmp_path / "s.csv")) == EXIT_USAGE
        assert key in capsys.readouterr().err

    def test_nonfinite_band_edge_rejected(self, tmp_path, capsys):
        model_path = self.fit_model(tmp_path)
        out_path = tmp_path / "s.csv"
        capsys.readouterr()
        assert run("eval", "--model", str(model_path), "--wmin", "0.01",
                   "--wmax", "inf", "-o", str(out_path)) == EXIT_USAGE
        assert "omega_max" in capsys.readouterr().err
        assert not out_path.exists()

    def test_inverse_decay_sweep_accuracy(self, tmp_path):
        pts = bd.sample_grid(0.1, 10.0, 50)
        data_path = tmp_path / "inv.csv"
        bd.save_samples(bd.SampleSet(pts, 1.0 / pts), data_path)
        model_path = tmp_path / "m.json"
        assert run("fit", str(data_path), "--degree", "-1", "--tol", "1e-10",
                   "-o", str(tmp_path / "r.json"), "--model-out", str(model_path)) == EXIT_OK
        out_path = tmp_path / "sweep.csv"
        assert run("eval", "--model", str(model_path), "--wmin", "1e2",
                   "--wmax", "1e6", "--count", "40", "-o", str(out_path)) == EXIT_OK
        for line in out_path.read_text().splitlines()[1:]:
            s_abs, _, _, r_abs, _ = line.split(",")
            assert float(r_abs) == pytest.approx(1.0 / float(s_abs), rel=1e-8)


class TestModelSerialization:
    @staticmethod
    def assert_derived_equal(back, pm):
        """The loaded model's expansion and cutoff are ``make_piecewise``'s, bit for bit."""
        assert (back.asym.mu, back.asym.nu, back.asym.scale) == (pm.asym.mu, pm.asym.nu,
                                                                 pm.asym.scale)
        assert np.array_equal(back.asym.num_moments_scaled, pm.asym.num_moments_scaled)
        assert np.array_equal(back.asym.den_moments_scaled, pm.asym.den_moments_scaled)
        assert back.cutoff == pm.cutoff

    def test_round_trip_bitwise(self, fwd2_samples):
        model, _ = bd.aaa(fwd2_samples, bd.AaaConfig(tol=1e-6, target_degree=-4))
        pm = bd.make_piecewise(model, fwd2_samples)
        doc = json.loads(json.dumps(model_to_json(pm)))
        back = model_from_json(doc)
        assert np.array_equal(back.bary.supports, pm.bary.supports)
        assert np.array_equal(back.bary.weights, pm.bary.weights)
        self.assert_derived_equal(back, pm)
        assert back.train_T == pm.train_T and back.train_eps == pm.train_eps
        s = 1j * np.geomspace(0.01, 100.0, 17)
        assert np.array_equal(bd.eval_piecewise(back, s), bd.eval_piecewise(pm, s))

    def test_general_model_round_trip(self, fwd2_samples):
        model, _ = bd.vf_adaptive(fwd2_samples, bd.VfConfig(tol=1e-4, target_degree=-4))
        pm = bd.make_piecewise(model, fwd2_samples)
        back = model_from_json(json.loads(json.dumps(model_to_json(pm))))
        assert np.array_equal(back.bary.num_weights, pm.bary.num_weights)
        assert np.array_equal(back.bary.den_weights, pm.bary.den_weights)
        self.assert_derived_equal(back, pm)


class TestReports:
    def test_schema_ships_and_loads(self):
        schema = report_schema()
        assert schema["properties"]["schema_version"]["const"] == "1"

    def test_nonfinite_floats_become_strings(self):
        from barydeg.cli import _json_safe
        doc = _json_safe({"a": np.inf, "b": [-np.inf, np.nan, 1.5], "c": np.float64(2.0)})
        assert doc == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": 2.0}
        json.dumps(doc)  # must be serializable as-is

    def test_fit_reports_deterministic(self, tmp_path):
        data = generate_fwd2(tmp_path)
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run("fit", str(data), "--degree", "-4", "-o", str(path)) == EXIT_OK
            doc = json.loads(path.read_text())
            doc.pop("timing_ms")
            doc["argv"].pop("report")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_usage_error_exit_code(self):
        assert run("fit") == EXIT_USAGE
        assert run("frobnicate") == EXIT_USAGE


class TestRunReport:
    RUNS = {
        "fit": ["--degree", "-4", "--backend", "vf", "--tol", "1e-4", "--max-terms", "20"],
        "identify": ["--max-abs-degree", "5"],
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_config_is_argv_without_command_and_paths(self, tmp_path, command):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "r.json"
        assert run(command, str(data), *self.RUNS[command], "-o", str(report_path),
                   "--model-out", str(tmp_path / "m.json")) == EXIT_OK
        doc = json.loads(report_path.read_text())
        argv = dict(doc["argv"])
        assert argv.pop("command") == command
        assert argv.pop("report") == str(report_path)
        assert argv.pop("model_out") == str(tmp_path / "m.json")
        assert doc["config"] == argv

    @pytest.mark.parametrize("backend", ["aaa", "vf"])
    def test_default_tol_is_the_backends(self, tmp_path, backend):
        # without --tol, AAA runs at 1e-6 and VF at the library's default;
        # the report shows the tol that ran
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "r.json"
        assert run("fit", str(data), "--backend", backend, "--degree", "-4",
                   "-o", str(report_path)) == EXIT_OK
        doc = json.loads(report_path.read_text())
        tol = 1e-6 if backend == "aaa" else 1e-4
        assert doc["argv"]["tol"] == doc["config"]["tol"] == tol
        library = bd.aaa_backend(tol) if backend == "aaa" else bd.vf_backend()
        _, rep = library(bd.load_samples(data), -4)
        assert doc["result"]["linf_rel_error"] == rep.linf_rel_error

    @pytest.mark.parametrize("command", ["fit", "identify"])
    def test_infinite_tol_rejected(self, tmp_path, capsys, command):
        data = generate_fwd2(tmp_path)
        report_path = tmp_path / "r.json"
        capsys.readouterr()
        assert run(command, str(data), "--tol", "inf", "-o", str(report_path),
                   "--model-out", str(tmp_path / "m.json")) == EXIT_USAGE
        assert "tol must be finite" in capsys.readouterr().err
        assert not report_path.exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["fit", "identify"])
    @pytest.mark.parametrize("backend", ["aaa", "vf"])
    @pytest.mark.parametrize("option, name", [("--tol", "tol"), ("--max-terms", "max_terms")])
    def test_bad_setting_rejected_before_the_input_is_read(self, tmp_path, capsys, command,
                                                           backend, option, name):
        report_path = tmp_path / "r.json"
        assert run(command, str(tmp_path / "nope.csv"), "--backend", backend, option, "0",
                   "-o", str(report_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert name in err and "not found" not in err
        assert not report_path.exists()

    @pytest.mark.parametrize("argv, name", [
        (["generate", "--chain", "2", "--wmin", "1e-2", "--wmax", "1", "--count", "1"], "count"),
        (["generate", "--chain", "1", "--wmin", "1e-2", "--wmax", "1"], "n"),
        (["identify", "DATA", "--max-abs-degree", "0"], "max_abs_degree"),
    ])
    def test_out_of_range_number_named(self, tmp_path, capsys, argv, name):
        data = generate_fwd2(tmp_path)
        capsys.readouterr()
        argv = [str(data) if a == "DATA" else a for a in argv]
        assert run(*argv, "-o", str(tmp_path / "out")) == EXIT_USAGE
        assert f"error: {name} must be at least" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "identify"])
    @pytest.mark.parametrize("backend", ["aaa", "vf"])
    def test_negative_order_rejected_before_any_fit(self, tmp_path, monkeypatch, capsys,
                                                    command, backend):
        data = generate_fwd2(tmp_path)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        for factory in ("aaa_backend", "vf_backend"):
            monkeypatch.setattr(cli, factory, lambda **kwargs: no_fit)
        report_path = tmp_path / "r.json"
        # the truncation order is no option: any --order is a usage error
        for order in ("-1", "8"):
            assert run(command, str(data), "--backend", backend, "--order", order,
                       "-o", str(report_path)) == EXIT_USAGE
            assert "unrecognized arguments: --order" in capsys.readouterr().err
            assert not report_path.exists()

    def test_shared_flags_share_defaults(self):
        parser = build_parser()
        fit = vars(parser.parse_args(["fit", "x.csv", "-o", "r.json"]))
        ident = vars(parser.parse_args(["identify", "x.csv", "-o", "r.json"]))
        shared = ["backend", "tol", "max_terms", "model_out"]
        assert [fit[k] for k in shared] == [ident[k] for k in shared]
        sweep = ["--wmin", "1", "--wmax", "2", "-o", "out.csv"]
        gen = vars(parser.parse_args(["generate", "--chain", "2", *sweep]))
        ev = vars(parser.parse_args(["eval", "--model", "m.json", *sweep]))
        assert (gen["count"], gen["spacing"]) == (ev["count"], ev["spacing"])

    def test_skipped_model_file_is_reported(self, tmp_path, capsys):
        path = tmp_path / "noisy.csv"
        bd.save_samples(chain_samples(2, noise=1e-3, seed=5), path)
        model_path = tmp_path / "model.json"
        code = run("identify", str(path), "--tol", "1e-12", "--max-terms", "4",
                   "--max-abs-degree", "2", "-o", str(tmp_path / "id.json"),
                   "--model-out", str(model_path))
        assert code == EXIT_NOT_CONVERGED
        assert f"no model file written to {model_path}" in capsys.readouterr().err
        assert not model_path.exists()

    def test_files_read_as_utf8(self, tmp_path):
        # a locale-default read raises EncodingWarning under these flags
        data = generate_fwd2(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(bd.__file__).parents[1])}

        def strict(*args):
            cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                   *args]
            return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)

        fit = strict("-m", "barydeg", "fit", str(data), "--degree", "-4",
                     "-o", "r.json", "--model-out", "m.json")
        assert fit.returncode == EXIT_OK, fit.stderr
        ev = strict("-m", "barydeg", "eval", "--model", "m.json", "--wmin", "1e-2",
                    "--wmax", "1e3", "--count", "10", "-o", "s.csv")
        assert ev.returncode == EXIT_OK, ev.stderr
        schema = strict("-c", "from barydeg.cli import report_schema; report_schema()")
        assert schema.returncode == 0, schema.stderr
