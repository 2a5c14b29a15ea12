import json

import pytest

import tangentgraph as tg
from tangentgraph import ZOO, InvalidParams, cli, extractor
from tangentgraph.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    main,
)

from conftest import fail_outer_certifier_nodes, fail_probe_certificate


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run(["zoo", "list"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["entries"] == [
            "circle", "flat", "graph_of", "helix", "sphere2", "torus", "wiggle"
        ]
        assert report["schema_version"] == 1


class TestEntryFlags:
    @pytest.mark.parametrize("entry,param", [
        (entry, param) for entry in sorted(ZOO) for param in ZOO[entry].defaults
    ])
    def test_every_zoo_default_is_a_typed_flag(self, capsys, monkeypatch,
                                               entry, param):
        default = ZOO[entry].defaults[param]
        seen = []

        def build(name, params):
            seen.append((name, params))
            raise InvalidParams("stop after the parameters arrive")

        monkeypatch.setattr(cli, "zoo_build", build)
        flag = "--" + param.replace("_", "-")
        code, _, _ = run(["extract", "--immersion", entry, flag, str(default),
                          "--r", "0.1"], capsys)
        assert code == EXIT_INVALID
        assert seen == [(entry, {param: default})]
        assert type(seen[0][1][param]) is type(default)


class TestExtractCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "sample.csv"
        code, out, _ = run(
            ["extract", "--immersion", "circle", "--R", "1", "--q", "0",
             "--r", "0.5", "--grid", "64", "--out", str(out_file)],
            capsys,
        )
        assert code == EXIT_OK
        rows = out_file.read_text().strip().splitlines()
        assert rows[0] == "x1,u1,status,du_norm"
        assert len(rows) == 65

    def test_cell_budget_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(extractor, "CELL_BUDGET", 10)
        code, _, err = run(
            ["extract", "--immersion", "circle", "--r", "0.5", "--grid", "64",
             "--out", str(tmp_path / "sample.csv")],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        assert "cell budget" in err

    def test_missing_radius_is_invalid(self, capsys):
        code, _, err = run(["extract", "--immersion", "circle"], capsys)
        assert code == EXIT_INVALID
        assert "error" in err


class TestRadiiCommand:
    def test_circle_slope_radius(self, tmp_path, capsys):
        out_file = tmp_path / "radii.json"
        code, _, _ = run(
            ["radii", "--kind", "c1", "--immersion", "circle", "--R", "1",
             "--lambda", "0.5", "--tol", "1e-3", "--samples", "4",
             "--out", str(out_file), "--quiet"],
            capsys,
        )
        assert code == EXIT_OK
        report = load_report(out_file)
        assert report["result"]["r_lo"] == pytest.approx(0.44721, rel=2e-3)
        assert report["result"]["requested_kind"] == "c1"

    def test_requires_kind_and_lambda(self, capsys):
        code, _, _ = run(["radii", "--immersion", "circle"], capsys)
        assert code == EXIT_INVALID


class TestSampleCount:
    @pytest.mark.parametrize("command", [
        ["radii", "--kind", "c1"],
        ["verify", "theorem"],
        ["verify", "enlargement"],
    ])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_empty_sample_is_invalid(self, capsys, command, samples):
        code, _, err = run(
            command + ["--immersion", "circle", "--lambda", "0.5",
                       "--samples", samples],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "--samples must be at least 1" in err


class TestGridResolution:
    @pytest.mark.parametrize("command", [
        ["extract", "--immersion", "circle", "--r", "0.5"],
        ["radii", "--immersion", "circle", "--kind", "c1", "--lambda", "0.5",
         "--samples", "1"],
        ["verify", "theorem", "--immersion", "circle", "--lambda", "1e-5",
         "--samples", "1"],
        ["verify", "du-cert", "--immersion", "circle", "--lambda", "1e-5",
         "--r", "1.9e-5", "--q", "0.3"],
    ])
    @pytest.mark.parametrize("grid", ["0", "4", "-5"])
    def test_small_grid_is_invalid(self, capsys, command, grid):
        code, out, err = run(command + [f"--grid={grid}"], capsys)
        assert code == EXIT_INVALID
        assert out == ""
        assert "grid resolution must be at least 8" in err


class TestVerifyCommand:
    def test_theorem_circle(self, tmp_path, capsys):
        out_file = tmp_path / "verdict.json"
        code, _, _ = run(
            ["verify", "theorem", "--immersion", "circle", "--R", "1",
             "--lambda", "1e-5", "--samples", "4", "--out", str(out_file),
             "--quiet"],
            capsys,
        )
        assert code == EXIT_OK
        report = load_report(out_file)
        assert report["result"]["holds"] is True
        assert report["result"]["margin"] == pytest.approx(0.7071, rel=2e-2)

    def test_du_cert(self, capsys):
        code, out, _ = run(
            ["verify", "du-cert", "--immersion", "circle", "--R", "1",
             "--lambda", "1e-5", "--r", "1.9e-5", "--q", "0"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["holds"] is True
        assert report["result"]["global_bound"] == pytest.approx(1 / 512)

    def test_inclusion(self, capsys):
        code, out, _ = run(
            ["verify", "inclusion", "--immersion", "circle", "--R", "1",
             "--lambda", "0.1", "--r", "0.09", "--q", "0.3"],
            capsys,
        )
        assert code == EXIT_OK

    def test_inclusion_without_slope_property_is_invalid(self, capsys):
        code, _, err = run(
            ["verify", "inclusion", "--immersion", "circle", "--R", "1",
             "--lambda", "0.1", "--r", "0.19", "--q", "0.3"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "lip 0.193525 > 0.1" in err

    def test_distance(self, capsys):
        code, out, _ = run(
            ["verify", "distance", "--immersion", "circle", "--R", "1",
             "--lambda", "0.1", "--r", "0.19", "--q", "0.3"],
            capsys,
        )
        assert code == EXIT_OK
        # rho defaults to r
        assert json.loads(out)["result"] == {"holds": True, "r": 0.19,
                                             "rho": 0.19, "lambda": 0.1}

    def test_distance_rejects_zero_rho(self, capsys):
        code, _, err = run(
            ["verify", "distance", "--immersion", "circle", "--R", "1",
             "--lambda", "0.1", "--r", "0.19", "--q", "0.3", "--rho", "0"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "need 0 < rho <= r" in err

    def test_enlargement_at_given_radius(self, capsys):
        code, out, _ = run(
            ["verify", "enlargement", "--immersion", "circle", "--R", "1",
             "--lambda", "0.05", "--samples", "2", "--r", "0.04"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"] == {"holds": True, "r": 0.04,
                                             "lambda": 0.05}

    def test_enlargement_brackets_its_base_radius(self, capsys):
        # without --r the base radius is 0.9 r_lo of the slope bracket
        code, out, _ = run(
            ["verify", "enlargement", "--immersion", "circle", "--R", "1",
             "--lambda", "0.05", "--samples", "2"],
            capsys,
        )
        assert code == EXIT_OK
        f = tg.zoo_build("circle", {"R": 1.0})
        base = tg.max_radius(f, 0.05, tg.KIND_C1, f.sample_points(per_axis=2))
        assert json.loads(out)["result"] == {"holds": True, "r": 0.9 * base.r_lo,
                                             "lambda": 0.05}

    def test_inclusion_rejects_grid(self, capsys):
        code, _, err = run(
            ["verify", "inclusion", "--immersion", "circle", "--R", "1",
             "--lambda", "0.1", "--r", "0.19", "--q", "0.3", "--grid", "64"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "--grid" in err

    def test_du_cert_unlocated_node_is_invalid(self, capsys, monkeypatch):
        fail_outer_certifier_nodes(monkeypatch, 1.9e-5)
        code, _, err = run(
            ["verify", "du-cert", "--immersion", "circle", "--R", "1",
             "--lambda", "1e-5", "--r", "1.9e-5", "--q", "0"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "could not locate the parameter under node" in err

    def test_du_cert_failed_probe_is_inconclusive(self, capsys, monkeypatch):
        fail_probe_certificate(monkeypatch, 0)
        code, _, err = run(
            ["verify", "du-cert", "--immersion", "circle", "--R", "1",
             "--lambda", "1e-5", "--r", "1.9e-5", "--q", "0"],
            capsys,
        )
        assert code == EXIT_INCONCLUSIVE
        assert "probe hypothesis failed at x=" in err

    @pytest.mark.parametrize("statement,args,stray", [
        ("du-cert", ["--r", "1.9e-5", "--q", "0", "--rho", "5",
                     "--samples", "3", "--tol", "0.05"],
         ["--rho", "--samples", "--tol"]),
        ("theorem", ["--rho", "5", "--r", "3", "--q", "0.4"],
         ["--q", "--r", "--rho"]),
        ("enlargement", ["--r", "0.04", "--tol", "1e-3", "--chart", "0"],
         ["--chart", "--tol"]),
        ("distance", ["--r", "0.1", "--samples", "3"], ["--samples"]),
        ("inclusion", ["--r", "0.19", "--tol", "0.01", "--grid", "64"],
         ["--grid", "--tol"]),
    ])
    def test_rejects_flags_the_statement_does_not_use(self, capsys, statement,
                                                      args, stray):
        code, _, err = run(
            ["verify", statement, "--immersion", "circle", "--R", "1",
             "--lambda", "1e-5"] + args,
            capsys,
        )
        assert code == EXIT_INVALID
        assert f"verify {statement} does not use {', '.join(stray)}" in err

    def test_rejects_unused_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 5, "samples": 3}))
        code, _, err = run(
            ["verify", "du-cert", "--config", str(cfg), "--immersion",
             "circle", "--lambda", "1e-5", "--r", "1.9e-5"],
            capsys,
        )
        assert code == EXIT_INVALID
        assert "does not use --rho, --samples" in err

    def test_bad_lambda_is_invalid(self, capsys):
        code, _, _ = run(
            ["verify", "theorem", "--immersion", "circle", "--lambda", "0.5"],
            capsys,
        )
        assert code == EXIT_INVALID


class TestCounterexampleCommand:
    def test_reference_case_holds(self, capsys):
        code, out, _ = run(
            ["counterexample", "--eps", "1e-6", "--delta", "1e-7",
             "--r", "0.2", "--angles", "512"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["verdict"] is True

    def test_flat_case_fails(self, capsys):
        code, _, _ = run(
            ["counterexample", "--eps", "0", "--delta", "1e-7", "--r", "0.2",
             "--angles", "128"],
            capsys,
        )
        assert code == EXIT_FAIL


RADII = ["radii", "--kind", "c1", "--immersion", "circle", "--lambda", "0.5"]


class TestConfigPrecedence:
    """A field given only in --config is used, and a flag overrides it."""

    @staticmethod
    def run_config(tmp_path, capsys, fields, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        return run(args + ["--config", str(cfg)], capsys)

    def test_radii_tol(self, tmp_path, capsys):
        code, out, _ = self.run_config(tmp_path, capsys, {"tol": 0.01},
                                       RADII + ["--samples", "2"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["tol"] == 0.01
        assert report["config"]["tol"] == 0.01

    def test_radii_samples(self, tmp_path, capsys):
        code, out, _ = self.run_config(tmp_path, capsys, {"samples": 2},
                                       RADII + ["--tol", "0.01"])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["sample_spec"]["sample_count"] == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        code, out, _ = self.run_config(tmp_path, capsys, {"tol": 0.01},
                                       RADII + ["--samples", "2", "--tol", "0.02"])
        assert code == EXIT_OK
        assert json.loads(out)["result"]["tol"] == 0.02

    def test_defaults_stay_out_of_the_embedded_config(self, tmp_path, capsys):
        code, out, _ = self.run_config(tmp_path, capsys, {"samples": 1}, RADII)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["samples"] == 1
        assert "tol" not in report["config"] and "grid" not in report["config"]
        assert report["result"]["tol"] == 1e-3
        assert report["result"]["grid_n"] == 256

    @pytest.fixture
    def extract_calls(self, monkeypatch):
        calls, real = [], cli.extract

        def extract(ctx, N, h=None):
            calls.append((ctx.base_point.coords.tolist(), N))
            return real(ctx, N, h)

        monkeypatch.setattr(cli, "extract", extract)
        return calls

    def test_extract_grid(self, tmp_path, capsys, extract_calls):
        out_file = tmp_path / "sample.csv"
        code, out, _ = self.run_config(
            tmp_path, capsys, {"grid": 64},
            ["extract", "--immersion", "circle", "--r", "0.5", "--out", str(out_file)])
        assert code == EXIT_OK
        assert extract_calls == [([0.0], 64)]
        assert len(out_file.read_text().strip().splitlines()) == 65
        # the summary line records the flood's cell size
        circle = tg.zoo_build("circle")
        ctx = tg.FrameContext.at(circle, circle.point(0, [0.0]), 0.5)
        assert json.loads(out)["cell_size"] == tg.component(ctx).h

    def test_extract_q(self, tmp_path, capsys, extract_calls):
        code, _, _ = self.run_config(
            tmp_path, capsys, {"q": "0.3"},
            ["extract", "--immersion", "circle", "--r", "0.5", "--grid", "16",
             "--out", str(tmp_path / "sample.csv")])
        assert code == EXIT_OK
        assert extract_calls == [([0.3], 16)]

    def test_counterexample_angles(self, tmp_path, capsys):
        code, out, _ = self.run_config(
            tmp_path, capsys, {"angles": 16},
            ["counterexample", "--eps", "1e-6", "--delta", "1e-7", "--r", "0.2"])
        assert code == EXIT_OK
        # the 16 sampled angles and the horizontal line
        assert json.loads(out)["result"]["angle_count"] == 17

    def test_quiet(self, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        code, out, _ = self.run_config(
            tmp_path, capsys, {"quiet": True},
            ["counterexample", "--eps", "1e-6", "--delta", "1e-7", "--r", "0.2",
             "--angles", "16", "--out", str(out_file)])
        assert code == EXIT_OK
        assert out == ""
        assert load_report(out_file)["result"]["angle_count"] == 17


class TestContracts:
    @pytest.mark.parametrize("args,message", [
        (["radii", "--kind", "c2", "--immersion", "circle", "--lambda", "0.5"],
         "invalid choice: 'c2'"),
        (["radii", "--kind", "c1", "--immersion", "circle", "--lambda", "0.5",
          "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ])
    def test_argument_errors_are_invalid(self, capsys, args, message):
        code, _, err = run(args, capsys)
        assert code == EXIT_INVALID
        assert message in err

    def test_unknown_entry_is_invalid(self, capsys):
        code, _, _ = run(
            ["radii", "--kind", "c1", "--immersion", "klein", "--lambda",
             "0.5"],
            capsys,
        )
        assert code == EXIT_INVALID

    def test_config_file_with_unknown_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_field": 1}))
        code, _, _ = run(
            ["zoo", "list", "--config", str(cfg), "--quiet"], capsys
        )
        assert code == EXIT_INVALID

    def test_config_file_supplies_fields(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.5, "kind": "c1",
                                   "immersion": "circle", "samples": 2}))
        out_file = tmp_path / "out.json"
        code, _, _ = run(
            ["radii", "--config", str(cfg), "--out", str(out_file),
             "--quiet"],
            capsys,
        )
        assert code == EXIT_OK
        assert load_report(out_file)["result"]["requested_kind"] == "c1"

    def test_determinism_up_to_timestamp(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            out_file = tmp_path / f"run{i}.json"
            code, _, _ = run(
                ["radii", "--kind", "c1", "--immersion", "circle",
                 "--lambda", "0.5", "--samples", "4",
                 "--out", str(out_file), "--quiet"],
                capsys,
            )
            assert code == EXIT_OK
            paths.append(out_file)
        reports = [load_report(p) for p in paths]
        for rep in reports:
            rep.pop("timestamp")
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )
