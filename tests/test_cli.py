"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and stdio are
observable; subprocess smoke tests cover the installed console script and,
where it is not installed, the module entry point it names.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import gprior_lab
from gprior_lab import consistency_lab
from gprior_lab.cli import build_parser, main
from gprior_lab.model_core import FixedG, scenario_to_dict

from conftest import make_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"


@pytest.fixture()
def eb_path(tmp_path):
    path = tmp_path / "cli_eb.json"
    path.write_text(json.dumps(scenario_to_dict(make_scenario(name="cli_eb"))))
    return str(path)


def _run_experiment(eb_path, out_dir, extra=()):
    return main(
        [
            "experiment",
            "--scenario", eb_path,
            "--n-grid", "50,100",
            "--eps-grid", "0.25,0.5",
            "--reps", "2",
            "--seed", "7",
            "--out", str(out_dir),
            *extra,
        ]
    )


class TestScenarioValidation:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["theorem", "--scenario", str(tmp_path / "nope.json"),
                   "--n-grid", "100,200"])
        assert rc == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  "alpha": }\n')
        rc = main(["theorem", "--scenario", str(bad), "--n-grid", "100,200"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "line 2, column" in err

    def test_alpha_at_one_exits_2_citing_assumption(self, tmp_path, capsys):
        doc = scenario_to_dict(make_scenario(name="toofat"))
        doc["alpha"] = 1.0
        path = tmp_path / "toofat.json"
        path.write_text(json.dumps(doc))
        rc = main(["theorem", "--scenario", str(path), "--n-grid", "100,200"])
        assert rc == 2
        assert "(A2)" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma0_sq", float("inf")),
            ("beta0_rule", {"kind": "first_m", "v": 1.0, "m": 2.5}),
            ("regime", {"kind": "hyper_g", "c": 1}),
            ("name", "a\u0001b"),
            # a zero entry lies within an absolute 1e-12 of 1/lambda_max = 1e-13
            ("design", {"kind": "diagonal", "spectrum": [0, 1], "lambda_min": 1, "lambda_max": 1e13}),
        ],
        ids=["sigma0_sq_infinity", "first_m_fractional_m", "hyper_g_c_1", "name_with_control", "spectrum_entry_zero"],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, key, value):
        doc = scenario_to_dict(make_scenario(name="malformed"))
        doc[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert _run_experiment(str(path), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("p_rule", ["sqrt", {"kind": "fixed", "m": 20}], ids=["sqrt", "fixed"])
    def test_positive_alpha_with_a_sublinear_p_rule_exits_2(self, tmp_path, capsys, p_rule):
        # p/n -> 0 under these rules, so the verdict must not read alpha = 0.5
        doc = json.loads((SCENARIOS / "eb_fixed_offset_alpha0_sqrtp.json").read_text())
        doc.update(alpha=0.5, p_rule=p_rule)
        path = tmp_path / "sublinear.json"
        path.write_text(json.dumps(doc))
        assert main(["theorem", "--scenario", str(path), "--n-grid", "200,800,3200"]) == 2
        captured = capsys.readouterr()
        assert "linear dimension rule" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "regime, n", [({"kind": "eb"}, 12), ({"kind": "hyper_g", "c": 3.0}, 13)], ids=["eb", "hyper_g"]
    )
    def test_improper_regime_exits_2(self, tmp_path, capsys, regime, n):
        # p = 10 and a = 0: n - p + a - 2 = 0 (eb) and n - p + a - c = 0 (hyper-g)
        doc = scenario_to_dict(make_scenario(name="improper"))
        doc.update(regime=regime, p_rule={"kind": "fixed", "m": 10}, alpha=0.0)
        path = tmp_path / "improper.json"
        path.write_text(json.dumps(doc))
        rc = main(["experiment", "--scenario", str(path), "--n-grid", f"{n},{n + 1}", "--eps-grid", "0.5",
                   "--reps", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "n - p + a" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment", "theorem", "lemmas"])
    def test_n_below_2_exits_2(self, eb_path, tmp_path, capsys, command):
        argv = [command, "--scenario", eb_path, "--n-grid", "1,100"]
        if command == "experiment":
            argv += ["--eps-grid", "0.5", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: need n >= 2, got n=1\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_n_exits_2(self, eb_path, tmp_path, capsys):
        rc = main(["experiment", "--scenario", eb_path, "--n-grid", "100,100",
                   "--eps-grid", "0.5", "--reps", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["3200,800,200", "200,200,800"], ids=["decreasing", "repeated"])
    def test_theorem_unordered_grid_exits_2(self, eb_path, capsys, grid):
        rc = main(["theorem", "--scenario", eb_path, "--n-grid", grid])
        assert rc == 2
        captured = capsys.readouterr()
        assert "increasing" in captured.err and captured.out == ""


class TestExperimentCommand:
    def test_writes_report_and_csv(self, eb_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run_experiment(eb_path, out) == 0
        stdout = capsys.readouterr().out
        assert "Verdict: Inconsistent (Theorem 2)" in stdout
        assert "Agreement:" in stdout
        text = (out / "report.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert set(report) == {
            "schema_version", "scenario", "n_grid", "eps_grid", "reps", "master_seed",
            "cells", "aggregates", "verdict", "agreement", "lemmas", "wall_time_s",
        }
        assert report["schema_version"] == 1
        assert report["master_seed"] == 7
        assert report["n_grid"] == [50, 100] and report["eps_grid"] == [0.25, 0.5]
        assert len(report["cells"]) == 2 * 2 * 2
        lines = (out / "cells.csv").read_text().strip().split("\n")
        assert lines[0] == "scenario,regime,n,p,rep,eps,prob,se,seed"
        assert len(lines) == 1 + len(report["cells"])
        assert all(line.startswith("cli_eb,eb,") for line in lines[1:])

    def test_format_csv_skips_report_json(self, eb_path, tmp_path):
        out = tmp_path / "csvonly"
        assert _run_experiment(eb_path, out, ("--format", "csv")) == 0
        assert (out / "cells.csv").exists()
        assert not (out / "report.json").exists()

    def test_env_seed_fallback(self, eb_path, tmp_path, monkeypatch):
        monkeypatch.setenv("GPRIOR_LAB_SEED", "99")
        out = tmp_path / "envseed"
        rc = main(["experiment", "--scenario", eb_path, "--n-grid", "50",
                   "--eps-grid", "0.5", "--reps", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["master_seed"] == 99

    def test_non_integer_env_seed_exits_2(self, eb_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPRIOR_LAB_SEED", "abc")
        rc = main(["experiment", "--scenario", eb_path, "--n-grid", "50",
                   "--eps-grid", "0.5", "--reps", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_negative_env_seed_exits_2(self, eb_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPRIOR_LAB_SEED", "-2")
        rc = main(["experiment", "--scenario", eb_path, "--n-grid", "50",
                   "--eps-grid", "0.5", "--reps", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "GPRIOR_LAB_SEED must be an integer >= 0" in capsys.readouterr().err

    def test_exact_method_on_rotated_design_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_cells(*args, **kwargs):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr("gprior_lab.cli.run_experiment", no_cells)
        out = tmp_path / "out"
        rc = main(["experiment",
                   "--scenario", str(REPO_ROOT / "perfbench" / "scenarios" / "eb_rotated_offset_alpha05.json"),
                   "--n-grid", "50", "--eps-grid", "0.5", "--reps", "1",
                   "--method", "exact", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--method exact" in err and "'diagonal'" in err
        assert not out.exists()

    def test_out_that_is_a_file_exits_3_before_any_cell(self, eb_path, tmp_path, monkeypatch, capsys):
        def no_cells(*args, **kwargs):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr("gprior_lab.cli.run_experiment", no_cells)
        out = tmp_path / "taken"
        out.write_text("")
        rc = _run_experiment(eb_path, out)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


class TestTheoremCommand:
    @pytest.mark.parametrize(
        "fname,display",
        [
            ("eb_fixed_offset_alpha05.json", "Inconsistent (Theorem 2)"),
            ("hyperg_fixed_offset_alpha05.json", "Inconsistent (Theorem 3)"),
            ("fixed_gn_unit_info_alpha05.json", "Consistent (Theorem 1)"),
            ("eb_diverging_norm_alpha05.json", "Consistent (Theorem 2)"),
            ("eb_fixed_offset_alpha0_sqrtp.json", "Consistent (Theorem 2)"),
            ("zs_fixed_offset_alpha05.json", "Unknown (Theorem 4 sufficient only)"),
        ],
    )
    def test_shipped_scenarios_display(self, fname, display, capsys):
        rc = main(["theorem", "--scenario", str(SCENARIOS / fname),
                   "--n-grid", "200,800,3200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == display

    def test_verdict_json_written(self, tmp_path, capsys):
        out = tmp_path / "verdict"
        rc = main(["theorem",
                   "--scenario", str(SCENARIOS / "zs_fixed_offset_alpha05.json"),
                   "--n-grid", "200,800,3200", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["display"] == "Unknown (Theorem 4 sufficient only)"
        assert doc["theorem"] == "T4" and doc["sufficient_only"] is True
        assert doc["evidence"]["offset_sq"]["class"] == "positive"

    def test_json_flag_prints_evidence(self, capsys):
        rc = main(["theorem",
                   "--scenario", str(SCENARIOS / "eb_fixed_offset_alpha05.json"),
                   "--n-grid", "200,800,3200", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["predicted"] == "inconsistent"
        assert {"alpha", "offset_sq", "offset_sup"} <= set(doc["evidence"])


class TestLemmasCommand:
    def test_passing_scenario_exits_0(self, capsys):
        rc = main(["lemmas",
                   "--scenario", str(SCENARIOS / "fixed_gn_unit_info_alpha05.json"),
                   "--n-grid", "250,1000", "--reps", "20", "--seed", "20260815"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS mle_sup_error_vanishes" in out
        assert "SKIP u_floor_and_cutoff_vanish" in out
        assert "FAIL" not in out

    def test_failing_scenario_exits_3(self, tmp_path, capsys):
        # at n = 8 with sigma0^2 = 25 the MLE sup-error cannot be below the
        # asymptotic tolerance, so at least one check must report FAIL
        sc = make_scenario(name="cli_fail", sigma0_sq=25.0, regime=FixedG(rule=1.0))
        path = tmp_path / "cli_fail.json"
        path.write_text(json.dumps(scenario_to_dict(sc)))
        rc = main(["lemmas", "--scenario", str(path),
                   "--n-grid", "6,8", "--reps", "3", "--seed", "1"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out


class TestPlotCommand:
    @pytest.fixture()
    def report_dir(self, eb_path, tmp_path):
        out = tmp_path / "rep"
        assert _run_experiment(eb_path, out) == 0
        return out

    def test_roundtrip_and_determinism(self, report_dir, tmp_path, capsys):
        plots1 = tmp_path / "plots1"
        plots2 = tmp_path / "plots2"
        for plots in (plots1, plots2):
            rc = main(["plot", "--report", str(report_dir / "report.json"),
                       "--out", str(plots)])
            assert rc == 0
        names = sorted(p.name for p in plots1.glob("*.svg"))
        assert names == ["ball_prob_eps_0.25.svg", "ball_prob_eps_0.5.svg"]
        for name in names:
            first = (plots1 / name).read_bytes()
            assert first == (plots2 / name).read_bytes()
            assert first.lstrip().startswith(b"<svg")

    def test_missing_report_exits_3(self, tmp_path, capsys):
        rc = main(["plot", "--report", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "p")])
        assert rc == 3
        assert "cannot read report" in capsys.readouterr().err

    def test_malformed_report_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["plot", "--report", str(bad), "--out", str(tmp_path / "p")])
        assert rc == 3
        assert "malformed JSON" in capsys.readouterr().err

    def test_wrong_schema_version_exits_3(self, tmp_path, capsys):
        doc = tmp_path / "old.json"
        doc.write_text(json.dumps({"schema_version": 99, "cells": [1]}))
        rc = main(["plot", "--report", str(doc), "--out", str(tmp_path / "p")])
        assert rc == 3
        assert "schema_version" in capsys.readouterr().err

    def test_markup_in_scenario_name_gives_well_formed_svg(self, tmp_path, capsys):
        name = "a<b & c>"
        path = tmp_path / "markup.json"
        path.write_text(json.dumps(scenario_to_dict(make_scenario(name=name))))
        assert _run_experiment(str(path), tmp_path / "rep") == 0
        rc = main(["plot", "--report", str(tmp_path / "rep" / "report.json"), "--out", str(tmp_path / "p")])
        assert rc == 0
        svgs = sorted((tmp_path / "p").glob("*.svg"))
        assert len(svgs) == 2
        for svg in svgs:
            title = ET.parse(svg).getroot()[1]
            assert title.tag.endswith("text") and title.text.startswith(f"{name} eps=")

    def test_empty_cells_exit_3(self, tmp_path, capsys):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps({
            "schema_version": 1, "cells": [], "aggregates": [],
            "scenario": {"name": "x"}, "verdict": {"display": ""},
        }))
        rc = main(["plot", "--report", str(doc), "--out", str(tmp_path / "p")])
        assert rc == 3
        assert "no cells" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc["aggregates"][0].pop("n_grid"),
            lambda doc: doc.update(scenario="x"),
            lambda doc: doc["aggregates"][0]["prob_q25"].pop(),
            lambda doc: doc["aggregates"][0].update(n_grid=["50", "100"]),
            lambda doc: doc.update(verdict="x"),
            lambda doc: doc["scenario"].update(name=5),
            lambda doc: doc["verdict"].update(display=["x"]),
            lambda doc: doc["scenario"].update(name="a\u0001b"),
        ],
        ids=["aggregate_without_n_grid", "scenario_string", "short_quartile_list", "n_grid_strings", "verdict_string",
             "name_number", "display_list", "name_with_control"],
    )
    def test_malformed_aggregate_or_scenario_exits_3(self, report_dir, tmp_path, capsys, damage):
        doc = json.loads((report_dir / "report.json").read_text())
        damage(doc)
        bad = tmp_path / "damaged.json"
        bad.write_text(json.dumps(doc))
        rc = main(["plot", "--report", str(bad), "--out", str(tmp_path / "p")])
        assert rc == 3
        assert "malformed report" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


class TestSimulateCommand:
    def test_prints_draw_diagnostics(self, eb_path, capsys):
        rc = main(["simulate", "--scenario", eb_path, "--n-grid", "50,100",
                   "--reps", "2", "--seed", "11"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "cli_eb"
        assert sorted(doc) == ["draws", "master_seed", "scenario"]
        assert len(doc["draws"]) == 4
        first = doc["draws"][0]
        assert first["n"] == 50 and first["p"] == 25
        assert first["eb_ghat"] is not None and first["u_floor"] > 0

    def test_writes_to_file(self, eb_path, tmp_path, capsys):
        out = tmp_path / "draws.json"
        rc = main(["simulate", "--scenario", eb_path, "--n-grid", "50",
                   "--reps", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["draws"]

    def test_out_in_missing_directory_exits_3(self, eb_path, tmp_path, capsys, monkeypatch):
        # the output file is opened before any dataset is drawn
        draws = []
        monkeypatch.setattr(consistency_lab, "simulate_stats", lambda *a, **k: draws.append(a))
        out = tmp_path / "nodir" / "x.json"
        rc = main(["simulate", "--scenario", eb_path, "--n-grid", "50", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
        assert draws == []

    def test_mode_flag_is_gone(self, eb_path, capsys):
        # one simulation path: the explicit-design reduction is a test oracle
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", eb_path, "--n-grid", "50", "--mode", "full"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestArgumentParsing:
    def test_missing_required_flag_is_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--n-grid", "50"])
        assert exc.value.code == 2

    def test_theorem_takes_no_seed(self, eb_path, capsys):
        # theorem draws no dataset, so a seed would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["theorem", "--scenario", eb_path, "--n-grid", "100,200", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_command_is_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("experiment", "--threads", "0"),
            ("experiment", "--reps", "0"),
            ("experiment", "--mc-draws", "0"),
            ("lemmas", "--reps", "0"),
            ("simulate", "--reps", "0"),
            ("experiment", "--eps-grid", "0.1,0.1"),
            ("experiment", "--eps-grid", "nan,0.2"),
            ("experiment", "--eps-grid", "inf,0.2"),
            ("experiment", "--seed", "-1"),
            ("simulate", "--seed", "-1"),
            ("lemmas", "--seed", "-1"),
        ],
    )
    def test_bad_numeric_flag_is_systemexit_2(self, eb_path, tmp_path, capsys, command, flag, value):
        argv = [command, "--scenario", eb_path, "--n-grid", "50,100", flag, value]
        if command == "experiment":
            argv += ["--out", str(tmp_path / "out")]
            if flag != "--eps-grid":
                argv += ["--eps-grid", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @staticmethod
    def _assert_top_level_help(proc):
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()
        for sub in ("simulate", "experiment", "theorem", "lemmas", "plot"):
            assert sub in proc.stdout

    @pytest.mark.skipif(
        shutil.which("gprior-lab") is None,
        reason="gprior-lab console script is not on PATH (package not installed)",
    )
    def test_console_script_help(self):
        proc = subprocess.run(["gprior-lab", "-h"], capture_output=True, text=True)
        self._assert_top_level_help(proc)

    def test_console_script_entry_point_help(self):
        # the [project.scripts] target, run as a module from the same source
        # tree the in-process tests import, so the -h contract is checked
        # without an install
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gprior-lab"]
        assert target == "gprior_lab.cli:main"
        src = str(Path(gprior_lab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "gprior_lab.cli", "-h"],
            capture_output=True, text=True, env=env,
        )
        self._assert_top_level_help(proc)


class TestSeveralScenarios:
    """`experiment` with several --scenario paths: one directory per scenario."""

    SHIPPED = ("eb_fixed_offset_alpha05", "hyperg_fixed_offset_alpha05")

    @staticmethod
    def _argv(paths, out, extra=()):
        return ["experiment", "--scenario", *map(str, paths), "--n-grid", "50,100", "--eps-grid", "0.1,0.5",
                "--reps", "1", "--seed", "7", "--threads", "2", "--with-lemmas", "--out", str(out), *extra]

    @staticmethod
    def _no_cells(monkeypatch):
        ran = []
        monkeypatch.setattr("gprior_lab.cli.run_experiment", lambda *a, **k: ran.append(a))
        return ran

    def test_each_scenario_writes_its_own_directory(self, tmp_path, capsys):
        paths = [SCENARIOS / f"{name}.json" for name in self.SHIPPED]
        assert main(self._argv(paths, tmp_path / "suite")) == 0
        assert sorted(p.name for p in (tmp_path / "suite").iterdir()) == sorted(self.SHIPPED)
        for name, path in zip(self.SHIPPED, paths):
            # each report equals a one-scenario run's, which writes to --out itself
            assert main(self._argv([path], tmp_path / name)) == 0
            several, one = tmp_path / "suite" / name, tmp_path / name
            docs = [json.loads((d / "report.json").read_text()) for d in (several, one)]
            for doc in docs:
                doc.pop("wall_time_s")
            assert docs[0] == docs[1] and docs[0]["scenario"]["name"] == name
            assert (several / "cells.csv").read_text() == (one / "cells.csv").read_text()
        assert capsys.readouterr().out.count("Verdict: ") == 2 * len(self.SHIPPED)

    def test_repeated_flag_adds_its_scenarios(self, tmp_path, capsys, monkeypatch):
        # `--scenario a --scenario b` runs both, each under --out/<name>/,
        # as `--scenario a b` does; a path given twice is a duplicate name
        first, second = (SCENARIOS / f"{name}.json" for name in self.SHIPPED)
        assert main(self._argv([first], tmp_path / "suite", ["--scenario", str(second)])) == 0
        assert sorted(p.name for p in (tmp_path / "suite").iterdir()) == sorted(self.SHIPPED)
        assert capsys.readouterr().out.count("Verdict: ") == len(self.SHIPPED)
        ran = self._no_cells(monkeypatch)
        assert main(self._argv([first], tmp_path / "twice", ["--scenario", str(first)])) == 2 and ran == []
        assert "two scenarios are named" in capsys.readouterr().err

    def test_calls_in_one_process_share_no_state(self, tmp_path, monkeypatch):
        # main builds its parser once per process, and each call's flags
        # are its own: the second call takes neither the first's extra
        # scenario (an "extend" list) nor its method, draws, reps or format
        assert build_parser() is build_parser()
        seen = []
        run = consistency_lab.run_experiment

        def recording(scenario, *args, **kwargs):
            opts = kwargs["ball_options"]
            seen.append((scenario.name, opts.method, opts.mc_draws, kwargs["reps"]))
            return run(scenario, *args, **kwargs)

        monkeypatch.setattr("gprior_lab.cli.run_experiment", recording)
        first, second = (SCENARIOS / f"{name}.json" for name in self.SHIPPED)
        argv = ["experiment", "--scenario", str(first), "--n-grid", "50,100", "--eps-grid", "0.5", "--seed", "7"]
        extra = ["--scenario", str(second), "--method", "mc", "--mc-draws", "500", "--reps", "1", "--format", "csv"]
        assert main(argv + ["--out", str(tmp_path / "first"), *extra]) == 0
        assert main(argv + ["--out", str(tmp_path / "second")]) == 0
        assert seen == [
            ("eb_fixed_offset_alpha05", "mc", 500, 1),
            ("hyperg_fixed_offset_alpha05", "mc", 500, 1),
            ("eb_fixed_offset_alpha05", "auto", 20_000, 20),
        ]
        assert not list((tmp_path / "first").glob("*/report.json"))
        assert sorted(p.name for p in (tmp_path / "second").iterdir()) == ["cells.csv", "report.json"]

    @pytest.mark.parametrize(
        "case", ["malformed", "exact_on_rotated", "duplicate_names", "decreasing_grid", "name_with_slash"]
    )
    def test_bad_scenario_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, case):
        ran = self._no_cells(monkeypatch)
        good = SCENARIOS / "eb_fixed_offset_alpha05.json"
        rotated = REPO_ROOT / "perfbench" / "scenarios" / "eb_rotated_offset_alpha05.json"
        doc = scenario_to_dict(make_scenario(name="other"))
        if case == "malformed":
            doc["alpha"] = 1.0
        if case == "name_with_slash":
            doc["name"] = "../escape"
        second = tmp_path / "second.json"
        second.write_text(json.dumps(doc))
        paths, extra = [good, second], []
        if case == "exact_on_rotated":
            paths, extra = [good, rotated], ["--method", "exact"]
        if case == "duplicate_names":
            paths = [good, good]
        argv = self._argv(paths, tmp_path / "out", extra)
        if case == "decreasing_grid":
            argv[argv.index("50,100")] = "100,50"
        assert main(argv) == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_exits_3_before_any_cell(self, tmp_path, capsys, monkeypatch):
        ran = self._no_cells(monkeypatch)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(self._argv([SCENARIOS / f"{name}.json" for name in self.SHIPPED], out)) == 3
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err

    def test_runtime_value_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("degenerate posterior")

        monkeypatch.setattr("gprior_lab.cli.run_experiment", failing)
        assert main(self._argv([SCENARIOS / f"{name}.json" for name in self.SHIPPED], tmp_path / "out")) == 3
        assert capsys.readouterr().err == "error: degenerate posterior\n"

    def test_grid_size_flag_is_gone(self, tmp_path, capsys):
        # the posterior grid has one size, g_regimes._GRID_SIZE
        with pytest.raises(SystemExit) as exc:
            main(self._argv([SCENARIOS / "eb_fixed_offset_alpha05.json"], tmp_path / "out", ["--grid-size", "64"]))
        assert exc.value.code == 2
        assert "--grid-size" in capsys.readouterr().err


class TestReadmeCommands:
    def test_quick_start_commands_parse(self):
        # every `gprior-lab` command in README's Quick start, scenario globs
        # expanded from the repository root, parses with today's CLI
        text = (REPO_ROOT / "README.md").read_text()
        section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        lines = section.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("gprior-lab ")]
        assert len(commands) >= 3
        scenario_counts = []
        for argv in commands:
            expanded = []
            for token in argv[1:]:
                if "*" in token:
                    matches = sorted(str(p.relative_to(REPO_ROOT)) for p in REPO_ROOT.glob(token))
                    assert matches, token
                    expanded += matches
                else:
                    expanded.append(token)
            args = build_parser().parse_args(expanded)
            if args.command == "experiment":
                scenario_counts.append(len(args.scenario))
        # one of them runs the whole shipped suite
        assert len(list(SCENARIOS.glob("*.json"))) in scenario_counts
