import json
import os
import subprocess
import sys

import pytest

import pairsel
from pairsel import cli


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.run(argv + ["--format", "json", "--output", str(out)])
    return code, json.loads(out.read_text())


def test_pi_test_exact_exit_zero(tmp_path, capsys):
    code = cli.run(["pi-test", "--q", "2", "--d", "3", "--m", "2", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "pass" in captured.out


def test_pi_test_unordered(tmp_path):
    code, report = run_json(
        ["pi-test", "--construction", "unordered", "--q", "2", "--d", "2", "--m", "2", "--n", "2"],
        tmp_path,
    )
    assert code == 0
    assert report["body"]["max_joint_deviation"]["fraction"] == "0/1"


def test_unknown_flag_exits_two():
    assert cli.run(["pi-test", "--frobnicate"]) == 2


def test_unknown_command_exits_two():
    assert cli.run(["does-not-exist"]) == 2


def test_missing_required_params_named(capsys):
    code = cli.run(["crs-hardness"])
    assert code == 2
    assert "requires" in capsys.readouterr().err


def test_incompatible_params_named(capsys):
    code = cli.run(["crs-hardness", "--q", "2", "--d", "3", "--c", "2"])
    assert code == 2
    assert "q^(c-1) >= d" in capsys.readouterr().err


def test_crs_hardness_small_run(tmp_path):
    code, report = run_json(
        ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "2000", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    assert report["schema"] == 1
    assert report["header"]["command"] == "crs-hardness"
    assert report["header"]["config"]["seed"] == 7
    assert report["body"]["pass"] is True
    assert report["body"]["ratio_estimate"]["ci_high"] < 3.5 / 5


def test_json_bodies_byte_identical(tmp_path):
    argv = ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "500", "--seed", "3"]
    out = tmp_path / "same.json"
    cli.run(argv + ["--format", "json", "--output", str(out)])
    first = out.read_text()
    cli.run(argv + ["--format", "json", "--output", str(out)])
    second = out.read_text()
    body_a = json.dumps(json.loads(first)["body"], sort_keys=True)
    body_b = json.dumps(json.loads(second)["body"], sort_keys=True)
    assert body_a == body_b
    # headers agree up to the timestamp field
    head_a, head_b = json.loads(first)["header"], json.loads(second)["header"]
    head_a.pop("generated_at")
    head_b.pop("generated_at")
    assert head_a == head_b


def test_threads_do_not_change_reported_numbers(tmp_path):
    base = ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "1000", "--seed", "5"]
    _, one = run_json(base + ["--threads", "1"], tmp_path, "t1.json")
    _, four = run_json(base + ["--threads", "4"], tmp_path, "t4.json")
    assert one["body"]["rank_estimate"] == four["body"]["rank_estimate"]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"q": 5, "d": 5, "c": 2, "trials": 400, "seed": 9}))
    code, report = run_json(
        ["crs-hardness", "--config", str(config), "--trials", "600"], tmp_path
    )
    assert code == 0
    assert report["header"]["config"]["trials"] == 600  # flag wins
    assert report["header"]["config"]["seed"] == 9  # file fills the rest


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"qq": 5}))
    assert cli.run(["pi-test", "--config", str(config)]) == 2


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    _, report = run_json(
        ["pi-test", "--q", "2", "--d", "2", "--m", "2", "--n", "2"], tmp_path
    )
    assert report["header"]["seed"] == 123


def test_certify_pass_and_fail_exit_codes(tmp_path):
    ok_code, _ = run_json(["certify", "--trials", "2000", "--seed", "2"], tmp_path)
    assert ok_code == 0
    bad_code, report = run_json(
        ["certify", "--trials", "2000", "--seed", "2", "--target", "0.99"], tmp_path, "f.json"
    )
    assert bad_code == 1
    assert report["body"]["pass"] is False


def test_certify_product_distribution(tmp_path):
    code, report = run_json(
        ["certify", "--distribution", "product", "--trials", "2000", "--seed", "3"], tmp_path
    )
    assert code == 0


def test_sigma_props_run(tmp_path):
    code, report = run_json(
        ["sigma-props", "--kappa", "2", "--d", "16", "--trials", "1500", "--seeds", "5", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    assert len(report["body"]["reports"]) == 5


def test_partition_bench_small(tmp_path):
    code, report = run_json(
        ["partition-bench", "--trials", "1500", "--seed", "4"], tmp_path
    )
    assert code == 0
    assert report["body"]["rank_one"]["ratio"]["mean"] > 1 / 3
    assert report["body"]["graphic"]["ratio"]["mean"] > 1 / 6


def test_prophet_bench_small(tmp_path):
    code, report = run_json(
        ["prophet-bench", "--kappa", "2", "--d", "16", "--trials", "30", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    assert report["body"]["reward"]["mean"] >= report["body"]["guarantee"]


def test_prophet_hardness_small(tmp_path):
    code, report = run_json(
        ["prophet-hardness", "--kappa", "2", "--d", "16", "--trials", "40", "--seed", "6"],
        tmp_path,
    )
    assert code == 0
    names = [p["name"] for p in report["body"]["policies"]]
    assert "accept-all-feasible" in names
    # 10/kappa = 5: no gambler's ratio to the prophet can exceed it.
    assert report["body"]["ratio_gate_vacuous"] is True


def test_ocrs_bench_small(tmp_path):
    code, report = run_json(
        ["ocrs-bench", "--q", "5", "--d", "5", "--c", "2", "--trials", "1500", "--seed", "8"],
        tmp_path,
    )
    # At 1500 trials no element reaches 30 occurrences: min is NaN, fail-safe
    # verdicts are not asserted here, only the report structure.
    assert report["schema"] == 1
    assert report["body"]["min_occurrences"] == 30


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = cli.run(
        ["pi-test", "--q", "2", "--d", "2", "--m", "2", "--n", "2",
         "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("pass,") for line in lines)


def test_text_format_default(capsys):
    code = cli.run(["pi-test", "--q", "2", "--d", "2", "--m", "2", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("pairsel pi-test")


def test_trace_log_written(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = cli.run(
        ["ocrs-bench", "--q", "5", "--d", "5", "--c", "2", "--trials", "20",
         "--seed", "9", "--trace", str(trace), "--output", str(tmp_path / "o.txt")]
    )
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines and all({"element", "coin", "accepted"} <= set(r) for r in lines)


def test_prophet_bench_trace_records_bucketing_decisions(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = cli.run(
        ["prophet-bench", "--kappa", "2", "--d", "16", "--trials", "3", "--seed", "5",
         "--trace", str(trace), "--output", str(tmp_path / "o.txt")]
    )
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    # One record per arrival: 8 + 4 candidates per trial on the hardness event.
    assert len(lines) == 3 * 12
    assert all({"element", "weight", "accepted"} <= set(r) for r in lines)
    assert any(r["accepted"] for r in lines)


@pytest.mark.parametrize("argv", [
    ["certify", "--q", "5"],
    ["pi-test", "--trials", "10"],
    ["pi-test", "--exact"],
    ["partition-bench", "--threads", "2"],
    ["prophet-hardness", "--trace", "x"],
    ["sigma-props", "--confidence", "2"],
], ids=" ".join)
def test_flag_the_command_does_not_read_exits_two(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 2
    assert not (tmp_path / "x").exists()


def test_config_key_the_command_does_not_read_rejected(tmp_path, capsys):
    config = tmp_path / "threads.json"
    config.write_text(json.dumps({"threads": 2}))
    assert cli.run(["certify", "--config", str(config)]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("trials", "10"), ("confidence", "3"), ("trials", True), ("trials", 10.5),
    ("seed", None), ("format", "xml"),
])
def test_config_value_of_wrong_type_exits_two(key, value, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({key: value}))
    code = cli.run(["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--config", str(config)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


def test_config_integer_confidence_accepted_as_float(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"confidence": 3, "trials": 200}))
    code, report = run_json(
        ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--config", str(config)], tmp_path
    )
    assert code == 0
    assert report["header"]["config"]["confidence"] == 3.0
    assert report["body"]["rank_estimate"]["sigmas"] == 3.0


def test_sigma_props_zero_seeds_is_usage_error(capsys):
    assert cli.run(["sigma-props", "--kappa", "2", "--d", "16", "--seeds", "0"]) == 2
    assert "seeds >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "100", "--threads", "-3"],
    ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "100", "--threads", "0"],
    ["certify", "--trials", "500", "--confidence", "-3"],
    ["certify", "--trials", "500", "--confidence", "0"],
    ["certify", "--trials", "500", "--confidence", "nan"],
    ["sigma-props", "--kappa", "0", "--seeds", "1"],
    ["pi-test", "--q", "0"],
    ["pi-test", "--d", "0"],
    ["prophet-hardness", "--d", "0"],
    ["certify", "--trials", "500", "--target", "-5"],
    ["certify", "--trials", "500", "--target", "0"],
    ["certify", "--trials", "500", "--target", "nan"],
    ["certify", "--trials", "500", "--target", "inf"],
], ids=" ".join)
def test_rejected_parameter_exits_two(argv, capsys):
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_negative_confidence_exits_two(tmp_path, capsys):
    config = tmp_path / "conf.json"
    for key, value in (("confidence", -1), ("target", -5), ("target", 0), ("target", 0.0)):
        config.write_text(json.dumps({key: value}))
        assert cli.run(["certify", "--trials", "500", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--m", "-1"), ("--m", "0"), ("--n", "0")])
def test_pi_test_rejection_names_the_flag(flag, value, capsys):
    assert cli.run(["pi-test", flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_header_config_shows_command_defaults():
    prophet = cli.resolve_config(["prophet-hardness"])
    assert (prophet.kappa, prophet.d, prophet.trials) == (4, 256, 1_000)
    sigma = cli.resolve_config(["sigma-props", "--kappa", "2"])
    assert (sigma.kappa, sigma.d, sigma.trials) == (2, 16, 10_000)
    pi = cli.resolve_config(["pi-test"])
    assert (pi.q, pi.d, pi.m, pi.n) == (2, 3, 2, 3)


def test_unwritable_output_exits_three(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    assert cli.run(["pi-test", "--output", str(out)]) == 3
    assert "error: FileNotFoundError" in capsys.readouterr().err


def test_runner_crash_exits_three(monkeypatch, capsys):
    def crash(cfg, rng):
        raise RuntimeError("boom")

    _runner, flags, defaults = cli.COMMANDS["pi-test"]
    monkeypatch.setitem(cli.COMMANDS, "pi-test", (crash, flags, defaults))
    assert cli.run(["pi-test"]) == 3
    assert "error: RuntimeError: boom" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pairsel.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pairsel.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
