"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig1" in out and "table2" in out and len(out) == 8


def test_run_single_experiment(capsys):
    assert main(["table2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "P_best_W" in out
    assert "32-AMD-4-A100" in out


def test_csv_output(capsys):
    assert main(["table1", "--scale", "tiny", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("GPU,precision,")
    assert out.count(",") > 10


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig1", "--scale", "galactic"])


def test_seed_flag(capsys):
    assert main(["fig1", "--scale", "tiny", "--seed", "3"]) == 0
    assert "best_cap_pct" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main(["sweep", "--model", "V100-PCIE-32GB", "--n", "2048",
                 "--step-pct", "20"]) == 0
    out = capsys.readouterr().out
    assert "best:" in out and "Gflop/s/W" in out


def test_sweep_command_csv(capsys):
    assert main(["sweep", "--n", "1024", "--step-pct", "25", "--csv"]) == 0
    assert capsys.readouterr().out.startswith("cap_W,")


def test_tradeoff_command_single_config(capsys):
    assert main(["tradeoff", "--platform", "24-Intel-2-V100", "--config", "hb",
                 "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "HB" in out and "HH" in out


def test_tradeoff_command_full_ladder(capsys):
    assert main(["tradeoff", "--platform", "24-Intel-2-V100", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    for config in ("LL", "HL", "HH", "HB", "BB"):
        assert config in out


def test_tradeoff_invalid_config_letters(capsys):
    assert main(["tradeoff", "--config", "HX", "--scale", "tiny",
                 "--platform", "24-Intel-2-V100"]) == 2
    err = capsys.readouterr().err
    assert err == ("repro tradeoff: --config HX: invalid cap states ['X']; "
                   "allowed: H, B, L\n")


@pytest.fixture
def bad_plans(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"faults": [{"kind": "worker-kill", "target": "gpu-w0"}]}')
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    longkind = tmp_path / "longkind.json"
    longkind.write_text(json.dumps({"faults": [{"kind": "k" * 200_000, "time": 0.1}]}))
    return {"malformed": str(malformed), "list": str(listed), "deep": str(deep),
            "longkind": str(longkind),
            "missing": str(tmp_path / "missing.json"), "out": str(tmp_path / "out")}


@pytest.mark.parametrize("argv, message", [
    (["chaos", "--preset", "bogus"], "unknown preset 'bogus'"),
    (["chaos", "--plan", "{malformed}"], "missing required field 'time'"),
    (["chaos", "--plan", "{list}"], "must be a JSON object"),
    (["govern", "--plan", "{missing}"], "cannot read --plan"),
    (["govern", "--plan", "{malformed}"], "missing required field 'time'"),
    (["govern", "--preset", "bogus"], "unknown preset 'bogus'"),
    (["govern", "--allocator", "bogus"], "unknown allocator 'bogus'"),
    (["trace", "--config", "HHH", "--outdir", "{out}"],
     "--config HHH has 3 states for 2 GPUs"),
    (["chaos", "--config", "HHH"], "--config HHH has 3 states for 2 GPUs"),
    (["chaos", "--config", "HQ"], "invalid cap states"),
    (["chaos", "--platform", "nowhere"], "unknown platform 'nowhere'"),
    (["sweep", "--n", "0"], "--n must be positive, got 0"),
    (["sweep", "--model", "nope"], "unknown GPU model 'nope'"),
    (["sweep", "--step-pct", "0"], "--step-pct must be finite and > 0"),
    (["sweep", "--step-pct", "nan"], "--step-pct must be finite and > 0"),
    (["tradeoff", "--scheduler", "bogus"], "unknown scheduler 'bogus'"),
    (["tradeoff", "--platform", "nowhere"], "unknown platform 'nowhere'"),
    (["report", "{out}"], "cannot read"),
    (["trace", "--config", "HH", "--outdir", "{out}", "--power-period", "0"],
     "--power-period must be finite and > 0, got 0.0"),
    (["chaos", "--power-period", "0"], "--power-period must be finite and > 0"),
    (["chaos", "--power-period", "-0.01"],
     "--power-period must be finite and > 0"),
    (["govern", "--power-period", "nan"], "--power-period must be finite and > 0"),
    (["govern", "--budget", "nan"], "--budget: budget must be finite, got nan"),
    (["govern", "--budget", "inf"], "--budget: budget must be finite, got inf"),
    (["govern", "--budget", "-5"], "--budget: budget -5 W below the platform floor"),
    (["serve", "--shards", "0"], "--shards must be >= 1, got 0"),
    (["serve", "--max-queue", "0"], "--max-queue must be >= 1, got 0"),
    (["serve", "--jobs", "-1"], "--jobs must be >= 0, got -1"),
    (["serve", "--request-timeout", "-1"],
     "--request-timeout must be finite and > 0, got -1.0"),
    (["serve", "--request-timeout", "inf"],
     "--request-timeout must be finite and > 0, got inf"),
    (["serve", "--drain-timeout", "0"],
     "--drain-timeout must be finite and > 0, got 0.0"),
    (["serve", "--drain-timeout", "nan"],
     "--drain-timeout must be finite and > 0, got nan"),
    (["fig5", "--jobs", "-2"], "--jobs must be >= 0, got -2"),
    (["tradeoff", "--jobs", "-1"], "--jobs must be >= 0, got -1"),
    (["watch", "{out}", "--follow", "--interval", "-1"],
     "--interval must be finite and > 0, got -1.0"),
    (["watch", "{out}", "--interval", "0"], "--interval must be finite and > 0"),
    (["watch", "{out}", "--follow", "--timeout", "nan"],
     "--timeout must be finite and > 0, got nan"),
    (["report", "{out}", "--follow", "--timeout", "nan"],
     "--timeout must be finite and > 0, got nan"),
    (["report", "{out}", "--follow", "--timeout", "-1"],
     "--timeout must be finite and > 0, got -1.0"),
    (["report", "{out}", "--max-gaps", "-2"], "--max-gaps must be >= 0, got -2"),
    (["serve", "--port", "70000"], "--port must be in 0..65535, got 70000"),
    (["serve", "--port", "-1"], "--port must be in 0..65535, got -1"),
    (["sweep", "--step-pct", "1e-300"], "--step-pct 1e-300 is too small to advance"),
    (["sweep", "--step-pct", "1e-9"], "--step-pct 1e-09 gives more than 1000 cap points"),
    (["tradeoff", "--config", "HQ"], "invalid cap states"),
    (["tradeoff", "--config", "HH"], "--config HH has 2 states for 4 GPUs"),
    (["run", "--mix", "shift"], "--mix shift needs --allocator or --budget"),
    (["run"], "a run without a plan or budget needs --outdir"),
    (["govern", "--config", "HB"], "--config: a governed run's caps follow --budget"),
    (["run", "--plan", "{deep}"], "fault plan is not valid JSON"),
    (["run", "--plan", "{longkind}"], "faults[0]: unknown fault kind 'kkk"),
])
def test_bad_boundary_inputs_exit_2_with_one_line(argv, message, bad_plans,
                                                  capsys):
    argv = [a.format(**bad_plans) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"repro {argv[0]}: ")
    assert message in lines[0]
    assert "Traceback" not in captured.err
