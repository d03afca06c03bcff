"""CLI contract: exit codes, output files, seed precedence, sweep grids."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys

import pytest

import nea.cli
import nea.cycle
import nea.society
from nea import builtin_scenario
from nea.cli import main
from nea.core import StepLabel
from nea.cycle import InterpreterFault
from nea.society import METRICS_COLUMNS

from conftest import CORPUS_DIR


# ----------------------------------------------------------------------
# check


def test_check_prints_canonical_form(tmp_path, capsys):
    source = CORPUS_DIR / "professor_conformist.nea"
    assert main(["check", str(source)]) == 0
    first = capsys.readouterr().out
    assert "+enter_classroom" in first

    # canonical output is a fixed point of check
    round_file = tmp_path / "canon.nea"
    round_file.write_text(first, encoding="utf-8")
    assert main(["check", str(round_file)]) == 0
    assert capsys.readouterr().out == first


def test_check_reports_position_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nea"
    bad.write_text("in_campus.\n+x : <- y.\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.nea:2:" in err


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.nea")]) == 2
    assert "check" in capsys.readouterr().err


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.nea"
    bad.write_bytes("caf\u00e9.\n".encode("latin-1"))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nea check: {bad}: ") and "utf-8" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# run


def test_run_builtin_scenario_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "mask", "--ticks", "12", "--out", str(out)]) == 0
    message = capsys.readouterr().out
    assert "12 ticks, 5 agents, seed 7" in message

    metrics = out / "metrics.csv"
    trace = out / "trace.txt"
    assert metrics.is_file() and trace.is_file()
    assert not list(out.glob("*.tmp")) and not list(out.glob(".*.tmp"))

    with metrics.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS
    assert len(rows) == 1 + 12 * 5

    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0].count("\t") == 3, "tick, agent, step, summary"


def test_run_structured_trace(tmp_path):
    out = tmp_path / "out"
    assert main(
        ["run", "mask", "--ticks", "3", "--out", str(out), "--trace-format", "structured"]
    ) == 0
    assert (out / "trace.jsonl").is_file()
    assert not (out / "trace.txt").exists()
    first = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()[0]
    assert '"meta"' in first


def test_run_unknown_scenario_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no scenario file or builtin" in capsys.readouterr().err


def test_run_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text('{"name": "x", "agents": []}', encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "declares no agents" in capsys.readouterr().err


def test_run_is_deterministic_on_disk(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "mask", "--ticks", "20", "--out", str(out)]) == 0
        outs.append(
            (
                (out / "metrics.csv").read_bytes(),
                (out / "trace.txt").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


#: sha256 of `nea run mask --ticks 300 --seed 7`, pinned so that a change
#: to the interpreter, the harness or the writers cannot move a byte unnoticed
ORACLE = {
    "text": {
        "metrics.csv": "28c8c53716abf0a76cf32cb5ee85de58a60b4f3c8ebc0f2cf9c92e1075f30b9d",
        "trace.txt": "8202499be16fdac116469468a69715da71f0981183ba9cef22b9612ad069306c",
    },
    "structured": {
        "metrics.csv": "28c8c53716abf0a76cf32cb5ee85de58a60b4f3c8ebc0f2cf9c92e1075f30b9d",
        "trace.jsonl": "37e2bd60b291cee25ead4d228f78f3cd32cdc3d097733aa25474d4051cda19f5",
    },
}


@pytest.mark.parametrize("trace_format", sorted(ORACLE))
def test_run_mask_oracle_digests(tmp_path, trace_format):
    out = tmp_path / "out"
    argv = ["run", "mask", "--ticks", "300", "--seed", "7", "--out", str(out)]
    assert main([*argv, "--trace-format", trace_format]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == ORACLE[trace_format]


@pytest.mark.parametrize("trace_format", ["text", "structured"])
def test_run_fault_leaves_no_outputs(tmp_path, monkeypatch, capsys, trace_format):
    inner = nea.cycle.step

    def faulty(agent, env):
        if env.tick == 5:
            raise InterpreterFault(agent.id, agent.s.value, "injected")
        return inner(agent, env)

    monkeypatch.setattr(nea.cycle, "step", faulty)
    out = tmp_path / "out"
    argv = ["run", "mask", "--ticks", "20", "--out", str(out), "--trace-format", trace_format]
    assert main(argv) == 1
    assert "interpreter fault" in capsys.readouterr().err
    assert list(out.glob("*")) == [], "no metrics.csv, no trace, no leftover .trace.*.tmp"


def test_run_fault_names_its_tick(tmp_path, monkeypatch, capsys):
    inner = nea.cycle.step

    def faulty(agent, env):
        if env.tick == 5 and agent.s is StepLabel.SelEv:
            raise InterpreterFault(agent.id, "SelEv", "injected")
        return inner(agent, env)

    monkeypatch.setattr(nea.cycle, "step", faulty)
    assert main(["run", "mask", "--ticks", "20", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "interpreter fault: [" in err and "@ SelEv] injected (tick 5)" in err


def test_run_unknown_recipient_faults(tmp_path, capsys):
    sender = "!go.\n+!go <- .sendMsg(nobody, hello)."
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"ticks": 5, "agents": [{"id": "a", "program": sender}, {"id": "b", "program": "idle."}]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "interpreter fault: [a @ ExecInt] message to unknown recipient 'nobody' (tick 0)" in err
    assert "Traceback" not in err
    assert list(out.glob("*")) == []


def test_run_streams_metrics_rows_tick_by_tick(tmp_path, monkeypatch):
    events: list[tuple] = []
    run_tick, write_metrics = nea.society.Society.run_tick, nea.cli.write_metrics

    def logged_tick(self, t, *rest):
        events.append(("tick", t))
        return run_tick(self, t, *rest)

    def logged_write(rows, fh):
        events.append(("rows", sorted({row[0] for row in rows})))
        write_metrics(rows, fh)

    monkeypatch.setattr(nea.society.Society, "run_tick", logged_tick)
    monkeypatch.setattr(nea.cli, "write_metrics", logged_write)
    assert main(["run", "mask", "--ticks", "3", "--out", str(tmp_path)]) == 0
    header = [("rows", ["tick"])]
    assert events == header + [e for t in range(3) for e in (("tick", t), ("rows", [t]))]


def test_run_malformed_norm_message_faults(tmp_path, capsys):
    sender = '!go.\n+!go <- .sendMsg(b, norm(obligation, "+x <- y.", 0, 1, "ALL", [0.1,0.1])).'
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"ticks": 5, "agents": [{"id": "a", "program": sender}, {"id": "b", "program": "idle."}]}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 1
    assert "interpreter fault: [b @ ProcMsg] bad norm message" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def mask_copy(tmp_path):
    target = tmp_path / "mask"
    shutil.copytree(builtin_scenario("mask").parent, target)
    return target


def test_run_agent_syntax_error_exits_2(tmp_path, capsys):
    scenario = mask_copy(tmp_path)
    student = scenario / "student.nea"
    student.write_text(student.read_text(encoding="utf-8") + "+broken <- .\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario / "scenario.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "agent 'student_a'" in err
    line = len(student.read_text(encoding="utf-8").splitlines())
    assert f": {line}:" in err
    assert not out.exists()


def test_run_short_reaction_pair_exits_2(tmp_path, capsys):
    scenario = mask_copy(tmp_path) / "scenario.json"
    spec = json.loads(scenario.read_text(encoding="utf-8"))
    spec["observation"]["reactions"]["comply"] = [0.6]
    scenario.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 2
    assert "observation.reactions.comply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda spec: spec["params"].update(delta="abc"), "params.delta"),
        (lambda spec: spec.update(ticks=-3), "ticks"),
        (lambda spec: spec["percepts"][0].pop("literal"), "percepts[0].literal"),
        (lambda spec: spec["percepts"][1].update(period="24"), "percepts[1].period"),
        # json.dumps writes these as NaN and Infinity, which json.loads accepts
        (lambda spec: spec["params"].update(decay_affect=float("nan")), "params.decay_affect"),
        (lambda spec: spec["observation"]["feedback"].update(pair=[0.1, float("inf")]), "observation.feedback.pair"),
        # an edit that returns a list of flags runs them over the unchanged file
        (lambda spec: ["--ticks", "-5"], "--ticks"),
        (lambda spec: ["--decay-affect", "nan"], "--decay-affect"),
        (lambda spec: ["--relevance-threshold", "inf"], "--relevance-threshold"),
        # Perceive would adopt it: a norm(...) percept must be a well-formed norm
        (lambda spec: spec["percepts"][1].update(literal='norm("obligation", "x")'), "percepts[1].literal"),
        (lambda spec: spec.update(name=5), "name"),
    ],
)
def test_run_malformed_field_exits_2(tmp_path, capsys, edit, key):
    scenario = mask_copy(tmp_path) / "scenario.json"
    spec = json.loads(scenario.read_text(encoding="utf-8"))
    flags = edit(spec)
    flags = flags if isinstance(flags, list) else []
    scenario.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err
    assert not out.exists()


# ----------------------------------------------------------------------
# seed precedence: --seed > NEA_SEED > scenario seed


def run_seed_message(tmp_path, capsys, extra=(), env_seed=None, monkeypatch=None):
    if env_seed is None:
        monkeypatch.delenv("NEA_SEED", raising=False)
    else:
        monkeypatch.setenv("NEA_SEED", env_seed)
    out = tmp_path / "seed_out"
    code = main(["run", "mask", "--ticks", "1", "--out", str(out), *extra])
    message = capsys.readouterr()
    return code, message.out + message.err


def test_seed_defaults_to_scenario(tmp_path, capsys, monkeypatch):
    code, message = run_seed_message(tmp_path, capsys, monkeypatch=monkeypatch)
    assert code == 0 and "seed 7" in message


def test_seed_env_overrides_scenario(tmp_path, capsys, monkeypatch):
    code, message = run_seed_message(tmp_path, capsys, env_seed="5", monkeypatch=monkeypatch)
    assert code == 0 and "seed 5" in message


def test_seed_flag_overrides_env(tmp_path, capsys, monkeypatch):
    code, message = run_seed_message(
        tmp_path, capsys, extra=("--seed", "9"), env_seed="5", monkeypatch=monkeypatch
    )
    assert code == 0 and "seed 9" in message


def test_seed_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    code, message = run_seed_message(tmp_path, capsys, env_seed="pony", monkeypatch=monkeypatch)
    assert code == 2 and "NEA_SEED" in message


# ----------------------------------------------------------------------
# sweep


def read_sweep(capsys) -> list[dict]:
    out = capsys.readouterr().out
    return list(csv.DictReader(out.splitlines()))


def test_sweep_pinned_grid_matches_calibration(capsys):
    assert (
        main(
            [
                "sweep",
                "--reb",
                "0.2,0.8",
                "--frac",
                "0.4",
                "--relevance",
                "4.0",
                "--relevance-weight",
                "0.0125",
                "--pre-appraisal",
                "0.3,0.1",
            ]
        )
        == 0
    )
    rows = read_sweep(capsys)
    assert len(rows) == 2
    by_reb = {row["reb"]: row for row in rows}
    assert by_reb["0.2"]["break_first"] == "false", "low rebelliousness complies"
    assert by_reb["0.8"]["break_first"] == "true", "high rebelliousness breaks"
    for row in rows:
        assert float(row["comply"]) == pytest.approx(
            (1 - float(row["reb"])) * 0.4 * (0.0 - 0.2) + 0.0125 * 4.0
        )
        assert float(row["break"]) == pytest.approx(
            float(row["reb"]) * 0.6 * 0.2 - 0.0125 * 4.0
        )


def test_sweep_empty_grid_is_header_only(capsys):
    assert main(["sweep", "--reb", ""]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["reb,frac,relevance,relevance_weight,comply,break,break_first"]


def test_sweep_default_grid_size(capsys):
    assert main(["sweep"]) == 0
    rows = read_sweep(capsys)
    assert len(rows) == 11 * 11 * 7 * 1


def test_sweep_writes_csv_file(tmp_path):
    target = tmp_path / "grid.csv"
    assert main(["sweep", "--reb", "0.5", "--frac", "0.5", "--relevance", "1.0", "--out", str(target)]) == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("reb,frac,")
    assert len(lines) == 2
    assert not list(tmp_path.glob(".*.tmp"))


@pytest.mark.parametrize("flag, value", [("--reb", "nan"), ("--frac", "0.5,inf"), ("--sigma", "0.1,-inf")])
def test_sweep_non_finite_flag_exits_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err and "Traceback" not in captured.err


def test_run_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep\n", encoding="utf-8")
    assert main(["run", "mask", "--ticks", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nea run: ") and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_sweep_out_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("keep\n", encoding="utf-8")
    assert main(["sweep", "--reb", "0.5", "--out", str(tmp_path / "taken" / "grid.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("nea sweep: ") and "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_outputs_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        assert main(["run", "mask", "--ticks", "3", "--out", str(tmp_path / "run")]) == 0
        assert main(["sweep", "--reb", "0.5", "--out", str(tmp_path / "grid.csv")]) == 0
    finally:
        os.umask(old)
    for path in (tmp_path / "run" / "metrics.csv", tmp_path / "run" / "trace.txt", tmp_path / "grid.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o640


# ----------------------------------------------------------------------
# entry points


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nea.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("nea ")
