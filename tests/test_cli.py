"""CLI contract: exit codes, output files, seed precedence, sweep grids."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import shutil
import stat
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import nea.cli
import nea.cycle
import nea.society
from nea import builtin_scenario
from nea.cli import main
from nea.core import DECAY_STEP, StepLabel
from nea.cycle import EDGES, InterpreterFault, QuietTick, expand
from nea.society import METRICS_COLUMNS, PARAMS, ScenarioConfig, Society

from conftest import CORPUS_DIR
from test_cycle import SOCIETY_TICKS, crowd_config, draw_society


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


def test_check_number_too_large_for_a_float_exits_2(tmp_path, capsys):
    bad = tmp_path / "big.nea"
    bad.write_text('norms__: {\n  norm("obligation", "np__x:c", 1e400, 1, "ALL", [0.0,0.0])\n}.\n', encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"{bad}:2:33: number is too large for a float\n"


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


def _digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


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
    assert _digests(out) == ORACLE[trace_format]


def written_items(monkeypatch, writer: str, argv: list[str]) -> list:
    """The trace items ``nea.cli.<writer>`` receives while ``main(argv)`` runs."""
    items, inner = [], getattr(nea.cli, writer)

    def spy(trace, fh, templates):
        items.extend(trace)
        inner(trace, fh, templates)

    monkeypatch.setattr(nea.cli, writer, spy)
    assert main(argv) == 0
    return items


#: The payload keys of each step that has one, on a structured run.
PAYLOAD_KEYS = {
    "Perceive": {"new", "removed", "adopted"},
    "AffModB": {"added", "removed", "appraised"},
    "SelCs": {"revised"},
    DECAY_STEP: {"sigma", "relevance", "beliefs", "feedback"},
}


def test_only_structured_runs_build_payloads(tmp_path, monkeypatch):
    argv = ["run", "mask", "--ticks", "300", "--seed", "7", "--out"]
    items = written_items(monkeypatch, "write_trace_text", [*argv, str(tmp_path / "text")])
    assert any(type(item) is QuietTick for item in items)
    entries = [item.decay if type(item) is QuietTick else item for item in items]
    assert [e for e in entries if e.payload] == []

    items = written_items(
        monkeypatch, "write_trace_structured", [*argv, str(tmp_path / "jsonl"), "--trace-format", "structured"]
    )
    entries = expand(items)
    for entry in entries:
        keys = PAYLOAD_KEYS.get(entry.step, set(entry.payload))
        assert set(entry.payload) == keys, entry
    procmsg = [e.payload for e in entries if e.step == "ProcMsg" and e.summary != "idle"]
    assert procmsg and all("mid" in payload for payload in procmsg)
    assert any(e.payload.get("decisions") for e in entries if e.step == "SelAppl")


# each run parameter: its flag, the same value as the scenario's params write
# it, and the sha256s of `run mask --ticks 300 --seed 7` with that value
PARAMETER_PINS = {
    "delta": (
        ["--delta", "0.5"],
        0.5,
        "b77c63527c31a8721d4e80a6a54aac9de4394fb11d9285de8d8227b7349ef362",
        "5d3a8b6df95a56d849a28b9f11c7160e023fffbf5a76f8de4caf73df9e71f37a",
    ),
    "decay_affect": (
        ["--decay-affect", "0.1"],
        0.1,
        "15656198777fc8f7e2439575a7c86309655f98c3106bec0dcc307b6f3537f5a9",
        "47af910a569bf2ca97e0bf5dbbf3471358441c8b350c7afd988be4b0c9428ae6",
    ),
    "decay_relevance": (
        ["--decay-relevance", "0.2"],
        0.2,
        "a871b8a2bb72d7adf3a661074f9038903b45d7237ba3548e31ecff143badcbe4",
        "985c2462e30792bd97e49a465d050c29cb4b4cb9c2e343bdc71f28fa27bc8893",
    ),
    "relevance_threshold": (
        ["--relevance-threshold", "100"],
        100,
        "95ec09af11cfc4fd8b7bc0c56a86881b21360e0cfa6ba659985d57c6253914e4",
        "48e3b3de724a5ab1d82a3f11a4b5cdb67dabcbad38b2dd49a1e34860b755ed77",
    ),
    "relevance_weight": (
        ["--relevance-weight", "0.5"],
        0.5,
        "8c64efdcac1a1476c70732ff2bfebd3b3012fd3ad66ce8d0b476fef2c550a7f9",
        "78e33c10272cec71aedbb7c48f491cda8c39e7b90a5a53d0c27c04a15cd45df3",
    ),
    "deviation_threshold": (
        ["--deviation-threshold", "5,5"],
        [5, 5],
        "56399e810e850197a36bfac552ff0c17c1d1bf014e3a036c960e6fc9c50700e8",
        "ab4dbe421c43ff8910abd52419124164732b880586c814f4b5f53582f0fa74a6",
    ),
}


@pytest.mark.parametrize("name", list(PARAMETER_PINS))
def test_run_parameter_reaches_the_interpreter(tmp_path, name):
    flags, value, metrics, trace = PARAMETER_PINS[name]
    pinned = {"metrics.csv": metrics, "trace.txt": trace}
    run = ["--ticks", "300", "--seed", "7", "--out"]
    assert main(["run", "mask", *flags, *run, str(tmp_path / "by-flag")]) == 0
    assert _digests(tmp_path / "by-flag") == pinned
    scenario = mask_copy(tmp_path) / "scenario.json"
    spec = json.loads(scenario.read_text(encoding="utf-8"))
    spec["params"][name] = value
    scenario.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["run", str(scenario), *run, str(tmp_path / "by-file")]) == 0
    assert _digests(tmp_path / "by-file") == pinned


def test_each_parameter_has_one_pinned_flag(capsys):
    assert set(PARAMETER_PINS) == set(PARAMS)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    # the options list starts one line per flag; the usage lines wrap theirs
    flags = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
    for name in PARAMS:
        assert flags.count("--" + name.replace("_", "-")) == 1
    assert sorted(set(flags) - {"--ticks", "--seed", "--out", "--trace-format"}) == sorted(
        "--" + name.replace("_", "-") for name in PARAMS
    )


# ----------------------------------------------------------------------
# the three outputs of one run agree


def run_ticks(society: Society, ticks: int, mail=None):
    """Run *society* for *ticks*, delivering *mail* (tick -> [(recipient,
    message)]) before each tick; yields each tick's items and rows."""
    for t in range(ticks):
        for aid, message in (mail or {}).get(t, ()):
            society._deliver_copy(message, aid)
        yield society.run_tick(t)


def write_text(society: Society, ticks: int, mail=None) -> str:
    """``trace.txt`` of ``run_ticks``, written through the CLI's writer."""
    text, templates = io.StringIO(), {}
    for items, _ in run_ticks(society, ticks, mail):
        nea.cli.write_trace_text(items, text, templates)
    return text.getvalue()


def write_both_formats(society: Society, ticks: int, mail=None) -> tuple[str, str, str]:
    """``run_ticks``, every tick written through the CLI's writers in both
    trace formats at once; returns the texts of ``trace.txt``,
    ``trace.jsonl`` and ``metrics.csv``."""
    text, structured, metrics = io.StringIO(), io.StringIO(), io.StringIO(newline="")
    text_templates: dict = {}
    structured_templates: dict = {}
    nea.cli.write_trace_meta(society.meta(ticks), structured)
    nea.cli.write_metrics([METRICS_COLUMNS], metrics)
    for items, rows in run_ticks(society, ticks, mail):
        nea.cli.write_trace_text(items, text, text_templates)
        nea.cli.write_trace_structured(items, structured, structured_templates)
        nea.cli.write_metrics(rows, metrics)
    return text.getvalue(), structured.getvalue(), metrics.getvalue()


def assert_outputs_agree(text: str, structured: str, metrics: str) -> int:
    """Assert that one run's outputs agree, and return its agent-tick count:

    * ``trace.txt`` is ``trace.jsonl`` without the payloads, line for line;
    * the metrics rows follow ``meta.agents`` on every tick;
    * each agent-tick's records are one walk along ``EDGES`` from Perceive
      to AffModB, the affective pass and the decay entry;
    * a metrics row's ``pleasure`` and ``arousal`` are its decay payload's
      ``sigma`` to six places, and its ``relevance`` is the payload's
      ``relevance`` of its ``norm_id``.
    """
    meta, *records = (json.loads(line) for line in structured.split("\n")[:-1])
    lines = text.split("\n")
    assert lines.pop() == ""
    for line, r in zip(lines, records, strict=True):
        assert line == f"{r['tick']}\t{r['agent']}\t{r['step']}\t{r['summary']}"
    rows = list(csv.DictReader(io.StringIO(metrics, newline="")))
    order = [(int(row["tick"]), row["agent"]) for row in rows]
    assert order == [(t, aid) for t in range(meta["meta"]["ticks"]) for aid in meta["meta"]["agents"]]
    groups = [(key, list(group)) for key, group in itertools.groupby(records, lambda r: (r["tick"], r["agent"]))]
    assert [key for key, _ in groups] == order
    for row, (_, group) in zip(rows, groups):
        steps = [r["step"] for r in group]
        walk = steps[: steps.index(StepLabel.AffModB.value) + 1]
        assert walk[0] == StepLabel.Perceive.value
        assert all(StepLabel(b) in EDGES[StepLabel(a)] for a, b in zip(walk, walk[1:]))
        assert steps[len(walk) :] == ["Appr", "UpAs", "SelCs", "Cope", DECAY_STEP]
        decay = group[-1]["payload"]
        assert (row["pleasure"], row["arousal"]) == tuple(f"{v:.6f}" for v in decay["sigma"])
        if row["norm_id"]:
            assert row["relevance"] == f"{decay['relevance'][row['norm_id']]:.6f}"
        else:
            assert row["relevance"] == "" and decay["relevance"] == {}
    return len(rows)


@pytest.mark.parametrize(
    "config, ticks",
    [(lambda: ScenarioConfig.load(builtin_scenario("mask")), 300), (crowd_config, 120)],
    ids=["mask", "crowd"],
)
def test_outputs_agree(config, ticks):
    society = Society(config(), seed=7)
    assert assert_outputs_agree(*write_both_formats(society, ticks)) == ticks * len(society.roster)


# no shrink phase: shrinking a failing society took five minutes to report it
@settings(max_examples=15, deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_random_society_outputs_agree(data):
    """The outputs of a random society agree, and its text trace is the
    same bytes when the run builds no payloads, as a text run does."""
    society, mail = draw_society(data)
    again = Society(society.config, seed=society.seed)
    again.env.payloads = False
    text, structured, metrics = write_both_formats(society, SOCIETY_TICKS, mail)
    assert assert_outputs_agree(text, structured, metrics) == SOCIETY_TICKS * len(society.roster)
    assert write_text(again, SOCIETY_TICKS, mail) == text


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


def test_run_error_in_a_step_is_a_fault_not_a_traceback(tmp_path, monkeypatch, capsys):
    inner, failed = nea.cycle.step, []

    def faulty(agent, env):
        if env.tick == 5 and agent.s is StepLabel.SelEv:
            failed.append(agent.id)
            return 1 / 0
        return inner(agent, env)

    monkeypatch.setattr(nea.cycle, "step", faulty)
    out = tmp_path / "out"
    assert main(["run", "mask", "--ticks", "20", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"interpreter fault: [{failed[0]} @ SelEv] ZeroDivisionError: division by zero (tick 5)" in err
    assert "Traceback" not in err
    assert list(out.glob("*")) == []


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
        (lambda spec: spec["agents"][0].update(id="__observers__"), "agents[0].id"),
        # the feedback wire format carries bare names only
        (
            lambda spec: spec["observation"]["feedback"]["condition"].append("in_campus(1)"),
            "observation.feedback.condition[2]",
        ),
        # a watched literal must be one the public digest shows
        (
            lambda spec: spec["observation"]["feedback"]["condition"].insert(0, "hat_on"),
            "observation.feedback.condition[0]",
        ),
        # a decay rate must decay
        (lambda spec: ["--decay-affect", "3"], "--decay-affect"),
        (lambda spec: ["--decay-affect", "-1"], "--decay-affect"),
        (lambda spec: ["--decay-relevance", "-0.5"], "--decay-relevance"),
        (lambda spec: spec["params"].update(decay_affect=3), "params.decay_affect"),
        (lambda spec: spec["params"].update(decay_relevance=-0.5), "params.decay_relevance"),
        # a misspelt key is not ignored
        (lambda spec: spec.update(percept=spec.pop("percepts")), "percept"),
        (lambda spec: spec["observation"]["reactions"].update(brake=spec["observation"]["reactions"].pop("break")),
         "observation.reactions.brake"),
        # an id is one field of every trace line
        (lambda spec: spec["agents"][3].update(id="stu\tdent"), "agents[3].id"),
        # a pulse fires once or periodically, and never before tick 0
        (lambda spec: spec["percepts"][0].update(period=24), "percepts[0]"),
        (lambda spec: spec["percepts"][0].update(at=-3), "percepts[0].at"),
    ],
    ids=[
        "<lambda>-params.delta",
        "<lambda>-ticks",
        "<lambda>-percepts[0].literal",
        "<lambda>-percepts[1].period",
        "<lambda>-params.decay_affect",
        "<lambda>-observation.feedback.pair",
        "<lambda>---ticks",
        "<lambda>---decay-affect",
        "<lambda>---relevance-threshold",
        "<lambda>-percepts[1].literal",
        "<lambda>-name",
        "<lambda>-agents[0].id",
        "<lambda>-observation.feedback.condition[2]",
        "<lambda>-observation.feedback.condition[0]-not-public",
        "<lambda>---decay-affect-above-1",
        "<lambda>---decay-affect-negative",
        "<lambda>---decay-relevance-negative",
        "<lambda>-params.decay_affect-above-1",
        "<lambda>-params.decay_relevance-negative",
        "<lambda>-percept",
        "<lambda>-observation.reactions.brake",
        "<lambda>-agents[3].id-tab",
        "<lambda>-percepts[0]-at-and-period",
        "<lambda>-percepts[0].at-negative",
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


def test_package_entry_point_runs():
    """``python -m nea`` is the ``nea`` command."""
    proc = subprocess.run([sys.executable, "-m", "nea", "--version"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.strip().startswith("nea ")


@pytest.mark.parametrize(
    "command", [["sweep"], ["check", str(CORPUS_DIR / "professor_conformist.nea")]], ids=["sweep", "check"]
)
def test_closed_stdout_exits_141(command):
    """``nea sweep | head -n 1``: once the reader of stdout is gone the
    command stops with the status a shell gives SIGPIPE, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nea.cli", *command], stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (141, "")
