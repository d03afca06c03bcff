"""Fast tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, per_layer_unit  # noqa: E402

SRC = ROOT / "src"


def scenario_bytes(name: str, seed: int, where: Path) -> dict[str, bytes]:
    wl = workloads.generate(name, seed, SRC)
    args = repr(wl.run_args(Path("out"))).encode()
    wl.write(where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())} | {"run args": args}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic(name, tmp_path):
    first = scenario_bytes(name, 5, tmp_path / "a")
    assert first == scenario_bytes(name, 5, tmp_path / "b")
    if name != "mask-long":  # the oracle does not depend on the seed
        assert first != scenario_bytes(name, 6, tmp_path / "c")


@pytest.fixture(scope="module")
def mask_run(tmp_path_factory):
    """Outputs of a short mask-long run, made once."""
    from nea.cli import main

    wl = workloads.generate("mask-long", 1, SRC)
    wl.ticks = 300
    out = tmp_path_factory.mktemp("mask")
    assert main(wl.run_args(out)) == 0
    return wl, out


def corrupt_copy(src: Path, dst: Path, name: str, edit) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        text = p.read_text(encoding="utf-8")
        (dst / p.name).write_text(edit(text) if p.name == name else text, encoding="utf-8")
    return dst


def edit_metrics(text: str, edit_row) -> str:
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    for row in rows:
        edit_row(row)
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=checks.METRICS_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_checks_pass_on_real_outputs(mask_run):
    wl, out = mask_run
    checks.check_outputs(out, wl)


def test_checks_reject_an_edited_society_mood(mask_run, tmp_path):
    wl, out = mask_run

    def edit(row):
        if row["tick"] == "150":
            row["society_pleasure"] = f"{float(row['society_pleasure']) + 0.00001:.6f}"

    bad = corrupt_copy(out, tmp_path / "bad", "metrics.csv", lambda t: edit_metrics(t, edit))
    with pytest.raises(checks.CheckFailed, match="society_pleasure"):
        checks.check_outputs(bad, wl)


def test_checks_reject_a_dropped_trace_line(mask_run, tmp_path):
    wl, out = mask_run

    def drop(text):
        lines = text.splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("200\tprof_rebel\tSelCs"))
        return "".join(lines[:at] + lines[at + 1 :])

    bad = corrupt_copy(out, tmp_path / "bad", "trace.txt", drop)
    with pytest.raises(checks.CheckFailed, match="tick 200 prof_rebel"):
        checks.check_outputs(bad, wl)


def test_checks_reject_a_flipped_announcement(mask_run, tmp_path):
    wl, out = mask_run
    flipped = []

    def flip(row):
        if row["agent"] == "prof_conformist" and row["variant"] == "comply" and not flipped:
            row["variant"] = "break"
            flipped.append(row["tick"])

    bad = corrupt_copy(out, tmp_path / "bad", "metrics.csv", lambda t: edit_metrics(t, flip))
    assert flipped
    with pytest.raises(checks.CheckFailed, match="prof_conformist: 1 breaks"):
        checks.check_outputs(bad, wl)


def test_checks_reject_a_trace_without_exits(mask_run, tmp_path):
    wl, out = mask_run

    def rename(text):
        return text.replace("\tSelAppl\t+exit_classroom\n", "\tSelAppl\t+exit_classroom [x]\n")

    bad = corrupt_copy(out, tmp_path / "bad", "trace.txt", rename)
    with pytest.raises(checks.CheckFailed, match="prof_conformist: 0 exits"):
        checks.check_outputs(bad, wl)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    reported = set(tracer.Tracer().report(loop_s=1.0))
    reported |= {"runtime.import_s", "runtime.trace_overhead", "io.trace_bytes", "io.metrics_bytes"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
