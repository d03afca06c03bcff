"""Command-line interface.

Subcommands:

* ``check``  — parse an agent file; print its canonical form.
* ``run``    — run a scenario; write metrics.csv and a trace file.
* ``sweep``  — tabulate the comply/break utilities over a parameter grid.

Exit codes: 0 success; 1 a run died on an interpreter fault; 2 bad usage,
unreadable or unparseable input, a malformed scenario, or an unwritable
``--out``.

The run seed is resolved in order: --seed flag, NEA_SEED environment
variable, the scenario file's seed, 0.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from io import TextIOBase  # not typing.TextIO: importing typing costs ~3 ms
from pathlib import Path

from . import __version__, builtin_scenario
from .core import scalar_mood
from .cycle import InterpreterFault
from .lang import LangError, parse_agent_program, render
from .norms import BREAK, UtilityInputs, anticipated_mood, choose_variant, compliance_utility
from .society import (
    METRICS_COLUMNS,
    PARAMS,
    ScenarioConfig,
    ScenarioError,
    Society,
    _number,
    _number_pair,
    _ticks,
    write_metrics,
    write_trace_meta,
    write_trace_structured,
    write_trace_text,
)


@contextmanager
def _atomic_file(path: Path) -> Iterator[TextIOBase]:
    """Yield a text file (UTF-8, ``newline=""``) that becomes *path* when
    the block ends; it is a sibling temp file, renamed onto *path* then, or
    deleted when the block raises, so readers never see a half-written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates 0600; give the file the mode open(path, "w") would
            umask = os.umask(0)
            os.umask(umask)
            tmp.chmod(0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# flag numbers follow the file's rule; argparse reports the ScenarioError (a
# ValueError) of a type function as an invalid flag value and exits 2


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated numbers")
    return _number_pair((float(parts[0]), float(parts[1])), "P,A")


def _float_list(text: str) -> list[float]:
    if text.strip() == "":
        return []
    return [_number(float(part), "list") for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nea",
        description="Normative-emotional agents: language checker, society runner, utility sweep.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse an agent file and print its canonical form")
    p_check.add_argument("file", help="agent program (.nea)")

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="builtin scenario name or path to a scenario.json")
    p_run.add_argument("--ticks", type=int, default=None, help="override the scenario tick count")
    p_run.add_argument("--seed", type=int, default=None, help="run seed (overrides NEA_SEED)")
    p_run.add_argument("--out", default="nea_out", help="output directory (default: nea_out)")
    p_run.add_argument(
        "--trace-format",
        choices=("text", "structured"),
        default="text",
        help="trace.txt (tab-separated) or trace.jsonl (default: text)",
    )
    # one override flag per run parameter, checked in cmd_run by the parameter's rule
    for name, (rule, _) in PARAMS.items():
        pair = rule is _number_pair
        p_run.add_argument(
            "--" + name.replace("_", "-"), type=_pair if pair else float, metavar="P,A" if pair else None,
            help=f"override the scenario's params.{name}",
        )

    p_sweep = sub.add_parser("sweep", help="tabulate comply/break utilities over a grid")
    p_sweep.add_argument("--reb", type=_float_list, default=None, help="rebelliousness values (comma list)")
    p_sweep.add_argument("--frac", type=_float_list, default=None, help="affected-fraction values")
    p_sweep.add_argument("--relevance", type=_float_list, default=None, help="norm relevance values")
    p_sweep.add_argument(
        "--relevance-weight", type=_float_list, default=None, help="relevance weight values"
    )
    p_sweep.add_argument("--sigma", type=_pair, default=(0.0, 0.0), metavar="P,A", help="current affective state")
    p_sweep.add_argument(
        "--pre-appraisal", type=_pair, default=(0.3, 0.1), metavar="P,A", help="norm pre-appraisal pair"
    )
    p_sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def cmd_check(args) -> int:
    path = Path(args.file)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the name
        print(f"nea check: {path}: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_agent_program(source)
    except LangError as exc:
        if exc.line is not None:
            print(f"{path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        else:
            print(f"{path}: {exc.message}", file=sys.stderr)
        return 2
    text = render(program)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def _resolve_scenario(arg: str) -> Path:
    candidate = Path(arg)
    if candidate.is_file():
        return candidate
    try:
        return builtin_scenario(arg)
    except FileNotFoundError as exc:
        raise ScenarioError(f"no scenario file or builtin named {arg!r}") from exc


def _resolve_seed(args, config: ScenarioConfig) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NEA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ScenarioError(f"NEA_SEED must be an integer, got {env!r}") from exc
    return config.seed


def cmd_run(args) -> int:
    try:
        config = ScenarioConfig.load(_resolve_scenario(args.scenario))
        # an override flag is held to the rule of the file field it replaces
        if args.ticks is not None:
            config.ticks = _ticks(args.ticks, "--ticks")
        for name, (rule, _) in PARAMS.items():
            value = getattr(args, name)
            if value is not None:
                config.params[name] = rule(value, "--" + name.replace("_", "-"))
        seed = _resolve_seed(args, config)
        society = Society(config, seed=seed)
    except (ScenarioError, LangError, OSError) as exc:
        print(f"nea run: {exc}", file=sys.stderr)
        return 2

    ticks = config.ticks
    out = Path(args.out)
    metrics_path = out / "metrics.csv"
    structured = args.trace_format == "structured"
    society.env.payloads = structured  # only trace.jsonl writes them
    trace_path = out / ("trace.jsonl" if structured else "trace.txt")
    write_trace = write_trace_structured if structured else write_trace_text
    templates: dict = {}  # the quiet-tick templates of this run's trace
    try:
        # both files stream into their temp files tick by tick and are
        # renamed into place only once the run has finished
        with _atomic_file(trace_path) as trace_fh, _atomic_file(metrics_path) as metrics_fh:

            def sink(entries, rows) -> None:
                write_trace(entries, trace_fh, templates)
                write_metrics(rows, metrics_fh)

            if structured:
                write_trace_meta(society.meta(ticks), trace_fh)
            write_metrics([METRICS_COLUMNS], metrics_fh)
            society.run(ticks=ticks, sink=sink)
    except InterpreterFault as exc:
        where = "" if exc.tick is None else f" (tick {exc.tick})"
        print(f"nea run: interpreter fault: {exc}{where}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unwritable --out
        print(f"nea run: {exc}", file=sys.stderr)
        return 2

    print(
        f"{config.name}: {ticks} ticks, {len(society.roster)} agents, seed {seed} "
        f"-> {metrics_path}, {trace_path}"
    )
    return 0


SWEEP_COLUMNS = ("reb", "frac", "relevance", "relevance_weight", "comply", "break", "break_first")

_DEFAULT_REB = [round(0.1 * i, 1) for i in range(11)]
_DEFAULT_FRAC = [round(0.1 * i, 1) for i in range(11)]
_DEFAULT_RELEVANCE = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
_DEFAULT_WEIGHT = [1.0]


def cmd_sweep(args) -> int:
    rebs = _DEFAULT_REB if args.reb is None else args.reb
    fracs = _DEFAULT_FRAC if args.frac is None else args.frac
    relevances = _DEFAULT_RELEVANCE if args.relevance is None else args.relevance
    weights = _DEFAULT_WEIGHT if args.relevance_weight is None else args.relevance_weight

    s = scalar_mood(args.sigma)
    s_new = anticipated_mood(args.sigma, args.pre_appraisal)

    rows = []
    for reb in rebs:
        for frac in fracs:
            for relevance in relevances:
                for weight in weights:
                    inputs = UtilityInputs(
                        reb=reb, frac_affected=frac, s=s, s_new=s_new, relevance=relevance
                    )
                    follow, breach = compliance_utility(inputs, relevance_weight=weight)
                    rows.append(
                        {
                            "reb": f"{reb:g}",
                            "frac": f"{frac:g}",
                            "relevance": f"{relevance:g}",
                            "relevance_weight": f"{weight:g}",
                            "comply": f"{follow:.6f}",
                            "break": f"{breach:.6f}",
                            "break_first": str(choose_variant(follow, breach) == BREAK).lower(),
                        }
                    )

    def write_rows(stream) -> None:
        writer = csv.DictWriter(stream, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    if args.out is None:
        write_rows(sys.stdout)
    else:
        try:
            with _atomic_file(Path(args.out)) as fh:
                write_rows(fh)
        except OSError as exc:  # an unwritable --out
            print(f"nea sweep: {exc}", file=sys.stderr)
            return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
