"""One `nea run` in a fresh, single-threaded process, timed from inside.

    python3 bench/child.py <src dir> <result.json> <traced 0|1> <nea run args...>

The untraced process puts one timer around `Society.run_tick`, the public
per-tick entry, and changes nothing else.  The traced process also installs
the per-layer wrappers of `tracer.py`.  Either way the process then calls
`nea.cli.main(["run", ...])` exactly as the `nea` command does, and writes
its timings to <result.json>.
"""

from __future__ import annotations

# Only what the interpreter has loaded anyway, so that set-up time includes
# every module `nea.cli` pulls in.
import sys
import time


def main() -> int:
    src, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    tracer = None
    if traced:
        import tracer as tracer_mod  # the benchmark's own module; imports no part of nea

        tracer = tracer_mod.Tracer()

    sys.path.insert(0, src)
    setup_start = time.perf_counter()
    import nea.cli

    import_s = time.perf_counter() - setup_start
    from nea.society import Society

    if tracer is not None:
        tracer.install()
    starts: list[float] = []
    ends: list[float] = []
    clock = time.perf_counter
    inner = Society.run_tick

    def run_tick(self, t, executor=None):
        starts.append(clock())
        try:
            return inner(self, t, executor)
        finally:
            ends.append(clock())

    Society.run_tick = run_tick

    code = nea.cli.main(argv)
    wall_s = time.perf_counter() - setup_start

    import json
    import resource
    from pathlib import Path

    if not Path(nea.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"nea was imported from {nea.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {
        "code": code,
        "import_s": import_s,
        "setup_s": starts[0] - setup_start if starts else None,
        "wall_s": wall_s,
        "loop_s": ends[-1] - starts[0] if starts else None,
        "tick_s": [e - s for s, e in zip(starts, ends)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.report(loop_s=result["loop_s"] or 0.0)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
