"""Which lines of `src/fedbalance` tier-1 and the benchmark workloads run.
A report only; it asserts nothing and no test collects it.

    python3 tests/line_coverage.py [-- pytest arguments, default: the tier-1 run's]

It writes a temporary `sitecustomize.py` that records, through
`sys.settrace`, each line of `src/fedbalance` a process runs, and saves them
when the process exits. Its directory goes first on `PYTHONPATH`, so every
Python the runs start records too: the worker processes and the tests'
child interpreters. It then runs the tier-1 tests (`pytest -q
--continue-on-collection-errors`, or the arguments given) and
`benchmarks/run.py --seconds 0 --trace 0` on each of the three workloads,
and prints, per module, the traced lines (those that can run: a `def` line
cannot), how many of them the tests run, how many the workloads run, and
how many neither runs; then the line numbers neither runs.

A process that never exits normally reports nothing: a worker the pool
SIGKILLs (`Pool.close(kill=True)`, after any failed request) and a child
that ends with `os._exit`. So a line that only such a process runs counts
as run by neither. The tracing slows the tests several times over.
"""

import argparse
import dis
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedbalance"
WORKLOADS = ("desk_mixup", "desk_natural", "balance_wide")

# Records (file, line) for every file under `package`; each process writes
# its lines to a file of its own under `out` when it exits.
SITECUSTOMIZE = """
import atexit, os, sys
_PACKAGE, _OUT = {package!r} + os.sep, {out!r}
_seen, _ours = set(), {{}}


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.abspath(name).startswith(_PACKAGE)
    return _local if _ours[name] else None


def _local(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _save():
    sys.settrace(None)
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{id(_seen)}}.lines")
    with open(path, "w") as fh:
        fh.writelines(f"{{os.path.abspath(n)}}:{{line}}\\n" for n, line in _seen)


sys.settrace(_global)
atexit.register(_save)
"""


def traced_lines(path: Path) -> set[int]:
    """The lines of `path` a line event can fire on: those holding an
    instruction past their code object's RESUME."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        resume = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
        lines |= {line for start, _, line in code.co_lines()
                  if line is not None and start > resume}
    return lines


def run_traced(command: list[str], work: Path, name: str) -> dict[str, set[int]]:
    """{module file: lines run} over every Python process `command` starts."""
    site, out = work / f"{name}-site", work / f"{name}-lines"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out)))
    paths = [str(site), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest's count of passed tests, or run.py's digest check
    summary = [line for line in done.stdout.splitlines() if "passed" in line or "check:" in line]
    print(f"{name}: exit {done.returncode}; {(summary or [''])[-1]}", flush=True)
    run: dict[str, set[int]] = {}
    for report in out.iterdir():
        for entry in report.read_text().splitlines():
            file, line = entry.rsplit(":", 1)
            run.setdefault(file, set()).add(int(line))
    return run


def ranges(lines: list[int]) -> str:
    """1,2,3,7 as "1-3,7"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*",
                        default=["-q", "--continue-on-collection-errors"],
                        help="arguments for `python -m pytest` (default: the tier-1 run)")
    args = parser.parse_args()
    work = Path(tempfile.mkdtemp(prefix="line-coverage-"))
    try:
        tests = run_traced([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                            *args.pytest_args], work, "tests")
        workloads: dict[str, set[int]] = {}
        for workload in WORKLOADS:
            for file, lines in run_traced(
                    [sys.executable, "benchmarks/run.py", "--workload", workload,
                     "--seconds", "0", "--trace", "0"], work, workload).items():
                workloads.setdefault(file, set()).update(lines)
    finally:
        shutil.rmtree(work)

    print(f"\n{'module':<20}{'traced':>8}{'tests':>8}{'workloads':>11}{'neither':>9}")
    totals = [0, 0, 0, 0]
    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        traced = traced_lines(path)
        by_tests = tests.get(str(path), set()) & traced
        by_workloads = workloads.get(str(path), set()) & traced
        unrun[path.name] = sorted(traced - by_tests - by_workloads)
        counts = [len(traced), len(by_tests), len(by_workloads), len(unrun[path.name])]
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<20}{counts[0]:>8}{counts[1]:>8}{counts[2]:>11}{counts[3]:>9}")
    print(f"{'total':<20}{totals[0]:>8}{totals[1]:>8}{totals[2]:>11}{totals[3]:>9}")
    print("\nlines neither runs")
    for name, lines in unrun.items():
        if lines:
            print(f"  {name:<18}{ranges(lines)}")


if __name__ == "__main__":
    main()
