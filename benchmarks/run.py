#!/usr/bin/env python3
"""Benchmark runner for the fedbalance simulator.

    python3 benchmarks/run.py --workload desk_mixup --seed 0 --seconds 40 --trace 0

One run is one sequential process. It imports fedbalance from this
checkout's `src/`, writes the workload's config file (derived from
`configs/desk_trends.cfg`, with the seed set in `[run]`), times the set-up
steps, then drives whole cells through `fedbalance.cli.main` one after
another until `--seconds` would be exceeded (always at least one cell).
Every cell's output files are hashed and checked against `golden.json`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
wraps every public function of the program's layers and prints the
per-layer metrics instead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A results file with the
environment, raw per-cell numbers and the full span table goes to
`.bench_out/results/`; a traced run also writes its spans to
`.bench_out/spans/<workload>.csv`. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASE_CONFIG = ROOT / "configs" / "desk_trends.cfg"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

# name -> (fedbalance subcommand, overrides of configs/desk_trends.cfg).
# balance_wide is not in BENCHMARK.json: its run_s spread too widely from run
# to run on a shared 2-core VM to be bounded (see README.md). It stays
# runnable for the balance-phase layer metrics.
WORKLOADS = {
    "desk_mixup": ("train", {}),
    "desk_natural": ("train", {"balance": {"mix_fraction": "0"}}),
    "balance_wide": ("balance", {"partition": {"classes_per_client": "3"},
                                 "balance": {"supplement_pct": "100"}}),
}
SETUP_REPEATS = 9

# Per-layer metrics computed from counters rather than span tables.
RATIOS = {"protocol.serve_bounty.useful_ratio": ("protocol.serve_bounty.useful",
                                                  "protocol.serve_bounty"),
          "mixing.kept_ratio": ("mixing.kept", "mixing.dp_labelhide")}
COUNTERS = ("protocol.requests", "protocol.messages_delivered",
            "training.samples", "serialization.output_bytes")
SPAN_FIELDS = {"calls": "calls", "s": "total_s", "self_s": "self_s"}


class ProgramMissing(RuntimeError):
    pass


def load_program() -> float:
    """Import fedbalance from this checkout; returns the import's seconds."""
    if not (SRC / "fedbalance" / "__init__.py").is_file():
        raise ProgramMissing(f"no fedbalance sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import fedbalance.cli  # noqa: F401  (imports every layer)
    elapsed = time.perf_counter() - started
    loaded = Path(sys.modules["fedbalance"].__file__).resolve().parent
    if loaded != SRC / "fedbalance":
        raise ProgramMissing(f"fedbalance was imported from {loaded}, not {SRC}")
    return elapsed


def write_config(workload: str, seed: int, path: Path, extra: dict | None = None) -> None:
    """The workload's config: the desk config, its overrides, and the seed."""
    if not BASE_CONFIG.is_file():
        raise ProgramMissing(f"missing {BASE_CONFIG}")
    parser = configparser.ConfigParser()
    parser.read(BASE_CONFIG)
    parser.remove_section("grid")
    _, overrides = WORKLOADS[workload]
    for layer in (overrides, extra or {}):
        for section, values in layer.items():
            parser[section].update(values)
    parser["run"]["seed"] = str(seed)
    with open(path, "w") as fh:
        parser.write(fh)


def measure_setup(cfg_path: Path, with_model: bool) -> float:
    """Seconds for config load, dataset load, partition and model init."""
    from fedbalance import datasets, experiments, training
    from fedbalance.seeding import derive_seed
    started = time.perf_counter()
    cfg = experiments.load_config(str(cfg_path))
    train, _, dims, num_classes = experiments.load_dataset(cfg)
    datasets.partition(train, experiments.build_partition_spec(cfg))
    if with_model:
        training.init_model(training.build_model(cfg.model, dims, num_classes),
                            derive_seed(cfg.seed, "model-init"))
    return time.perf_counter() - started


def file_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def digest_mismatches(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Names of output files that are missing, extra, or differ."""
    return sorted(name for name in set(actual) | set(expected)
                  if actual.get(name) != expected.get(name))


def _manifest_total(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(int(row["count"]) for row in csv.DictReader(fh))


def _final_acc(out_dir: Path) -> float | None:
    summary = out_dir / "summary.csv"
    if not summary.is_file():
        return None
    with open(summary, newline="") as fh:
        return float(next(csv.DictReader(fh))["final_accuracy"])


def run_cell(tr: tracing.Tracer, command: str, cfg_path: Path, out_dir: Path) -> dict:
    """One whole cell through the CLI; returns its raw measurements."""
    from fedbalance import cli
    shutil.rmtree(out_dir, ignore_errors=True)
    tr.counts.clear()
    first = len(tr.spans)
    cell: dict = {"ok": False}
    try:
        with tr.span("cell"), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        cell["error"] = "exception"
        return cell
    if rc != 0:
        cell["error"] = f"exit code {rc}"
        return cell
    spans = tr.spans[first:]
    table = tracing.layer_table(tr.spans, first, len(tr.spans))
    run_s = table["cell"]["total_s"]
    rounds = [end - start for _, name, start, end in spans
              if name == "training.run_round"]
    before = _manifest_total(out_dir / "partition_manifest.csv")
    balanced = out_dir / "balance_manifest.csv"
    after = _manifest_total(balanced) if balanced.is_file() else before
    cell.update(
        ok=True, run_s=run_s, pseudo_images=after - before,
        balance_s=table.get("experiments.balance_clients", {}).get("total_s", 0.0),
        round_s=rounds, train_samples=len(rounds) * after,
        uncovered_share=table["cell"]["self_s"] / run_s,
        final_acc=_final_acc(out_dir), digests=file_digests(out_dir),
        counts=dict(tr.counts), table=table)
    return cell


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at q = 0.8 of 50 values, ten lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(cells: list[dict], setups: list[float], import_s: float) -> dict:
    """Every end-to-end metric: (value, unit, sample count)."""
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s", len(setups)),
        "run_s": (statistics.median(c["run_s"] for c in cells), "s", len(cells)),
        "pseudo_images_per_s": (statistics.median(c["pseudo_images"] / c["balance_s"]
                                                  for c in cells), "1/s", len(cells)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }
    rounds = [r for c in cells for r in c["round_s"]]
    if rounds:
        metrics["train_samples_per_s"] = (
            statistics.median(c["train_samples"] / sum(c["round_s"]) for c in cells),
            "1/s", len(cells))
        metrics["round_s.p50"] = (percentile(rounds, 0.5), "s", len(rounds))
        metrics["round_s.p80"] = (percentile(rounds, 0.8), "s", len(rounds))
        metrics["final_acc"] = (cells[0]["final_acc"], "ratio", len(cells))
    return metrics


def layer_metric(name: str, cell: dict) -> float:
    table, counts = cell["table"], cell["counts"]
    if name in RATIOS:
        numerator, span = RATIOS[name]
        calls = table.get(span, {}).get("calls", 0)
        return counts.get(numerator, 0) / calls if calls else 0.0
    if name in COUNTERS:
        return counts.get(name, 0)
    if name == "trace.uncovered_share":
        return cell["uncovered_share"]
    span, _, field = name.rpartition(".")
    return table.get(span, {}).get(SPAN_FIELDS[field], 0 if field == "calls" else 0.0)


def per_layer(cells: list[dict], spec: list[dict]) -> dict:
    """Each per-layer metric of BENCHMARK.json, median over the run's cells."""
    return {m["name"]: (statistics.median(layer_metric(m["name"], c) for c in cells),
                        m["unit"], len(cells)) for m in spec}


def check_cells(cells: list[dict], workload: str, seed: int, env: dict,
                pinned_ok: bool = True) -> tuple[int, str]:
    """Count failed cells. A cell fails if it raised, exited non-zero, or its
    digests (or final accuracy) differ from the pinned ones; a seed with no
    pinned digests for this environment is checked for repeat agreement."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    pinned = pinned_ok and golden.get("workloads", {}).get(workload, {}).get(str(seed))
    pinned_env = golden.get("environment", {})
    if pinned and all(env.get(k) == v for k, v in pinned_env.items()):
        expected, how = pinned, "pinned"
    else:
        reference = next((c for c in cells if c["ok"]), None)
        expected = reference and {"files": reference["digests"],
                                  "final_acc": reference["final_acc"]}
        how = "repeat agreement (no pinned digests for this seed and environment)"
    failed = 0
    for cell in cells:
        if not cell["ok"]:
            failed += 1
            continue
        bad = digest_mismatches(cell["digests"], expected["files"])
        if cell["final_acc"] != expected["final_acc"]:
            bad.append("final_acc")
        if bad:
            cell["error"] = "mismatch: " + ", ".join(bad)
            print(f"digest check failed for {workload} seed {seed}: {cell['error']}",
                  file=sys.stderr)
            failed += 1
    return failed, how


def _openblas() -> tuple[int | None, str]:
    """Thread count and kernel core of numpy's bundled OpenBLAS, if found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if threads is not None and core is not None:
                    core.restype = ctypes.c_char_p
                    return threads(), core().decode()
    return None, "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads, core = _openblas()
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name, "blas_core": core,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "execution": "sequential: one process, one cell at a time"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 extra: dict | None = None, out_root: Path = OUT) -> dict:
    """Run one workload; returns the full report (see `report_lines`).

    `extra` overrides more config keys (the self-test shrinks the workload
    with it); such a run is only checked for repeat agreement.
    """
    import_s = load_program()
    command, _ = WORKLOADS[workload]
    spec = json.loads(SPEC.read_text())
    work = out_root / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "workload.cfg"
    write_config(workload, seed, cfg_path, extra)

    tr = tracing.Tracer()
    if trace:
        tr.install(hooks=tracing.HOOKS)
    else:
        tr.install(tracing.PHASES)
    cells = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            with tr.span("setup"):
                setups.append(measure_setup(cfg_path, command == "train"))
        started = time.perf_counter()
        while True:
            cell_started = time.perf_counter()
            cells.append(run_cell(tr, command, cfg_path, work / "out"))
            now = time.perf_counter()
            if now - started + (now - cell_started) > seconds:
                break
    finally:
        tr.restore()

    env = environment()
    failed, check = check_cells(cells, workload, seed, env, pinned_ok=not extra)
    good = [c for c in cells if c["ok"] and "error" not in c]
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": env, "digest_check": check,
              "attempted": len(cells), "failed": failed,
              "setup": {"import_s": import_s, "repeats_s": setups},
              "cells": [{k: v for k, v in c.items() if k != "table"} for c in cells],
              "metrics": {}, "printed": {}}
    if good:
        if trace:
            report["metrics"] = per_layer(good, spec["per_layer"])
            report["layer_table"] = good[0]["table"]
            report["trace_overhead_s"] = _trace_overhead(out_root, workload, seed, good)
            spans = statistics.median(sum(row["calls"] for row in c["table"].values())
                                      for c in good)
            report["trace_overhead_est_s"] = spans * tracing.span_cost()
        else:
            printed = end_to_end(good, setups, import_s)
            gated = {m["name"] for m in spec["end_to_end"]}
            report["metrics"] = {k: v for k, v in printed.items() if k in gated}
            report["printed"] = {k: v for k, v in printed.items() if k not in gated}
    if trace:
        spans_dir = out_root / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(str(spans_dir / f"{workload}.csv"),
                            f"{workload}-seed{seed}", tr.spans)
    return report


def _trace_overhead(out_root: Path, workload: str, seed: int,
                    cells: list[dict]) -> float | None:
    """Traced minus untraced run_s, against the untraced run of the same
    workload and seed in this checkout (None if there is none yet)."""
    path = out_root / "results" / f"{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        return None
    untraced = json.loads(path.read_text())["metrics"]["run_s"][0]
    return statistics.median(c["run_s"] for c in cells) - untraced


def report_lines(report: dict) -> list[str]:
    """Human-readable summary, then the one-line JSON result."""
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"trace {report['trace']}  cells {report['attempted']}  "
             f"failed {report['failed']}  check: {report['digest_check']}"]
    shown = {**report["metrics"], **report["printed"]}
    for name, (value, unit, n) in shown.items():
        lines.append(f"  {name:42s} {value:>16.6g} {unit:6s} (n={n})")
    if report["trace"]:
        overhead = report.get("trace_overhead_s")
        lines.append("  trace_overhead_s " + ("n/a (no untraced run of this seed yet)"
                                              if overhead is None else f"{overhead:.4f} s"))
        lines.append(f"  trace_overhead_est_s {report.get('trace_overhead_est_s', 0):.4f} s"
                     " (spans per cell x measured cost of one wrapper)")
    result = {"correct": report["failed"] == 0 and bool(report["metrics"]),
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in report["metrics"].items()}}
    lines.append(json.dumps(result))
    return lines


def pin(report: dict) -> None:
    """Record this run's digests and final accuracy as the golden ones."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    env = {k: report["environment"][k] for k in ("numpy", "blas_core")}
    if golden.setdefault("environment", env) != env:
        raise SystemExit(f"golden.json was pinned under {golden['environment']}, not {env}")
    cell = report["cells"][0]
    golden.setdefault("workloads", {}).setdefault(report["workload"], {})[
        str(report["seed"])] = {"final_acc": cell["final_acc"], "files": cell["digests"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests in golden.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, one after another.
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    if args.pin:
        if report["failed"]:
            print("refusing to pin a run with failed cells", file=sys.stderr)
            return 1
        pin(report)
    print("\n".join(report_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
