"""Memory of one desk cell, phase by phase. A report only; it asserts nothing
and no test collects it. Linux only: it reads `/proc/<pid>/status`.

    PYTHONPATH=src python3 tests/rss_profile.py [--config configs/desk_trends.cfg]
        [--seed 0] [--mix-fraction F]

It first runs the set-up path that `benchmarks/run.py` times before any
cell (`measure_setup`: `load_dataset`, `partition`, `init_model`), whose
peak is the floor a cell's `peak_rss_mb` is measured against. Then it runs
the config's `train` cell (its [grid] axes ignored, `mix_fraction` replaced
when given; 0 is the benchmark's `desk_natural`) in this process, through
`experiments.run_experiment` into a temporary `--out`. The main process's
`VmRSS` (resident now) and `VmHWM` (its peak so far) are printed at the
start and after each step: the set-up's three, then the cell's training
split load (the test split is loaded before it), partition, balance, first
deal to the workers, last round and writes. Then each worker's `VmHWM`,
read while the workers are still alive. MB are MiB, as `ru_maxrss / 1024`
gives them in `benchmarks/run.py`.
"""

import argparse
import contextlib
import os
import tempfile
from dataclasses import replace
from unittest import mock

from fedbalance import datasets, experiments, training, workers
from fedbalance.seeding import derive_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def status_mb(pid="self") -> dict[str, float]:
    """{"VmRSS": MB, "VmHWM": MB} of a process, from its /proc status."""
    with open(f"/proc/{pid}/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "VmHWM")}


def report(phase: str) -> None:
    mb = status_mb()
    print(f"  {phase:<18} {mb['VmRSS']:7.1f} {mb['VmHWM']:7.1f}", flush=True)


def after(owner, name: str, phase: str, calls: int = 1):
    """A patch of `owner.name` that reports `phase` once its `calls`-th call
    returns."""
    real = getattr(owner, name)
    made = []

    def call(*args, **kwargs):
        out = real(*args, **kwargs)
        made.append(True)
        if len(made) == calls:
            report(phase)
        return out
    return mock.patch.object(owner, name, call)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=os.path.join(ROOT, "configs", "desk_trends.cfg"))
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--mix-fraction", type=float, default=None)
    args = parser.parse_args()
    cfg = experiments.load_config(args.config, args.seed)
    if args.mix_fraction is not None:
        cfg = replace(cfg, mix_fraction=args.mix_fraction)

    print(f"main process, MB       VmRSS   VmHWM   ({os.path.relpath(args.config)}, "
          f"seed {cfg.seed}, mix_fraction {cfg.mix_fraction})")
    report("start")
    train, _, dims, num_classes = experiments.load_dataset(cfg)
    report("set-up load")
    datasets.partition(train, experiments.build_partition_spec(cfg))
    report("set-up partition")
    training.init_model(training.build_model(cfg.model, dims, num_classes),
                        derive_seed(cfg.seed, "model-init"))
    report("set-up model")
    del train
    with contextlib.ExitStack() as patches, tempfile.TemporaryDirectory() as out:
        for owner, name, phase, calls in (
                (experiments, "load_train", "load", 1),
                (datasets, "partition", "partition", 1),
                (experiments, "balance_clients", "balance", 1),
                (workers.Pool, "deal", "first deal", 1),
                (experiments, "run_round", f"{cfg.rounds} rounds", cfg.rounds)):
            patches.enter_context(after(owner, name, phase, calls))
        experiments.run_experiment(cfg, os.path.join(out, "cell"))
        report("writes")
    print("workers, MB                    VmHWM")
    for k, proc in enumerate(workers.pool()._procs):
        print(f"  {f'worker {k} (pid {proc.pid})':<26} {status_mb(proc.pid)['VmHWM']:7.1f}")


if __name__ == "__main__":
    main()
