"""The worker processes that balance the clients and train each round: their
lifetime, how their failures reach the caller, what they are dealt, and
outputs that depend neither on the client order, nor on the number of
workers, nor on the BLAS thread count, nor on the hash seed."""

import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import child_env, toy_clients

from fedbalance import datasets, experiments, workers
from fedbalance.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from fedbalance.experiments import ExperimentConfig, run_experiment
from fedbalance.noisegen import DegenerateImage
from fedbalance.training import (NonFiniteGradient, TrainConfig, TrainingError,
                                 build_model, init_model, run_round)

ROOT = Path(__file__).resolve().parents[1]
TINY = ExperimentConfig(dataset="toy", toy_classes=4, toy_per_class=12,
                        toy_test_per_class=6, toy_dims=(8, 8, 1),
                        num_clients=4, classes_per_client=1, model="logreg",
                        rounds=2, batch_size=8, seed=0)
OUTPUTS = ("metrics.csv", "summary.csv", "model.ckpt", "partition_manifest.csv",
           "balance_manifest.csv", "trace.csv")
# TINY as a config file, balanced and with a CNN.
TINY_CNN_CONFIG = """\
[dataset]
kind = toy
toy_classes = 4
toy_per_class = 12
toy_test_per_class = 6
toy_dims = 8x8x1

[partition]
classes_per_client = 1
num_clients = 4

[balance]
supplement_pct = 50
mix_fraction = 0.5

[train]
model = cnn
rounds = 2
batch_size = 8
"""


def running(pid):
    """Whether `pid` is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_until_ended(pids, seconds=10.0):
    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


# Runs TINY in a fresh interpreter (or, as "balances", `fedbalance balance`
# on the config argv[2] into argv[3]), prints the pid of every worker it
# started, then ends as argv[1] says.
LIFETIME_SCRIPT = """
import os, subprocess, sys
from dataclasses import replace
from fedbalance import workers
from fedbalance.experiments import ExperimentConfig, run_experiment
from fedbalance.training import NonFiniteGradient
started = []
popen = subprocess.Popen
def recording_popen(*args, **kwargs):
    started.append(popen(*args, **kwargs))
    return started[-1]
workers.subprocess.Popen = recording_popen
cfg = ExperimentConfig(dataset="toy", toy_classes=4, toy_per_class=12,
                       toy_test_per_class=6, toy_dims=(8, 8, 1), num_clients=4,
                       classes_per_client=1, model="logreg", rounds=2, batch_size=8)
how = sys.argv[1]
if how == "raises":
    try:
        run_experiment(replace(cfg, lr=1e38))   # float32 parameters overflow
    except NonFiniteGradient:
        print("reaped", all(p.returncode is not None for p in started))
elif how == "balances":
    from fedbalance import cli
    assert cli.main(["balance", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
else:
    run_experiment(cfg)
print(" ".join(str(p.pid) for p in started), flush=True)
if how == "exits-abruptly":
    os._exit(0)   # no atexit handler runs: the workers see their stdin close
"""


@pytest.mark.parametrize("how", ["returns", "raises", "exits-abruptly", "balances"])
def test_no_worker_outlives_its_parent(how, tmp_path):
    # "balances" runs `fedbalance balance`, which starts the pool to balance.
    (tmp_path / "exp.cfg").write_text(TINY_CNN_CONFIG)
    out = subprocess.run([sys.executable, "-c", LIFETIME_SCRIPT, how,
                          str(tmp_path / "exp.cfg"), str(tmp_path / "out")],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    pids = [int(pid) for pid in lines[-1].split()]
    assert pids
    if how == "raises":
        assert lines[0] == "reaped True"
    assert wait_until_ended(pids) == []


def request_kinds(monkeypatch, run, *args):
    """The kinds of request each of the pool's calls sends while `run(*args)`
    runs."""
    pool = workers.pool()
    call = pool._call
    kinds = []

    def recording_call(requests):
        kinds.append({request[0] for request in requests.values()})
        return call(requests)

    monkeypatch.setattr(pool, "_call", recording_call)
    run(*args)
    return kinds


def test_a_run_deals_its_clients_once(monkeypatch):
    kinds = request_kinds(monkeypatch, run_experiment, replace(TINY, rounds=3))
    assert kinds == [{"deal"}] + [{"train"}, {"evaluate"}] * 3


def test_a_balanced_run_balances_once_before_the_deal(monkeypatch):
    kinds = request_kinds(monkeypatch, run_experiment,
                          replace(TINY, rounds=3, supplement_pct=50))
    assert kinds == [{"balance"}, {"deal"}] + [{"train"}, {"evaluate"}] * 3


def test_a_second_model_over_the_same_clients_is_not_dealt_again(monkeypatch):
    # What a worker is dealt does not depend on the model, so a round of
    # the MLP after one of the CNN trains on the arrays the CNN's deal sent.
    clients = toy_clients(3, 6, num_classes=3, dims=(6, 6, 1))
    test = (clients[0].pixels, clients[0].labels)
    cfg = TrainConfig(batch_size=8)
    cnn = init_model(build_model("cnn", (6, 6, 1), 3), 0)
    mlp = init_model(build_model("mlp", (6, 6, 1), 3), 0)
    second = []

    def two_models():
        run_round(cnn, clients, *test, cfg, 0)
        second.append(run_round(mlp, clients, *test, cfg, 0))

    kinds = request_kinds(monkeypatch, two_models)
    assert kinds == [{"deal"}] + [{"train"}, {"evaluate"}] * 2
    workers.pool().close()
    fresh = run_round(mlp, clients, *test, cfg, 0)
    assert second[0][0].flat.tobytes() == fresh[0].flat.tobytes()
    assert second[0][1] == fresh[1]


# desk_trends.cfg, shrunk to 1x1 images, whose noise backfill is constant.
DEGENERATE_BALANCE = """\
[dataset]
kind = toy
toy_classes = 10
toy_per_class = 20
toy_dims = 1x1x1

[partition]
num_clients = 10

[balance]
supplement_pct = 10
mix_fraction = 0

[train]
model = logreg
"""


def test_a_balance_error_in_a_worker_reaches_the_caller_as_its_own_type(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(DEGENERATE_BALANCE)
    cfg = experiments.load_config(str(path))
    train, dims, _ = experiments.load_train(cfg)
    clients = datasets.partition(train, experiments.build_partition_spec(cfg))
    with pytest.raises(DegenerateImage, match="constant image twice in a row"):
        experiments.balance_clients(clients, cfg, dims)
    assert workers.pool()._procs == []
    assert main(["balance", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert "generator produced a constant image twice in a row" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()   # no manifest is written before the balance
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "train")]) \
        == EXIT_CONFIG
    assert "generator produced a constant image twice in a row" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


def test_partition_writes_the_balance_s_partition_manifest_and_starts_no_worker(tmp_path):
    config = tmp_path / "cell.cfg"
    config.write_text(TINY_CNN_CONFIG)   # supplement_pct = 50
    degenerate = tmp_path / "degenerate.cfg"
    degenerate.write_text(DEGENERATE_BALANCE)
    assert main(["balance", "--config", str(config), "--out", str(tmp_path / "b")]) == EXIT_OK
    workers.pool().close()
    assert main(["partition", "--config", str(config), "--out", str(tmp_path / "p")]) == EXIT_OK
    assert [p.name for p in (tmp_path / "p").iterdir()] == ["partition_manifest.csv"]
    assert ((tmp_path / "p" / "partition_manifest.csv").read_bytes()
            == (tmp_path / "b" / "partition_manifest.csv").read_bytes())
    # A balance of this config fails in the workers; its partition needs none.
    assert main(["partition", "--config", str(degenerate), "--out", str(tmp_path / "d")]) \
        == EXIT_OK
    assert workers.pool()._procs == []


def test_an_allocation_a_worker_is_refused_exits_2(tmp_path, capsys):
    # Each noise block would be (images, 8, 10**7, 10**7) float64, petabytes
    # past any address space, so numpy refuses it without touching memory.
    # It used to end in a MemoryError traceback (exit 1).
    path = tmp_path / "exp.cfg"
    path.write_text(DEGENERATE_BALANCE.replace("toy_dims = 1x1x1", "toy_dims = 8x8x1")
                    + "\n[noise]\nbase_resolution = 10000000\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: Unable to allocate ")
    assert workers.pool()._procs == []


def test_a_noise_block_past_numpy_s_array_limit_exits_2(tmp_path, capsys):
    # At 10**10 a block's byte count passes intp, where numpy raises
    # ValueError ("array is too big") rather than MemoryError. It used to
    # end in a traceback (exit 1) and leave the partition manifest.
    path = tmp_path / "exp.cfg"
    path.write_text(DEGENERATE_BALANCE.replace("toy_dims = 1x1x1", "toy_dims = 8x8x1")
                    + "\n[noise]\nbase_resolution = 10000000000\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: a block of ") and "more than numpy can index" in err
    assert workers.pool()._procs == []
    assert not out.exists()


def test_importing_the_cli_loads_neither_the_pool_nor_subprocess():
    # benchmarks/run.py times `import fedbalance.cli` as part of setup_s;
    # the pool's modules load when a cell first balances or trains.
    out = subprocess.run([sys.executable, "-c", "import sys, fedbalance.cli; print(sorted("
                          "{'fedbalance.workers', 'subprocess'} & set(sys.modules)))"],
                         env=child_env(), capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout == "[]\n"


def test_a_client_changed_between_rounds_is_dealt_again():
    # `add` keeps the client object and rebinds its arrays: a pool that only
    # compared client objects would train round 1 on the rows dealt before.
    clients = toy_clients(3, 6, num_classes=3, dims=(6, 6, 1))
    extra = toy_clients(1, 2, num_classes=3, dims=(6, 6, 1), seed=1)[0]
    test = (clients[0].pixels, clients[0].labels)
    cfg = TrainConfig(batch_size=8)
    params = init_model(build_model("cnn", (6, 6, 1), 3), 0)
    params, _ = run_round(params, clients, *test, cfg, 0)
    clients[1].add(extra.pixels, extra.labels, extra.provenance)
    after_add = run_round(params, clients, *test, cfg, 1)
    workers.pool().close()
    fresh = run_round(params, clients, *test, cfg, 1)
    assert after_add[0].flat.tobytes() == fresh[0].flat.tobytes()
    assert after_add[1] == fresh[1]


def test_non_finite_gradient_in_a_worker_reaches_the_caller():
    clients = toy_clients(3, 6, num_classes=3, dims=(4, 4, 1))
    clients[1].pixels[0, 0, 0, 0] = np.nan
    params = init_model(build_model("logreg", (4, 4, 1), 3), 0)
    cfg = TrainConfig(batch_size=8)
    with pytest.raises(NonFiniteGradient, match="^gradient contains NaN or Inf$"):
        run_round(params, clients, clients[0].pixels, clients[0].labels, cfg, 0)
    assert workers.pool()._procs == []
    clients[1].pixels[0, 0, 0, 0] = 0.0
    run_round(params, clients, clients[0].pixels, clients[0].labels, cfg, 0)


def test_a_diverging_train_prints_one_line_and_writes_nothing(tmp_path):
    # In a child Python, whose stderr is also its workers': each used to
    # print numpy's overflow warnings before the error line, and the
    # manifests and the trace were written before the rounds ran.
    text = (ROOT / "configs" / "quick_toy.cfg").read_text()
    assert "model = cnn" in text and "rounds = 15" in text
    config = tmp_path / "diverging.cfg"
    config.write_text(text.replace("model = cnn", "model = logreg")
                      .replace("rounds = 15", "rounds = 3\nlr = 1e38"))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "fedbalance.cli", "train", "--config",
                          str(config), "--out", str(out)],
                         env=child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.splitlines() == ["config error: gradient contains NaN or Inf"]
    assert not out.exists()


def test_a_dead_worker_ends_the_round_with_an_error_naming_it():
    clients = toy_clients(3, 6, num_classes=3, dims=(4, 4, 1))
    params = init_model(build_model("logreg", (4, 4, 1), 3), 0)
    cfg = TrainConfig(batch_size=8)
    run_round(params, clients, clients[0].pixels, clients[0].labels, cfg, 0)
    victim = workers.pool()._procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=10)
    with pytest.raises(TrainingError, match=rf"^training worker 0 \(pid {victim.pid}\) died"):
        run_round(params, clients, clients[0].pixels, clients[0].labels, cfg, 1)
    assert workers.pool()._procs == []
    run_round(params, clients, clients[0].pixels, clients[0].labels, cfg, 1)


# `fedbalance train` on the config argv[1] into argv[2], with worker 0
# killed just before the first train request; prints the pid of every worker
# it started and exits with the command's code.
DEAD_WORKER_SCRIPT = """
import os, signal, subprocess, sys
from fedbalance import cli, workers
started = []
popen = subprocess.Popen
def recording_popen(*args, **kwargs):
    started.append(popen(*args, **kwargs))
    return started[-1]
workers.subprocess.Popen = recording_popen
train = workers.Pool.train
def killing_train(self, *args):
    victim = self._procs[0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    workers.Pool.train = train
    return train(self, *args)
workers.Pool.train = killing_train
code = cli.main(["train", "--config", sys.argv[1], "--out", sys.argv[2]])
print(" ".join(str(p.pid) for p in started), flush=True)
sys.exit(code)
"""


def test_a_dead_worker_ends_train_with_one_io_error_line(tmp_path):
    # It used to end in a TrainingError traceback (exit 1).
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-c", DEAD_WORKER_SCRIPT,
                          str(ROOT / "configs" / "quick_toy.cfg"), str(out)],
                         env=child_env(), capture_output=True, text=True, timeout=300)
    pids = [int(pid) for pid in run.stdout.split()]
    assert run.returncode == EXIT_IO, run.stderr
    assert run.stderr.splitlines() == [
        f"i/o error: training worker 0 (pid {pids[0]}) died: exit code -9"]
    assert not out.exists()
    assert wait_until_ended(pids) == []


@pytest.mark.parametrize("participation", [1.0, 0.5])
def test_a_reversed_client_list_writes_the_same_bytes(tmp_path, monkeypatch, participation):
    cfg = replace(TINY, supplement_pct=50, mix_fraction=0.5,
                  participation_fraction=participation)
    run_experiment(cfg, str(tmp_path / "in-order"))
    in_order_round = experiments.run_round

    def reversed_round(params, clients, *args):
        return in_order_round(params, clients[::-1], *args)

    monkeypatch.setattr(experiments, "run_round", reversed_round)
    run_experiment(cfg, str(tmp_path / "reversed"))
    for name in OUTPUTS:
        assert ((tmp_path / "in-order" / name).read_bytes()
                == (tmp_path / "reversed" / name).read_bytes()), name


def test_the_number_of_workers_changes_no_byte(tmp_path, monkeypatch):
    # Two of the four clients train each round and the 24 test images make
    # one evaluation chunk, so at two and three workers some worker trains
    # no client in a round and one or two evaluate nothing.
    config = tmp_path / "cell.cfg"
    config.write_text(TINY_CNN_CONFIG)
    cfg = replace(experiments.load_config(str(config)), participation_fraction=0.5)
    outputs = []
    for n in (1, 2, 3):
        monkeypatch.setattr(workers, "_usable_cores", lambda: n)
        run_experiment(cfg, str(tmp_path / f"workers-{n}"))
        outputs.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / f"workers-{n}").iterdir())})
    assert len(workers.pool()._procs) <= 3
    assert set(outputs[0]) == set(OUTPUTS)
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_cell_after_others_in_one_process_matches_a_fresh_process(tmp_path):
    # In one process the last cell reuses the worker pool, re-dealt after a
    # cell of another model, and finds `_pool_rows`'s cache warm from a CNN
    # cell of another seed; a fresh `fedbalance train` has neither.
    config = tmp_path / "cell.cfg"
    config.write_text(TINY_CNN_CONFIG)
    cfg = experiments.load_config(str(config))
    run_experiment(replace(cfg, seed=1), str(tmp_path / "cnn-seed-1"))
    run_experiment(replace(cfg, model="logreg"), str(tmp_path / "logreg"))
    run_experiment(cfg, str(tmp_path / "warm"))
    subprocess.run([sys.executable, "-m", "fedbalance.cli", "train", "--config",
                    str(config), "--out", str(tmp_path / "fresh")],
                   env=child_env(), check=True, capture_output=True, timeout=300)
    for name in OUTPUTS:
        assert ((tmp_path / "warm" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name


def test_fedavg_sums_in_client_id_order():
    # Ten clients of uneven sizes: adding their float64 shares in another
    # order changes some float32 parameters.
    clients = toy_clients(10, 7, num_classes=5)
    params = init_model(build_model("mlp", (6, 6, 1), 5), 4)
    cfg = TrainConfig(batch_size=4, seed=9)
    rounds = [run_round(params, order, clients[0].pixels, clients[0].labels, cfg, 3)
              for order in (clients, clients[::-1], clients[3:] + clients[:3])]
    assert len({r[0].flat.tobytes() for r in rounds}) == 1
    assert len({r[1] for r in rounds}) == 1


def _quick_toy_digests(out, **settings):
    """{file name: SHA-256} of a `quick_toy` cell run in a child Python."""
    subprocess.run([sys.executable, "-m", "fedbalance.cli", "train", "--config",
                    str(ROOT / "configs" / "quick_toy.cfg"), "--out", str(out)],
                   env=child_env(**settings), check=True, capture_output=True, timeout=300)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.slow
def test_quick_toy_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    digests = [_quick_toy_digests(tmp_path / f"threads-{threads}",
                                  OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert set(digests[0]) == set(OUTPUTS)
    assert digests[0] == digests[1]


@pytest.mark.slow
def test_quick_toy_writes_the_same_bytes_at_any_hash_seed(tmp_path):
    # str hashes, and so set and dict-of-str iteration orders, change with
    # PYTHONHASHSEED; no output may.
    digests = [_quick_toy_digests(tmp_path / f"hash-seed-{seed}", PYTHONHASHSEED=seed)
               for seed in ("0", "1", "2")]
    assert set(digests[0]) == set(OUTPUTS)
    assert digests[0] == digests[1] == digests[2]
