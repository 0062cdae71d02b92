"""Worker processes that balance the clients and run each round's local
training and evaluation.

A cell's clients balance, and each round's clients train, in a few worker
processes, one per usable core (capped by the number of clients), each
running numpy with one BLAS thread. Each worker is `python -c` running
`serve()`; it reads pickled `(kind, *args)` requests from its stdin and
writes one pickled `(status, value)` reply per request to its stdout.
`Pool.balance` sends every worker the pre-balance snapshots and a share of
the clients to balance, and returns the rows and trace records each client
gained. `Pool.deal` sends each worker its clients as they are and a slice
of the unscaled test set; a worker divides those pixels by 255 once and
keeps only the scaled arrays. What is dealt does not depend on the model.
Until the clients, the arrays they hold or the test set change, a round
sends only the global parameters and the participants' ids, and each
worker trains the participants it holds and evaluates its slice. The
parent draws participants, averages and writes every file, in client-id
order, so no output depends on how clients are dealt or on the order in
which workers reply.

A worker answers its requests with numpy's overflow, invalid and divide
warnings off: a diverging run reports itself once, as the
`NonFiniteGradient` or `NonFiniteParam` that training's checks raise.

The pool starts lazily, once per process, and is reused across runs. Any
failure closes it, and the next request starts a new one. A worker exits
when its stdin closes, so none outlives the parent.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import subprocess
import sys
import weakref

import numpy as np

from . import experiments, training
from .datasets import ClientDataset
from .seeding import rng_for
from .training import ModelParams, TrainConfig, TrainingError, WorkerDied

_ENV = {
    # The workers fill the cores, so each runs one BLAS thread; no BLAS
    # thread then spins while its process waits.
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # The thresholds glibc adopts once a process frees a 16 MB block. At its
    # 128 KB start-up default a fresh worker would map and unmap every
    # ~460 KB step array, at seconds of page faults per desk cell.
    "MALLOC_MMAP_THRESHOLD_": "16777216", "MALLOC_TRIM_THRESHOLD_": "33554432",
}
_COMMAND = "from fedbalance.workers import serve; serve()"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not on Linux
        return os.cpu_count() or 1


class Pool:
    """The worker processes of one parent, and what each was dealt."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        self._dealt: list[weakref.ref] = []   # each client, its arrays, the test set
        self._in_use = 0                      # how many workers they were dealt to

    def _grow(self, n: int) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, **_ENV, "PYTHONPATH": os.pathsep.join(
            [root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        while len(self._procs) < n:
            self._procs.append(subprocess.Popen(
                [sys.executable, "-c", _COMMAND], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))

    def _share_out(self, sizes: dict[int, int]) -> list[list[int]]:
        """One list of ids per worker in use, largest size first, each to
        the worker with the least so far; starts the workers it needs."""
        n = max(1, min(_usable_cores(), len(sizes)))
        self._grow(n)
        shares: list[list[int]] = [[] for _ in range(n)]
        loads = [0] * n
        for cid in sorted(sizes, key=lambda c: (-sizes[c], c)):
            k = loads.index(min(loads))
            shares[k].append(cid)
            loads[k] += sizes[cid]
        return shares

    def balance(self, snapshots: dict[int, ClientDataset],
                plans: dict[int, list[tuple[int, int]]],
                cfg: experiments.ExperimentConfig,
                dims: tuple[int, int, int]) -> dict[int, tuple]:
        """{client id: (pixels, labels, provenance, trace records)} that
        balancing each client of `plans` (id -> deficits) against the
        pre-balance `snapshots` adds; see `experiments.balance_share`."""
        shares = self._share_out({cid: sum(n for _, n in deficits)
                                  for cid, deficits in plans.items()})
        replies = self._call({k: ("balance", snapshots, {cid: plans[cid] for cid in ids},
                                  cfg, dims)
                              for k, ids in enumerate(shares) if ids})
        return {cid: added for reply in replies.values() for cid, added in reply.items()}

    def deal(self, clients: list[ClientDataset], test_pixels: np.ndarray,
             test_labels: np.ndarray) -> None:
        """Give each worker its clients and its evaluation chunks, unless
        these very clients, holding these very arrays, and test arrays were
        dealt last."""
        dealt = [obj for c in clients for obj in (c, c.pixels, c.labels)]
        dealt += [test_pixels, test_labels]
        if (len(dealt) == len(self._dealt)
                and all(ref() is obj for ref, obj in zip(self._dealt, dealt))):
            return
        shares = self._share_out({c.client_id: len(c) for c in clients})
        n = len(shares)
        by_id = {c.client_id: c for c in clients}
        # Whole evaluation chunks, in order, split across the same workers, so
        # the chunks `count_correct` cuts a worker's slice into are these.
        bounds = training._chunk_bounds(len(test_labels), training.EVAL_CHUNK)
        chunks = len(bounds) - 1
        requests = {}
        for k in range(len(self._procs)):
            share = [by_id[cid] for cid in shares[k]] if k < n else []
            first, last = (k * chunks // n, (k + 1) * chunks // n) if k < n else (0, 0)
            lo, hi = bounds[first], bounds[last]
            requests[k] = ("deal", share, (test_pixels[lo:hi], test_labels[lo:hi]))
        self._call(requests)
        self._dealt = [weakref.ref(obj) for obj in dealt]
        self._in_use = n

    def train(self, params: ModelParams, cfg: TrainConfig, round_index: int,
              client_ids: list[int]) -> dict[int, tuple[np.ndarray, float]]:
        """{client id: (trained flat parameters, mean loss)} for one round."""
        replies = self._call({k: ("train", params, cfg, round_index, client_ids)
                              for k in range(self._in_use)})
        return {cid: (flat, loss) for reply in replies.values()
                for cid, flat, loss in reply}

    def count_correct(self, params: ModelParams) -> int:
        """Correct top-1 predictions over the whole dealt test set."""
        return sum(self._call({k: ("evaluate", params)
                               for k in range(self._in_use)}).values())

    def _call(self, requests: dict[int, tuple]) -> dict[int, object]:
        """Send every request, then collect every reply. Any failure closes
        the pool: a worker's own exception is raised as it was, and a worker
        that died raises WorkerDied."""
        k = None
        replies = {}
        try:
            for k, request in requests.items():
                stdin = self._procs[k].stdin
                pickle.dump(request, stdin, protocol=pickle.HIGHEST_PROTOCOL)
                stdin.flush()
            for k in requests:
                replies[k] = pickle.load(self._procs[k].stdout)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            proc = self._procs[k]
            self.close(kill=True)
            raise WorkerDied(f"training worker {k} (pid {proc.pid}) died: "
                             f"exit code {proc.returncode}") from exc
        except BaseException:
            self.close(kill=True)
            raise
        errors = [value for status, value in replies.values() if status == "error"]
        if errors:
            self.close(kill=True)
            raise errors[0]
        return {k: value for k, (_, value) in replies.items()}

    def close(self, kill: bool = False) -> None:
        """Stop every worker and wait for it: an idle worker exits when its
        stdin closes, and `kill` also stops busy ones."""
        procs, self._procs, self._dealt, self._in_use = self._procs, [], [], 0
        for proc in procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
            if kill:
                proc.kill()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


_POOL: Pool | None = None


def pool() -> Pool:
    """This process's pool, made on first use and closed at exit."""
    global _POOL
    if _POOL is None:
        _POOL = Pool()
        atexit.register(_POOL.close)
    return _POOL


def serve() -> None:
    """A worker's loop: answer requests until stdin closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles Ctrl-C
    requests = sys.stdin.buffer
    # Replies get their own descriptor; whatever else writes to stdout, from
    # Python or from C, goes to stderr instead of into the reply stream.
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    np.seterr(over="ignore", invalid="ignore", divide="ignore")   # see the docstring
    clients, test = {}, ((), ())   # nothing dealt yet
    while True:
        try:
            kind, *args = pickle.load(requests)
        except EOFError:
            return
        try:
            if kind == "deal":
                share, (pixels, labels) = args
                clients = {c.client_id: (c.pixels / 255.0, c.labels) for c in share}
                test = (pixels / 255.0, labels)
                del args, share, pixels   # only the scaled pixels stay
                value = None
            elif kind == "balance":
                value = experiments.balance_share(*args)
            elif kind == "train":
                params, cfg, round_index, ids = args
                value = []
                for cid in filter(clients.__contains__, ids):
                    trained, loss = training.local_train(
                        params, *clients[cid], cfg,
                        rng_for(cfg.seed, "shuffle", round_index, cid))
                    value.append((cid, trained.flat, loss))
            else:
                value = training.count_correct(args[0], *test)
            reply = pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            try:
                reply = pickle.dumps(("error", exc), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                reply = pickle.dumps(("error", TrainingError(f"{type(exc).__name__}: {exc}")))
        try:
            replies.write(reply)
            replies.flush()
        except BrokenPipeError:   # the parent is gone
            return
