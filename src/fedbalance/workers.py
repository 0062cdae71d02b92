"""Worker processes that run each round's local training and evaluation.

A round's clients train in a few worker processes, one per usable core
(capped by the number of clients), each running numpy with one BLAS thread.
Each worker is `python -c` running `serve()`; it reads pickled
`(kind, *args)` requests from its stdin and writes one pickled
`(status, value)` reply per request to its stdout. `Pool.deal` sends each
worker its clients and a slice of the test set once; after that a round
sends only the global parameters. The parent draws participants, averages
and writes every file, in client-id order, so no output depends on how
clients are dealt or on the order in which workers reply.

The pool starts lazily, once per process, and is reused across runs. Any
failure closes it, and the next round starts a new one. A worker exits when
its stdin closes, so none outlives the parent.
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

from . import training
from .seeding import rng_for
from .training import ModelParams, TrainClient, TrainConfig, TrainingError

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
        self._dealt: list[weakref.ref] = []   # the clients and test arrays dealt
        self._owner: dict[int, int] = {}      # client id -> worker index
        self._evaluators: list[int] = []      # workers holding a test slice

    def _grow(self, n: int) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, **_ENV, "PYTHONPATH": os.pathsep.join(
            [root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        while len(self._procs) < n:
            self._procs.append(subprocess.Popen(
                [sys.executable, "-c", _COMMAND], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))

    def deal(self, clients: list[TrainClient], test_x: np.ndarray,
             test_y: np.ndarray) -> None:
        """Give each worker its clients and its evaluation chunks, unless
        these very objects were dealt last."""
        dealt = [*clients, test_x, test_y]
        if (len(dealt) == len(self._dealt)
                and all(ref() is obj for ref, obj in zip(self._dealt, dealt))):
            return
        n = max(1, min(_usable_cores(), len(clients)))
        self._grow(n)
        # Largest client first, each to the worker with the fewest images.
        shares: list[list[TrainClient]] = [[] for _ in self._procs]
        loads = [0] * n
        owner = {}
        for client in sorted(clients, key=lambda c: (-len(c), c.client_id)):
            k = loads.index(min(loads))
            shares[k].append(client)
            loads[k] += len(client)
            owner[client.client_id] = k
        # Whole evaluation chunks, in order, split across the same workers.
        bounds = training._chunk_bounds(test_x.shape[0], training.EVAL_CHUNK)
        chunks = len(bounds) - 1
        requests = {}
        evaluators = []
        for k, share in enumerate(shares):
            first, last = (k * chunks // n, (k + 1) * chunks // n) if k < n else (0, 0)
            lo, hi = bounds[first], bounds[last]
            local = [b - lo for b in bounds[first:last + 1]]
            requests[k] = ("deal", share, (test_x[lo:hi], test_y[lo:hi], local))
            if last > first:
                evaluators.append(k)
        self._call(requests)
        self._dealt = [weakref.ref(obj) for obj in dealt]
        self._owner = owner
        self._evaluators = evaluators

    def train(self, params: ModelParams, cfg: TrainConfig, round_index: int,
              client_ids: list[int]) -> dict[int, tuple[np.ndarray, float]]:
        """{client id: (trained flat parameters, mean loss)} for one round."""
        ids_by_worker: dict[int, list[int]] = {}
        for cid in client_ids:
            ids_by_worker.setdefault(self._owner[cid], []).append(cid)
        replies = self._call({k: ("train", params, cfg, round_index, ids)
                              for k, ids in ids_by_worker.items()})
        return {cid: (flat, loss) for reply in replies.values()
                for cid, flat, loss in reply}

    def count_correct(self, params: ModelParams) -> int:
        """Correct top-1 predictions over the whole dealt test set."""
        return sum(self._call({k: ("evaluate", params)
                               for k in self._evaluators}).values())

    def _call(self, requests: dict[int, tuple]) -> dict[int, object]:
        """Send every request, then collect every reply. Any failure closes
        the pool: a worker's own exception is raised as it was, and a worker
        that died raises TrainingError."""
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
            raise TrainingError(f"training worker {k} (pid {proc.pid}) died: "
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
        procs, self._procs, self._dealt = self._procs, [], []
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
    clients: dict[int, TrainClient] = {}
    test: tuple = ()
    while True:
        try:
            kind, *args = pickle.load(requests)
        except EOFError:
            return
        try:
            if kind == "deal":
                share, test = args
                clients = {c.client_id: c for c in share}
                value = None
            elif kind == "train":
                params, cfg, round_index, ids = args
                value = []
                for cid in ids:
                    trained, loss = training.local_train(
                        params, clients[cid], cfg,
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
