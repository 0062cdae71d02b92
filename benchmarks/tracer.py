"""Spans and counters recorded around fedbalance's public functions.

The benchmark never edits the program. Instead, a `Tracer` replaces each
chosen function with a wrapper that records a span (name, start, end, parent)
and rebinds the wrapper under every name a fedbalance module looks it up by:
the defining module (`training.forward`, reached from `loss_and_grad` through
the module globals) and every module that imported it by name
(`protocol.dp_labelhide`, `experiments.run_round`, the package namespace).
`restore()` puts every original back.

Spans stay in memory as tuples indexed by span id; span ids increase with
start time, so the spans of one cell form a contiguous id range.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# The layers the traced run covers, in pipeline order.
LAYERS = ("datasets", "experiments", "protocol", "mixing", "noisegen",
          "training", "serialization")

# The phase entry points: the only functions wrapped in an untraced run (at
# most 60 calls per cell). Spans are named after the defining module
# (`run_round` lives in training and is called from experiments).
PHASES = ("experiments.load_dataset", "datasets.partition",
          "experiments.balance_clients", "training.run_round",
          "serialization.save_checkpoint")


def _count_route(counts, args, kwargs, result):
    counts["protocol.requests"] += sum(1 for m in args[0] if m.kind == "request")
    counts["protocol.messages_delivered"] += len(result)


def _count_serve(counts, args, kwargs, result):
    counts["protocol.serve_bounty.useful"] += bool(result.samples)


def _count_kept(counts, args, kwargs, result):
    mixup = sys.modules["fedbalance.datasets"].Provenance.MIXUP
    counts["mixing.kept"] += sum(1 for client in args[0] for ex in client.examples
                                 if ex.provenance is mixup)


def _count_samples(counts, args, kwargs, result):
    counts["training.samples"] += len(args[2])


def _count_checkpoint(counts, args, kwargs, result):
    counts["serialization.output_bytes"] += os.path.getsize(args[0])


# Counters taken at layer boundaries in the traced run; each runs after the
# wrapped call returns, outside the callee's span.
HOOKS = {
    "protocol.route": _count_route,
    "protocol.serve_bounty": _count_serve,
    "experiments.balance_clients": _count_kept,
    "training.loss_and_grad": _count_samples,
    "serialization.save_checkpoint": _count_checkpoint,
}


class Tracer:
    """Records spans for the wrapped functions of one benchmark process."""

    def __init__(self):
        # (parent id or -1, name, start, end); the slot is filled on exit.
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, name, start)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (self._stack[-1] if self._stack else -1, name, start, end)

    def _wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, names=None, hooks=None) -> None:
        """Wrap `names` (layer.function), or every public function of LAYERS
        plus the `ClientDataset.label_histogram` property when None."""
        modules = {layer: sys.modules[f"fedbalance.{layer}"] for layer in LAYERS}
        if names is None:
            names = [f"{layer}.{attr}" for layer, mod in modules.items()
                     for attr, obj in vars(mod).items()
                     if inspect.isfunction(obj) and not attr.startswith("_")
                     and obj.__module__ == mod.__name__]
            cls = modules["datasets"].ClientDataset
            prop = cls.__dict__["label_histogram"]
            self._set(cls, "label_histogram",
                      property(self._wrap("datasets.label_histogram", prop.fget)))
        hooks = hooks or {}
        callers = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fedbalance" or n.startswith("fedbalance."))]
        for name in names:
            layer, attr = name.split(".")
            original = getattr(modules[layer], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in callers:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op minus a bare one."""
    def noop():
        return None
    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    timings = []
    for fn in (noop, wrapped):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - started)
    return (timings[1] - timings[0]) / calls


def layer_table(spans, first: int, last: int) -> dict[str, dict]:
    """calls / total / self seconds per span name over span ids [first, last).

    Self time is a span's duration minus the part its child spans cover.
    """
    child = Counter()
    for sid in range(first, last):
        parent, _, start, end = spans[sid]
        if parent >= first:
            child[parent] += end - start
    table: dict[str, dict] = {}
    for sid in range(first, last):
        _, name, start, end = spans[sid]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[sid]
    return table


def write_spans(path: str, run_id: str, spans) -> None:
    """One CSV row per span: run id, span id, parent id, name, start, end."""
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
        for sid, (parent, name, start, end) in enumerate(spans):
            fh.write(f"{run_id},{sid},{parent},{name},{start!r},{end!r}\n")
