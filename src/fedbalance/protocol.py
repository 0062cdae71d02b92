"""Bounty-based label balancing between clients.

A client with underrepresented labels asks each peer for mixed pseudo-images
of each deficient class; peers answer with mixups of their own data, and
whatever does not arrive is topped up with locally generated natural-noise
images. Only pseudo-images ever cross a client boundary.

A bounty is two legs: requests sent in round t arrive in round t+1, and
their answers in round t+2 if the deadline allows. The topology delivers a
message (a star routes everything through the server; peer edges only
connect their ends) or silently drops it, in (round, sender, sequence) order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .datasets import ClientDataset, LabeledImage, Provenance
from .mixing import DpMixConfig, dp_labelhide
from .noisegen import GeneratorState, generate
from .seeding import rng_for


class ProtocolError(ValueError):
    pass


class DeadlineZero(ProtocolError):
    pass


@dataclass(frozen=True)
class BountyRequest:
    label: int
    quantity: int       # ceil(mix_fraction * deficit)


@dataclass
class BountyResponse:
    samples: list[LabeledImage]


@dataclass(frozen=True)
class Topology:
    adjacency: frozenset[frozenset[int]] | None = None   # None: a star

    @classmethod
    def star(cls) -> "Topology":
        return cls()

    @classmethod
    def peers(cls, edges: Iterable[tuple[int, int]]) -> "Topology":
        return cls(frozenset(frozenset(e) for e in edges if e[0] != e[1]))

    def connected(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return self.adjacency is None or frozenset((a, b)) in self.adjacency


@dataclass(frozen=True)
class Message:
    round_sent: int
    src: int
    dst: int
    seq: int
    kind: str           # "request" | "response"
    payload: BountyRequest | BountyResponse


def route(messages: Sequence[Message], topology: Topology) -> list[Message]:
    """Deliverable subset of `messages`, in (round, sender, sequence) order.

    Star topologies deliver every client-to-client message (two hops through
    the server, one simulated round); peer topologies require an edge. Drops
    are silent; bounties are best-effort.
    """
    delivered = [m for m in messages if topology.connected(m.src, m.dst)]
    delivered.sort(key=lambda m: (m.round_sent, m.src, m.seq))
    return delivered


@dataclass
class ProtocolTrace:
    """Audit log of every delivered message."""

    records: list[tuple[int, str, int, int, int, int]] = field(default_factory=list)

    def log(self, message: Message, round_delivered: int) -> None:
        payload = message.payload
        if isinstance(payload, BountyRequest):
            label, count = payload.label, payload.quantity
        else:
            label = payload.samples[0].label if payload.samples else -1
            count = len(payload.samples)
        self.records.append(
            (round_delivered, message.kind, message.src, message.dst, label, count))

    def request_count(self) -> int:
        return sum(1 for r in self.records if r[1] == "request")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "msg_type", "src", "dst", "label", "count"])
            writer.writerows(self.records)


class NaturalNoiseSource:
    """Deterministic supplier of natural-noise images, one stream per image."""

    def __init__(self, state: GeneratorState, base_seed: int):
        self._state = state
        self._base_seed = base_seed
        self._issued: dict[int, int] = {}

    def take(self, n: int, label: int) -> list[LabeledImage]:
        start = self._issued.get(label, 0)
        self._issued[label] = start + n
        return [LabeledImage(generate(self._state, rng_for(self._base_seed, "nat", label, i)),
                             label, Provenance.NATURAL_NOISE)
                for i in range(start, start + n)]


def plan_deficits(client: ClientDataset,
                  target_per_label: Sequence[float] | np.ndarray) -> list[tuple[int, int]]:
    """Labels needing supplements, ordered most-deficient first.

    One (label, deficit) entry per label whose local count is below its
    target; ordered by ascending local count, ties by label index.
    """
    targets = np.asarray(target_per_label, dtype=np.float64)
    if targets.shape != (client.num_classes,):
        raise ProtocolError(
            f"targets shape {targets.shape} does not match {client.num_classes} classes")
    if np.any(targets < 0):
        raise ProtocolError("per-label targets must be >= 0")
    hist = client.label_histogram
    deficits = [(int(hist[y]), y, int(math.ceil(targets[y])) - int(hist[y]))
                for y in range(client.num_classes) if hist[y] < targets[y]]
    deficits.sort(key=lambda t: (t[0], t[1]))
    return [(y, d) for _, y, d in deficits]


def serve_bounty(responder: ClientDataset, req: BountyRequest, cfg: DpMixConfig,
                 rng: np.random.Generator, *,
                 capacity_fraction: float = 1.0) -> BountyResponse:
    """Answer a bounty with freshly mixed pseudo-images (possibly none).

    Serves min(requested, floor(capacity_fraction * local count of the label))
    mixups. A responder without an example of the label, or with fewer than
    k examples in all, returns an empty response rather than failing. Each
    mixup gets its own derived generator stream so parallel generation stays
    order-independent.
    """
    hist = responder.label_histogram
    if req.label >= responder.num_classes or hist[req.label] == 0 or hist.sum() < cfg.k:
        return BountyResponse([])
    n = min(req.quantity, math.floor(capacity_fraction * int(hist[req.label])))
    root = int(rng.integers(2**62))
    return BountyResponse([dp_labelhide(responder, req.label, cfg,
                                        rng_for(root, "mix", responder.client_id, i))
                           for i in range(n)])


def run_balance(requester: ClientDataset, deficits: Sequence[tuple[int, int]],
                mix_fraction: float, topology: Topology,
                peers: Mapping[int, ClientDataset], mix_cfg: DpMixConfig,
                nat_source: NaturalNoiseSource, rng: np.random.Generator, *,
                capacity_fraction: float = 1.0, deadline: int = 2,
                trace: ProtocolTrace | None = None) -> ClientDataset:
    """Fill each deficit with mixups from peers plus natural-noise backfill.

    Per deficit (label j, quantity P): send every peer a request for
    ceil(mix_fraction * P) mixups, collect the responses if the deadline
    leaves them a round to arrive (deadline >= 2), trim any surplus uniformly
    at random, then generate the remaining P - E images as natural noise
    labeled j. Exactly P pseudo-images are added per deficit; existing
    examples are never removed. mix_fraction = 0 sends no requests at all.
    Each deficit takes deadline + 1 trace rounds.
    """
    if not (0.0 <= mix_fraction <= 1.0):
        raise ProtocolError(f"mix_fraction must be in [0, 1], got {mix_fraction}")
    if deadline < 1:
        raise DeadlineZero(f"deadline must be >= 1 round, got {deadline}")
    trace = trace if trace is not None else ProtocolTrace()
    root = int(rng.integers(2**62))
    me = requester.client_id
    peer_ids = sorted(pid for pid in peers if pid != me)

    round_base = 0
    for label, deficit in deficits:
        if deficit <= 0:
            continue
        quantity = math.ceil(mix_fraction * deficit)
        collected: list[LabeledImage] = []
        if quantity > 0:
            req = BountyRequest(label, quantity)
            requests = route([Message(round_base, me, pid, seq, "request", req)
                              for seq, pid in enumerate(peer_ids)], topology)
            for msg in requests:
                trace.log(msg, round_base + 1)
            if deadline > 1:
                responses = route(
                    [Message(round_base + 1, msg.dst, me, seq, "response",
                             serve_bounty(peers[msg.dst], req, mix_cfg,
                                          rng_for(root, "serve", label, msg.dst),
                                          capacity_fraction=capacity_fraction))
                     for seq, msg in enumerate(requests)], topology)
                for msg in responses:
                    trace.log(msg, round_base + 2)
                    collected.extend(msg.payload.samples)
        if len(collected) > quantity:
            keep = rng.choice(len(collected), size=quantity, replace=False)
            collected = [collected[i] for i in sorted(keep)]
        requester.add(collected + nat_source.take(deficit - len(collected), label))
        round_base += deadline + 1
    return requester
