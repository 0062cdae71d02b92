"""Bounty-based label balancing over a simulated message-passing network.

A client with underrepresented labels broadcasts a request for mixed
pseudo-images of each deficient class; willing peers answer with mixups of
their own data, and whatever the deadline leaves unfilled is topped up with
locally generated natural-noise images. Only pseudo-images ever cross a
client boundary.

The network advances in discrete rounds. Messages sent in round t are
delivered in round t+1 when the topology allows it (a star routes everything
through the central server; peer edges deliver only across existing edges)
and are silently dropped otherwise. Delivery order is deterministic:
(round, sender, sequence).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
    requester_id: int
    label: int
    quantity: int       # ceil(mix_fraction * deficit)
    deadline: int       # simulated rounds the requester will wait


@dataclass
class BountyResponse:
    supplier_id: int
    samples: list[LabeledImage]


@dataclass(frozen=True)
class SupplyPolicy:
    """How a responder decides what to serve.

    Willingness always requires at least one local example of the requested
    label and enough total examples for a k-way mix; `willing` can only
    restrict further, never override that floor.
    """

    capacity_fraction: float = 1.0
    willing: Callable[[np.ndarray, int, int], bool] | None = None

    def permits(self, histogram: np.ndarray, label: int, k: int) -> bool:
        if histogram[label] == 0 or histogram.sum() < k:
            return False
        if self.willing is not None:
            return bool(self.willing(histogram, label, k))
        return True


@dataclass(frozen=True)
class Topology:
    mode: str                                        # "star" | "peers"
    adjacency: frozenset[frozenset[int]] | None = None

    @classmethod
    def star(cls) -> "Topology":
        return cls("star")

    @classmethod
    def peers(cls, edges: Iterable[tuple[int, int]]) -> "Topology":
        undirected = frozenset(frozenset(e) for e in edges if e[0] != e[1])
        return cls("peers", undirected)

    def connected(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self.mode == "star":
            return True
        return frozenset((a, b)) in (self.adjacency or frozenset())


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


@dataclass
class Responder:
    """A peer that may answer bounties: its data, policy, and mix settings."""

    dataset: ClientDataset
    policy: SupplyPolicy
    mix_cfg: DpMixConfig


class NaturalNoiseSource:
    """Deterministic supplier of natural-noise images, one stream per image."""

    def __init__(self, state: GeneratorState, base_seed: int):
        self._state = state
        self._base_seed = base_seed
        self._issued: dict[int, int] = {}

    def take(self, n: int, label: int) -> list[LabeledImage]:
        start = self._issued.get(label, 0)
        images = []
        for i in range(start, start + n):
            pixels = generate(self._state, rng_for(self._base_seed, "nat", label, i))
            images.append(LabeledImage(pixels, label, Provenance.NATURAL_NOISE))
        self._issued[label] = start + n
        return images


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


def serve_bounty(responder: ClientDataset, req: BountyRequest, policy: SupplyPolicy,
                 cfg: DpMixConfig, rng: np.random.Generator) -> BountyResponse:
    """Answer a bounty with freshly mixed pseudo-images (possibly none).

    Serves min(requested, floor(capacity_fraction * local count of the label))
    mixups. Unwilling or under-stocked responders return an empty response
    rather than failing. Each mixup gets its own derived generator stream so
    parallel generation stays order-independent.
    """
    hist = responder.label_histogram
    if req.label >= responder.num_classes or not policy.permits(hist, req.label, cfg.k):
        return BountyResponse(responder.client_id, [])
    capacity = math.floor(policy.capacity_fraction * int(hist[req.label]))
    n = min(req.quantity, capacity)
    if n <= 0:
        return BountyResponse(responder.client_id, [])
    root = int(rng.integers(2**62))
    samples = [dp_labelhide(responder, req.label, cfg,
                            rng_for(root, "mix", responder.client_id, i))
               for i in range(n)]
    return BountyResponse(responder.client_id, samples)


def run_balance(requester: ClientDataset, deficits: Sequence[tuple[int, int]],
                mix_fraction: float, topology: Topology,
                peers: Mapping[int, Responder], nat_source: NaturalNoiseSource,
                rng: np.random.Generator, *, deadline: int = 2,
                trace: ProtocolTrace | None = None) -> ClientDataset:
    """Fill each deficit with mixups from peers plus natural-noise backfill.

    Per deficit (label j, quantity P): broadcast a request for ceil(mix_fraction
    * P) mixups, collect responses until the deadline, trim any surplus
    uniformly at random, then generate the remaining P - E images as natural
    noise labeled j. Exactly P pseudo-images are added per deficit; existing
    examples are never removed. mix_fraction = 0 sends no requests at all.
    """
    if not (0.0 <= mix_fraction <= 1.0):
        raise ProtocolError(f"mix_fraction must be in [0, 1], got {mix_fraction}")
    if deadline < 1:
        raise DeadlineZero(f"deadline must be >= 1 round, got {deadline}")
    trace = trace if trace is not None else ProtocolTrace()
    root = int(rng.integers(2**62))
    peer_ids = sorted(pid for pid in peers if pid != requester.client_id)

    round_base = 0
    for label, deficit in deficits:
        if deficit <= 0:
            continue
        quantity = math.ceil(mix_fraction * deficit)
        collected: list[LabeledImage] = []
        if quantity > 0:
            req = BountyRequest(requester.client_id, label, quantity, deadline)
            pending = [Message(round_base, requester.client_id, pid, seq, "request", req)
                       for seq, pid in enumerate(peer_ids)]
            for step in range(1, deadline + 1):
                now = round_base + step
                arriving = [m for m in pending if m.round_sent == now - 1]
                pending = [m for m in pending if m.round_sent != now - 1]
                outbox: list[Message] = []
                for msg in route(arriving, topology):
                    trace.log(msg, now)
                    if msg.kind == "request" and msg.dst in peers:
                        peer = peers[msg.dst]
                        resp = serve_bounty(peer.dataset, msg.payload, peer.policy,
                                            peer.mix_cfg,
                                            rng_for(root, "serve", label, msg.dst))
                        outbox.append(Message(now, msg.dst, requester.client_id,
                                              len(outbox), "response", resp))
                    elif msg.kind == "response" and msg.dst == requester.client_id:
                        collected.extend(msg.payload.samples)
                pending.extend(outbox)
        if len(collected) > quantity:
            keep = rng.choice(len(collected), size=quantity, replace=False)
            collected = [collected[i] for i in sorted(keep)]
        requester.add(collected + nat_source.take(deficit - len(collected), label))
        round_base += deadline + 1
    return requester
