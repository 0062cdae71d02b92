"""Bounty-based label balancing between clients.

A client with underrepresented labels asks each peer for mixed pseudo-images
of each deficient class; peers answer with mixups of their own data, and
whatever does not arrive is topped up with locally generated natural-noise
images. Only pseudo-images ever cross a client boundary.

A bounty is two legs: requests sent in round t arrive in round t+1, and
their answers in round t+2 if the deadline allows. Each message is the
`trace.csv` row that records it. The topology delivers a message (a star
routes everything through the server; peer edges only connect their ends) or
silently drops it; delivered messages keep the order they were sent in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .datasets import PROVENANCES, ClientDataset, Provenance
from .mixing import DpMixConfig, mix_block
from .noisegen import GeneratorState, generate_block
from .seeding import rng_for


class ProtocolError(ValueError):
    pass


class DeadlineZero(ProtocolError):
    pass


class Record(NamedTuple):
    """One bounty message, as the `trace.csv` row that logs its delivery."""
    round: int          # the round it is delivered in
    kind: str           # "request" | "response"
    src: int
    dst: int
    label: int          # -1 for an empty response
    count: int          # mixups asked for, or mixups carried


# Kept as a wrapper around a list: benchmarks/tracer.py counts `bool(.samples)`.
@dataclass
class BountyResponse:
    samples: list[np.ndarray]       # one (H, W, Ch) float32 mixup each, rows of one block


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


def route(records: Sequence[Record], topology: Topology) -> list[Record]:
    """Deliverable subset of `records`, in their order.

    Star topologies deliver every client-to-client message (two hops through
    the server, one simulated round); peer topologies require an edge. Drops
    are silent; bounties are best-effort.
    """
    return [r for r in records if topology.connected(r.src, r.dst)]


def plan_deficits(client: ClientDataset, target: int) -> list[tuple[int, int]]:
    """Labels needing supplements, ordered most-deficient first.

    One (label, target - count) entry per label whose local count is below
    `target`; ordered by ascending local count, ties by label index.
    """
    hist = client.label_histogram
    deficits = [(int(hist[y]), y) for y in range(client.num_classes) if hist[y] < target]
    deficits.sort()
    return [(y, target - count) for count, y in deficits]


def serve_bounty(responder: ClientDataset, label: int, quantity: int, cfg: DpMixConfig,
                 rng: np.random.Generator, *,
                 capacity_fraction: float = 1.0) -> BountyResponse:
    """Answer a bounty with freshly mixed pseudo-images (possibly none).

    Serves min(requested, floor(capacity_fraction * local count of the label))
    mixups. A responder without an example of the label, or with fewer than
    k examples in all, returns an empty response rather than failing. Each
    mixup gets its own derived generator stream, so parallel generation stays
    order-independent; `mixing.mix_block` builds them as one block, and the
    samples are its rows.
    """
    hist = responder.label_histogram
    if label >= responder.num_classes or hist[label] == 0 or hist.sum() < cfg.k:
        return BountyResponse([])
    n = min(quantity, math.floor(capacity_fraction * int(hist[label])))
    root = int(rng.integers(2**62))
    return BountyResponse(list(mix_block(
        responder, label, cfg, [rng_for(root, "mix", responder.client_id, i)
                                for i in range(n)])))


def run_balance(requester: ClientDataset, deficits: Sequence[tuple[int, int]],
                mix_fraction: float, topology: Topology,
                peers: Mapping[int, ClientDataset], mix_cfg: DpMixConfig,
                noise_state: GeneratorState, noise_seed: int, rng: np.random.Generator, *,
                capacity_fraction: float, deadline: int
                ) -> tuple[ClientDataset, list[Record]]:
    """The requester with its deficits filled, and the messages.

    Per deficit (label j, quantity P): send every peer a request for
    ceil(mix_fraction * P) mixups, collect the responses if the deadline
    leaves them a round to arrive (deadline >= 2), trim any surplus uniformly
    at random, then generate the remaining P - E images as natural noise
    labeled j, image i from the stream `rng_for(noise_seed, "nat", j, i)`; so
    a label may appear only once. mix_fraction = 0 sends no requests at all.
    Each deficit takes deadline + 1 trace rounds. Returns a new client that
    holds the requester's rows, then per deficit its kept mixups and its
    noise, with the records; the requester is left as it was.
    """
    if not (0.0 <= mix_fraction <= 1.0):
        raise ProtocolError(f"mix_fraction must be in [0, 1], got {mix_fraction}")
    if deadline < 1:
        raise DeadlineZero(f"deadline must be >= 1 round, got {deadline}")
    if len({label for label, _ in deficits}) != len(deficits):
        raise ProtocolError(f"a label appears twice in the deficits {list(deficits)}")
    root = int(rng.integers(2**62))
    me = requester.client_id
    peer_ids = sorted(pid for pid in peers if pid != me)
    blocks = [requester.pixels]         # then each deficit's kept mixups and noise
    runs: list[tuple[int, int, int]] = []   # (label, provenance code, rows) per block
    records: list[Record] = []

    round_base = 0
    for label, deficit in deficits:
        if deficit <= 0:
            continue
        quantity = math.ceil(mix_fraction * deficit)
        rows: list[np.ndarray] = []     # the delivered mixups, in response order
        if quantity > 0:
            requests = route([Record(round_base + 1, "request", me, pid, label, quantity)
                              for pid in peer_ids], topology)
            records += requests
            if deadline > 1:
                served = {r.dst: serve_bounty(peers[r.dst], label, quantity, mix_cfg,
                                              rng_for(root, "serve", label, r.dst),
                                              capacity_fraction=capacity_fraction).samples
                          for r in requests}
                responses = route([Record(round_base + 2, "response", pid, me,
                                          label if samples else -1, len(samples))
                                   for pid, samples in served.items()], topology)
                records += responses
                rows = [row for r in responses for row in served[r.src]]
        if len(rows) > quantity:
            rows = [rows[i] for i in np.sort(rng.choice(len(rows), size=quantity,
                                                         replace=False))]
        mixups = np.stack(rows) if rows else requester.pixels[:0]
        noise = generate_block(noise_state, [rng_for(noise_seed, "nat", label, i)
                                             for i in range(deficit - len(mixups))])
        blocks += [mixups, noise]
        runs += [(label, PROVENANCES.index(Provenance.MIXUP), len(mixups)),
                 (label, PROVENANCES.index(Provenance.NATURAL_NOISE), len(noise))]
        round_base += deadline + 1
    # (0, 3) when no deficit is positive, so the repeats stay int64
    labels, codes, counts = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    return ClientDataset(
        me, requester.num_classes, np.concatenate(blocks, dtype=np.float32),
        np.concatenate([requester.labels, np.repeat(labels, counts)], dtype=np.int64),
        np.concatenate([requester.provenance, np.repeat(codes, counts)], dtype=np.int8),
    ), records
