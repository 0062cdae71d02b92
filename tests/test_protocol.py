import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbalance import protocol
from fedbalance.datasets import ClientDataset, LabeledImage, Provenance
from fedbalance.mixing import DpMixConfig
from fedbalance.noisegen import GeneratorConfig, generate_block, init_generator
from fedbalance.protocol import (DeadlineZero, ProtocolError, Record, Topology,
                                 plan_deficits, route, run_balance,
                                 serve_bounty)
from fedbalance.seeding import rng_for
from fedbalance.serialization import write_trace
from helpers import load_bench_module

DIMS = (6, 6, 1)


def fake_image(label, fill=0.0):
    return LabeledImage(np.full(DIMS, fill, dtype=np.float32), label)


def client(client_id, counts, num_classes=None):
    num_classes = num_classes or len(counts)
    examples = [fake_image(label, fill=label * 10.0 + i)
                for label, n in enumerate(counts) for i in range(n)]
    return ClientDataset.from_images(client_id, examples, num_classes)


def noise_state(seed=0):
    return init_generator(GeneratorConfig(out_dims=DIMS, base_resolution=4,
                                          channels_per_scale=4, seed=seed))


def request_count(records):
    return sum(1 for r in records if r.kind == "request")


class TestPlanDeficits:
    def test_single_class_client_against_uniform_target(self):
        c = client(0, [0, 0, 0, 600, 0, 0, 0, 0, 0, 0])
        plan = plan_deficits(c, 600)
        assert len(plan) == 9
        assert all(p == 600 for _, p in plan)
        assert 3 not in [label for label, _ in plan]

    def test_balanced_client_has_empty_plan(self):
        c = client(0, [5, 5, 5])
        assert plan_deficits(c, 5) == []

    def test_ordering_and_arithmetic(self):
        c = client(0, [10, 0, 5])
        plan = plan_deficits(c, 10)
        assert plan == [(1, 10), (2, 5)]


class TestServeBounty:
    def test_no_label_examples_yields_empty(self):
        responder = client(1, [10, 0, 4])
        resp = serve_bounty(responder, 1, 5, DpMixConfig(k=2), np.random.default_rng(0))
        assert resp.samples == []

    def test_capacity_arithmetic(self):
        responder = client(1, [100, 50])
        resp = serve_bounty(responder, 0, 80, DpMixConfig(k=4, sigma=0.0),
                            np.random.default_rng(1), capacity_fraction=0.5)
        assert len(resp.samples) == 50
        assert all(s.shape == DIMS and s.dtype == np.float32 for s in resp.samples)

    def test_capacity_rounds_a_fractional_share_down(self):
        # 0.3 of a 7-image label is 2.1: two mixups, not three.
        responder = client(1, [7, 3])
        resp = serve_bounty(responder, 0, 5, DpMixConfig(k=4), np.random.default_rng(1),
                            capacity_fraction=0.3)
        assert len(resp.samples) == 2

    def test_k_bounds_the_pool_not_the_label(self):
        # Two images of the label, seven in all: at k = 4 each mixup takes
        # its anchor from the label and its fillers from the whole pool.
        responder = client(1, [2, 5])
        resp = serve_bounty(responder, 0, 2, DpMixConfig(k=4), np.random.default_rng(3))
        assert len(resp.samples) == 2

    def test_pool_smaller_than_k_yields_empty(self):
        responder = client(1, [2, 1])          # 3 examples total
        resp = serve_bounty(responder, 0, 5, DpMixConfig(k=4), np.random.default_rng(2))
        assert resp.samples == []


class TestRoute:
    def test_star_broadcast(self):
        records = [Record(1, "request", 2, dst, 0, 1) for dst in range(10) if dst != 2]
        delivered = route(records, Topology.star())
        assert len(delivered) == 9
        assert sorted(m.dst for m in delivered) == [i for i in range(10) if i != 2]

    def test_line_topology_reachability(self):
        topo = Topology.peers([(0, 1), (1, 2)])
        records = [Record(1, "request", 0, 1, 0, 1), Record(1, "request", 0, 2, 0, 1)]
        delivered = route(records, topo)
        assert [m.dst for m in delivered] == [1]


def run_simple_balance(mix_fraction, requester_counts, peer_counts, *,
                       capacity=1.0, topology=None, deadline=2, seed=0,
                       target=10, k=3):
    requester = client(0, requester_counts)
    peers = {i: client(i, counts, len(requester_counts))
             for i, counts in enumerate(peer_counts, start=1)}
    deficits = plan_deficits(requester, target)
    balanced, records = run_balance(requester, deficits, mix_fraction,
                                    topology or Topology.star(), peers,
                                    DpMixConfig(k=k, sigma=1.0), noise_state(seed), seed,
                                    np.random.default_rng(seed), capacity_fraction=capacity,
                                    deadline=deadline)
    return balanced, deficits, records


class TestRunBalance:
    def test_mix_fraction_zero_sends_nothing_and_fills_with_noise(self):
        requester, deficits, records = run_simple_balance(
            0.0, [8, 0], [[5, 5], [5, 5]])
        assert request_count(records) == 0
        assert requester.label_histogram[1] == 10
        added = [ex for ex in requester.examples if ex.label == 1]
        assert all(ex.provenance is Provenance.NATURAL_NOISE for ex in added)

    def test_full_mix_supply(self):
        requester, _, trace = run_simple_balance(1.0, [8, 0], [[20, 20], [20, 20]])
        added = [ex for ex in requester.examples if ex.label == 1]
        assert len(added) == 10
        assert all(ex.provenance is Provenance.MIXUP for ex in added)

    def test_trim_and_backfill_arithmetic(self):
        # deficit 600 at mix_fraction 0.75: peers can offer 700, the requester
        # trims to ceil(0.75*600)=450 and generates 150 noise images
        requester, _, trace = run_simple_balance(
            0.75, [600, 0], [[10, 350], [10, 350]],
            target=600, k=2)
        added = [ex for ex in requester.examples if ex.label == 1]
        mixed = [ex for ex in added if ex.provenance is Provenance.MIXUP]
        noise = [ex for ex in added if ex.provenance is Provenance.NATURAL_NOISE]
        assert len(mixed) == 450
        assert len(noise) == 150
        assert len(added) == 600

    def test_isolated_peer_graph_falls_back_to_noise(self):
        requester, _, trace = run_simple_balance(
            1.0, [8, 0], [[5, 5], [5, 5]], topology=Topology.peers([(5, 6)]))
        added = [ex for ex in requester.examples if ex.label == 1]
        assert len(added) == 10
        assert all(ex.provenance is Provenance.NATURAL_NOISE for ex in added)

    def test_deadline_zero_rejected(self):
        with pytest.raises(DeadlineZero):
            run_simple_balance(0.5, [8, 0], [[5, 5]], deadline=0)

    def test_deadline_too_short_for_responses(self):
        # responses arrive two rounds after the request; deadline=1 misses them
        requester, _, _ = run_simple_balance(1.0, [8, 0], [[20, 20]], deadline=1)
        added = [ex for ex in requester.examples if ex.label == 1]
        assert all(ex.provenance is Provenance.NATURAL_NOISE for ex in added)

    def test_never_removes_existing_examples(self):
        requester = client(0, [8, 0])
        pixels, labels = requester.pixels, requester.labels
        before = pixels.copy(), labels.copy()
        balanced, _ = run_balance(requester, [(1, 4)], 0.5, Topology.star(),
                                  {1: client(1, [5, 5])}, DpMixConfig(k=2), noise_state(), 0,
                                  np.random.default_rng(0), capacity_fraction=1.0, deadline=2)
        assert requester.pixels is pixels and requester.labels is labels
        assert np.array_equal(pixels, before[0]) and np.array_equal(labels, before[1])
        assert balanced.client_id == 0
        assert len(balanced) == 8 + 4
        assert np.array_equal(balanced.pixels[:8], before[0])
        assert np.array_equal(balanced.labels[:8], before[1])
        assert np.all(balanced.provenance[:8] == 0)

    @pytest.mark.parametrize("mix_fraction, deficit, kinds", [
        (0.0, 3, [Provenance.NATURAL_NOISE] * 3),
        (1.0, 3, [Provenance.MIXUP] * 3),
        (1.0, 0, []),
    ])
    def test_the_balanced_client_s_histogram_and_dtypes(self, mix_fraction, deficit, kinds):
        # All noise, all mixups, and no positive deficit, where the labels
        # and codes are repeated over no block at all.
        balanced, _ = run_balance(client(0, [8, 0]), [(1, deficit)], mix_fraction,
                                  Topology.star(), {1: client(1, [20, 20])}, DpMixConfig(k=2),
                                  noise_state(), 0, np.random.default_rng(0),
                                  capacity_fraction=1.0, deadline=2)
        assert balanced.label_histogram.tolist() == [8, len(kinds)]
        assert [ex.provenance for ex in balanced.examples[8:]] == kinds
        assert balanced.pixels.dtype == np.float32
        assert (balanced.labels.dtype, balanced.provenance.dtype) == (np.int64, np.int8)

    def test_determinism(self):
        a, _, ta = run_simple_balance(0.5, [8, 0, 0], [[6, 3, 2], [4, 0, 5]], seed=9)
        b, _, tb = run_simple_balance(0.5, [8, 0, 0], [[6, 3, 2], [4, 0, 5]], seed=9)
        assert ta == tb
        assert len(a) == len(b)
        for xa, xb in zip(a.examples, b.examples):
            assert xa.label == xb.label and xa.provenance == xb.provenance
            assert np.array_equal(xa.pixels, xb.pixels)

    @settings(max_examples=15, deadline=None)
    @given(mix=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
           deficit=st.integers(1, 20), cap=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 1000))
    def test_conservation_property(self, mix, deficit, cap, seed):
        requester, deficits, records = run_simple_balance(
            mix, [max(6, deficit), 0], [[10, 2], [7, 0]], capacity=cap,
            target=deficit, seed=seed)
        added = [ex for ex in requester.examples if ex.label == 1]
        mixed = [ex for ex in added if ex.provenance is Provenance.MIXUP]
        assert len(added) == deficit
        assert len(mixed) <= math.ceil(mix * deficit)
        if mix == 0.0:
            assert request_count(records) == 0

    @pytest.mark.parametrize("deadline, records, serves", [
        (1, [(1, "request", 0, 1, 1, 5), (1, "request", 0, 2, 1, 5),
             (3, "request", 0, 1, 2, 5), (3, "request", 0, 2, 2, 5)], 0),
        (3, [(1, "request", 0, 1, 1, 5), (1, "request", 0, 2, 1, 5),
             (2, "response", 1, 0, 1, 5), (2, "response", 2, 0, 1, 5),
             (5, "request", 0, 1, 2, 5), (5, "request", 0, 2, 2, 5),
             (6, "response", 1, 0, 2, 5), (6, "response", 2, 0, -1, 0)], 4),
    ])
    def test_trace_of_both_legs(self, monkeypatch, deadline, records, serves):
        # Peer 3 has no edge to the requester, and peer 2 holds no label 2.
        # Requests arrive one round after round_base and responses two; each
        # deficit advances round_base by deadline + 1. With deadline 1 no
        # response could arrive, so none is served.
        calls = []

        def counting_serve(*args, **kwargs):
            calls.append(args[1])
            return serve_bounty(*args, **kwargs)

        monkeypatch.setattr(protocol, "serve_bounty", counting_serve)
        _, deficits, trace = run_simple_balance(
            0.5, [10, 0, 0], [[5, 5, 5], [5, 5, 0], [5, 5, 5]],
            topology=Topology.peers([(0, 1), (0, 2), (1, 3)]), deadline=deadline)
        assert deficits == [(1, 10), (2, 10)]
        assert trace == records
        assert len(calls) == serves

    def test_no_real_image_ever_crosses_a_boundary(self, monkeypatch):
        served = []

        def recording_serve(*args, **kwargs):
            served.append(serve_bounty(*args, **kwargs))
            return served[-1]

        monkeypatch.setattr(protocol, "serve_bounty", recording_serve)
        peer_counts = [[9, 4, 0], [5, 5, 5]]
        run_simple_balance(1.0, [8, 0, 0], peer_counts)
        samples = [sample for resp in served for sample in resp.samples]
        assert samples
        real = {ex.pixels.tobytes() for i, counts in enumerate(peer_counts, start=1)
                for ex in client(i, counts).examples}
        assert not any(sample.tobytes() in real for sample in samples)


def test_bench_tracer_hooks_still_count_the_protocol():
    # benchmarks/tracer.py counts requests and deliveries from `route`'s
    # argument and result, and useful serves from `serve_bounty`'s
    # `.samples`; a protocol change that breaks those hooks fails here.
    tracer = load_bench_module("tracer")
    recorder = tracer.Tracer()
    recorder.install(["protocol.route", "protocol.serve_bounty"], tracer.HOOKS)
    try:
        _, _, records = run_simple_balance(
            0.5, [10, 0, 0], [[5, 5, 5], [5, 5, 0], [5, 5, 5]],
            topology=Topology.peers([(0, 1), (0, 2), (1, 3)]), deadline=3)
    finally:
        recorder.restore()
    assert recorder.counts["protocol.requests"] == 6
    assert recorder.counts["protocol.messages_delivered"] == len(records) == 8
    assert recorder.counts["protocol.serve_bounty.useful"] == 3


class TestTrace:
    def test_csv_export(self, tmp_path):
        _, _, records = run_simple_balance(1.0, [8, 0], [[20, 20]])
        path = tmp_path / "trace.csv"
        write_trace(str(path), records)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,msg_type,src,dst,label,count"
        assert len(lines) > 1


class TestNaturalNoiseRows:
    @pytest.mark.parametrize("mix_fraction", [0.0, 0.5])
    def test_noise_rows_come_from_per_image_streams(self, mix_fraction):
        # Deficits (1, 10) and (2, 7), each asking for ceil(mix * P) mixups
        # that the peers can all serve; after them, noise image i of label j
        # comes from the stream ("nat", j, i).
        requester, deficits, _ = run_simple_balance(
            mix_fraction, [10, 0, 3], [[20, 20, 20], [20, 20, 20]], seed=4)
        assert deficits == [(1, 10), (2, 7)]
        pixels, provenance = requester.pixels[10 + 3:], requester.provenance[10 + 3:]
        start = 0
        for label, deficit in deficits:
            kept = math.ceil(mix_fraction * deficit)
            rows = slice(start + kept, start + deficit)
            assert set(provenance[start:start + kept]) <= {1}   # mixups
            assert set(provenance[rows]) == {2}                   # natural noise
            expected = generate_block(noise_state(4), [rng_for(4, "nat", label, i)
                                                       for i in range(deficit - kept)])
            assert pixels[rows].dtype == expected.dtype == np.float32
            assert np.array_equal(pixels[rows], expected)
            start += deficit

    def test_a_label_named_twice_is_rejected(self):
        requester = client(0, [8, 0])
        with pytest.raises(ProtocolError, match="twice"):
            run_balance(requester, [(1, 2), (1, 3)], 0.0, Topology.star(), {},
                        DpMixConfig(k=2), noise_state(), 0, np.random.default_rng(0),
                        capacity_fraction=1.0, deadline=2)
