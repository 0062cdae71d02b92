import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedbalance.datasets import ClientDataset, LabeledImage, Provenance
from fedbalance.mixing import (DpMixConfig, InsufficientLabel, InsufficientPool,
                               MixupError, WeightMode, dp_labelhide, mix_block,
                               sample_laplace, sample_weight_matrix)
from fedbalance.seeding import rng_for


def forced_mix(weights, k=None):
    """dp_labelhide over a ten-image client, `weights` forced, at k = their
    length unless given."""
    client = ClientDataset.from_images(0, [image([i] * 4, 0) for i in range(10)], 1)
    cfg = DpMixConfig(k=len(weights) if k is None else k, sigma=0.0)
    return dp_labelhide(client, 0, cfg, np.random.default_rng(0), weights=weights)


class TestMixWeights:
    def test_k1_both_modes(self):
        for mode in WeightMode:
            w = sample_weight_matrix(1, mode, np.random.default_rng(0), 1)[0]
            assert w.tolist() == [1.0]

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 10), mode=st.sampled_from(list(WeightMode)),
           seed=st.integers(0, 10_000))
    def test_invariants(self, k, mode, seed):
        w = sample_weight_matrix(k, mode, np.random.default_rng(seed), 1)[0]
        assert w.shape == (k,)
        assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9 and np.all(np.diff(w) <= 0)
        if k > 1:
            forced_mix(w)   # dp_labelhide accepts them as forced weights
        if mode is WeightMode.DOMINANT_UNIFORM and k > 1:
            assert 0.5 <= w[0] <= 0.75

    def test_dominant_first_entry_uniform(self):
        # spec'd dominant-weight law: first entry uniform on [0.5, 0.75]
        w = sample_weight_matrix(4, WeightMode.DOMINANT_UNIFORM,
                                 np.random.default_rng(42), 100_000)
        result = stats.kstest(w[:, 0], "uniform", args=(0.5, 0.25))
        assert result.pvalue > 0.01

    def test_simplex_sorted_mean_matches_mc_oracle(self):
        # Monte-Carlo oracle with an independent generator and an independent
        # sampling path (numpy's dirichlet instead of normalized exponentials)
        oracle_rng = np.random.default_rng(999)
        oracle = -np.sort(-oracle_rng.dirichlet(np.ones(4), size=100_000), axis=1)
        w = sample_weight_matrix(4, WeightMode.SIMPLEX_SORTED,
                                 np.random.default_rng(7), 100_000)
        assert np.allclose(w.mean(axis=0), oracle.mean(axis=0), atol=0.01)
        # analytic order statistics of the uniform simplex
        assert np.allclose(w.mean(axis=0), [0.5208, 0.2708, 0.1458, 0.0625],
                           atol=0.01)

    @pytest.mark.parametrize("weights, k", [
        ([0.3, 0.7], 2),        # not sorted
        ([0.9, 0.2], 2),        # does not sum to 1
        ([1.2, -0.2], 2),       # negative
        ([0.5, 0.5], 3),        # not k of them
    ])
    def test_validate_rejects_bad_vectors(self, weights, k):
        with pytest.raises(MixupError, match="^forced weights must be"):
            forced_mix(weights, k)


class TestSampleLaplace:
    def test_sigma_zero_is_exact_zeros(self):
        eta = sample_laplace(1000, 0.0, np.random.default_rng(0))
        assert np.all(eta == 0.0)

    def test_moments_at_sigma_50(self):
        eta = sample_laplace(1_000_000, 50.0, np.random.default_rng(3))
        assert 49.5 <= np.abs(eta).mean() <= 50.5
        assert -0.5 <= eta.mean() <= 0.5

    def test_determinism(self):
        a = sample_laplace(128, 2.5, np.random.default_rng(11))
        b = sample_laplace(128, 2.5, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_distribution_matches_laplace(self):
        eta = sample_laplace(50_000, 3.0, np.random.default_rng(5))
        result = stats.kstest(eta, "laplace", args=(0.0, 3.0))
        assert result.pvalue > 0.01


def image(values, label, provenance=Provenance.REAL):
    return LabeledImage(np.array(values, dtype=np.float32).reshape(2, 2, 1),
                        label, provenance)


@pytest.fixture
def four_image_client():
    return ClientDataset.from_images(0, [
        image([0, 1, 2, 3], 0),
        image([10, 20, 30, 40], 1),
        image([5, 5, 5, 5], 2),
        image([100, 0, 0, 100], 3),
    ], 4)


class TestDpLabelHide:
    def test_identity_mixture(self, four_image_client):
        cfg = DpMixConfig(k=2, sigma=0.0)
        out = dp_labelhide(four_image_client, 1, cfg, np.random.default_rng(0),
                           weights=[1.0, 0.0])
        assert np.array_equal(out, four_image_client.examples[1].pixels)

    def test_weighted_sum_matches_brute_force_oracle(self, four_image_client):
        cfg = DpMixConfig(k=4, sigma=0.0)
        forced = [0.55, 0.25, 0.15, 0.05]
        record = []
        out = dp_labelhide(four_image_client, 2, cfg, np.random.default_rng(5),
                           weights=forced, record=record)
        (rec,) = record
        assert rec.anchor_index == 2
        # oracle: plain float32 loop over the recorded selection
        expected = np.zeros((2, 2, 1), dtype=np.float32)
        for w, idx in zip(forced, [rec.anchor_index, *rec.filler_indices]):
            expected += np.float32(w) * four_image_client.examples[idx].pixels
        assert np.array_equal(out, expected)
        assert out.dtype == np.float32

    def test_noise_cancellation_monte_carlo(self, four_image_client):
        # residual after subtracting the recorded weighted sum is pure noise;
        # its per-pixel mean over many repetitions must vanish
        cfg = DpMixConfig(k=4, sigma=50.0, weight_mode=WeightMode.DOMINANT_UNIFORM)
        rng = np.random.default_rng(123)
        residual = np.zeros((2, 2, 1), dtype=np.float64)
        reps = 10_000
        for _ in range(reps):
            record = []
            out = dp_labelhide(four_image_client, 0, cfg, rng, record=record)
            (rec,) = record
            mixed = np.zeros((2, 2, 1), dtype=np.float32)
            for w, idx in zip(rec.weights, [rec.anchor_index, *rec.filler_indices]):
                mixed += np.float32(w) * four_image_client.examples[idx].pixels
            residual += out - mixed
        assert np.all(np.abs(residual / reps) < 1.5)

    def test_label_fixity_and_anchor_dominance(self, four_image_client):
        cfg = DpMixConfig(k=3, sigma=1.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            record = []
            dp_labelhide(four_image_client, 3, cfg, rng, record=record)
            (rec,) = record
            assert four_image_client.examples[rec.anchor_index].label == 3
            assert rec.weights[0] == rec.weights.max()

    def test_linearity_at_sigma_zero(self, four_image_client):
        cfg = DpMixConfig(k=4, sigma=0.0)
        scaled = ClientDataset.from_images(1, [
            LabeledImage(ex.pixels * np.float32(3.0), ex.label)
            for ex in four_image_client.examples], 4)
        out1 = dp_labelhide(four_image_client, 0, cfg, np.random.default_rng(21))
        out3 = dp_labelhide(scaled, 0, cfg, np.random.default_rng(21))
        assert np.allclose(out3, 3.0 * out1, rtol=1e-6)

    def test_noise_streams_uncorrelated(self):
        blank = ClientDataset.from_images(0, [image([0, 0, 0, 0], 0) for _ in range(4)], 1)
        cfg = DpMixConfig(k=4, sigma=10.0)
        outs = [dp_labelhide(blank, 0, cfg, np.random.default_rng(s),
                             weights=[1, 0, 0, 0]).ravel()
                for s in range(500)]
        noise = np.stack(outs)  # sources are all-zero, output is the noise
        corr = np.corrcoef(noise[:-1].ravel(), noise[1:].ravel())[0, 1]
        assert abs(corr) < 0.05

    def test_insufficient_label(self, four_image_client):
        with pytest.raises(InsufficientLabel):
            dp_labelhide(four_image_client, 9, DpMixConfig(k=2),
                         np.random.default_rng(0))

    def test_insufficient_pool(self):
        tiny = ClientDataset.from_images(0, [image([1, 2, 3, 4], 0)], 1)
        with pytest.raises(InsufficientPool):
            dp_labelhide(tiny, 0, DpMixConfig(k=2), np.random.default_rng(0))


def three_label_client():
    """23 (3, 4, 2) images under labels 0, 1 and 2, interleaved, so fillers
    cross labels and anchors are spread over the client."""
    rng = np.random.default_rng(17)
    pixels = (rng.random((23, 3, 4, 2)) * 255).astype(np.float32)
    labels = np.array([0, 1, 2, 2, 0, 1] * 3 + [2, 0, 2, 1, 0], dtype=np.int64)
    return ClientDataset(0, 3, pixels, labels, np.zeros(23, dtype=np.int8))


class TestMixBlock:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("sigma", [0.0, 50.0])
    @pytest.mark.parametrize("mode", list(WeightMode))
    def test_rows_equal_one_dp_labelhide_call_per_stream(self, k, sigma, mode):
        client = three_label_client()
        cfg = DpMixConfig(k=k, sigma=sigma, weight_mode=mode)
        for label in (0, 2):
            def streams():
                return [rng_for(label, "mix", 0, i) for i in range(9)]
            block_record, single_record = [], []
            block = mix_block(client, label, cfg, streams(), record=block_record)
            singles = [dp_labelhide(client, label, cfg, rng, record=single_record)
                       for rng in streams()]
            assert block.dtype == np.float32 and block.shape == (9, 3, 4, 2)
            assert block.tobytes() == np.stack(singles).tobytes()
            assert [(r.anchor_index, r.filler_indices, r.weights.tobytes())
                    for r in block_record] == [
                (r.anchor_index, r.filler_indices, r.weights.tobytes())
                for r in single_record]

    def test_no_stream_gives_an_empty_block(self):
        block = mix_block(three_label_client(), 1, DpMixConfig(), [])
        assert block.shape == (0, 3, 4, 2) and block.dtype == np.float32
