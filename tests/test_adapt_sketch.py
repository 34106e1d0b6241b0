"""Property tests for the decayed Count-Min sketch (repro.adapt.sketch).

The classic Cormode–Muthukrishnan guarantees, checked on seeded
streams: estimates never undercount, the (epsilon, delta) error bound
holds for width ⌈e/epsilon⌉ and depth ⌈ln(1/delta)⌉, decay is monotone,
and merge is elementwise addition over compatible sketches.
"""

import math

import numpy as np
import pytest

from repro.adapt import CountMinSketch
from repro.adapt.sketch import _fold_key
from repro.bits import BitString


def zipf_stream(n, universe, theta, seed):
    """Seeded skewed stream of int keys with exact true counts."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    probs = ranks ** -theta
    probs /= probs.sum()
    draws = rng.choice(universe, size=n, p=probs)
    counts = {}
    for d in draws:
        counts[int(d)] = counts.get(int(d), 0) + 1
    return [int(d) for d in draws], counts


class TestOvercountOnly:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("width,depth", [(16, 2), (64, 4), (256, 4)])
    def test_estimate_never_below_true_count(self, seed, width, depth):
        stream, true = zipf_stream(2000, 500, 1.1, seed)
        cm = CountMinSketch(width, depth, seed=seed)
        for k in stream:
            cm.add(k)
        for k, n in true.items():
            assert cm.estimate(k) >= n
        # total tracks the stream mass exactly (no decay yet)
        assert cm.total == len(stream)

    def test_absent_key_estimate_is_collision_noise_only(self):
        cm = CountMinSketch(1024, 5, seed=3)
        for k in range(100):
            cm.add(k)
        # wide sketch, tiny stream: most absent keys estimate 0
        zeros = sum(1 for k in range(10_000, 10_100) if cm.estimate(k) == 0.0)
        assert zeros > 90

    def test_weighted_add_and_negative_rejected(self):
        cm = CountMinSketch(32, 3)
        cm.add(5, 2.5)
        assert cm.estimate(5) >= 2.5
        with pytest.raises(ValueError):
            cm.add(5, -1.0)


class TestErrorBound:
    @pytest.mark.parametrize("eps,delta", [(0.05, 0.05), (0.01, 0.01)])
    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_for_error_dimensions_meet_epsilon_delta(self, eps, delta, seed):
        """estimate <= true + eps*N for all but a delta fraction of keys.

        The bound is per-query with failure probability delta; over many
        keys the observed violation rate should not exceed delta by much
        (we allow 2x slack to keep the test deterministic-friendly).
        """
        stream, true = zipf_stream(5000, 1000, 1.05, seed)
        cm = CountMinSketch(
            math.ceil(math.e / eps), math.ceil(math.log(1 / delta)), seed=seed
        )
        for k in stream:
            cm.add(k)
        n_total = len(stream)
        bad = sum(
            1 for k, n in true.items() if cm.estimate(k) > n + eps * n_total
        )
        assert bad / len(true) <= max(2 * delta, 0.02)

    def test_wider_sketch_never_worse_on_same_stream(self):
        stream, true = zipf_stream(3000, 800, 1.0, 5)
        narrow = CountMinSketch(16, 4, seed=5)
        wide = CountMinSketch(512, 4, seed=5)
        for k in stream:
            narrow.add(k)
            wide.add(k)
        err_narrow = sum(narrow.estimate(k) - n for k, n in true.items())
        err_wide = sum(wide.estimate(k) - n for k, n in true.items())
        assert err_wide <= err_narrow

    def test_invalid_error_params_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 4)
        with pytest.raises(ValueError):
            CountMinSketch(4, 4, decay=0.0)


class TestDecay:
    def test_decay_is_monotone_on_every_key(self):
        stream, true = zipf_stream(1000, 200, 1.2, 9)
        cm = CountMinSketch(128, 4, seed=9, decay=0.5)
        for k in stream:
            cm.add(k)
        before = {k: cm.estimate(k) for k in true}
        cm.decay()
        for k in true:
            est = cm.estimate(k)
            assert est <= before[k]
            assert est == pytest.approx(before[k] * 0.5)
        assert cm.total == pytest.approx(1000 * 0.5)

    def test_decay_one_is_identity_and_zero_clears(self):
        cm = CountMinSketch(32, 3)
        cm.add(7, 4.0)
        cm.decay(1.0)
        assert cm.estimate(7) == 4.0
        cm.decay(0.0)
        assert cm.estimate(7) == 0.0
        assert cm.total == 0.0

    def test_vanishing_mass_snaps_to_exact_zero(self):
        cm = CountMinSketch(8, 2, decay=0.5)
        cm.add(1, 1.0)
        for _ in range(60):  # 2**-60 << 1e-9
            cm.decay()
        assert cm.total == 0.0
        assert not cm.counts.any()

    def test_overcount_invariant_survives_interleaved_decay(self):
        # decayed true counts: same recurrence the sketch applies
        cm = CountMinSketch(64, 4, seed=2, decay=0.75)
        true = {}
        rng = np.random.default_rng(2)
        for _ in range(20):
            cm.decay()
            true = {k: v * 0.75 for k, v in true.items()}
            for k in rng.integers(0, 50, size=30):
                cm.add(int(k))
                true[int(k)] = true.get(int(k), 0.0) + 1.0
        for k, v in true.items():
            assert cm.estimate(k) >= v - 1e-9


class TestMergeAndKeys:
    def test_merge_is_elementwise_sum(self):
        a = CountMinSketch(64, 4, seed=1)
        b = CountMinSketch(64, 4, seed=1)
        for k in range(40):
            a.add(k)
            b.add(k, 2.0)
        a.merge(b)
        for k in range(40):
            assert a.estimate(k) >= 3.0
        assert a.total == 40 + 80

    def test_merge_requires_same_shape_and_seed(self):
        a = CountMinSketch(64, 4, seed=1)
        for other in (
            CountMinSketch(32, 4, seed=1),
            CountMinSketch(64, 3, seed=1),
            CountMinSketch(64, 4, seed=2),
        ):
            assert not a.compatible(other)
            with pytest.raises(ValueError):
                a.merge(other)

    def test_copy_is_independent(self):
        a = CountMinSketch(16, 2, seed=4)
        a.add(3, 5.0)
        c = a.copy()
        c.add(3, 1.0)
        assert a.estimate(3) == 5.0
        assert c.estimate(3) == 6.0

    def test_bitstring_prefix_and_zero_extension_hash_apart(self):
        # BitString(0b01, 2) vs BitString(0b0100, 4): same value after
        # zero-extension, different lengths => different digests
        a = BitString(0b01, 2)
        b = BitString(0b0100, 4)
        assert _fold_key(a) != _fold_key(b)

    def test_same_seed_same_stream_is_deterministic(self):
        runs = []
        for _ in range(2):
            cm = CountMinSketch(64, 4, seed=7)
            for k in range(100):
                cm.add(BitString(k, 16))
            runs.append(cm.counts.copy())
        assert (runs[0] == runs[1]).all()
