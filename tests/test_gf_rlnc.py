import math

import numpy as np
import pytest

from ewcast.decode_prob import LayerConfig, TransmissionPlan, window_decode_probs
from ewcast.gf_rlnc import FIELD_SIZE, simulate_decode_prob
from gf256 import INV, MUL, PRIMITIVE_POLY, BatchRank, RankTracker, matrix_counts

FIELD = np.arange(FIELD_SIZE)


class TestFieldArithmetic:
    def test_tables_match_shift_and_add_product(self):
        # carry-less multiplication reduced by the polynomial, bit by bit
        a, b = FIELD[:, None], FIELD[None, :]
        product = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.int64)
        for _ in range(8):
            product ^= np.where(b & 1, a, 0)
            a, b = np.where(a & 0x80, (a << 1) ^ PRIMITIVE_POLY, a << 1), b >> 1
        assert np.array_equal(MUL, product)

    def test_identity_and_zero(self):
        assert np.array_equal(MUL[:, 1], FIELD) and np.array_equal(MUL[1, :], FIELD)
        assert not MUL[:, 0].any() and not MUL[0, :].any()

    def test_inverse_exhaustive(self):
        assert (MUL[FIELD[1:], INV[1:]] == 1).all()
        # each nonzero element has exactly one inverse
        assert ((MUL[1:] == 1).sum(axis=1) == 1).all()

    def test_zero_has_no_inverse(self):
        assert not (MUL[0] == 1).any()

    def test_associativity_and_distributivity_exhaustive(self):
        # every triple (a, b, c), one a at a time
        sums = np.bitwise_xor.outer(FIELD, FIELD)
        assert np.array_equal(MUL, MUL.T)
        for a in range(FIELD_SIZE):
            assert np.array_equal(MUL[MUL[a]], MUL[a][MUL])
            assert np.array_equal(MUL[a][sums], MUL[a][:, None] ^ MUL[a][None, :])


class TestRankTracker:
    def test_rank_monotone_under_additions(self):
        # rows of the windows of a (2, 2, 2) stream, zero-padded like the
        # matrix path's: the rank never drops, grows by at most one per row,
        # and add() reports exactly the rows that grew it
        rng = np.random.default_rng(4)
        sizes = LayerConfig((2, 2, 2)).window_sizes
        tracker = RankTracker(sizes[-1])
        previous = 0
        for _ in range(30):
            width = sizes[int(rng.integers(0, 3))]
            grew = tracker.add(rng.integers(0, FIELD_SIZE, size=width, dtype=np.uint8))
            assert tracker.rank - previous == int(grew)
            previous = tracker.rank
        assert tracker.rank == sizes[-1]

    def test_rank_tracker_counts_independent_rows(self):
        tracker = RankTracker(3)
        assert tracker.add(np.array([1, 2, 3], dtype=np.uint8))
        assert not tracker.add(np.array([2, 4, 6], dtype=np.uint8))
        assert tracker.add(np.array([0, 1, 0], dtype=np.uint8))
        assert tracker.rank == 2

    def test_batch_matches_scalar_tracker_row_by_row(self):
        # 14 rows per trial, each of its own width in 2..10; row 6 repeats row 2, row 9 is
        # zero and row 12 combines rows 4 and 10, so none of those adds rank
        rng = np.random.default_rng(8)
        trials, K = 300, 10
        rows = rng.integers(0, FIELD_SIZE, size=(14, trials, K), dtype=np.uint8)
        rows *= np.arange(K) < rng.integers(2, K + 1, size=(14, trials, 1))
        a, b = rng.integers(1, FIELD_SIZE, size=(2, trials, 1))
        rows[6], rows[9], rows[12] = rows[2], 0, MUL[a, rows[4]] ^ MUL[b, rows[10]]
        batch, scalar = BatchRank(trials, K), [RankTracker(K) for _ in range(trials)]
        before = batch.rank
        for j, row in enumerate(rows):
            batch.add(row)
            for tracker, r in zip(scalar, row):
                tracker.add(r)
            assert batch.rank.tolist() == [t.rank for t in scalar]
            assert j not in (6, 9, 12) or np.array_equal(batch.rank, before)
            before = batch.rank


class TestSimulateDecodeProb:
    def setup_method(self):
        self.layers = LayerConfig((2, 3))
        self.plan = TransmissionPlan((0, 0), (3, 3), (2, 2))

    def test_total_erasure_gives_zero(self):
        result = simulate_decode_prob(self.layers, self.plan, [1.0, 1.0], 500, seed=1)
        assert result.p_win == (0.0, 0.0)

    def test_lossless_with_margin_is_near_certain(self):
        # margin of 5+ elements: rank deficiency beyond 1 - 2^-8 is negligible
        layers = LayerConfig((3, 3))
        generous = TransmissionPlan((0, 0), (4, 4), (2, 2))
        result = simulate_decode_prob(layers, generous, [0.0, 0.0], 20000, seed=2)
        assert all(p >= 0.999 for p in result.p_win)

    def test_deterministic_given_seed(self):
        a = simulate_decode_prob(self.layers, self.plan, [0.3, 0.2], 4000, seed=9)
        b = simulate_decode_prob(self.layers, self.plan, [0.3, 0.2], 4000, seed=9)
        assert a == b

    def test_estimates_are_counts_over_echoed_trials(self):
        result = simulate_decode_prob(self.layers, self.plan, [0.3, 0.2],
                                      4000, seed=9)
        assert result.trials == 4000
        assert result.std_err is not None
        # estimates are success counts over trials: multiples of 1/trials
        for p in result.p_win:
            assert abs(p * 4000 - round(p * 4000)) < 1e-9

    def test_chain_and_matrix_paths_agree(self):
        # same quantity estimated two ways: z-scores stay small
        trials = 30000
        chain = simulate_decode_prob(self.layers, self.plan, [0.3, 0.2],
                                     trials, seed=5)
        matrix = matrix_counts(self.layers, self.plan, [0.3, 0.2], trials,
                               np.random.default_rng(6)) / trials
        for pc, pm, sc in zip(chain.p_win, matrix, chain.std_err):
            sm = np.sqrt(pm * (1.0 - pm) / trials)
            z = abs(pc - pm) / max(np.hypot(sc, sm), 1e-12)
            assert z < 4.0

    def test_matrix_mode_respects_block_atomicity(self):
        # erasures act on whole blocks: with one block of 2 elements per
        # window, a window never contributes an odd element count, so a
        # 3-element window cannot decode from its own block alone
        layers = LayerConfig((1, 2))
        one_block = TransmissionPlan((0, 0), (0, 1), (2, 2))
        counts = matrix_counts(layers, one_block, [0.0, 0.0], 2000,
                               np.random.default_rng(3))
        assert counts[0] == 0  # window 1 got nothing
        assert counts[1] == 0  # 2 elements < 3 unknowns, always

    def test_agrees_with_analytic_model(self):
        layers = LayerConfig((4, 6))
        spread = TransmissionPlan((0, 0), (8, 7), (2, 3))
        erasure = [0.2, 0.3]
        analytic = window_decode_probs(layers, spread, erasure)
        sim = simulate_decode_prob(layers, spread, erasure, 60000, seed=12)
        for a, s, se in zip(analytic, sim.p_win, sim.std_err):
            assert abs(a - s) <= 7e-3 + 4.0 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_decode_prob(self.layers, self.plan, [0.1, 0.1], 0, seed=1)
        with pytest.raises(ValueError):
            simulate_decode_prob(self.layers, self.plan, [0.1], 10, seed=1)

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_rejects_field_size_below_two(self, q):
        with pytest.raises(ValueError, match="q"):
            simulate_decode_prob(self.layers, self.plan, [0.1, 0.1], 10,
                                 seed=1, q=q)

    def test_smaller_field_loses_more_rank(self):
        # sensitivity knob: a tight reception fails much more often over a
        # small field (rank collisions scale with 1/q)
        layers = LayerConfig((4,))
        tight = TransmissionPlan((0,), (2,), (2,))  # exactly 4 elements
        big = simulate_decode_prob(layers, tight, [0.0], 40000, seed=4, q=256)
        small = simulate_decode_prob(layers, tight, [0.0], 40000, seed=4, q=4)
        assert small.p_win[0] < big.p_win[0] - 0.1

    def test_window2_frequency_matches_explicit_rank_simulation(self):
        # fixed reception: one window-1 element plus two window-2 elements;
        # the rank-evolution sampler must match brute-force elimination over
        # explicit random matrices to Monte Carlo accuracy
        trials = 100_000
        layers = LayerConfig((2, 1))
        plan = TransmissionPlan((0, 0), (1, 2), (1, 1))
        chain = simulate_decode_prob(layers, plan, [0.0, 0.0], trials, seed=21)
        rng = np.random.default_rng(22)
        tracker = BatchRank(trials, 3)
        for width in (2, 3, 3):
            tracker.add(rng.integers(0, FIELD_SIZE, size=(trials, width), dtype=np.uint8))
        freq = np.count_nonzero(tracker.rank == 3) / trials
        spread = np.hypot(chain.std_err[1],
                          np.sqrt(freq * (1 - freq) / trials))
        assert abs(chain.p_win[1] - freq) <= 3.0 * max(spread, 1e-12)


def exact_decode_probs(layers, plan, erasure, q):
    """Exact per-window decode probability over GF(q) for tiny instances.

    Enumerates each window's received block count with its binomial pmf and
    pushes the rank distribution through the per-element chain: at rank
    ``r`` a fresh row raises the rank with probability 1 - q^-(K_l - r).
    """
    sizes = layers.window_sizes
    dist = np.zeros(sizes[-1] + 1)
    dist[0] = 1.0
    probs = []
    for K, n_tb, cap, loss in zip(sizes, plan.tb_counts, plan.elements_per_tb,
                                  erasure):
        up = np.array([1.0 - float(q) ** -(K - r) if r < K else 0.0
                       for r in range(dist.size)])
        mixed = np.zeros_like(dist)
        for m in range(n_tb + 1):
            pmf = math.comb(n_tb, m) * (1 - loss) ** m * loss ** (n_tb - m)
            cur = dist.copy()
            for _ in range(m * cap):
                cur = cur * (1.0 - up) + np.concatenate(([0.0], (cur * up)[:-1]))
            mixed += pmf * cur
        dist = mixed
        probs.append(float(dist[K]))
    return probs


class TestExactFieldOracle:
    """Rank-chain sampler against the exact finite-field chain, 4 SE, no slack."""

    CASES = {
        # window 1 gets at most 2 of its 3 elements: partial rank carries over
        "short_first_window": (LayerConfig((3, 2)),
                               TransmissionPlan((0, 0), (1, 3), (2, 2)),
                               [0.2, 0.3]),
        # window 1 is sent with no blocks at all
        "unsent_window": (LayerConfig((2, 2)),
                          TransmissionPlan((0, 0), (0, 3), (2, 2)),
                          [0.1, 0.25]),
        # few spare elements: at small q a deficit often stalls twice or more
        "tight_reception": (LayerConfig((4,)),
                            TransmissionPlan((0,), (5,), (1,)),
                            [0.05]),
        # window 2 is entered with trials spread over ranks 0, 2, 4 and 6
        "several_ranks_entering": (LayerConfig((6, 4)),
                                   TransmissionPlan((0, 0), (3, 4), (2, 2)),
                                   [0.4, 0.2]),
        # certain reception, then certain loss: one-hot block-count pmfs
        "lossless_then_lost": (LayerConfig((2, 2)),
                               TransmissionPlan((0, 0), (3, 2), (1, 1)),
                               [0.0, 1.0]),
        "lost_then_lossless": (LayerConfig((2, 2)),
                               TransmissionPlan((0, 0), (3, 5), (1, 1)),
                               [1.0, 0.0]),
    }

    def assert_within_four_se(self, case, q, trials, seed):
        layers, plan, erasure = self.CASES[case]
        exact = exact_decode_probs(layers, plan, erasure, q)
        sim = simulate_decode_prob(layers, plan, erasure, trials, seed=seed, q=q)
        for w, (e, s) in enumerate(zip(exact, sim.p_win)):
            se = math.sqrt(e * (1.0 - e) / trials)
            assert abs(s - e) <= 4.0 * se + 1e-12, (case, q, w + 1, e, s)

    @pytest.mark.parametrize("q", [2, 4, 256])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sampler_within_four_se_of_exact(self, case, q):
        self.assert_within_four_se(case, q, 40_000, seed=31)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ten_million_trials_over_gf256(self, case):
        # 4 SE shrinks to a few 1e-4: the rank histogram keeps this cheap
        self.assert_within_four_se(case, 256, 10**7, seed=32)

    @pytest.mark.parametrize("q", [2, 4, 256])
    def test_single_trial_runs_pool_to_exact(self, q):
        # one trial per run: every estimate is 0 or 1, and the mean over
        # independent seeds is a Bernoulli mean of the exact probability
        runs = 400
        for case in sorted(self.CASES):
            layers, plan, erasure = self.CASES[case]
            exact = exact_decode_probs(layers, plan, erasure, q)
            hits = np.zeros(layers.num_layers)
            for seed in range(runs):
                sim = simulate_decode_prob(layers, plan, erasure, 1, seed=seed, q=q)
                assert sim.trials == 1 and set(sim.p_win) <= {0.0, 1.0}
                hits += sim.p_win
            for w, (e, s) in enumerate(zip(exact, hits / runs)):
                se = math.sqrt(e * (1.0 - e) / runs)
                assert abs(s - e) <= 4.0 * se + 1e-12, (case, q, w + 1, e, s)
