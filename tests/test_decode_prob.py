import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ewcast.decode_prob import (
    DecodeProbability,
    LayerConfig,
    TransmissionPlan,
    _met_levels,
    _pascal_rows,
    _scalar_receive_pmf,
    advance_deficit,
    binomial_pmf_rows,
    expected_psnr,
    mrt_block_counts,
    receive_pmf,
    success_table,
    uncoded_survival,
    window_decode_probs,
)
from nested_sum import BRUTE_FORCE_LIMIT, brute_force_decode_prob, window_decode_prob


def plan(tb_counts, elements_per_tb, mcs=None):
    L = len(tb_counts)
    return TransmissionPlan(mcs or (0,) * L, tb_counts, elements_per_tb)


def max_psnr_uep(layers, pl, erasure):
    return expected_psnr(layers, window_decode_probs(layers, pl, erasure))


def qos_levels(layers, pl, erasure, q_hat):
    return _met_levels(window_decode_probs(layers, pl, erasure), q_hat)


def max_psnr_mrt(layers, pl, erasure):  # every block of layers 1..l must arrive
    blocks = mrt_block_counts(layers, pl.elements_per_tb)
    return expected_psnr(layers, uncoded_survival(erasure, blocks))


def carried(carry, k_new, capacity, received, sent):
    """Deficit after one window for a certain incoming carry and reception:
    the one entry of ``advance_deficit`` on a one-hot distribution and pmf."""
    dist = np.zeros(carry + 1)
    dist[carry] = 1.0
    pmf = np.zeros(sent + 1)
    pmf[received] = 1.0
    new = advance_deficit(dist, k_new, capacity, pmf)
    [deficit] = np.flatnonzero(new)
    assert new[deficit] == 1.0
    return int(deficit)


class TestDeficitCarry:
    # receptions settle the carry plus the fresh elements; any shortfall,
    # never negative, is carried into the next window
    def test_partial_offset(self):
        assert carried(2, 2, 2, received=1, sent=3) == 2

    def test_no_reception(self):
        assert carried(2, 2, 2, received=0, sent=3) == 4

    def test_surplus_clamps_to_zero(self):
        for carry in (0, 1, 7, 30):
            assert carried(carry, 3, 1, received=100, sent=100) == 0


class TestLayerConfig:
    def test_window_sizes_cumulative(self):
        layers = LayerConfig((10, 40, 50))
        assert layers.window_sizes == (10, 50, 100)
        assert layers.num_layers == 3

    def test_rejects_empty_layer(self):
        with pytest.raises(ValueError):
            LayerConfig((3, 0, 2))

    def test_increasing_targets_warn(self):
        with pytest.warns(UserWarning):
            LayerConfig((1, 1), coverage_targets=(0.5, 0.9))

    # a message is its field, then the rule; None where the rule starts with the field
    @pytest.mark.parametrize("kwargs, rule, field", [
        (dict(k=()), "at least one layer is required", "k"),
        (dict(k=(3, 4), psnr=(30.0,)), "psnr must have one entry per layer", None),
        (dict(k=(3,), coverage_targets=(0.9, 0.5)),
         "coverage_targets must have one entry per layer", None),
        (dict(k=(3, 4), coverage_targets=(0.9, 0.0)), "coverage targets must lie in (0, 1]",
         "coverage_targets"),
        (dict(k=(3,), coverage_targets=(1.5,)), "coverage targets must lie in (0, 1]",
         "coverage_targets"),
        (dict(k=(3, 0, 2)), "layer element counts must be >= 1", "k"),
    ])
    def test_refusals_name_the_rule(self, kwargs, rule, field):
        message = f"{field}: {rule}" if field else rule
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LayerConfig(**kwargs)


class TestTransmissionPlanRefusals:
    # a message is its field, then the rule
    @pytest.mark.parametrize("fields, rule, field", [
        (((4, 5), (1,), (2, 3)), "plan vectors must share one entry per window",
         "mcs, tb_counts, elements_per_tb"),
        (((16,), (1,), (2,)), "MCS indices must lie in [0, 15]", "mcs"),
        (((-1,), (1,), (2,)), "MCS indices must lie in [0, 15]", "mcs"),
        (((4,), (-1,), (2,)), "block counts must be >= 0", "tb_counts"),
        (((4,), (0,), (-2,)), "block capacities must be >= 0", "elements_per_tb"),
        (((4,), (3,), (0,)), "a transmitted window needs capacity >= 1", "elements_per_tb"),
    ])
    def test_refusals_name_the_rule(self, fields, rule, field):
        message = f"{field}: {rule}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TransmissionPlan(*fields)

    def test_unsent_window_may_lack_capacity(self):
        assert TransmissionPlan((0, 4), (0, 3), (0, 2)).tb_counts == (0, 3)


class TestWindowDecodeProb:
    def test_single_window_binomial_tail(self):
        # K=4 elements, 2 per block: needs 2 of 3 blocks at 10% loss
        layers = LayerConfig((4,))
        value = window_decode_prob(layers, plan((3,), (2,)), [0.1], 1)
        assert value == pytest.approx(0.972, abs=1e-12)

    def test_lossless_exact_fit(self):
        layers = LayerConfig((2, 2))
        value = window_decode_prob(layers, plan((1, 1), (2, 2)), [0.0, 0.0], 2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_four_outcome_enumeration(self):
        # only the both-blocks-received outcome decodes the second window
        layers = LayerConfig((2, 2))
        value = window_decode_prob(layers, plan((1, 1), (2, 2)), [0.5, 0.5], 2)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_no_transmissions_no_recovery(self):
        layers = LayerConfig((3, 4))
        probs = window_decode_probs(layers, plan((0, 0), (0, 0)), [0.3, 0.3])
        assert np.all(probs == 0.0)

    def test_closed_form_single_window(self):
        # generic L=1 check against the explicit binomial tail
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 30))
            n = int(rng.integers(1, 8))
            N = int(rng.integers(0, 25))
            p = float(rng.uniform(0, 1))
            layers = LayerConfig((k,))
            got = window_decode_prob(layers, plan((N,), (n,)), [p], 1)
            needed = math.ceil(k / n)
            expect = sum(
                math.comb(N, r) * (1 - p) ** r * p ** (N - r)
                for r in range(needed, N + 1)
            )
            assert got == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_block_count_and_loss(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            L = int(rng.integers(1, 4))
            k = tuple(int(v) for v in rng.integers(1, 8, L))
            n = tuple(int(v) for v in rng.integers(1, 5, L))
            N = [int(v) for v in rng.integers(0, 8, L)]
            p = [float(v) for v in rng.uniform(0.05, 0.95, L)]
            layers = LayerConfig(k)
            base = window_decode_probs(layers, plan(tuple(N), n), p)
            for i in range(L):
                bumped = list(N)
                bumped[i] += 1
                more = window_decode_probs(layers, plan(tuple(bumped), n), p)
                assert np.all(more >= base - 1e-12)
                worse = list(p)
                worse[i] = min(1.0, worse[i] + 0.1)
                lossier = window_decode_probs(layers, plan(tuple(N), n), worse)
                assert np.all(lossier <= base + 1e-12)


class TestBruteForceCrossCheck:
    def test_matches_dp_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            L = int(rng.integers(1, 4))
            k = tuple(int(v) for v in rng.integers(1, 7, L))
            n = tuple(int(v) for v in rng.integers(1, 5, L))
            N = tuple(int(v) for v in rng.integers(0, 7, L))
            p = [float(v) for v in rng.uniform(0, 1, L)]
            layers = LayerConfig(k)
            for w in range(1, L + 1):
                dp = window_decode_prob(layers, plan(N, n), p, w)
                bf = brute_force_decode_prob(layers, plan(N, n), p, w)
                assert dp == pytest.approx(bf, abs=1e-12)

    def test_all_windows_off(self):
        layers = LayerConfig((2, 3))
        for w in (1, 2):
            assert brute_force_decode_prob(layers, plan((0, 0), (2, 2)), [0.1, 0.1], w) == 0.0

    def test_lossless_exact_fit_every_window(self):
        layers = LayerConfig((4, 6))
        p2 = plan((2, 3), (2, 2))
        for w in (1, 2):
            assert brute_force_decode_prob(layers, p2, [0.0, 0.0], w) == pytest.approx(1.0)

    def test_refuses_oversized_enumeration(self):
        big = int(BRUTE_FORCE_LIMIT ** 0.5) + 2
        layers = LayerConfig((2, 2))
        with pytest.raises(ValueError, match="enumeration"):
            brute_force_decode_prob(layers, plan((big, big), (1, 1)), [0.1, 0.1], 2)


class TestQosLevels:
    def test_all_below_threshold(self):
        layers = LayerConfig((50, 50))
        sparse = plan((1, 1), (2, 2))
        assert qos_levels(layers, sparse, [0.1, 0.1], 0.9).tolist() == [False, False]

    def test_top_window_covers_all_levels(self):
        # window 1 is not sent: level 1 is met through window 2 alone
        layers = LayerConfig((2, 2))
        generous = plan((0, 9), (2, 4))
        assert qos_levels(layers, generous, [0.1, 0.1], 0.99).tolist() == [True, True]

    def test_or_chain_mixed(self):
        # first window strong, second weak: level 1 holds, level 2 does not
        layers = LayerConfig((2, 40))
        mixed = plan((3, 1), (2, 2))
        probs = window_decode_probs(layers, mixed, [0.1, 0.1])
        assert probs[0] >= 0.99 > probs[1]
        levels = qos_levels(layers, mixed, [0.1, 0.1], 0.99)
        assert levels.tolist() == [True, False]


class TestScalarMetrics:
    def test_max_psnr_uep(self):
        psnr = (27.9, 35.9, 45.8)
        layers = LayerConfig((2, 2, 2), psnr=psnr)
        # all windows certain to fail
        dead = plan((0, 0, 0), (2, 2, 2))
        assert max_psnr_uep(layers, dead, [0.5] * 3) == 0.0
        # base window certain, others off: plateau of layer 1
        base_only = plan((5, 0, 0), (2, 2, 2))
        assert max_psnr_uep(layers, base_only, [0.0, 1.0, 1.0]) == pytest.approx(27.9)

    def test_max_psnr_uep_weighting(self):
        # probabilities (1, 1, 0.5): middle plateau wins
        psnr = (27.9, 35.9, 45.8)
        layers = LayerConfig((2, 2, 2), psnr=psnr)
        generous = plan((9, 9, 1), (2, 2, 2))
        probs = window_decode_probs(layers, generous, [0.0, 0.0, 0.5])
        assert probs.tolist() == pytest.approx([1.0, 1.0, 0.5])
        assert max_psnr_uep(layers, generous, [0.0, 0.0, 0.5]) == pytest.approx(35.9)

    def test_max_psnr_mrt(self):
        layers1 = LayerConfig((4,), psnr=(27.9,))
        # 2 blocks of 2 elements, each surviving with 0.9
        assert max_psnr_mrt(layers1, plan((2,), (2,)), [0.1]) == pytest.approx(27.9 * 0.81)
        layers3 = LayerConfig((2, 2, 2), psnr=(27.9, 35.9, 45.8))
        p3 = plan((1, 1, 1), (2, 2, 2))
        assert max_psnr_mrt(layers3, p3, [0.0, 0.0, 0.0]) == pytest.approx(45.8)
        assert max_psnr_mrt(layers3, p3, [1.0, 0.0, 0.0]) == 0.0


class TestDecodeProbabilityType:
    def test_simulated_requires_std_err(self):
        with pytest.raises(TypeError):
            DecodeProbability((0.5,))
        with pytest.raises(TypeError):
            DecodeProbability((0.5,), (0.1,))

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DecodeProbability((1.5,), (0.0,), 10)


class TestBinomialPrimitive:
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.37, 1.0])
    def test_matches_exact_rational_binomial(self, loss):
        # oracle: C(N, r) q^r p^(N-r) in exact rationals of the float loss
        rows = binomial_pmf_rows(40, loss)
        # tail[N, j] = P(at least j of N arrive), with a zero column j = N + 1
        tail = np.zeros((41, 42))
        tail[:, :-1] = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
        p = Fraction(loss)
        for N in range(41):
            exact = [math.comb(N, r) * (1 - p) ** r * p ** (N - r) for r in range(N + 1)]
            for r in range(N + 1):
                assert abs(rows[N, r] - float(exact[r])) <= 1e-15
                assert abs(tail[N, r] - float(sum(exact[r:]))) <= 1e-15
            assert np.all(rows[N, N + 1 :] == 0.0)
            assert tail[N, N + 1] == 0.0
            assert rows[N].sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.diff(tail[N]) <= 0.0)


class TestSuccessTable:
    @pytest.mark.parametrize("loss", [0.0, 1.0, 0.1, 0.2871, 0.63, 0.914])
    def test_matches_exact_rational_threshold(self, loss):
        # oracle: P(Bin(N, 1 - loss) * capacity >= k + e) in exact rationals
        p = Fraction(loss)
        for size, k_w, capacity, budget in ((1, 4, 2, 9), (7, 3, 5, 12), (12, 9, 1, 25)):
            table = success_table(size, k_w, capacity, budget, loss)
            assert table.shape == (size, budget + 1)
            for e in range(size):
                for N in range(budget + 1):
                    exact = sum(math.comb(N, r) * (1 - p) ** r * p ** (N - r)
                                for r in range(N + 1) if r * capacity >= k_w + e)
                    assert abs(table[e, N] - float(exact)) <= 1e-15

    def test_without_capacity_nothing_recovers(self):
        assert np.all(success_table(3, 2, 0, 5, 0.1) == 0.0)

    def test_read_only_and_shared(self):
        table = success_table(5, 3, 2, 8, 0.25)
        with pytest.raises(ValueError):
            table[1, 2] = 0.5
        assert success_table(5, 3, 2, 8, 0.25) is table

    def test_prefix_walk_times_table_is_the_window_dp(self):
        # the allocators' path (deficit walk over earlier windows, then the
        # success table) against the window DP at the same block count
        rng = np.random.default_rng(20250811)
        worst = 0.0
        for _ in range(300):
            L = int(rng.integers(1, 4))
            k = tuple(int(v) for v in rng.integers(1, 12, size=L))
            n = tuple(int(v) for v in rng.integers(1, 6, size=L))
            N = tuple(int(v) for v in rng.integers(0, 9, size=L))
            loss = float(rng.uniform(0.0, 1.0))
            probs = window_decode_probs(LayerConfig(k), plan(N, n), [loss] * L)
            dist = np.ones(1)
            for w in range(L):
                budget = N[w] + int(rng.integers(0, 4))
                row = dist @ success_table(len(dist), k[w], n[w], budget, loss)
                worst = max(worst, abs(row[N[w]] - probs[w]))
                dist = advance_deficit(dist, k[w], n[w], receive_pmf(N[w], loss))
        assert worst <= 1e-15


class TestReceivePmfMemo:
    def test_memoised_rows_equal_fresh_pascal_rows_bitwise(self):
        # every loss is asked at the same N before N moves on, so a memo
        # that ignored the loss would hand one loss's row to the next; row N
        # of one 0..400 pass is the fresh N-block row followed by zeros
        losses = [0.0, -0.0, 1.0, 0.1, *np.random.default_rng(11).uniform(0.0, 1.0, 2)]
        _scalar_receive_pmf.cache_clear()
        fresh = zip(*(_pascal_rows(400, loss) for loss in losses))
        for N, rows in enumerate(fresh):
            for loss, row in zip(losses, rows):
                for form in (float(loss), np.float64(loss), np.array(loss)):
                    got = receive_pmf(N, form)
                    assert got.tobytes() == row[: N + 1].tobytes(), (N, loss, type(form))

    def test_scalar_row_is_shared_and_read_only(self):
        row = receive_pmf(7, 0.3)
        assert receive_pmf(np.int64(7), np.float64(0.3)) is row
        with pytest.raises(ValueError):
            row[2] = 0.5
        assert row.tobytes() == list(_pascal_rows(7, 0.3))[-1].tobytes()

    def test_batched_rows_are_fresh_writable_and_uncached(self):
        _scalar_receive_pmf.cache_clear()
        losses = np.array([[0.3], [0.05]])
        rows = receive_pmf(6, losses)
        assert rows.shape == (2, 1, 7)
        rows[0, 0, 0] = 0.5  # the caller's own array
        again = receive_pmf(6, losses)
        assert again is not rows and again[0, 0, 0] != 0.5
        assert receive_pmf(6, np.array([0.3])).flags.writeable
        assert _scalar_receive_pmf.cache_info().currsize == 0
        for loss, row in zip(losses.ravel(), again[:, 0]):
            assert row.tobytes() == receive_pmf(6, loss).tobytes()

    def test_cache_stays_within_its_bound(self):
        bound = _scalar_receive_pmf.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 50):
            receive_pmf(3, i / (bound + 50))
        assert _scalar_receive_pmf.cache_info().currsize <= bound


class TestUncodedSurvival:
    def test_hand_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = int(rng.integers(1, 5))
            losses = rng.uniform(0.0, 1.0, L)
            counts = rng.integers(1, 6, L)
            got = uncoded_survival(losses, counts)
            for lv in range(L):
                expect = math.prod((1.0 - losses[i]) ** int(counts[i])
                                   for i in range(lv + 1))
                assert got[lv] == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_unsent_window_reads_lost(self):
        got = uncoded_survival([0.0, 0.0, 0.0], [2, 0, 3])
        assert got.tolist() == [1.0, 0.0, 0.0]

    def test_batches_over_leading_axes(self):
        losses = np.array([[0.1, 0.2], [0.5, 1.0]])
        got = uncoded_survival(losses, [2, 1])
        assert got[0].tolist() == pytest.approx([0.81, 0.81 * 0.8])
        assert got[1].tolist() == pytest.approx([0.25, 0.0])


class TestErasureValidation:
    LAYERS = LayerConfig((2, 3), psnr=(30.0, 40.0))
    PLAN = plan((3, 4), (1, 2))
    ENTRY_POINTS = {
        "window_decode_probs": lambda e: window_decode_probs(
            TestErasureValidation.LAYERS, TestErasureValidation.PLAN, e),
        "window_decode_prob": lambda e: window_decode_prob(
            TestErasureValidation.LAYERS, TestErasureValidation.PLAN, e, 2),
        "brute_force_decode_prob": lambda e: brute_force_decode_prob(
            TestErasureValidation.LAYERS, TestErasureValidation.PLAN, e, 2),
        "qos_levels": lambda e: qos_levels(
            TestErasureValidation.LAYERS, TestErasureValidation.PLAN, e, 0.9),
        "uncoded_survival": lambda e: uncoded_survival(e, [1, 1]),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_rejects_non_finite_or_out_of_range_loss(self, entry, bad):
        with pytest.raises(ValueError, match="erasure probabilities"):
            self.ENTRY_POINTS[entry]([bad, 0.1])

    @pytest.mark.parametrize("entry", ["window_decode_probs", "qos_levels", "uncoded_survival"])
    def test_rejects_nan_anywhere_in_a_batch(self, entry):
        batch = np.full((4, 2), 0.1)
        batch[2, 1] = math.nan
        with pytest.raises(ValueError, match="erasure probabilities"):
            self.ENTRY_POINTS[entry](batch)

    def test_brute_force_refuses_a_batch(self):
        with pytest.raises(ValueError, match="one erasure vector"):
            self.ENTRY_POINTS["brute_force_decode_prob"](np.full((2, 2), 0.1))


class TestBatchedEntryPoints:
    # the 1-D call on each receiver is the reference for every batched form
    LAYERS = LayerConfig((2, 3, 4), psnr=(28.0, 36.0, 46.0))
    PLAN = plan((3, 2, 4), (2, 3, 2))
    LOSSES = np.array([[0.0, 0.1, 0.2], [0.5, 1.0, 0.05], [1.0, 1.0, 1.0],
                       [0.3, 0.3, 0.3]])

    def test_each_entry_point_matches_rowwise_calls(self):
        layers, pl, losses = self.LAYERS, self.PLAN, self.LOSSES
        probs = window_decode_probs(layers, pl, losses)
        levels = qos_levels(layers, pl, losses, 0.5)
        # two batch axes: the same receivers in a 2 x 2 arrangement
        assert np.array_equal(window_decode_probs(layers, pl, losses.reshape(2, 2, 3)),
                              probs.reshape(2, 2, 3))
        for row, loss in enumerate(losses):
            assert np.allclose(probs[row], window_decode_probs(layers, pl, loss),
                               rtol=0.0, atol=1e-15)
            assert levels[row].tolist() == qos_levels(layers, pl, loss, 0.5).tolist()
            for lv in (1, 2, 3):
                assert window_decode_prob(layers, pl, losses, lv)[row] == pytest.approx(
                    window_decode_prob(layers, pl, loss, lv), abs=1e-15)
            assert max_psnr_uep(layers, pl, losses)[row] == pytest.approx(
                max_psnr_uep(layers, pl, loss), abs=1e-12)
            assert max_psnr_mrt(layers, pl, losses)[row] == max_psnr_mrt(layers, pl, loss)

    def test_zero_receivers_flow_through(self):
        empty = np.zeros((0, 3))
        assert window_decode_probs(self.LAYERS, self.PLAN, empty).shape == (0, 3)
        assert qos_levels(self.LAYERS, self.PLAN, empty, 0.9).shape == (0, 3)
        assert expected_psnr(self.LAYERS, empty).shape == (0,)

    def test_one_receiver_returns_scalars(self):
        loss = self.LOSSES[0]
        assert isinstance(window_decode_prob(self.LAYERS, self.PLAN, loss, 2), float)
        assert isinstance(max_psnr_uep(self.LAYERS, self.PLAN, loss), float)
        assert isinstance(max_psnr_mrt(self.LAYERS, self.PLAN, loss), float)


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import ewcast; "
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
