"""Monte Carlo decode probability of expanding-window random linear coding.

Source messages are layered; window ``l`` spans the first ``K_l`` elements.
Coded elements for window ``l`` carry coefficient vectors of length ``K_l``
drawn uniformly at random, so the stacked coefficient matrix over all windows
is block lower-triangular.  A window decodes once that matrix reaches full
column rank over its span; only that rank matters, so the sampler draws
neither payloads nor coefficient rows but the rank evolution itself.

Because windows are processed in increasing order, every row seen so far lies
inside the current window's coordinate span, so at rank deficit
``d = K_l - rank`` a fresh uniform row is dependent with probability exactly
q^-d.  The dependent rows met before the deficit drops below ``d`` are
therefore geometric, P(G_d >= g) = q^(-d*g), independent across deficits,
windows and trials (the exact finite-field law of Trullols-Cruces,
Barcelo-Ordinas and Fiore, IEEE Comm. Letters 2011).  The sampler moves whole
(rank, received blocks) groups of trials and labels only those with some
G_d >= 1, so its cost grows with distinct ranks times block counts plus about
trials/q hit trials, not with the trial count.
"""

from __future__ import annotations

import numpy as np

from .decode_prob import (
    DecodeProbability,
    LayerConfig,
    TransmissionPlan,
    _checked_erasure,
    receive_pmf,
)

FIELD_SIZE = 256  # default q: coefficients drawn from GF(2^8)


def simulate_decode_prob(
    layers: LayerConfig,
    plan: TransmissionPlan,
    erasure,
    trials: int,
    seed: int,
    q: int = FIELD_SIZE,
) -> DecodeProbability:
    """Monte Carlo estimate of the per-window decode probability over GF(q).

    Every trial erases each of the ``N_l`` blocks independently (a lost block
    drops all of its ``n_l`` elements) and tests window-by-window
    decodability of the survivors' random coefficients.  The sampler draws,
    per window, how many trials at each rank receive each block count and
    the geometric dependent-row counts G_d of the few trials that meet any;
    a trial then gains one rank per element until its deficit is cleared or
    its elements run out, each dependent row costing one element.  All
    draws come from one ``default_rng(seed)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise ValueError(f"field size q must be an integer >= 2, got {q!r}")
    p = _checked_erasure(erasure)
    if p.shape != (layers.num_layers,):
        raise ValueError("one erasure probability per window is required")
    if plan.num_windows != layers.num_layers:
        raise ValueError("plan must cover every window")

    p_hat = _rank_chain_counts(layers, plan, p, trials, np.random.default_rng(seed), q) / trials
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return DecodeProbability(
        p_win=tuple(float(v) for v in p_hat),
        std_err=tuple(float(v) for v in std_err),
        trials=trials,
    )


def _rank_chain_counts(layers, plan, erasure, trials, rng, q) -> np.ndarray:
    """Sample the rank evolution of the stacked coefficient matrix.

    The state is ``pop[r]``, the number of trials at rank ``r``; trials at
    one rank are exchangeable, so a multinomial draw splits each rank group
    by received blocks.  At deficit ``d`` a trial meets G_d dependent rows,
    P(G_d >= 1) = q^-d, and G_d given G_d >= 1 is ``geometric(1 - q^-d)``.
    Per rank group and open deficit, the trials with G_d >= 1 are a binomial
    count drawn as a uniform subset of the group (one Bernoulli per trial in
    law), labelled by their place in the (rank, blocks) order.  A hit trial
    clears deficits ``gap..d`` for the sum of ``1 + G_d'`` and gains as many
    as it can afford; every other trial gains ``min(gap, elements)``.
    """
    sizes = layers.window_sizes
    counts = np.zeros(layers.num_layers, dtype=np.int64)
    pop = np.zeros(sizes[-1] + 1, dtype=np.int64)
    pop[0] = trials
    for i, size in enumerate(sizes):
        n_tb = plan.tb_counts[i]
        cap = plan.elements_per_tb[i]
        if n_tb > 0 and cap > 0:
            live = np.flatnonzero(pop)
            group, gap = pop[live], size - live
            elements = np.arange(n_tb + 1) * cap
            # cell[j * (n_tb + 1) + b]: trials at rank live[j] receiving b blocks
            cell = rng.multinomial(group, receive_pmf(n_tb, erasure[i])).ravel()
            dest = (live[:, None] + np.minimum(gap[:, None], elements)).ravel()
            deficit = np.arange(1, int(gap.max()) + 1)
            stall = np.power(float(q), -deficit)  # P(G_d >= 1)
            hit = rng.binomial(group[:, None], np.where(deficit <= gap[:, None], stall, 0.0))
            pop = np.zeros_like(pop)
            if hit.any():
                hj, col = np.nonzero(hit)
                h = hit[hj, col]
                first = np.cumsum(group) - group  # label of each group's first trial
                who = np.concatenate([first[j] + rng.choice(group[j], n, replace=False)
                                      for j, n in zip(hj.tolist(), h.tolist())])
                col = np.repeat(col, h)
                affected, row = np.unique(who, return_inverse=True)
                flat = np.searchsorted(np.cumsum(cell), affected, side="right")
                j, b = np.divmod(flat, n_tb + 1)
                cost = np.zeros((affected.size, deficit.size), dtype=np.int64)
                cost[row, col] = rng.geometric(1.0 - stall[col])
                open_ = deficit <= gap[j, None]
                cost = (cost + 1) * open_
                need = np.cumsum(cost[:, ::-1], axis=1)[:, ::-1]
                gain = np.count_nonzero(open_ & (need <= elements[b, None]), axis=1)
                np.subtract.at(cell, flat, 1)
                np.add.at(pop, live[j] + gain, 1)
            np.add.at(pop, dest, cell)
        counts[i] = pop[size]
    return counts
