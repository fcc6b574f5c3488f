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
(rank, received blocks) groups of trials and draws blocks and G_d per trial
only for the about trials/q that meet a dependent row: its cost grows with
distinct ranks times block counts plus those hit trials, not the trial count.
"""

from __future__ import annotations

import numpy as np

from .decode_prob import (
    DecodeProbability,
    LayerConfig,
    TransmissionPlan,
    _integers,
    _validate_inputs,
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
    decodability of the survivors' random coefficients: it gains one rank per
    element until its deficit is cleared or its elements run out, each
    dependent row costing one element.  All draws come from one
    ``default_rng(seed)``.
    """
    if _integers("trials", (trials,))[0] < 1:
        raise ValueError("trials must be >= 1")
    if _integers("q", (q,))[0] < 2:
        raise ValueError(f"field size q must be an integer >= 2, got {q!r}")
    p = _validate_inputs(layers, plan, erasure)
    if p.ndim != 1:
        raise ValueError("the sampler takes one erasure vector, not a batch")

    p_hat = _rank_chain_counts(layers, plan, p, trials, np.random.default_rng(seed), q) / trials
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return DecodeProbability(p_win=tuple(p_hat.tolist()), std_err=tuple(std_err.tolist()),
                             trials=trials)


def _rank_chain_counts(layers, plan, erasure, trials, rng, q) -> np.ndarray:
    """Sample the rank evolution of the stacked coefficient matrix.

    ``pop[r]`` counts the trials at rank ``r``.  A trial at deficit ``g`` meets
    a dependent row with probability reach[g] = 1 - prod_{d <= g} (1 - q^-d)
    whatever blocks it gets, so per rank group a binomial draw picks the hit
    trials and a multinomial draw splits the rest by received blocks.  A hit
    trial draws its blocks and its hit deficits d (lowest first, by inverse
    CDF, G_d ~ ``geometric(1 - q^-d)``); ``_stage_gain`` settles it.
    """
    sizes = layers.window_sizes
    counts = np.zeros(layers.num_layers, dtype=np.int64)
    pop = np.zeros(sizes[-1] + 1, dtype=np.int64)
    pop[0] = trials
    for i, size in enumerate(sizes):
        n_tb, cap = plan.tb_counts[i], plan.elements_per_tb[i]
        if n_tb > 0 and cap > 0:
            live = np.flatnonzero(pop)
            group, gap = pop[live], size - live
            elements = np.arange(n_tb + 1) * cap
            pmf = receive_pmf(n_tb, erasure[i])
            stall = np.power(float(q), -np.arange(1.0, gap.max() + 1))  # P(G_d >= 1)
            reach = np.concatenate(([0.0], -np.expm1(np.cumsum(np.log1p(-stall)))))
            hit = rng.binomial(group, reach[gap])
            cell = rng.multinomial(group - hit, pmf)
            pop = np.zeros_like(pop)
            np.add.at(pop, live[:, None] + np.minimum(gap[:, None], elements), cell)
            rank, g = np.repeat(live, hit), np.repeat(gap, hit)
            got = elements[np.searchsorted(np.cumsum(pmf)[:-1], rng.random(rank.size), "right")]
            t, rounds = np.arange(rank.size), []
            # 1 - u lies in (0, 1], so the lowest hit lies in 1..g
            d = np.searchsorted(reach, (1.0 - rng.random(t.size)) * reach[g])
            while t.size:
                rounds.append((t, d, rng.geometric(1.0 - stall[d - 1])))
                # "right": a sum that rounds to reach[d] cannot repeat deficit d
                x = reach[d] + rng.random(t.size) * (1.0 - reach[d])
                more = x < reach[g[t]]
                t, d = t[more], np.searchsorted(reach, x[more], "right")
            np.add.at(pop, rank + _stage_gain(got, g, rounds), 1)
        counts[i] = pop[size]
    return counts


def _stage_gain(elements, gap, rounds) -> np.ndarray:
    """Deficits each hit trial clears, from ``gap`` down, deficit d costing 1 + G_d.

    ``rounds`` holds ``(trials, deficit, G_d)`` arrays, lowest hit first per
    trial.  Before paying hit d a trial clears at most ``gap - d`` with the
    elements the hits above it leave, and at most ``gap`` once all are paid;
    the best stage wins, since a hit it cannot pay caps every stage below.
    """
    gain, left = np.zeros_like(elements), elements.copy()
    for t, d, g_d in reversed(rounds):
        gain[t] = np.maximum(gain[t], np.minimum(left[t], gap[t] - d))
        left[t] -= g_d
    return np.maximum(gain, np.minimum(left, gap))
