"""Literal nested summation over every reception outcome of an expanding-window
transmission: the oracle the window DP of ``ewcast.decode_prob`` and its QoS
verdicts are checked against.

The sum runs in the number type of ``one`` and the losses: floats for the
DP cross-check, or ``Fraction`` (losses read through :func:`exact`) for
verdicts free of rounding.  Its block-count law is the binomial formula, not
the Pascal rows it checks.
"""

import math
from fractions import Fraction
from itertools import product

from ewcast.decode_prob import _validate_inputs, window_decode_probs

BRUTE_FORCE_LIMIT = 10**6  # refuse enumerations beyond this many reception outcomes


def exact(x):
    """The decimal a float prints as, as a Fraction: 0.1 reads 1/10."""
    return Fraction(repr(float(x)))


def literal_decode_prob(k, n, N, p, window, one=1.0):
    """Chance that window ``window`` (1-based) recovers, summed outcome by outcome.

    Window ``i`` adds ``k[i]`` elements and sends ``N[i]`` blocks of ``n[i]``
    elements, each lost with probability ``p[i]``; every outcome of windows
    1..``window`` whose received elements settle the carried requirement
    counts with its probability.
    """
    combos = math.prod(N[i] + 1 for i in range(window))
    if combos > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{combos} reception outcomes exceed the enumeration bound "
            f"{BRUTE_FORCE_LIMIT}"
        )
    pmfs = [[math.comb(N[i], r) * (one - p[i]) ** r * p[i] ** (N[i] - r)
             for r in range(N[i] + 1)] for i in range(window)]
    total = 0 * one
    for r_vec in product(*(range(N[i] + 1) for i in range(window))):
        # a window's receptions settle its own outstanding requirement before
        # the leftover is carried to the next window
        carry = 0
        for i in range(window - 1):
            carry = max(k[i] + carry - r_vec[i] * n[i], 0)
        if r_vec[window - 1] * n[window - 1] >= k[window - 1] + carry:
            total += math.prod(pmfs[i][r_vec[i]] for i in range(window))
    return total


def _check_window(layers, window):
    if not 1 <= window <= layers.num_layers:
        raise ValueError("window index out of range")


def brute_force_decode_prob(layers, plan, erasure, window):
    """:func:`literal_decode_prob` in float for one receiver of ``plan``."""
    p = _validate_inputs(layers, plan, erasure)
    if p.ndim != 1:
        raise ValueError("brute force takes one erasure vector, not a batch")
    _check_window(layers, window)
    return literal_decode_prob(layers.k, plan.elements_per_tb, plan.tb_counts,
                               p.tolist(), window)


def window_decode_prob(layers, plan, erasure, window):
    """Recovery probability of window ``window`` (1-based), per receiver: one
    column of ``window_decode_probs``."""
    _check_window(layers, window)
    return window_decode_probs(layers, plan, erasure)[..., window - 1][()]
