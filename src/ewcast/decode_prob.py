"""Analytic recovery probabilities for expanding-window coded transmissions.

A layered source message is sent as L nested windows; window ``l`` spans the
first ``K_l`` source elements and is carried by ``N_l`` transport blocks of
``n_l`` coded elements each, every block erased independently with a
per-window probability.  A receiver recovers window ``l`` when the coded
elements collected from windows ``1..l`` contain enough information to span
all ``K_l`` unknowns.  In the large-field limit that event reduces to a
threshold test on the received element counts: each window carries a residual
requirement ("deficit") forward, receptions settle it, and window ``l``
decodes exactly when it leaves no deficit behind.

The exact probability of that threshold event is computed here by dynamic
programming over the deficit value, which is equivalent to the full nested
summation over all reception outcomes but runs in O(L * K * max N) time.  The
allocators push the same step: plan evaluation once per distinct user report,
the exact search over every window template of one depth at once.
"""

from __future__ import annotations

import functools
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

_PROB_EPS = 1e-12  # grace when comparing probabilities against a threshold
_MEMO_BYTES = 1 << 24  # bytes of tables the one memo holds, summed over every memoised function
_RECEIVER_BLOCK = 1 << 14  # receivers a batched pass holds at once: its tables grow with the batch
_memo_store: OrderedDict = OrderedDict()  # (function, args) -> read-only array, least recent first
_memo_held = 0  # nbytes summed over _memo_store


def _integers(name: str, values):
    # ``values`` as given: Python or NumPy integers (an array by its dtype), else refused by name
    types = {values.dtype.type} if isinstance(values, np.ndarray) else set(map(type, values))
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        raise ValueError(f"{name} must hold integers, got {sorted(t.__name__ for t in types)}")
    return values


@dataclass(frozen=True)
class LayerConfig:
    """Layered source message: per-layer element counts plus stream metadata.

    ``k[i]`` is the number of source elements in layer ``i+1``; window sizes
    are the running sums.  PSNR plateaus (dB) are optional and only needed by
    the quality metrics and the uncoded baseline; coverage targets (user
    fractions) are optional and only needed by the allocators.
    """

    k: tuple[int, ...]
    psnr: tuple[float, ...] | None = None
    coverage_targets: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(map(int, _integers("k", self.k))))
        if not self.k:
            raise ValueError("k: at least one layer is required")
        if any(v < 1 for v in self.k):
            raise ValueError("k: layer element counts must be >= 1")
        for name in ("psnr", "coverage_targets"):
            val = getattr(self, name)
            if val is None:
                continue
            val = tuple(float(v) for v in val)
            object.__setattr__(self, name, val)
            if len(val) != len(self.k):
                raise ValueError(f"{name} must have one entry per layer")
        targets = self.coverage_targets
        if targets is not None:
            if any(not 0.0 < t <= 1.0 for t in targets):
                raise ValueError("coverage_targets: coverage targets must lie in (0, 1]")
            if any(targets[i] < targets[i + 1] for i in range(len(targets) - 1)):
                warnings.warn(
                    "coverage targets increase with the layer index; deeper "
                    "layer sets normally demand a smaller user fraction",
                    stacklevel=2,
                )

    @property
    def num_layers(self) -> int:
        return len(self.k)

    @property
    def window_sizes(self) -> tuple[int, ...]:
        """Cumulative element counts: size of each expanding window."""
        return tuple(accumulate(self.k))


@dataclass(frozen=True)
class TransmissionPlan:
    """Per-window transmission decision: MCS index, block count, block size.

    ``tb_counts[i] == 0`` means window ``i+1`` is not transmitted at all; its
    MCS and capacity are then irrelevant.  MCS 0 marks an unassigned window.
    """

    mcs: tuple[int, ...]
    tb_counts: tuple[int, ...]
    elements_per_tb: tuple[int, ...]

    def __post_init__(self):
        for name in ("mcs", "tb_counts", "elements_per_tb"):
            object.__setattr__(self, name, tuple(map(int, _integers(name, getattr(self, name)))))
        if not len(self.mcs) == len(self.tb_counts) == len(self.elements_per_tb):
            raise ValueError("mcs, tb_counts, elements_per_tb: plan vectors must share one "
                             "entry per window")
        if any(m < 0 or m > 15 for m in self.mcs):
            raise ValueError("mcs: MCS indices must lie in [0, 15]")
        if any(c < 0 for c in self.tb_counts):
            raise ValueError("tb_counts: block counts must be >= 0")
        if any(n < 0 for n in self.elements_per_tb):
            raise ValueError("elements_per_tb: block capacities must be >= 0")
        for c, n in zip(self.tb_counts, self.elements_per_tb):
            if c > 0 and n < 1:
                raise ValueError("elements_per_tb: a transmitted window needs capacity >= 1")

    @classmethod
    def uniform(cls, num_windows: int, tb_count: int, elements_per_tb: int):
        """Same block count and capacity for every window, MCS unassigned."""
        return cls(
            (0,) * num_windows,
            (tb_count,) * num_windows,
            (elements_per_tb,) * num_windows,
        )

    @property
    def num_windows(self) -> int:
        return len(self.tb_counts)


@dataclass(frozen=True)
class DecodeProbability:
    """Simulated per-window recovery probabilities with standard errors."""

    p_win: tuple[float, ...]
    std_err: tuple[float, ...]
    trials: int

    def __post_init__(self):
        if any(not -_PROB_EPS <= p <= 1.0 + _PROB_EPS for p in self.p_win):
            raise ValueError("probabilities must lie in [0, 1]")


def _pascal_rows(count: int, loss):
    """Yield ``P(r of N sent blocks arrive)`` for N = 0..count, r = 0..count.

    Pascal's rule builds each row from the previous one, so no factorials or
    gamma functions appear and every entry stays a sum of products of the
    per-block probabilities.  ``loss`` may carry leading batch axes; each row
    then has them too, with ``r`` last.  One buffer is updated in place and
    yielded for every N, so a caller keeping a row must copy it.
    """
    # r runs along the first axis of ``row`` and the batch axes follow in
    # reverse order, so a single loss works on plain scalars and ``row.T``
    # is the (..., r) view handed out
    q = 1.0 - np.asarray(loss, dtype=float).T
    lose = 1.0 - q
    row = np.zeros((count + 1,) + np.shape(q))
    row[0] = 1.0
    yield row.T
    for _ in range(count):
        # the right-hand side is formed from the old row before the write
        row[1:] = q * row[:-1] + lose * row[1:]
        row[0] *= lose
        yield row.T


def _memo(fn):
    """Memoise ``fn`` over positional arguments in the one store: a miss is kept
    read-only (every caller shares it), then the least recent entries go while the
    store holds over ``_MEMO_BYTES``; a larger result is returned but not kept."""
    @functools.wraps(fn)
    def memoised(*args):
        global _memo_held
        key = fn, args
        result = _memo_store.get(key)
        if result is not None:
            _memo_store.move_to_end(key)
            return result
        result = fn(*args)
        result.flags.writeable = False
        if result.nbytes <= _MEMO_BYTES:
            _memo_store[key] = result
            _memo_held += result.nbytes
            while _memo_held > _MEMO_BYTES:
                _memo_held -= _memo_store.popitem(last=False)[1].nbytes
        return result
    return memoised


@_memo
def binomial_pmf_rows(count: int, loss: float) -> np.ndarray:
    """``rows[N, r] = P(r of N sent blocks arrive)`` for N, r = 0..count, memoised."""
    return np.stack([row.copy() for row in _pascal_rows(count, loss)])


def receive_pmf(tb_count: int, loss) -> np.ndarray:
    """P[r blocks received] for r = 0..tb_count under i.i.d. block loss: a scalar
    ``loss`` gets the memoised read-only row every caller shares, a ``loss`` with
    leading batch axes (one receiver each) rows built afresh and never cached."""
    # a float (np.float64 too) skips np.ndim, which builds an array at several times a hit's cost
    if isinstance(loss, float) or np.ndim(loss) == 0:
        return _scalar_receive_pmf(int(tb_count), float(loss))
    *_, row = _pascal_rows(tb_count, loss)
    return row


@_memo
def _scalar_receive_pmf(tb_count: int, loss: float) -> np.ndarray:
    *_, row = _pascal_rows(tb_count, loss)
    return row


@_memo
def receive_tail(budget: int, loss: float) -> np.ndarray:
    """``tail[j, N] = P(at least j of N sent blocks arrive)``, j = 0..budget + 1, N = 0..budget,
    memoised: built a Pascal row at a time, never the whole Pascal table."""
    tail = np.zeros((budget + 2, budget + 1))
    for n, row in enumerate(_pascal_rows(budget, loss)):
        np.cumsum(row[n::-1], out=tail[n::-1, n])
    return tail


def advance_deficit(dist: np.ndarray, k_new: int, capacity: int, pmf: np.ndarray) -> np.ndarray:
    """Push the deficit distribution through one window.

    ``dist[..., e]`` is the probability that the residual requirement equals
    ``e`` when the window starts; the window adds ``k_new`` fresh elements and
    each reception outcome ``r`` (weighted by ``pmf[..., r]``) removes
    ``r * capacity``.  Leading axes of ``dist`` and ``pmf`` batch receivers
    and must agree.
    """
    size = dist.shape[-1]
    new = np.zeros(dist.shape[:-1] + (k_new + size,))
    # deficit (and outcome) axis first, batch axes last: for one receiver the
    # weights are plain scalars
    out, prev, weights = new.T, dist.T, pmf.T
    for r, weight in enumerate(weights):
        cleared = r * capacity - k_new  # deficits e <= cleared vanish entirely
        if cleared >= size - 1:
            out[0] += weight
        elif cleared < 0:
            out[-cleared : size - cleared] += weight * prev
        else:
            out[0] += weight * prev[: cleared + 1].sum(axis=0)
            out[1 : size - cleared] += weight * prev[cleared + 1 :]
    return new


@_memo
def blocks_needed(size: int, k_w: int, capacity, budget: int) -> np.ndarray:
    """The decode rule: a window adding ``k_w`` fresh elements to an incoming deficit ``e``
    decodes from ``r`` arrived blocks of ``capacity`` elements exactly when r * capacity >=
    k_w + e.  ``needed[e]``, memoised, is that fewest r for each e < ``size``, or ``budget + 1``
    where none up to ``budget`` suffices (every e at capacity 0); a tuple of capacities gives
    one row each.  ``receive_tail(budget, loss)[needed]`` is the window's success."""
    n = np.asarray(capacity, int)[..., None]
    needed = np.minimum(-(-(k_w + np.arange(size)) // np.maximum(n, 1)), budget + 1)
    return np.where(n >= 1, needed, budget + 1)


def _checked_erasure(erasure) -> np.ndarray:
    """``erasure`` as a float array whose every entry is finite and in [0, 1]."""
    p = np.asarray(erasure, dtype=float)
    # written so that NaN fails it: every comparison with NaN is false
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("erasure probabilities must be finite and lie in [0, 1]")
    return p


def _check_thresholds(p_hat: float = 0.0, q_hat: float = 1.0) -> None:
    """Refuse by name a report loss ``p_hat`` outside [0, 1) or a QoS ``q_hat`` outside (0, 1]."""
    # written so that NaN fails them: every comparison with NaN is false
    if not 0.0 <= p_hat < 1.0:
        raise ValueError(f"p_hat must lie in [0, 1), got {p_hat!r}")
    if not 0.0 < q_hat <= 1.0:
        raise ValueError(f"q_hat must lie in (0, 1], got {q_hat!r}")


def _validate_inputs(layers: LayerConfig, plan: TransmissionPlan, erasure) -> np.ndarray:
    if plan.num_windows != layers.num_layers:
        raise ValueError("plan must cover every window")
    p = _checked_erasure(erasure)
    if p.shape[-1:] != (layers.num_layers,):
        raise ValueError("one erasure probability per window is required")
    return p


def window_decode_probs(
    layers: LayerConfig,
    plan: TransmissionPlan,
    erasure,
) -> np.ndarray:
    """Recovery probability of every window in one dynamic-programming pass.

    ``erasure`` holds one loss per window on its last axis; leading axes batch
    receivers of the same plan, and the result has the shape of ``erasure``.
    A batch of over ``_RECEIVER_BLOCK`` receivers runs block by block.
    """
    p = _validate_inputs(layers, plan, erasure)
    if p.size > _RECEIVER_BLOCK * p.shape[-1]:
        flat = p.reshape(-1, p.shape[-1])
        return np.concatenate([window_decode_probs(layers, plan, flat[i:i + _RECEIVER_BLOCK])
                               for i in range(0, len(flat), _RECEIVER_BLOCK)]).reshape(p.shape)
    return _window_dp(layers.k, plan.elements_per_tb,
                      [receive_pmf(N, p[..., i]) for i, N in enumerate(plan.tb_counts)])


def _window_dp(k, capacities, pmfs) -> np.ndarray:
    # pmfs[i][..., r]: chance that r blocks of window i arrive, leading axes batch receivers
    dist = np.ones(pmfs[0].shape[:-1] + (1,))
    probs = np.zeros(dist.shape[:-1] + (len(k),))
    for i, pmf in enumerate(pmfs):
        dist = advance_deficit(dist, k[i], capacities[i], pmf)
        probs[..., i] = dist[..., 0]  # the window decodes when it leaves no deficit behind
    return probs


def meets_qos(probs, q_hat: float) -> np.ndarray:
    """The one QoS verdict: probability at least ``q_hat``, up to a float grace."""
    return np.asarray(probs) >= q_hat - _PROB_EPS


def level_probs(probs) -> np.ndarray:
    """Level l's chance: the best of windows >= l (last axis); met when one of them is."""
    return np.maximum.accumulate(np.asarray(probs)[..., ::-1], axis=-1)[..., ::-1]


def expected_psnr(layers: LayerConfig, probs) -> np.ndarray:
    """Best expected quality per receiver: the max over levels (last axis of
    ``probs``) of the PSNR plateau times the probability of reaching it.

    A receiver that reaches no level scores 0.  That axis must hold one entry per plateau.
    """
    if layers.psnr is None:
        raise ValueError("layer configuration carries no PSNR plateaus")
    probs = np.asarray(probs)
    if probs.shape[-1:] != (len(layers.psnr),):
        raise ValueError(f"probs must end in {len(layers.psnr)} levels, got shape {probs.shape}")
    levels = np.moveaxis(probs, -1, 0)  # a running maximum, as exact as one reduction
    return np.maximum(functools.reduce(np.maximum, map(np.multiply, layers.psnr, levels)), 0.0)[()]


def uncoded_survival(losses, tb_counts) -> np.ndarray:
    """Probability that every block of windows ``1..l`` arrives, per level ``l``.

    Without coding a layer is only usable when all of its blocks survive, each
    independently.  ``losses`` holds one loss per window on its last axis
    (leading axes batch users or plans); ``tb_counts`` broadcasts against it.
    A window without blocks carries no layer and reads as lost.
    """
    p = _checked_erasure(losses)
    counts = np.asarray(tb_counts)
    survive = np.where(counts > 0, (1.0 - p) ** counts, 0.0)
    return np.cumprod(survive, axis=-1)


def mrt_block_counts(layers: LayerConfig, capacities) -> np.ndarray:
    """Lossless block count ceil(k_i / n_i) per layer (the last axis of
    ``capacities``; leading axes batch plans); 0 without capacity."""
    n = np.asarray(capacities)
    return np.where(n >= 1, -(-np.asarray(layers.k) // np.maximum(n, 1)), 0)
