"""GF(2^8) arithmetic, expanding-window random linear coding, rank decoding.

Source messages are layered; window ``l`` spans the first ``K_l`` elements.
Coded elements for window ``l`` carry coefficient vectors of length ``K_l``
drawn uniformly at random, so the stacked coefficient matrix over all windows
is block lower-triangular.  A window decodes once that matrix reaches full
column rank over its span.

Two Monte Carlo estimators of the decode probability are provided:

* ``method="matrix"`` draws explicit coefficient matrices and runs Gaussian
  elimination - the literal process, kept for cross-validation.
* ``method="rank-chain"`` (default) samples the rank evolution directly.
  Because windows are processed in increasing order, every row seen so far
  lies inside the current window's coordinate span, so at rank deficit
  ``d = K_l - rank`` a fresh uniform row is dependent with probability
  exactly q^-d.  The dependent rows met before the deficit drops below ``d``
  are therefore geometric, P(G_d >= g) = q^(-d*g), independent across
  deficits, windows and trials (the exact finite-field law of
  Trullols-Cruces, Barcelo-Ordinas and Fiore, IEEE Comm. Letters 2011).  The
  sampler draws only the trials with some G_d >= 1 - a few per window over
  GF(2^8) - and gives every other trial one rank per received element, so
  it never steps element by element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode_prob import DecodeProbability, LayerConfig, TransmissionPlan

# Irreducible polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).  Any irreducible
# choice yields statistically equivalent codes; fixing one keeps encodings
# reproducible.
PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

_EXP = np.zeros(2 * FIELD_SIZE, dtype=np.int64)
_LOG = np.zeros(FIELD_SIZE, dtype=np.int64)


def _init_tables() -> None:
    x = 1
    for i in range(FIELD_SIZE - 1):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & FIELD_SIZE:
            x ^= PRIMITIVE_POLY
    for i in range(FIELD_SIZE - 1, 2 * FIELD_SIZE - 2):
        _EXP[i] = _EXP[i - (FIELD_SIZE - 1)]


_init_tables()


def field_add(a: int, b: int) -> int:
    """Addition in GF(2^8); identical to subtraction."""
    return a ^ b


def field_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_EXP[(_LOG[a] + _LOG[b]) % (FIELD_SIZE - 1)])


def field_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return int(_EXP[(FIELD_SIZE - 1 - _LOG[a]) % (FIELD_SIZE - 1)])


def _scale_row(scalar: int, row: np.ndarray) -> np.ndarray:
    """scalar * row over GF(2^8), vectorised through the log/exp tables."""
    if scalar == 0:
        return np.zeros_like(row)
    out = np.zeros_like(row)
    nz = row != 0
    out[nz] = _EXP[(_LOG[scalar] + _LOG[row[nz]]) % (FIELD_SIZE - 1)]
    return out


@dataclass(eq=False)
class CodedElement:
    """One coded element: window index, coefficient vector, optional payload."""

    window: int
    coefficients: np.ndarray  # uint8, length = window size K_l
    payload: bytes | None = None


class ReceivedSet:
    """Coded elements collected by one user, grouped by window and by block.

    Elements arrive in whole transport blocks, so the per-window element
    count is always a multiple of the block size used for that window.
    """

    def __init__(self):
        self._pdus: dict[int, list[list[CodedElement]]] = {}

    def add_pdu(self, window: int, elements: list[CodedElement]) -> None:
        if not elements:
            raise ValueError("a block carries at least one element")
        if any(el.window != window for el in elements):
            raise ValueError("all elements of a block share one window")
        self._pdus.setdefault(window, []).append(list(elements))

    def windows(self) -> list[int]:
        return sorted(self._pdus)

    def pdus(self, window: int) -> list[list[CodedElement]]:
        return self._pdus.get(window, [])

    def elements(self, window: int) -> list[CodedElement]:
        return [el for pdu in self.pdus(window) for el in pdu]

    def element_count(self, window: int) -> int:
        return sum(len(pdu) for pdu in self.pdus(window))


class RankTracker:
    """Incremental Gaussian elimination over GF(2^8), tracking rank only."""

    def __init__(self, num_columns: int):
        self.num_columns = num_columns
        self._pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, coefficients: np.ndarray) -> bool:
        """Reduce one row against the pivots; True if it increased the rank."""
        vec = np.zeros(self.num_columns, dtype=np.uint8)
        vec[: len(coefficients)] = coefficients
        while True:
            nonzero = np.nonzero(vec)[0]
            if nonzero.size == 0:
                return False
            lead = int(nonzero[0])
            pivot = self._pivots.get(lead)
            if pivot is None:
                self._pivots[lead] = _scale_row(field_inv(int(vec[lead])), vec)
                return True
            vec ^= _scale_row(int(vec[lead]), pivot)


def encode_window(
    layers: LayerConfig,
    window: int,
    count: int,
    seed: int,
    source: np.ndarray | None = None,
) -> list[CodedElement]:
    """Draw ``count`` coded elements for one expanding window.

    Coefficients are i.i.d. uniform over GF(2^8) and deterministic given the
    seed.  When ``source`` (one uint8 row per source element) is supplied the
    matching payload bytes are produced as well; probability experiments skip
    payloads since only the rank matters there.
    """
    if not 1 <= window <= layers.num_layers:
        raise ValueError("window index out of range")
    if count < 0:
        raise ValueError("count must be >= 0")
    width = layers.window_sizes[window - 1]
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, FIELD_SIZE, size=(count, width), dtype=np.uint8)
    elements = []
    for j in range(count):
        payload = None
        if source is not None:
            if source.shape[0] < width:
                raise ValueError("source must cover the whole window")
            acc = np.zeros(source.shape[1], dtype=np.uint8)
            row = coeffs[j]
            for i in np.nonzero(row)[0]:
                acc ^= _scale_row(int(row[i]), source[i])
            payload = acc.tobytes()
        elements.append(CodedElement(window, coeffs[j], payload))
    return elements


def decodable_windows(received: ReceivedSet, layers: LayerConfig) -> set[int]:
    """Indices of recovered layers implied by the received elements.

    Window ``l`` is decodable when the elements of windows ``1..l`` reach
    rank ``K_l``; decoding window ``l`` reveals every earlier layer as well,
    so the returned set is the downward closure of the decodable windows.
    """
    sizes = layers.window_sizes
    for w in received.windows():
        if not 1 <= w <= layers.num_layers:
            raise ValueError(f"received window {w} outside the layer range")
    tracker = RankTracker(sizes[-1])
    deepest = 0
    for w in range(1, layers.num_layers + 1):
        for element in received.elements(w):
            tracker.add(element.coefficients)
        if tracker.rank == sizes[w - 1]:
            deepest = w
    return set(range(1, deepest + 1))


def simulate_decode_prob(
    layers: LayerConfig,
    plan: TransmissionPlan,
    erasure,
    trials: int,
    seed: int,
    method: str = "rank-chain",
    q: int = FIELD_SIZE,
) -> DecodeProbability:
    """Monte Carlo estimate of the per-window decode probability over GF(q).

    Every trial erases each of the ``N_l`` blocks independently (a lost block
    drops all of its ``n_l`` elements) and tests window-by-window
    decodability of the survivors' random coefficients.  The rank-chain
    method draws, per window, the received elements of every trial and the
    geometric dependent-row counts G_d of the few trials that meet any; a
    trial then gains one rank per element until its deficit is cleared or
    its elements run out, each dependent row costing one element.  All draws
    come from one ``default_rng(seed)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise ValueError(f"field size q must be an integer >= 2, got {q!r}")
    if method not in ("rank-chain", "matrix"):
        raise ValueError(f"unknown method {method!r}")
    if method == "matrix" and q != FIELD_SIZE:
        raise ValueError("the explicit matrix path is fixed to GF(2^8)")
    p = np.asarray(erasure, dtype=float)
    if p.shape != (layers.num_layers,):
        raise ValueError("one erasure probability per window is required")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("erasure probabilities must lie in [0, 1]")
    if plan.num_windows != layers.num_layers:
        raise ValueError("plan must cover every window")

    rng = np.random.default_rng(seed)
    if method == "rank-chain":
        counts = _rank_chain_counts(layers, plan, p, trials, rng, q)
    else:
        counts = _matrix_counts(layers, plan, p, trials, rng)
    p_hat = counts / trials
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return DecodeProbability(
        p_win=tuple(float(v) for v in p_hat),
        provenance="simulated",
        std_err=tuple(float(v) for v in std_err),
        trials=trials,
    )


def _rank_chain_counts(layers, plan, erasure, trials, rng, q) -> np.ndarray:
    """Sample the rank evolution of the stacked coefficient matrix.

    At deficit ``d`` the trial meets G_d dependent rows before the next
    independent one, P(G_d >= 1) = q^-d, and G_d given G_d >= 1 is
    ``geometric(1 - q^-d)`` (memoryless).  Per window and deficit, the number
    of trials with G_d >= 1 is one binomial draw and those trials are a
    uniform subset, which has the law of one Bernoulli per trial.  Trials
    without a dependent row gain ``min(gap, elements)``; for the others,
    clearing deficits ``gap..d`` costs the sum of ``1 + G_d'`` over them, and
    the trial gains the number of deficits it can afford.
    """
    sizes = layers.window_sizes
    counts = np.zeros(layers.num_layers, dtype=np.int64)
    rank = np.zeros(trials, dtype=np.int64)
    for i in range(layers.num_layers):
        n_tb = plan.tb_counts[i]
        cap = plan.elements_per_tb[i]
        if n_tb > 0 and cap > 0:
            elements = rng.binomial(n_tb, 1.0 - erasure[i], size=trials) * cap
            gap = sizes[i] - rank
            top = int(gap.max())
            deficit = np.arange(1, top + 1)
            stall = np.power(float(q), -deficit)  # P(G_d >= 1)
            hit = rng.binomial(trials, stall)
            gain = np.minimum(gap, elements)
            if hit.any():
                who = np.concatenate([rng.choice(trials, h, replace=False)
                                      for h in hit[hit > 0]])
                col = np.repeat(deficit - 1, hit)
                affected, row = np.unique(who, return_inverse=True)
                cost = np.zeros((affected.size, top), dtype=np.int64)
                cost[row, col] = rng.geometric(1.0 - stall[col])
                open_ = deficit <= gap[affected, None]
                cost = (cost + 1) * open_
                need = np.cumsum(cost[:, ::-1], axis=1)[:, ::-1]
                gain[affected] = np.count_nonzero(
                    open_ & (need <= elements[affected, None]), axis=1)
            rank += gain
        counts[i] = int(np.count_nonzero(rank == sizes[i]))
    return counts


def _matrix_counts(layers, plan, erasure, trials, rng) -> np.ndarray:
    """Literal per-trial simulation through explicit coefficient matrices.

    Counts the raw per-window rank event (the quantity the analytic model
    approximates); the downward closure applied by :func:`decodable_windows`
    belongs to the QoS interpretation, not to the estimate itself.
    """
    sizes = layers.window_sizes
    counts = np.zeros(layers.num_layers, dtype=np.int64)
    for _ in range(trials):
        tracker = RankTracker(sizes[-1])
        for i in range(layers.num_layers):
            n_tb = plan.tb_counts[i]
            cap = plan.elements_per_tb[i]
            if n_tb > 0 and cap > 0:
                survivors = int(rng.binomial(n_tb, 1.0 - erasure[i]))
                coeffs = rng.integers(
                    0, FIELD_SIZE, size=(survivors * cap, sizes[i]), dtype=np.uint8
                )
                for row in coeffs:
                    tracker.add(row)
            if tracker.rank == sizes[i]:
                counts[i] += 1
    return counts
