"""GF(2^8) Gaussian elimination over explicit coefficient rows: the literal
process the rank-chain sampler of ``ewcast.gf_rlnc`` is checked against."""

import numpy as np

FIELD_SIZE = 256
PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _tables():
    exp, log, x = np.zeros(2 * 255, dtype=np.int64), np.zeros(FIELD_SIZE, dtype=np.int64), 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x = (x << 1) ^ (PRIMITIVE_POLY if x & 0x80 else 0)
    mul = exp[log[:, None] + log].astype(np.uint8)
    mul[0, :] = mul[:, 0] = 0
    inv = np.zeros(FIELD_SIZE, dtype=np.uint8)  # INV[0] = 0 stands for "none"
    inv[1:] = exp[255 - log[1:]]
    return mul, inv


MUL, INV = _tables()  # MUL[a, b] = a * b; MUL[a, INV[a]] = 1 for a != 0


class RankTracker:
    """Incremental elimination of one row at a time, tracking rank only."""

    def __init__(self, num_columns: int):
        self.num_columns = num_columns
        self._pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, coefficients) -> bool:  # True if the zero-padded row adds rank
        vec = np.zeros(self.num_columns, dtype=np.uint8)
        vec[: len(coefficients)] = coefficients
        while (nonzero := np.flatnonzero(vec)).size:
            lead = nonzero[0]
            if lead not in self._pivots:
                self._pivots[lead] = MUL[INV[vec[lead]], vec]
                return True
            vec ^= MUL[vec[lead], self._pivots[lead]]
        return False


class BatchRank:
    """One :class:`RankTracker` per trial, fed in lockstep; ``pivots[t, c]`` is
    trial ``t``'s pivot row led by a one in column ``c`` wherever ``has[t, c]``."""

    def __init__(self, trials: int, num_columns: int):
        self.pivots = np.zeros((trials, num_columns, num_columns), dtype=np.uint8)
        self.has = np.zeros((trials, num_columns), dtype=bool)

    @property
    def rank(self) -> np.ndarray:
        return self.has.sum(axis=1)

    def add(self, rows) -> None:
        vec = np.zeros(self.has.shape, dtype=np.uint8)
        vec[:, : np.shape(rows)[1]] = rows
        for c in range(vec.shape[1]):
            # MUL[0] is all zeros: trials without a pivot at c keep their row
            vec ^= MUL[np.where(self.has[:, c], vec[:, c], 0)[:, None], self.pivots[:, c]]
            new = np.flatnonzero(vec[:, c])
            self.pivots[new, c] = MUL[INV[vec[new, c]][:, None], vec[new]]
            self.has[new, c] = True
            vec[new] = 0


def matrix_counts(layers, plan, erasure, trials: int, rng) -> np.ndarray:
    """Per window, the trials whose rows reach full rank over its span.  Rows of
    lost blocks are zeroed rather than dropped: a zero row never adds rank."""
    sizes = layers.window_sizes
    counts = np.zeros(len(sizes), dtype=np.int64)
    tracker = BatchRank(trials, sizes[-1])
    for i, size in enumerate(sizes):
        n_tb, cap = plan.tb_counts[i], plan.elements_per_tb[i]
        if n_tb * cap > 0:
            survivors = rng.binomial(n_tb, 1.0 - erasure[i], size=trials)
            rows = rng.integers(0, FIELD_SIZE, size=(trials, n_tb * cap, size), dtype=np.uint8)
            rows[np.arange(n_tb * cap) >= cap * survivors[:, None]] = 0
            for j in range(n_tb * cap):
                tracker.add(rows[:, j])
        counts[i] = np.count_nonzero(tracker.rank == size)
    return counts
