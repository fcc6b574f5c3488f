"""Cell geometry, SINR, CQI feedback, transport-block capacities, scenarios.

The radio model is deliberately parametric: an urban-macro pathloss law
(128.1 + 37.6 log10(d_km) dB), configurable per-sector power and noise
figure, and a documented SINR-threshold table mapping channel quality to MCS
indices.  Exact antenna/pathloss tables from standards documents are out of
scope; only orderings and the block-error anchor matter for the allocators.

Unit conventions: kbps = 1000 bit/s, KB = 1024 byte, powers in dBm.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .decode_prob import LayerConfig, _check_thresholds

# Elements a transport block can hold, per resource-block pair, for each MCS
# index; calibrated against the real block bit capacities at 2 KB elements.
CAPACITY_RATIO_PER_RBP: dict[int, int] = {
    4: 2, 5: 3, 6: 5, 7: 6, 8: 8, 9: 10, 10: 12,
    11: 14, 12: 17, 13: 20, 14: 66, 15: 72,
}

ELEMENT_BITS_TABLE = 2 * 1024 * 8  # element size the capacity table is built for

# SINR (dB) above which each MCS keeps the block error at or below the CQI
# anchor probability.  ~1.8 dB spacing anchored near -4 dB for the lowest
# table-backed MCS; entries 1..3 extend the ladder below the capacity table.
DEFAULT_MCS_THRESHOLDS_DB: dict[int, float] = {
    m: -9.4 + 1.8 * (m - 1) for m in range(1, 16)
}

PATHLOSS_FIXED_DB = 128.1
PATHLOSS_SLOPE_DB = 37.6
MIN_DISTANCE_M = 35.0  # distance floor; positions on top of a site stay finite
THERMAL_NOISE_DBM_HZ = -174.0

D_TTI_S = 1e-3
EMBMS_SUBFRAME_FRACTION = 0.6

STREAM_PRESETS: dict[str, dict] = {
    "A": {
        "bitrates_kbps": (47.3, 326.1, 1396.7),
        "psnr_db": (27.9, 35.9, 45.8),
        "coverage_targets": (0.99, 0.8, 0.6),
    },
    "B": {
        "bitrates_kbps": (36.8, 79.4, 303.4, 835.9),
        "psnr_db": (28.1, 33.4, 39.9, 46.4),
        "coverage_targets": (0.99, 0.9, 0.75, 0.6),
    },
}


def config_digest(payload) -> str:
    """Stable 16-hex-digit hash of a JSON-serialisable config payload."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def source_elements(bitrate_bps: float, gop_seconds: float, element_bits: int) -> int:
    """Elements needed for one layer of one source message: ceil(b*d / H)."""
    if bitrate_bps <= 0 or gop_seconds <= 0 or element_bits <= 0:
        raise ValueError("bitrate, duration and element size must be positive")
    return math.ceil(bitrate_bps * gop_seconds / element_bits)


def tb_capacity(m: int, n_rbp: int, element_bits: int = ELEMENT_BITS_TABLE) -> int:
    """Coded elements per transport block for MCS ``m`` and ``n_rbp`` pairs.

    The ratio table encodes the block bit capacity in units of 2 KB elements;
    other element sizes divide the same bit capacity.
    """
    if m not in CAPACITY_RATIO_PER_RBP:
        raise ValueError(f"MCS {m} outside the capacity table range [4, 15]")
    if n_rbp < 1:
        raise ValueError("need at least one resource-block pair per block")
    if element_bits <= 0:
        raise ValueError("element size must be positive")
    bits = CAPACITY_RATIO_PER_RBP[m] * n_rbp * ELEMENT_BITS_TABLE
    return bits // element_bits


def n_hat(k: int, p_hat: float, n_min: int) -> int:
    """Per-window block budget: a lossless fit plus headroom for losses."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min!r}")
    _check_thresholds(p_hat=p_hat)
    base = math.ceil(k / n_min) if k > 0 else 0
    return base + math.ceil(p_hat * base - 1e-9)


def subframe_cap(gop_seconds: float) -> int:
    """Most blocks any window may use: broadcast-capable subframes per message."""
    return math.floor(EMBMS_SUBFRAME_FRACTION * gop_seconds / D_TTI_S + 1e-9)


def hex_grid(isd_m: float) -> np.ndarray:
    """Site positions on a hexagonal grid: centre plus two rings (19)."""
    sites = [(0.0, 0.0)]
    for j in range(6):
        a = math.radians(60.0 * j)
        sites.append((isd_m * math.cos(a), isd_m * math.sin(a)))
    for j in range(6):  # corners at 2*ISD
        a = math.radians(60.0 * j)
        sites.append((2 * isd_m * math.cos(a), 2 * isd_m * math.sin(a)))
    for j in range(6):  # edge midpoints at sqrt(3)*ISD
        a = math.radians(60.0 * j + 30.0)
        sites.append((math.sqrt(3) * isd_m * math.cos(a), math.sqrt(3) * isd_m * math.sin(a)))
    return np.asarray(sites)


@dataclass(frozen=True)
class NetworkLayout:
    """Base-station geometry plus the link-budget parameters of the cell."""

    mode: str  # "SC" or "SFN"
    sites: np.ndarray  # (S, 2) positions in metres
    serving: tuple[int, ...]  # indices transmitting the target service
    tx_power_dbm: float = 46.0
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    antenna_gain_db: float = 0.0
    shadow_sigma_db: float = 0.0  # lognormal shadowing; 0 keeps runs deterministic

    def __post_init__(self):
        if self.mode not in ("SC", "SFN"):
            raise ValueError("mode must be 'SC' or 'SFN'")
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=float))
        if self.sites.ndim != 2 or self.sites.shape[1] != 2:
            raise ValueError("sites must be an (S, 2) array")
        serving = tuple(int(i) for i in self.serving)
        object.__setattr__(self, "serving", serving)
        if not serving or any(not 0 <= i < len(self.sites) for i in serving):
            raise ValueError("serving indices out of range")
        if self.mode == "SC" and len(serving) != 1:
            raise ValueError("single-cell mode has exactly one serving site")


def single_cell_layout(isd_m: float = 500.0, **kwargs) -> NetworkLayout:
    """Centre site serving, 18 interferers on two concentric rings."""
    return NetworkLayout(mode="SC", sites=hex_grid(isd_m), serving=(0,), **kwargs)


def sfn_layout(isd_m: float = 500.0, members: Sequence[int] = (0, 1, 2, 3), **kwargs) -> NetworkLayout:
    """Four synchronised sites serving, the remaining 15 interfering."""
    return NetworkLayout(mode="SFN", sites=hex_grid(isd_m), serving=tuple(members), **kwargs)


def sinr_at(layout: NetworkLayout, position, rng: np.random.Generator | None = None) -> float:
    """SINR (dB) at a position; synchronised serving sites combine in power.

    ``position`` may be an ``(..., 2)`` array; the result then has its
    leading shape, and shadowing draws one value per (position, site) in
    position order.
    """
    pos = np.asarray(position, dtype=float)
    dist = np.linalg.norm(layout.sites - pos[..., None, :], axis=-1)  # (..., S)
    dist = np.maximum(dist, MIN_DISTANCE_M)
    pathloss = PATHLOSS_FIXED_DB + PATHLOSS_SLOPE_DB * np.log10(dist / 1000.0)
    rx_dbm = layout.tx_power_dbm + layout.antenna_gain_db - pathloss
    if layout.shadow_sigma_db > 0.0 and rng is not None:
        rx_dbm = rx_dbm + rng.normal(0.0, layout.shadow_sigma_db, size=rx_dbm.shape)
    rx_mw = 10.0 ** (rx_dbm / 10.0)
    serving = np.zeros(len(layout.sites), dtype=bool)
    serving[list(layout.serving)] = True
    signal = rx_mw[..., serving].sum(axis=-1)
    interference = rx_mw[..., ~serving].sum(axis=-1)
    noise_dbm = (THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(layout.bandwidth_hz)
                 + layout.noise_figure_db)
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    return (10.0 * np.log10(signal / (interference + noise_mw)))[()]


def bler(sinr_db: float, m: int, p_hat: float = 0.1, decade_db: float = 1.0,
         thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB) -> float:
    """Block error probability of MCS ``m`` at the given SINR.

    Anchored at ``p_hat`` on the MCS threshold and falling one decade per
    ``decade_db`` of extra SINR; clipped at 1 below the threshold region.
    ``sinr_db`` and ``m`` may be arrays that broadcast against each other.
    """
    ms = np.asarray(m)
    try:
        thr = np.array([thresholds[v] for v in ms.ravel().tolist()]).reshape(ms.shape)
    except KeyError as exc:
        raise ValueError(f"no SINR threshold for MCS {exc.args[0]}") from None
    return np.minimum(1.0, p_hat * 10.0 ** (-(np.asarray(sinr_db) - thr) / decade_db))[()]


def cqi_mcs(sinr_db: float, p_hat: float = 0.1, decade_db: float = 1.0,
            thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB) -> int:
    """Largest MCS whose block error stays at or below ``p_hat``; floor 1.

    ``sinr_db`` may be an array; the result then has its shape.
    """
    ms = np.array(sorted(thresholds))
    ok = bler(np.asarray(sinr_db, dtype=float)[..., None], ms, p_hat, decade_db,
              thresholds) <= p_hat
    return np.max(np.where(ok, ms, 1), axis=-1, initial=1)[()]


@dataclass(frozen=True)
class UserContext:
    """One multicast receiver: position, channel quality, reported MCS."""

    position: tuple[float, float]
    sinr_db: float
    mcs_feedback: int

    def __post_init__(self):
        if not 1 <= self.mcs_feedback <= 15:
            raise ValueError("reported MCS must lie in [1, 15]")


def erasure_prob(user: UserContext | Sequence[UserContext], m: int | np.ndarray,
                 view: str = "allocator", p_hat: float = 0.1, decade_db: float = 1.0,
                 thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB
                 ) -> float | np.ndarray:
    """Block loss probability of MCS ``m`` as seen for one user.

    The allocator view is the pessimistic rule the scheduler can act on:
    ``p_hat`` when the user's reported MCS covers ``m``, certain loss
    otherwise.  The evaluation view reads the parametric error curve at the
    user's actual SINR.  ``m`` may be an array of MCS indices, and ``user``
    a sequence of users: the result then has one row per user, each of
    ``m``'s shape.
    """
    ms = np.asarray(m)
    if isinstance(user, UserContext):
        sinr, report = user.sinr_db, user.mcs_feedback
    else:
        shape = (-1,) + (1,) * ms.ndim
        sinr = np.array([u.sinr_db for u in user], dtype=float).reshape(shape)
        report = np.array([u.mcs_feedback for u in user], dtype=int).reshape(shape)
    if view == "allocator":
        return np.where((ms > 0) & (ms <= report), p_hat, 1.0)[()]
    if view == "evaluation":
        sent = ms >= 1
        # unsent entries read any threshold; their loss is replaced by 1
        curve = bler(sinr, np.where(sent, ms, min(thresholds)), p_hat, decade_db, thresholds)
        return np.where(sent, curve, 1.0)[()]
    raise ValueError("view must be 'allocator' or 'evaluation'")


def place_users(layout: NetworkLayout, pattern: str, *, count: int,
                step_m: float, start_m: float = 90.0, angle_deg: float = 30.0,
                center: tuple[float, float] | None = None,
                p_hat: float = 0.1, decade_db: float = 1.0,
                thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB,
                rng: np.random.Generator | None = None) -> list[UserContext]:
    """Deterministic user drops.

    ``radial`` lines users up along a sector symmetry axis of the (first)
    serving site; ``grid`` fills a square lattice centred on the serving
    sites' centroid, row by row, until ``count`` positions exist.
    """
    if count < 0:
        raise ValueError(f"users.count must be >= 0, got {count!r}")
    if step_m <= 0:
        raise ValueError(f"users.step_m must be > 0, got {step_m!r}")
    positions: list[tuple[float, float]] = []
    if pattern == "radial":
        if start_m <= 0:
            raise ValueError(f"users.start_m must be > 0, got {start_m!r}")
        origin = layout.sites[layout.serving[0]]
        direction = np.array([math.cos(math.radians(angle_deg)),
                              math.sin(math.radians(angle_deg))])
        for i in range(count):
            pos = origin + (start_m + i * step_m) * direction
            positions.append((float(pos[0]), float(pos[1])))
    elif pattern == "grid":
        if center is None:
            center = tuple(layout.sites[list(layout.serving)].mean(axis=0))
        cols = math.ceil(math.sqrt(count)) if count else 0
        rows = math.ceil(count / cols) if cols else 0
        x0 = center[0] - (cols - 1) * step_m / 2.0
        y0 = center[1] - (rows - 1) * step_m / 2.0
        for idx in range(count):
            r, c = divmod(idx, cols)
            positions.append((x0 + c * step_m, y0 + r * step_m))
    else:
        raise ValueError(f"unknown placement pattern {pattern!r}")
    sinr = sinr_at(layout, np.reshape(positions, (-1, 2)), rng=rng)
    reports = cqi_mcs(sinr, p_hat, decade_db, thresholds)
    return [UserContext(pos, s, m)
            for pos, s, m in zip(positions, sinr.tolist(), reports.tolist())]


@dataclass
class Scenario:
    """Everything one experiment needs: stream, cell, users, radio numbers."""

    layers: LayerConfig
    layout: NetworkLayout
    users: list[UserContext]
    n_rbp: int
    element_bits: int
    gop_seconds: float
    config: dict  # raw config the scenario was built from
    p_hat: float = 0.1
    q_hat: float = 0.99
    bler_decade_db: float = 1.0
    mcs_thresholds: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_MCS_THRESHOLDS_DB)
    )
    seed: int = 0

    def __post_init__(self):
        _check_thresholds(self.p_hat, self.q_hat)

    @property
    def capacities(self) -> dict[int, int]:
        return {m: tb_capacity(m, self.n_rbp, self.element_bits)
                for m in CAPACITY_RATIO_PER_RBP}

    @property
    def tb_budget(self) -> tuple[int, ...]:
        n_min = tb_capacity(4, self.n_rbp, self.element_bits)
        cap = subframe_cap(self.gop_seconds)
        return tuple(min(n_hat(k, self.p_hat, n_min), cap) for k in self.layers.k)

    @property
    def user_mcs(self) -> tuple[int, ...]:
        return tuple(u.mcs_feedback for u in self.users)

    def to_allocation_problem(self):
        from .allocators import AllocationProblem

        return AllocationProblem(
            layers=self.layers,
            user_mcs=self.user_mcs,
            tb_budget=self.tb_budget,
            capacities=self.capacities,
            p_hat=self.p_hat,
            q_hat=self.q_hat,
        )

    def digest(self) -> str:
        """Stable hash of the originating config."""
        return config_digest(self.config)


_LAYOUT_KEYS = {"tx_power_dbm": "", "bandwidth_hz": "> 0", "noise_figure_db": "",
                "antenna_gain_db": "", "shadow_sigma_db": ">= 0"}
_SCENARIO_KEYS = frozenset(_LAYOUT_KEYS) | {
    "mode", "isd_m", "sfn_members", "stream_preset", "stream", "element_kb",
    "gop_seconds", "n_rbp", "p_hat", "q_hat", "bler", "users", "seed",
}
_BLER_KEYS = frozenset({"decade_db", "thresholds_db"})


def _check_keys(section: str, cfg: Mapping, known: frozenset,
                required: frozenset = frozenset()) -> dict:
    """A copy of config section ``cfg`` once it is an object with known keys."""
    if not isinstance(cfg, Mapping):
        raise ValueError(f"{section} must be an object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown {section} key(s) {unknown}; "
                         f"valid keys: {sorted(known)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ValueError(f"{section} is missing key(s) {missing}")
    return dict(cfg)


def _number(name: str, value, bound: str = "", integer: bool = False):
    """Config field ``name`` as a finite float (an int when ``integer``) meeting
    ``bound`` ("", "> 0" or ">= 0"), else a ``ValueError`` naming the field."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or (integer and value % 1 != 0)
            or (value <= 0 if bound == "> 0" else bound == ">= 0" and value < 0)):
        raise ValueError(f"{name} must be a finite {'integer' if integer else 'number'}"
                         f"{' ' + bound if bound else ''}, got {value!r}")
    return int(value) if integer else float(value)


def build_scenario(config: dict) -> Scenario:
    """Assemble a scenario from a plain config mapping (see README schema).

    Unknown keys (top level, ``bler``, ``users``, ``stream``), sections that
    are not objects, missing required fields, out-of-range values and a
    config giving both ``stream_preset`` and ``stream`` raise a
    ``ValueError`` naming the field, so a misspelt or bad field can neither
    fall back to its default silently nor fail late.
    """
    cfg = _check_keys("scenario", config, _SCENARIO_KEYS)
    bler_cfg = _check_keys("bler", cfg.get("bler", {}), _BLER_KEYS)
    mode = cfg.get("mode", "SC")
    isd = _number("isd_m", cfg.get("isd_m", 500.0), "> 0")
    layout_kwargs = {key: _number(key, cfg[key], bound)
                     for key, bound in _LAYOUT_KEYS.items() if key in cfg}
    members = cfg.get("sfn_members", (0, 1, 2, 3))
    if not (isinstance(members, (list, tuple)) and members):
        raise ValueError(f"sfn_members must be a list of site indices, got {members!r}")
    members = [_number("sfn_members", i, ">= 0", integer=True) for i in members]
    if max(members) >= len(hex_grid(isd)):
        raise ValueError(f"sfn_members must index the {len(hex_grid(isd))} sites, got {members!r}")
    if mode == "SC":
        layout = single_cell_layout(isd, **layout_kwargs)
    elif mode == "SFN":
        layout = sfn_layout(isd, members=members, **layout_kwargs)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if "stream_preset" in cfg and "stream" in cfg:
        raise ValueError("config gives both stream_preset and stream; give one")
    if "stream_preset" in cfg:
        stream = STREAM_PRESETS.get(cfg["stream_preset"])
        if stream is None:
            raise ValueError(f"unknown stream_preset {cfg['stream_preset']!r}; "
                             f"valid presets: {sorted(STREAM_PRESETS)}")
    elif "stream" in cfg:
        bounds = {"bitrates_kbps": "> 0", "psnr_db": "", "coverage_targets": ""}
        stream = _check_keys("stream", cfg["stream"], frozenset(bounds),
                             required=frozenset(bounds))
        for key, bound in bounds.items():
            if not (isinstance(stream[key], (list, tuple)) and stream[key]):
                raise ValueError(f"stream.{key} must be a non-empty list, got {stream[key]!r}")
            stream[key] = [_number(f"stream.{key}", v, bound) for v in stream[key]]
    else:
        raise ValueError("config needs a stream_preset (one of "
                         f"{sorted(STREAM_PRESETS)}) or an explicit stream")
    element_kb = _number("element_kb", cfg.get("element_kb", 2.0), "> 0")
    if not 0.5 < element_kb * 8192 <= sys.float_info.max:  # round() must give >= 1 bit
        raise ValueError(f"element_kb must come to at least one bit and stay finite in bits, "
                         f"got {element_kb!r}")
    element_bits = round(element_kb * 8192)
    gop_seconds = _number("gop_seconds", cfg.get("gop_seconds", 0.533), "> 0")
    k = tuple(source_elements(1000.0 * b, gop_seconds, element_bits)
              for b in stream["bitrates_kbps"])
    layers = LayerConfig(
        k=k,
        psnr=tuple(stream["psnr_db"]),
        coverage_targets=tuple(stream["coverage_targets"]),
    )

    p_hat = _number("p_hat", cfg.get("p_hat", 0.1))
    decade_db = _number("bler.decade_db", bler_cfg.get("decade_db", 1.0), "> 0")
    thresholds = dict(DEFAULT_MCS_THRESHOLDS_DB)
    if "thresholds_db" in bler_cfg:
        values = bler_cfg["thresholds_db"]
        if not (isinstance(values, (list, tuple)) and len(values) == len(thresholds)):
            raise ValueError(f"bler.thresholds_db must hold 15 values, got {values!r}")
        thresholds = {i + 1: _number("bler.thresholds_db", v) for i, v in enumerate(values)}
    n_rbp = _number("n_rbp", cfg.get("n_rbp", 5), "> 0", integer=True)
    seed = _number("seed", cfg.get("seed", 0), ">= 0", integer=True)

    required = frozenset({"pattern", "count", "step_m"})
    users_cfg = cfg.get("users", {"pattern": "radial", "count": 80, "step_m": 2.0})
    users_cfg = _check_keys("users", users_cfg, required | {"start_m", "angle_deg", "center"},
                            required=required)
    pattern, center = users_cfg.pop("pattern"), users_cfg.pop("center", None)
    if center is not None and not (isinstance(center, (list, tuple)) and len(center) == 2):
        raise ValueError(f"users.center must hold two coordinates, got {center!r}")
    rng = np.random.default_rng(seed) if layout.shadow_sigma_db > 0 else None
    users = place_users(
        layout, pattern, p_hat=p_hat, decade_db=decade_db, thresholds=thresholds, rng=rng,
        center=None if center is None else tuple(_number("users.center", v) for v in center),
        **{key: _number(f"users.{key}", v, integer=key == "count")
           for key, v in users_cfg.items()},
    )

    return Scenario(
        layers=layers,
        layout=layout,
        users=users,
        n_rbp=n_rbp,
        element_bits=element_bits,
        gop_seconds=gop_seconds,
        p_hat=p_hat,
        q_hat=_number("q_hat", cfg.get("q_hat", 0.99)),
        bler_decade_db=decade_db,
        mcs_thresholds=thresholds,
        seed=seed,
        config=cfg,
    )
