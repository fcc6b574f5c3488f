"""Cell geometry, SINR, CQI feedback, transport-block capacities, scenarios.

The radio model is deliberately parametric: an urban-macro pathloss law
(128.1 + 37.6 log10(d_km) dB), configurable per-sector power and noise
figure, and a documented SINR-threshold table mapping channel quality to MCS
indices.  Exact antenna/pathloss tables from standards documents are out of
scope; only orderings and the block-error anchor matter for the allocators.

Unit conventions: kbps = 1000 bit/s, KB = 1024 byte, powers in dBm.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .allocators import P_HAT, Q_HAT, AllocationProblem
from .decode_prob import _PROB_EPS, _RECEIVER_BLOCK, LayerConfig, _check_thresholds

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
BLER_DECADE_DB = 1.0  # default SINR gain (dB) per decade the block error falls below P_HAT

ISD_M, SFN_MEMBERS = 500.0, (0, 1, 2, 3)  # defaults: site spacing (m), SFN serving sites
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
        raise ValueError("n_rbp: need at least one resource-block pair per block")
    if element_bits <= 0:
        raise ValueError("element_bits: element size must be positive")
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
    # first ring at ISD, then corners at 2*ISD and edge midpoints at sqrt(3)*ISD
    for radius, turn in ((isd_m, 0.0), (2 * isd_m, 0.0), (math.sqrt(3) * isd_m, 30.0)):
        for j in range(6):
            a = math.radians(60.0 * j + turn)
            sites.append((radius * math.cos(a), radius * math.sin(a)))
    return np.asarray(sites)


@dataclass(frozen=True)
class NetworkLayout:
    """Base-station geometry plus the link-budget parameters of the cell."""

    sites: np.ndarray  # (S, 2) positions in metres
    serving: tuple[int, ...]  # indices transmitting the target service
    tx_power_dbm: float = 46.0
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    antenna_gain_db: float = 0.0
    shadow_sigma_db: float = 0.0  # lognormal shadowing; 0 keeps runs deterministic

    def __post_init__(self):
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=float))
        if self.sites.ndim != 2 or self.sites.shape[1] != 2:
            raise ValueError("sites must be an (S, 2) array")
        serving = tuple(int(i) for i in self.serving)
        object.__setattr__(self, "serving", serving)
        if not serving or any(not 0 <= i < len(self.sites) for i in serving):
            raise ValueError("serving: serving indices out of range")
        if len(set(serving)) != len(serving):
            raise ValueError(f"serving: serving indices must not repeat, got {serving}")


def single_cell_layout(isd_m: float = ISD_M, **kwargs) -> NetworkLayout:
    """Centre site serving, 18 interferers on two concentric rings."""
    return NetworkLayout(sites=hex_grid(isd_m), serving=(0,), **kwargs)


def sfn_layout(isd_m: float = ISD_M, members: Sequence[int] = SFN_MEMBERS, **kwargs) -> NetworkLayout:
    """Four synchronised sites serving, the remaining 15 interfering."""
    return NetworkLayout(sites=hex_grid(isd_m), serving=tuple(members), **kwargs)


def sinr_at(layout: NetworkLayout, position, rng: np.random.Generator | None = None) -> float:
    """SINR (dB) at a position; synchronised serving sites combine in power.

    ``position`` may be an ``(..., 2)`` array; the result then has its
    leading shape, and shadowing draws one value per (position, site) in
    position order.
    """
    pos = np.asarray(position, dtype=float)
    # (..., S) site offsets, then distance, pathloss, received dBm and mW, each
    # step in place and in the formulas' order: two (..., S) arrays at most
    rx, dy = (layout.sites[:, k] - pos[..., k, None] for k in (0, 1))
    rx *= rx
    rx += np.multiply(dy, dy, out=dy)
    del dy
    np.maximum(np.sqrt(rx, out=rx), MIN_DISTANCE_M, out=rx)
    np.log10(np.divide(rx, 1000.0, out=rx), out=rx)
    rx *= PATHLOSS_SLOPE_DB
    rx += PATHLOSS_FIXED_DB
    np.subtract(layout.tx_power_dbm + layout.antenna_gain_db, rx, out=rx)
    if layout.shadow_sigma_db > 0.0 and rng is not None:
        rx += rng.normal(0.0, layout.shadow_sigma_db, size=rx.shape)
    rx_mw = np.power(10.0, np.divide(rx, 10.0, out=rx), out=rx)
    serving = np.zeros(len(layout.sites), dtype=bool)
    serving[list(layout.serving)] = True
    signal = rx_mw[..., serving].sum(axis=-1)
    interference = rx_mw[..., ~serving].sum(axis=-1)
    noise_dbm = (THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(layout.bandwidth_hz)
                 + layout.noise_figure_db)
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    return (10.0 * np.log10(signal / (interference + noise_mw)))[()]


def bler(sinr_db: float, m: int, decade_db: float = BLER_DECADE_DB,
         thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB) -> float:
    """Block error probability of MCS ``m`` at the given SINR.

    ``P_HAT`` on the MCS threshold, falling one decade per ``decade_db`` of
    extra SINR and reaching 1 one ``decade_db`` below the threshold.
    ``sinr_db`` and ``m`` may be arrays that broadcast against each other.
    """
    ms = np.asarray(m)
    try:
        thr = np.array([thresholds[v] for v in ms.ravel().tolist()]).reshape(ms.shape)
    except KeyError as exc:
        raise ValueError(f"no SINR threshold for MCS {exc.args[0]}") from None
    with np.errstate(over="ignore"):  # an overflowing power reads 1
        return np.minimum(1.0, P_HAT * 10.0 ** (-(np.asarray(sinr_db) - thr) / decade_db))[()]


def cqi_mcs(sinr_db: float, thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB) -> int:
    """Largest MCS whose SINR threshold ``sinr_db`` reaches; floor 1.

    ``sinr_db`` may be an array; the result then has its shape.
    """
    reached = np.asarray(sinr_db, dtype=float)[..., None] >= np.array(list(thresholds.values()))
    return np.max(np.where(reached, np.array(list(thresholds)), 1), axis=-1, initial=1)[()]


class UserRow(NamedTuple):  # one user of a ``Users`` drop, as Python values
    position: tuple[float, float]
    sinr_db: float
    mcs_feedback: int


@dataclass(frozen=True, eq=False)
class Users:
    """A user drop as columns, one entry per user: all the channel knows of it."""

    positions: np.ndarray  # (U, 2), metres
    sinr_db: np.ndarray  # (U,), dB
    mcs_feedback: np.ndarray  # (U,), reported MCS in [1, 15]

    def __post_init__(self):
        # read-only copies: fixed once placed, and the placement's scratch memory is freed
        for f in fields(self):
            column = np.array(getattr(self, f.name))
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        if not np.all((self.mcs_feedback >= 1) & (self.mcs_feedback <= 15)):
            raise ValueError("reported MCS must lie in [1, 15]")

    def __len__(self) -> int:
        return len(self.mcs_feedback)

    def __iter__(self):
        """One ``UserRow`` per user, for callers that read users one at a time."""
        return map(UserRow._make, zip(map(tuple, self.positions.tolist()),
                                      self.sinr_db.tolist(), self.mcs_feedback.tolist()))


def erasure_prob(users: Users, m: int | np.ndarray, decade_db: float = BLER_DECADE_DB,
                 thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB) -> np.ndarray:
    """Evaluation-view block loss of MCS ``m`` (an index or an array of them)
    for every user: one row per user, each of ``m``'s shape, read from the
    error curve at the user's actual SINR; MCS 0 (not sent) is lost."""
    ms = np.asarray(m)
    sent = ms >= 1
    # unsent entries read any threshold; their loss is replaced by 1
    curve = bler(users.sinr_db.reshape((-1,) + (1,) * ms.ndim),
                 np.where(sent, ms, min(thresholds)), decade_db, thresholds)
    return np.where(sent, curve, 1.0)


def place_users(layout: NetworkLayout, pattern: str, *, count: int,
                step_m: float, start_m: float = 90.0, angle_deg: float = 30.0,
                center: tuple[float, float] | None = None,
                thresholds: Mapping[int, float] = DEFAULT_MCS_THRESHOLDS_DB,
                rng: np.random.Generator | None = None) -> Users:
    """Deterministic user drops.

    ``radial`` lines users up along a sector symmetry axis of the (first)
    serving site; ``grid`` fills a square lattice centred on the serving
    sites' centroid, row by row, until ``count`` positions exist.
    """
    if count < 0:
        raise ValueError(f"users.count must be >= 0, got {count!r}")
    if step_m <= 0:
        raise ValueError(f"users.step_m must be > 0, got {step_m!r}")
    if pattern == "radial":
        if start_m <= 0:
            raise ValueError(f"users.start_m must be > 0, got {start_m!r}")
        origin = layout.sites[layout.serving[0]]
        direction = np.array([math.cos(math.radians(angle_deg)),
                              math.sin(math.radians(angle_deg))])
        positions = origin + (start_m + np.arange(count)[:, None] * step_m) * direction
    elif pattern == "grid":
        if center is None:
            center = tuple(layout.sites[list(layout.serving)].mean(axis=0))
        cols = math.ceil(math.sqrt(count)) if count else 0
        rows = math.ceil(count / cols) if cols else 0
        x0 = center[0] - (cols - 1) * step_m / 2.0
        y0 = center[1] - (rows - 1) * step_m / 2.0
        r, c = np.divmod(np.arange(count), cols)
        positions = np.stack([x0 + c * step_m, y0 + r * step_m], axis=-1)
    else:
        raise ValueError(f"unknown placement pattern {pattern!r}")
    # a block of users at a time: their (users, sites) and (users, 15) tables are the largest
    sinr = [sinr_at(layout, positions[i:i + _RECEIVER_BLOCK], rng=rng)
            for i in range(0, count or 1, _RECEIVER_BLOCK)]
    mcs = [cqi_mcs(block, thresholds) for block in sinr]
    return Users(positions, np.concatenate(sinr), np.concatenate(mcs))


def element_bits_of(config: dict) -> int:
    """Bits one element holds under a normalized config: round(element_kb * 8192)."""
    return round(config["element_kb"] * 8192)


def error_curve_of(config: dict) -> dict:
    """The error-curve keywords of a normalized config, as ``bler`` and ``erasure_prob``
    take them: ``decade_db``, ``thresholds`` (the last alone sets the reports)."""
    return {"decade_db": config["bler"]["decade_db"],
            "thresholds": dict(enumerate(config["bler"]["thresholds_db"], start=1))}


@dataclass(frozen=True)
class Scenario:
    """One experiment: the normalized config it was built from (``normalized_config``)
    and what ``build_scenario`` built of it, the stream, the cell and the users.

    Frozen, so the allocation problem it builds once cannot go stale."""

    layers: LayerConfig
    layout: NetworkLayout
    users: Users
    config: dict

    @functools.cached_property
    def problem(self) -> AllocationProblem:
        """The allocators' input, built on first read: the users' reports,
        each window's block budget and the capacity of every MCS."""
        if not len(self.users):
            raise ValueError("users.count must be >= 1 to allocate blocks, got 0")
        cfg, bits = self.config, element_bits_of(self.config)
        n_min = tb_capacity(4, cfg["n_rbp"], bits)
        cap = subframe_cap(cfg["gop_seconds"])
        return AllocationProblem(
            layers=self.layers,
            user_mcs=self.users.mcs_feedback,
            tb_budget=tuple(min(n_hat(k, cfg["p_hat"], n_min), cap) for k in self.layers.k),
            capacities={m: tb_capacity(m, cfg["n_rbp"], bits) for m in CAPACITY_RATIO_PER_RBP},
            p_hat=cfg["p_hat"],
            q_hat=cfg["q_hat"],
        )

    def losses(self, mcs) -> np.ndarray:
        """Evaluation-view block losses of MCS ``mcs`` (an index or an array of them):
        ``erasure_prob`` of the users on the config's error curve."""
        return erasure_prob(self.users, mcs, **error_curve_of(self.config))

    def digest(self) -> str:
        """Stable hash of the normalized config: one per scenario, however it is spelled."""
        return config_digest(self.config)


_REQUIRED = object()  # the default of a field a config must give


class _Field(NamedTuple):
    kind: str | tuple  # "number", "integer", "object" (a section) or a tuple of choices
    default: object = None  # None: absent stays absent (users.center, the stream pair)
    bound: tuple | None = None  # (bracket, low, high, bracket), e.g. ("(", 0, 1, "]")
    length: int | None = None  # None: one value; 0: a non-empty list; n: a list of n


_POSITIVE = ("(", 0, math.inf, ")")
_NON_NEGATIVE = ("[", 0, math.inf, ")")

# The scenario config schema, one row per field by dotted path (see README).
_SCHEMA: dict[str, _Field] = {
    "mode": _Field(("SC", "SFN"), "SC"),
    "isd_m": _Field("number", ISD_M, ("(", 0, 1e6, "]")),
    "sfn_members": _Field("integer", SFN_MEMBERS, ("[", 0, 18, "]"), length=0),  # 19 grid sites
    # sinr_at works in mW, so the radio rows keep each power and the SINR ratio in float range.
    # Each dB term of the link budget lies in [-500, 500]: tx_power_dbm, antenna_gain_db,
    # noise_figure_db and 10 log10 bandwidth_hz.  Each length lies in (0, 1e6] m: isd_m,
    # users.step_m, users.start_m and each users.center coordinate.  With up to 10^6 users a
    # distance is at most about 1e12 m, so squared offsets and CSV coordinates times 1e6 stay
    # finite and the path loss lies in [73, 467] dB.  Each received power lies in [-1467, 927]
    # dBm and the noise in [-1174, 826] dBm, so signal / (interference + noise) lies in [1e-230,
    # 1e212], 78 decades inside the normal floats: shadow_sigma_db <= 100 needs a 7-sigma draw
    "tx_power_dbm": _Field("number", NetworkLayout.tx_power_dbm, ("[", -500, 500, "]")),
    "bandwidth_hz": _Field("number", NetworkLayout.bandwidth_hz, ("[", 1e-50, 1e50, "]")),
    "noise_figure_db": _Field("number", NetworkLayout.noise_figure_db, ("[", -500, 500, "]")),
    "antenna_gain_db": _Field("number", NetworkLayout.antenna_gain_db, ("[", -500, 500, "]")),
    "shadow_sigma_db": _Field("number", NetworkLayout.shadow_sigma_db, ("[", 0, 100, "]")),
    "stream_preset": _Field(tuple(STREAM_PRESETS)),
    "stream": _Field("object"),
    "stream.bitrates_kbps": _Field("number", _REQUIRED, _POSITIVE, length=0),
    "stream.psnr_db": _Field("number", _REQUIRED, length=0),
    "stream.coverage_targets": _Field("number", _REQUIRED, ("(", 0, 1, "]"), length=0),
    # the element holds round(element_kb * 8192) bits: at least one, and finitely many
    "element_kb": _Field("number", 2.0, ("(", 0.5 / 8192, sys.float_info.max / 8192, "]")),
    "gop_seconds": _Field("number", 0.533, _POSITIVE),
    "n_rbp": _Field("integer", 5, ("(", 0, 10**6, "]")),  # capacities fit int64 at any element size
    "p_hat": _Field("number", P_HAT, ("[", 0, 1, ")")),
    "q_hat": _Field("number", Q_HAT, ("(", _PROB_EPS, 1, "]")),  # above the QoS grace
    "bler": _Field("object", {}),
    "bler.decade_db": _Field("number", BLER_DECADE_DB, _POSITIVE),
    "bler.thresholds_db": _Field("number", tuple(DEFAULT_MCS_THRESHOLDS_DB.values()), length=15),
    "users": _Field("object", {"pattern": "radial", "count": 80, "step_m": 2.5}),
    "users.pattern": _Field(("radial", "grid"), _REQUIRED),
    "users.count": _Field("integer", _REQUIRED, ("[", 0, 10**6, "]")),  # 10^6: ~6 s, ~250 MB
    "users.step_m": _Field("number", _REQUIRED, ("(", 0, 1e6, "]")),
    "users.start_m": _Field("number", place_users.__kwdefaults__["start_m"], ("(", 0, 1e6, "]")),
    "users.angle_deg": _Field("number", place_users.__kwdefaults__["angle_deg"]),
    "users.center": _Field("number", bound=("[", -1e6, 1e6, "]"), length=2),
    "seed": _Field("integer", 0, _NON_NEGATIVE),
}

# the rows of each section ("" is the top level), keyed by the last part of their path
_SECTIONS: dict[str, dict[str, _Field]] = {}
for _path, _row in _SCHEMA.items():
    _SECTIONS.setdefault(_path.rpartition(".")[0], {})[_path.rpartition(".")[2]] = _row


def _value(path: str, value, row: _Field):
    """``value`` of field ``path`` converted as its row says, else a ``ValueError``."""
    if row.length is not None:
        if isinstance(value, (list, tuple)) and (len(value) == row.length if row.length else value):
            return tuple(_value(path, v, row._replace(length=None)) for v in value)
        raise ValueError(f"{path} must be a list of {row.length or 'one or more'} {row.kind}s, "
                         f"got {value!r}")
    if isinstance(row.kind, tuple):
        if isinstance(value, str) and value in row.kind:
            return value
        raise ValueError(f"unknown {path} {value!r}; valid values: {sorted(row.kind)}")
    ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
          and abs(value) <= sys.float_info.max and (row.kind == "number" or value % 1 == 0))
    if ok and row.bound:
        opening, low, high, closing = row.bound
        ok = ((value > low if opening == "(" else value >= low)
              and (value < high if closing == ")" else value <= high))
    if not ok:
        within = " in {}{:g}, {:g}{}".format(*row.bound) if row.bound else ""
        raise ValueError(f"{path} must be a finite {row.kind}{within}, got {value!r}")
    return float(value) if row.kind == "number" else int(value)


def _section(path: str, cfg) -> dict:
    """Config section ``path`` ("" for the top level) checked and converted field by
    field through ``_SCHEMA``, defaults filled in; a subsection is kept as given."""
    name, rows = path or "scenario", _SECTIONS[path]
    if not isinstance(cfg, Mapping):
        raise ValueError(f"{name} must be an object, got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(rows))
    if unknown:
        raise ValueError(f"unknown {name} key(s) {unknown}; valid keys: {sorted(rows)}")
    out = {key: row.default for key, row in rows.items() if row.default is not None}
    for key, value in cfg.items():
        field_path, row = f"{path}.{key}".lstrip("."), rows[key]
        out[key] = value if row.kind == "object" else _value(field_path, value, row)
    missing = sorted(key for key, value in out.items() if value is _REQUIRED)
    if missing:
        raise ValueError(f"{name} is missing key(s) {missing}")
    return out


def normalized_config(config: dict) -> dict:
    """``config`` read through ``_SCHEMA`` once: each section checked and converted,
    its constant defaults filled in, and a stream preset expanded into its ``stream``
    section.  Normalizing it again changes nothing.  A bad field, or a config giving
    both ``stream_preset`` and ``stream``, raises a ``ValueError`` naming it."""
    top = _section("", config)
    if len(set(top["sfn_members"])) < len(top["sfn_members"]):
        raise ValueError(f"sfn_members must not repeat a site, got {top['sfn_members']!r}")
    if ("stream_preset" in top) == ("stream" in top):
        raise ValueError("config must give one of stream_preset and stream, not both or "
                         f"neither; valid presets: {sorted(STREAM_PRESETS)}")
    stream = top["stream"] = (dict(STREAM_PRESETS[top.pop("stream_preset")])
                              if "stream_preset" in top else _section("stream", top["stream"]))
    for key, values in stream.items():
        if len(values) != len(stream["bitrates_kbps"]):
            raise ValueError(f"stream.{key} must hold one entry per bitrate "
                             f"({len(stream['bitrates_kbps'])}), got {values!r}")
    top["bler"], top["users"] = _section("bler", top["bler"]), _section("users", top["users"])
    return top


def build_scenario(config: dict) -> Scenario:
    """Assemble a scenario from a plain config mapping (see README schema), read
    through ``normalized_config``; the scenario keeps the normalized config."""
    top = normalized_config(config)
    radio = {f.name: top[f.name] for f in fields(NetworkLayout) if f.name in top}
    layout = (sfn_layout(top["isd_m"], top["sfn_members"], **radio) if top["mode"] == "SFN"
              else single_cell_layout(top["isd_m"], **radio))
    element_bits = element_bits_of(top)
    if tb_capacity(4, top["n_rbp"], element_bits) < 1:  # the budgets count blocks of MCS 4
        raise ValueError(f"element_kb {top['element_kb']:g} does not fit a block of MCS 4 at n_rbp "
                         f"{top['n_rbp']}: at most {tb_capacity(4, top['n_rbp'], 8192)} KB")
    layers = LayerConfig(
        k=tuple(source_elements(1000.0 * b, top["gop_seconds"], element_bits)
                for b in top["stream"]["bitrates_kbps"]),
        psnr=tuple(top["stream"]["psnr_db"]),
        coverage_targets=tuple(top["stream"]["coverage_targets"]),
    )
    rng = np.random.default_rng(top["seed"]) if layout.shadow_sigma_db > 0 else None
    users = place_users(layout, rng=rng, thresholds=error_curve_of(top)["thresholds"],
                        **top["users"])
    return Scenario(layers, layout, users, top)
