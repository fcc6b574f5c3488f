import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ewcast.channel import (
    DEFAULT_MCS_THRESHOLDS_DB,
    _SCHEMA,
    NetworkLayout,
    Users,
    bler,
    build_scenario,
    cqi_mcs,
    erasure_prob,
    hex_grid,
    n_hat,
    place_users,
    sfn_layout,
    single_cell_layout,
    sinr_at,
    source_elements,
    subframe_cap,
    tb_capacity,
)
from ewcast.cli import DEFAULT_SC_CONFIG


class TestSourceElements:
    def test_exact_fit(self):
        assert source_elements(16384, 1.0, 16384) == 1

    def test_stream_a_layers(self):
        assert source_elements(47.3e3, 0.533, 16384) == 2
        assert source_elements(1396.7e3, 0.533, 16384) == 46

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            source_elements(0, 0.5, 16384)
        with pytest.raises(ValueError):
            source_elements(1e5, -1.0, 16384)


class TestTbCapacity:
    def test_table_endpoints(self):
        assert tb_capacity(4, 5) == 10
        assert tb_capacity(15, 5) == 360
        assert tb_capacity(4, 1) == 2  # smallest capacity: 2 per pair

    def test_strictly_increasing_in_mcs(self):
        caps = [tb_capacity(m, 3) for m in range(4, 16)]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_rejects_outside_table(self):
        for m in (0, 3, 16):
            with pytest.raises(ValueError):
                tb_capacity(m, 5)

    def test_smaller_elements_pack_more(self):
        assert tb_capacity(4, 5, element_bits=8192) == 20

    @pytest.mark.parametrize("n_rbp, element_bits, message", [
        (0, 16384, "n_rbp: need at least one resource-block pair per block"),
        (-2, 16384, "n_rbp: need at least one resource-block pair per block"),
        (5, 0, "element_bits: element size must be positive"),
        (5, -8192, "element_bits: element size must be positive"),
    ])
    def test_refusals_name_the_field(self, n_rbp, element_bits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tb_capacity(4, n_rbp, element_bits)


class TestBudgets:
    def test_headroom_formula(self):
        assert n_hat(46, 0.1, 10) == 6  # 5 + 1
        assert n_hat(1, 0.1, 10) == 2   # 1 + 1

    def test_budget_covers_lossless_fit(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 200))
            n_min = int(rng.integers(1, 20))
            assert n_hat(k, 0.1, n_min) >= math.ceil(k / n_min)

    @pytest.mark.parametrize("args, name", [((-1, 0.1, 10), "k"), ((5, 0.1, 0), "n_min"),
                                            ((5, 1.0, 10), "p_hat"),
                                            ((5, -0.1, 10), "p_hat"),
                                            ((5, math.nan, 10), "p_hat")])
    def test_bad_input_named(self, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must"):
            n_hat(*args)

    def test_subframe_cap(self):
        assert subframe_cap(0.533) == 319
        assert subframe_cap(0.5) == 300


class TestGeometryAndSinr:
    def test_hex_grid_has_19_sites(self):
        sites = hex_grid(500.0)
        assert sites.shape == (19, 2)
        radii = np.linalg.norm(sites, axis=1)
        assert np.isclose(radii[0], 0.0)
        assert np.allclose(sorted(radii[1:7]), 500.0)

    def test_sc_and_sfn_serving_sets(self):
        sc = single_cell_layout()
        assert sc.serving == (0,) and len(sc.sites) == 19
        sfn = sfn_layout()
        assert len(sfn.serving) == 4 and len(sfn.sites) == 19

    # a message is its field, then the rule; None where the rule starts with the field
    @pytest.mark.parametrize("mode, sites, serving, rule, field", [
        ("MBSFN", [(0.0, 0.0)], (0,), "mode must be 'SC' or 'SFN'", None),
        ("SC", [0.0, 0.0], (0,), "sites must be an (S, 2) array", None),
        ("SFN", [(0.0, 0.0, 0.0)], (0,), "sites must be an (S, 2) array", None),
        ("SFN", [(0.0, 0.0), (0.0, 500.0)], (), "serving indices out of range", "serving"),
        ("SFN", [(0.0, 0.0), (0.0, 500.0)], (0, 2), "serving indices out of range", "serving"),
        ("SC", [(0.0, 0.0)], (-1,), "serving indices out of range", "serving"),
        ("SC", [(0.0, 0.0), (0.0, 500.0)], (0, 1),
         "single-cell mode has exactly one serving site", "serving"),
        # a repeated site would add nothing to the signal, under another digest
        ("SFN", hex_grid(500.0), (0, 0, 1, 1),
         "serving indices must not repeat, got (0, 0, 1, 1)", "serving"),
    ])
    def test_layout_refusals_name_the_rule(self, mode, sites, serving, rule, field):
        message = f"{field}: {rule}" if field else rule
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkLayout(mode=mode, sites=sites, serving=serving)

    def test_distance_doubling_drop(self):
        iso = NetworkLayout(mode="SC", sites=[(0.0, 0.0)], serving=(0,))
        drop = sinr_at(iso, (200.0, 0.0)) - sinr_at(iso, (400.0, 0.0))
        assert drop == pytest.approx(37.6 * math.log10(2), abs=1e-9)

    def test_two_member_combining_gain(self):
        two = NetworkLayout(mode="SFN", sites=[(0.0, 100.0), (0.0, -100.0)],
                            serving=(0, 1))
        one = NetworkLayout(mode="SC", sites=[(0.0, 100.0)], serving=(0,))
        gain = sinr_at(two, (150.0, 0.0)) - sinr_at(one, (150.0, 0.0))
        assert gain == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_mirror_symmetry(self):
        layout = NetworkLayout(mode="SC",
                               sites=[(0.0, 0.0), (300.0, 200.0), (300.0, -200.0)],
                               serving=(0,))
        assert sinr_at(layout, (100.0, 50.0)) == pytest.approx(
            sinr_at(layout, (100.0, -50.0)), abs=1e-12)

    def test_distance_floor_at_site(self):
        iso = NetworkLayout(mode="SC", sites=[(0.0, 0.0)], serving=(0,))
        assert sinr_at(iso, (0.0, 0.0)) == pytest.approx(sinr_at(iso, (35.0, 0.0)))

    def test_sfn_signal_at_least_best_member(self):
        # interference-free layouts: SINR is a pure signal-power readout
        members = sfn_layout().sites[:4]
        combined = NetworkLayout(mode="SFN", sites=members, serving=(0, 1, 2, 3))
        rng = np.random.default_rng(8)
        for _ in range(20):
            pos = rng.uniform(-400, 600, 2)
            best_solo = max(
                sinr_at(NetworkLayout(mode="SC", sites=members[[i]], serving=(0,)), pos)
                for i in range(4)
            )
            assert sinr_at(combined, pos) >= best_solo - 1e-9


    @pytest.mark.parametrize("layout", [single_cell_layout(), sfn_layout()],
                             ids=["SC", "SFN"])
    def test_position_array_matches_per_position_calls(self, layout):
        rng = np.random.default_rng(11)
        positions = rng.uniform(-900.0, 900.0, (200, 2))
        positions[:3] = layout.sites[list(layout.serving)][:1]  # distance floor
        batched = sinr_at(layout, positions)
        single = np.array([sinr_at(layout, pos) for pos in positions])
        assert batched.shape == (200,)
        assert np.all(np.abs(batched - single) <= 1e-12)
        assert cqi_mcs(batched).tolist() == [cqi_mcs(s) for s in single]
        grid = sinr_at(layout, positions.reshape(10, 20, 2))
        assert np.array_equal(grid, batched.reshape(10, 20))

    @pytest.mark.parametrize("layout", [single_cell_layout(), sfn_layout(),
                                        single_cell_layout(shadow_sigma_db=6.0)],
                             ids=["SC", "SFN", "SC-shadowed"])
    def test_matches_textbook_formulas_bitwise(self, layout):
        # sinr_at works in place but keeps each formula's operation order, so
        # it matches the plain expressions bit for bit, shadowing included
        positions = np.random.default_rng(12).uniform(-1200.0, 1200.0, (15, 20, 2))
        positions[0, :3] = layout.sites[:3]  # on top of sites: the distance floor
        dist = np.maximum(np.linalg.norm(layout.sites - positions[..., None, :], axis=-1), 35.0)
        rx_dbm = (layout.tx_power_dbm + layout.antenna_gain_db
                  - (128.1 + 37.6 * np.log10(dist / 1000.0)))
        if layout.shadow_sigma_db > 0.0:
            rx_dbm = rx_dbm + np.random.default_rng(5).normal(0.0, layout.shadow_sigma_db,
                                                               size=rx_dbm.shape)
        rx_mw = 10.0 ** (rx_dbm / 10.0)
        serving = np.isin(np.arange(len(layout.sites)), layout.serving)
        noise_mw = 10.0 ** ((-174.0 + 10.0 * math.log10(layout.bandwidth_hz)
                             + layout.noise_figure_db) / 10.0)
        literal = 10.0 * np.log10(rx_mw[..., serving].sum(axis=-1)
                                  / (rx_mw[..., ~serving].sum(axis=-1) + noise_mw))
        got = sinr_at(layout, positions, rng=np.random.default_rng(5))
        assert got.shape == (15, 20) and got.tobytes() == literal.tobytes()

    def test_shadowing_draws_in_position_order(self):
        layout = single_cell_layout(shadow_sigma_db=6.0)
        positions = np.array([(100.0, 20.0), (250.0, -40.0), (400.0, 90.0)])
        batched = sinr_at(layout, positions, rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        single = [sinr_at(layout, pos, rng=rng) for pos in positions]
        assert np.all(np.abs(batched - single) <= 1e-12)


class TestCqiAndErasure:
    def test_floor_and_ceiling(self):
        assert cqi_mcs(-60.0) == 1
        assert cqi_mcs(60.0) == 15

    def test_threshold_is_inclusive(self):
        for m in (4, 9, 15):
            assert cqi_mcs(DEFAULT_MCS_THRESHOLDS_DB[m]) == m

    def test_monotone_in_sinr(self):
        grid = np.linspace(-15, 25, 200)
        reports = [cqi_mcs(float(s)) for s in grid]
        assert all(a <= b for a, b in zip(reports, reports[1:]))

    def test_bler_anchor_and_monotonicity(self):
        assert bler(DEFAULT_MCS_THRESHOLDS_DB[9], 9) == pytest.approx(0.1)
        assert bler(-30.0, 9) == 1.0
        sweep = [bler(s, 7) for s in np.linspace(-10, 20, 50)]
        assert all(a >= b for a, b in zip(sweep, sweep[1:]))
        and_up = [bler(5.0, m) for m in range(1, 16)]
        assert all(a <= b for a, b in zip(and_up, and_up[1:]))

    def test_bler_refuses_mcs_without_threshold(self):
        for m in (16, np.array([4, 0])):
            with pytest.raises(ValueError, match=r"^no SINR threshold for MCS (16|0)$"):
                bler(0.0, m)

    @staticmethod
    def users(sinr_db, reports):
        n = len(reports)
        return Users(np.zeros((n, 2)), np.asarray(sinr_db, dtype=float), np.asarray(reports))

    def test_allocator_view_rule(self):
        user = self.users([10.0], [9])
        assert erasure_prob(user, 9, "allocator").tolist() == [0.1]
        assert erasure_prob(user, 4, "allocator").tolist() == [0.1]
        assert erasure_prob(user, 10, "allocator").tolist() == [1.0]

    def test_evaluation_view_consistent_with_report(self):
        # reported MCS keeps the modeled loss at or below the anchor
        sinr = [-3.0, 2.0, 7.5, 16.0]
        users = self.users(sinr, [cqi_mcs(s) for s in sinr])
        losses = erasure_prob(users, np.arange(1, 16), "evaluation")
        for row, report in zip(losses, users.mcs_feedback.tolist()):
            assert np.all(row[:report] <= 0.1 + 1e-12)

    def test_rejects_unknown_view(self):
        with pytest.raises(ValueError):
            erasure_prob(self.users([5.0], [8]), 5, "guess")

    @pytest.mark.parametrize("view", ["allocator", "evaluation"])
    def test_user_sequence_matches_single_users(self, view):
        # each entry against the loss rule for one user and one MCS: the
        # scalar error curve, or the literal allocator rule
        users = place_users(single_cell_layout(), "radial", count=30, step_m=9.0)
        mcs = np.array([0, 4, 9, 15])
        matrix = erasure_prob(users, mcs, view, 0.1, 5.0)
        assert matrix.shape == (30, 4)
        for row, sinr, report in zip(matrix, users.sinr_db.tolist(),
                                     users.mcs_feedback.tolist()):
            if view == "allocator":
                single = [0.1 if 0 < m <= report else 1.0 for m in mcs.tolist()]
            else:
                single = [float(bler(sinr, m, 0.1, 5.0)) if m else 1.0 for m in mcs.tolist()]
            # array and scalar powers may round the error curve differently
            assert np.allclose(row, single, rtol=1e-13, atol=0.0)


class TestPlaceUsers:
    def test_radial_span(self):
        layout = single_cell_layout()
        users = place_users(layout, "radial", count=80, step_m=2.0, start_m=90.0)
        assert len(users) == 80
        d_first = np.hypot(*users.positions[0])
        d_mid = np.hypot(*users.positions[47])
        d_last = np.hypot(*users.positions[-1])
        assert d_first == pytest.approx(90.0)
        assert d_mid == pytest.approx(90.0 + 47 * 2.0)
        assert d_last == pytest.approx(248.0)

    def test_single_user(self):
        layout = single_cell_layout()
        users = place_users(layout, "radial", count=1, step_m=2.0, start_m=90.0)
        assert len(users) == 1 and users.positions.shape == (1, 2)
        assert np.hypot(*users.positions[0]) == pytest.approx(90.0)

    def test_grid_count_and_min_distance(self):
        layout = sfn_layout()
        users = place_users(layout, "grid", count=1700, step_m=20.0)
        assert len(users) == 1700
        pos = users.positions
        sample = pos[:: 40]
        dists = np.linalg.norm(sample[:, None, :] - pos[None, :, :], axis=2)
        dists[dists == 0] = np.inf
        assert dists.min() == pytest.approx(20.0)

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            place_users(single_cell_layout(), "ring", count=3, step_m=1.0)

    @pytest.mark.parametrize("pattern, kwargs, message", [
        ("grid", dict(count=-1, step_m=9.0), "users.count must be >= 0, got -1"),
        ("radial", dict(count=3, step_m=0.0), "users.step_m must be > 0, got 0.0"),
        ("grid", dict(count=3, step_m=-2.0), "users.step_m must be > 0, got -2.0"),
        ("radial", dict(count=3, step_m=1.0, start_m=0.0), "users.start_m must be > 0, got 0.0"),
    ])
    def test_placement_refusals_name_the_field(self, pattern, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            place_users(single_cell_layout(), pattern, **kwargs)

    def test_row_view_yields_python_values(self):
        # one row of Python values per user, equal to the columns: what a
        # caller reading the reports one user at a time relies on
        users = place_users(sfn_layout(shadow_sigma_db=6.0), "grid", count=7, step_m=90.0,
                            rng=np.random.default_rng(5))
        rows = list(users)
        assert len(rows) == len(users) == 7
        for i, row in enumerate(rows):
            assert type(row.position) is tuple and len(row.position) == 2
            assert all(type(v) is float for v in row.position)
            assert type(row.sinr_db) is float and type(row.mcs_feedback) is int
            assert tuple(row) == (tuple(users.positions[i].tolist()),
                                  users.sinr_db[i], users.mcs_feedback[i])
        assert tuple(u.mcs_feedback for u in users) == tuple(users.mcs_feedback.tolist())
        assert list(place_users(sfn_layout(), "grid", count=0, step_m=9.0)) == []

    def test_report_outside_mcs_range_refused(self):
        # a threshold table past MCS 15 yields reports no capacity table holds
        with pytest.raises(ValueError, match=r"reported MCS must lie in \[1, 15\]"):
            place_users(single_cell_layout(), "radial", count=3, step_m=5.0,
                        thresholds={**DEFAULT_MCS_THRESHOLDS_DB, 16: -100.0})
        for reports in ([0, 5], [5, 16], [-1]):
            with pytest.raises(ValueError, match=r"\[1, 15\]"):
                Users(np.zeros((len(reports), 2)), np.zeros(len(reports)), np.array(reports))


class TestScenario:
    CONFIG = {
        "mode": "SC",
        "stream_preset": "A",
        "n_rbp": 5,
        "users": {"pattern": "radial", "count": 16, "step_m": 10.0, "start_m": 90.0},
        "seed": 3,
    }

    def test_stream_a_segmentation_and_budget(self):
        scenario = build_scenario(self.CONFIG)
        assert scenario.layers.k == (2, 11, 46)
        assert scenario.layers.window_sizes == (2, 13, 59)
        assert scenario.problem.tb_budget == (2, 3, 6)
        assert scenario.problem.capacities[4] == 10

    def test_budget_respects_subframe_cap(self):
        config = dict(self.CONFIG)
        config["gop_seconds"] = 0.01  # cap floor(0.6 * 10) = 6
        scenario = build_scenario(config)
        assert all(b <= 6 for b in scenario.problem.tb_budget)

    def test_users_default_is_the_cli_default_line(self):
        bare = {key: value for key, value in DEFAULT_SC_CONFIG.items() if key != "users"}
        default, explicit = build_scenario(bare).users, build_scenario(DEFAULT_SC_CONFIG).users
        for column in ("positions", "sinr_db", "mcs_feedback"):
            assert np.array_equal(getattr(default, column), getattr(explicit, column))

    def test_problem_built_on_first_read(self):
        # a scenario without users still builds, and only reading its
        # problem fails, naming the config field
        empty = build_scenario({**self.CONFIG, "users": {"pattern": "radial", "count": 0,
                                                          "step_m": 2.0}})
        assert "problem" not in vars(empty)
        with pytest.raises(ValueError, match="users.count"):
            empty.problem
        scenario = build_scenario(self.CONFIG)
        assert scenario.problem is scenario.problem
        feedback = np.bincount(scenario.users.mcs_feedback, minlength=16)
        assert scenario.problem.report_counts.tolist() == feedback.tolist()

    def test_digest_stable_and_sensitive(self):
        a = build_scenario(self.CONFIG).digest()
        b = build_scenario(self.CONFIG).digest()
        assert a == b
        changed = dict(self.CONFIG)
        changed["n_rbp"] = 4
        assert build_scenario(changed).digest() != a

    def test_stream_config_fails_fast(self):
        with pytest.raises(ValueError, match="stream_preset 'C'.*'A', 'B'"):
            build_scenario({**self.CONFIG, "stream_preset": "C"})
        bare = {key: v for key, v in self.CONFIG.items() if key != "stream_preset"}
        with pytest.raises(ValueError, match="stream_preset.*'A', 'B'"):
            build_scenario(bare)

    def test_unknown_keys_fail_fast(self):
        with pytest.raises(ValueError, match="scenario key.*'n_rpb'"):
            build_scenario({**self.CONFIG, "n_rpb": 1})
        with pytest.raises(ValueError, match="bler key.*'decade'"):
            build_scenario({**self.CONFIG, "bler": {"decade": 5}})

    def test_users_without_pattern_fails_fast(self):
        users = {"count": 16, "step_m": 10.0}
        with pytest.raises(ValueError, match=r"users is missing key\(s\) \['pattern'\]"):
            build_scenario({**self.CONFIG, "users": users})

    def test_unknown_users_key_fails_fast(self):
        users = {**self.CONFIG["users"], "step": 5.0}
        with pytest.raises(ValueError, match=r"users key\(s\) \['step'\]"):
            build_scenario({**self.CONFIG, "users": users})

    STREAM = {"bitrates_kbps": [47.3, 326.1], "psnr_db": [27.9, 35.9],
              "coverage_targets": [0.99, 0.8]}

    def test_stream_missing_field_fails_fast(self):
        bare = {key: v for key, v in self.CONFIG.items() if key != "stream_preset"}
        assert build_scenario({**bare, "stream": self.STREAM}).layers.num_layers == 2
        for field in self.STREAM:
            stream = {key: v for key, v in self.STREAM.items() if key != field}
            with pytest.raises(ValueError, match=rf"stream is missing key\(s\) \['{field}'\]"):
                build_scenario({**bare, "stream": stream})

    def test_unknown_stream_key_fails_fast(self):
        bare = {key: v for key, v in self.CONFIG.items() if key != "stream_preset"}
        stream = {**self.STREAM, "psnr": [27.9, 35.9]}
        with pytest.raises(ValueError, match=r"stream key\(s\) \['psnr'\]"):
            build_scenario({**bare, "stream": stream})

    def test_every_schema_field_refuses_bad_values_by_name(self):
        # walks the schema table: a value of the wrong type or container, a
        # non-finite number, null and a value just outside the row's bound
        # are each a ValueError naming the field's dotted path
        bare = {key: v for key, v in self.CONFIG.items() if key != "stream_preset"}
        base = {**bare, "stream": self.STREAM, "bler": {}}
        build_scenario(base)
        for path, row in _SCHEMA.items():
            section, _, key = path.rpartition(".")
            values = ["x", True, math.nan, math.inf, None]
            if row.bound:  # just outside each finite end
                opening, low, high, closing = row.bound
                values.append(low if opening == "(" else low - 1)
                if high < math.inf:
                    values.append(high if closing == ")" else 2 * high)
            bad = values + [[] if row.kind == "object" else {}]
            if row.length is not None:  # the same values as a list's entries; a wrong length
                bad += [[v] * max(row.length, 1) for v in values]
                bad.append([0.0] * (row.length + 1) if row.length else [])
            for value in bad:
                config = copy.deepcopy(bare if path == "stream_preset" else base)
                (config[section] if section else config)[key] = value
                with pytest.raises(ValueError, match=rf"\b{re.escape(path)}\b"):
                    build_scenario(config)

    def test_readme_names_every_schema_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = readme.split("## Scenario schema", 1)[1].split("\n## ", 1)[0]
        assert [path for path in _SCHEMA if f"`{path}`" not in schema] == []

    def test_readme_schema_example_builds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = readme.split("## Scenario schema", 1)[1]
        block = re.search(r"```json\n(.*?)```", schema, re.S).group(1)
        config = json.loads(block)
        scenario = build_scenario(config)
        assert scenario.n_rbp == config["n_rbp"]
        assert scenario.bler_decade_db == config["bler"]["decade_db"]
        assert len(scenario.users) == config["users"]["count"]

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.CONFIG))
        scenario = build_scenario(json.loads(path.read_text()))
        assert scenario.layers.k == (2, 11, 46)
        assert len(scenario.users) == 16

    def test_shadow_fading_toggle(self):
        plain = build_scenario(self.CONFIG)
        shadowed = build_scenario({**self.CONFIG, "shadow_sigma_db": 6.0})
        assert np.any(np.abs(plain.users.sinr_db - shadowed.users.sinr_db) > 1e-6)
        again = build_scenario({**self.CONFIG, "shadow_sigma_db": 6.0})
        assert np.array_equal(shadowed.users.sinr_db, again.users.sinr_db)

    def test_custom_threshold_table(self):
        # lifting every threshold by 6 dB lowers each user's reported MCS
        shifted = [DEFAULT_MCS_THRESHOLDS_DB[m] + 6.0 for m in range(1, 16)]
        config = {**self.CONFIG, "bler": {"thresholds_db": shifted}}
        base = build_scenario(self.CONFIG)
        harsh = build_scenario(config)
        assert np.all(harsh.users.mcs_feedback <= base.users.mcs_feedback)
        assert np.any(harsh.users.mcs_feedback < base.users.mcs_feedback)
