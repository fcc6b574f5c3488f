import json

import numpy as np
import pytest

from ewcast.cli import (
    DEFAULT_SC_CONFIG,
    DEFAULT_SFN_CONFIG,
    SATURATION_CAP,
    _saturation_t,
    main,
    run_coverage_sc,
    run_psnr_map_sfn,
    run_rbp_sweep,
    run_solve,
    run_validate_approx,
)
from ewcast.decode_prob import LayerConfig

SMALL_SC = {
    "mode": "SC",
    "stream_preset": "A",
    "n_rbp": 5,
    "users": {"pattern": "radial", "count": 20, "step_m": 8.0, "start_m": 90.0},
    "bler": {"decade_db": 5.0},
    "seed": 2,
}


class TestValidateApprox:
    def test_small_sweep_columns_and_gap(self):
        result = run_validate_approx(trials=20000, seed=1, capacities=(2,),
                                     losses=(0.1,), layer_elements=(4, 6),
                                     t_max=12)
        assert result.columns[0] == "elements_per_tb"
        assert len(result.rows) == 12 * 2
        for row in result.rows:
            analytic, simulated, std_err, gap = row[4], row[5], row[6], row[7]
            assert gap == pytest.approx(abs(analytic - simulated))
            assert gap <= 7e-3 + 4.0 * std_err

    def test_lossless_column_is_step_function(self):
        # without losses the analytic curve is a 0/1 step; the simulation
        # agrees exactly wherever every pooled-element constraint has at
        # least 5 elements of slack (or is infeasible outright)
        result = run_validate_approx(trials=12000, seed=3, capacities=(2,),
                                     losses=(0.0,), layer_elements=(4, 6),
                                     t_max=10)
        sizes = (4, 10)
        for row in result.rows:
            t, window, analytic, simulated = row[2], row[3], row[4], row[5]
            assert analytic in (0.0, 1.0)
            slack = min(
                (window - j + 1) * t * 2 - (sizes[window - 1] - (sizes[j - 2] if j > 1 else 0))
                for j in range(1, window + 1)
            )
            if slack >= 5 or slack < 0:
                assert simulated == pytest.approx(analytic, abs=1e-12)

    def test_rerun_writes_identical_csv(self, tmp_path):
        kwargs = dict(trials=11000, seed=9, capacities=(2,), losses=(0.1,),
                      layer_elements=(3,), t_max=6)
        first = run_validate_approx(**kwargs).write_csv(tmp_path / "a.csv")
        second = run_validate_approx(**kwargs).write_csv(tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_warns_on_few_trials(self):
        with pytest.warns(UserWarning, match="confidence"):
            run_validate_approx(trials=500, seed=1, capacities=(2,),
                                losses=(0.1,), layer_elements=(3,), t_max=3)

    def test_saturation_cap_warns(self):
        # every block lost: the deepest window never saturates
        with pytest.warns(UserWarning, match=f"within {SATURATION_CAP} blocks"):
            assert _saturation_t(LayerConfig((3, 4)), 2, 1.0) == SATURATION_CAP


class TestRbpSweep:
    def test_single_point(self):
        result = run_rbp_sweep(SMALL_SC, rbp_values=(5,), direct="off")
        assert len(result.rows) == 1
        assert result.rows[0][0] == 5
        assert result.rows[0][1] == 1  # heuristic feasible

    def test_direct_off_leaves_reference_columns_empty(self):
        result = run_rbp_sweep(SMALL_SC, rbp_values=(4, 5), direct="off")
        for row in result.rows:
            assert row[4] == "" and row[5] == ""

    def test_reference_columns_filled_and_gap_defined(self):
        result = run_rbp_sweep(SMALL_SC, rbp_values=(5,), direct="exhaustive")
        row = result.rows[0]
        assert row[1] == 1 and row[4] == 1
        assert not np.isnan(row[7])
        assert -1e-12 <= row[7] <= 0.05  # desk point stays within 5%

    def test_infeasible_point_recorded_not_dropped(self):
        starved = dict(SMALL_SC)
        starved["gop_seconds"] = 0.002  # budget cap floors every window at 1
        result = run_rbp_sweep(starved, rbp_values=(1,), direct="off")
        assert len(result.rows) == 1
        assert result.rows[0][1] == 0  # heuristic infeasible, still emitted


class TestCoverage:
    def test_zero_users_empty_result(self):
        config = dict(SMALL_SC)
        config["users"] = {"pattern": "radial", "count": 0, "step_m": 2.0,
                          "start_m": 90.0}
        result = run_coverage_sc(config)
        assert result.rows == []

    def test_targets_met_and_radius_dominance(self):
        result = run_coverage_sc(DEFAULT_SC_CONFIG)
        assert result.meta["uep_feasible"] == 1
        targets = (0.99, 0.8, 0.6)
        for level, target in enumerate(targets, start=1):
            assert result.meta[f"uep_fraction_l{level}"] >= target - 1e-9
        assert result.meta["uep_radius_l1"] > result.meta["mrt_radius_l1"]

    def test_rows_sorted_by_distance(self):
        result = run_coverage_sc(SMALL_SC)
        distances = [row[0] for row in result.rows]
        assert distances == sorted(distances)

    def test_allocator_view_meets_constraint_exactly(self):
        # the allocator-view probabilities are the constraint model itself,
        # so achieved fractions can never fall below the targets
        result = run_coverage_sc(DEFAULT_SC_CONFIG, erasure_view="allocator")
        assert result.meta["uep_feasible"] == 1
        for level, target in enumerate((0.99, 0.8, 0.6), start=1):
            assert result.meta[f"uep_fraction_l{level}"] >= target - 1e-9


class TestPsnrMap:
    def test_single_point_grid(self):
        config = dict(DEFAULT_SFN_CONFIG)
        config["users"] = {"pattern": "grid", "count": 1, "step_m": 20.0}
        result = run_psnr_map_sfn(config)
        assert len(result.rows) == 1

    def test_center_beats_far_corner(self):
        config = dict(DEFAULT_SFN_CONFIG)
        config["users"] = {"pattern": "grid", "count": 121, "step_m": 70.0}
        result = run_psnr_map_sfn(config)
        xs = np.array([r[0] for r in result.rows])
        ys = np.array([r[1] for r in result.rows])
        uep = np.array([r[3] for r in result.rows])
        center = np.argmin((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2)
        corner = np.argmax((xs - xs.mean()) ** 2 + (ys - ys.mean()) ** 2)
        assert uep[center] >= uep[corner]

    def test_layer_fraction_dominance(self):
        result = run_psnr_map_sfn(DEFAULT_SFN_CONFIG)
        L = 4
        for level in range(1, L + 1):
            assert (result.meta[f"uep_fraction_l{level}"]
                    >= result.meta[f"mrt_fraction_l{level}"])
        assert result.meta["uep_fraction_l1"] > result.meta["mrt_fraction_l1"]


class TestSolveAndMain:
    def test_run_solve_returns_all_strategies(self):
        scenario, solutions = run_solve(SMALL_SC, direct="exhaustive")
        assert set(solutions) == {"heuristic", "direct", "mrt"}
        assert solutions["heuristic"].feasible

    def test_main_solve_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SMALL_SC))
        assert main(["solve", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "heuristic" in out and "mrt" in out

        # starving the budget makes the scenario infeasible -> exit 2
        bad = dict(SMALL_SC)
        bad["gop_seconds"] = 0.002  # subframe cap floors every budget at 1
        path.write_text(json.dumps(bad))
        assert main(["solve", "--scenario", str(path)]) == 2

    def test_main_solve_prints_direct_stats_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SMALL_SC))
        assert main(["solve", "--scenario", str(path), "--direct", "exhaustive"]) == 0
        captured = capsys.readouterr()
        assert "direct: feasible=True" in captured.out
        assert "stats" not in captured.out
        stats = [ln for ln in captured.err.splitlines() if ln.startswith("direct stats: ")]
        assert len(stats) == 1
        for key in ("mcs_vectors", "vectors_skipped", "prefixes_pruned", "leaves",
                    "tables", "dist_cache"):
            assert f" {key}=" in stats[0]

    def test_main_error_exit_code(self, tmp_path):
        assert main(["solve", "--scenario", str(tmp_path / "missing.json")]) == 1

    def test_main_unknown_preset_names_field(self, tmp_path, capsys):
        bad = dict(SMALL_SC)
        bad["stream_preset"] = "C"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bad))
        assert main(["solve", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "stream_preset" in err and "'A'" in err

    def test_seed_only_where_consumed(self):
        for command in ("coverage-sc", "psnr-map-sfn", "sweep-rbp", "solve"):
            with pytest.raises(SystemExit) as info:
                main([command, "--seed", "3"])
            assert info.value.code == 1
        for argv in (["sweep-rbp", "--budget", "10"], ["solve", "--budget", "10"],
                     ["sweep-rbp", "--direct", "genetic"],
                     ["solve", "--direct", "genetic"],
                     ["validate-approx", "--mc-method", "matrix"],
                     ["validate-approx", "--scenario", "scenario.json"],
                     ["solve", "--out", "results"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1, argv

    def test_main_validate_writes_csv(self, tmp_path):
        code = main(["validate-approx", "--trials", "12000", "--t-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "validate_approx.csv").read_text().splitlines()
        assert lines[0] == "# experiment=validate-approx"
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert "analytic" in header and "simulated" in header
