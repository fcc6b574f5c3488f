import csv
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

from ewcast import cli
from ewcast.allocators import heuristic_uep_ram, solve_mrt
from ewcast.channel import bler, build_scenario
from ewcast.cli import (
    DEFAULT_SC_CONFIG,
    DEFAULT_SFN_CONFIG,
    MAX_TRIALS,
    SATURATION_CAP,
    main,
    run_coverage_sc,
    run_psnr_map_sfn,
    run_rbp_sweep,
    run_solve,
    run_validate_approx,
)
from ewcast.decode_prob import (
    _scalar_receive_pmf,
    expected_psnr,
    uncoded_survival,
    window_decode_probs,
)

SMALL_SC = {
    "mode": "SC",
    "stream_preset": "A",
    "n_rbp": 5,
    "users": {"pattern": "radial", "count": 20, "step_m": 8.0, "start_m": 90.0},
    "bler": {"decade_db": 5.0},
    "seed": 2,
}

SFN_5X5 = dict(DEFAULT_SFN_CONFIG,
               users={"pattern": "grid", "count": 25, "step_m": 150.0})

STREAM_A = {"bitrates_kbps": [47.3, 326.1, 1396.7], "psnr_db": [27.9, 35.9, 45.8],
            "coverage_targets": [0.99, 0.8, 0.6]}


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

    def test_cold_and_warm_pmf_memo_give_identical_rows(self, fresh_memo):
        cold = run_validate_approx(trials=12000, seed=4, t_max=3)
        assert any(fn is _scalar_receive_pmf.__wrapped__ for fn, _ in fresh_memo)
        warm = run_validate_approx(trials=12000, seed=4, t_max=3)
        assert cold.rows == warm.rows

    def test_warns_on_few_trials(self):
        with pytest.warns(UserWarning, match="confidence"):
            run_validate_approx(trials=500, seed=1, capacities=(2,),
                                losses=(0.1,), layer_elements=(3,), t_max=3)

    def test_trials_above_limit_refused_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "simulate_decode_prob", no_sampling)
        with pytest.raises(ValueError, match=r"trials must lie in \[1, 10,000,000\], "
                                             r"got 10000001"):
            run_validate_approx(trials=MAX_TRIALS + 1)

    def test_trials_limit_is_inclusive(self, monkeypatch):
        # the boundary on a lowered limit, so that no large run starts
        monkeypatch.setattr(cli, "MAX_TRIALS", 12000)
        kwargs = dict(seed=1, capacities=(2,), losses=(0.1,), layer_elements=(3,), t_max=1)
        assert run_validate_approx(trials=12000, **kwargs).meta == {"trials": 12000}
        with pytest.raises(ValueError, match=r"trials must lie in \[1, 12,000\], got 12001"):
            run_validate_approx(trials=12001, **kwargs)

    def test_saturation_cap_warns(self):
        # every block lost: the deepest window never saturates
        with pytest.warns(UserWarning, match=f"within {SATURATION_CAP} blocks"):
            result = run_validate_approx(trials=10_000, capacities=(2,), losses=(1.0,),
                                         layer_elements=(3, 4))
        assert max(row[2] for row in result.rows) == SATURATION_CAP


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

    def test_zero_budget_point_recorded_by_both_solvers(self):
        starved = dict(SMALL_SC)
        starved["gop_seconds"] = 0.001  # no whole subframe: every budget is 0
        result = run_rbp_sweep(starved, rbp_values=(1,), direct="exhaustive")
        assert [row[1] for row in result.rows] == [0] and result.rows[0][4] == 0

    def test_digest_names_what_shapes_the_csv(self):
        # the order of the block sizes and the config's own n_rbp, which each
        # point overrides, leave the body as it is and so the digest too
        def digest(config, rbp_values):
            return run_rbp_sweep(config, rbp_values=rbp_values, direct="off").digest
        one = digest(SMALL_SC, (5, 1))
        assert digest(SMALL_SC, (1, 5)) == one
        assert digest(dict(SMALL_SC, n_rbp=3), (1, 5)) == digest(dict(SMALL_SC, n_rbp=5), (1, 5))
        assert digest(SMALL_SC, (1, 4)) != one and digest(dict(SMALL_SC, seed=3), (1, 5)) != one
        assert run_rbp_sweep(SMALL_SC, rbp_values=(1, 5)).digest != one


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


class TestErasureView:
    @pytest.mark.parametrize("count", [0, 20])
    @pytest.mark.parametrize("run, config", [(run_coverage_sc, SMALL_SC),
                                             (run_psnr_map_sfn, SFN_5X5)])
    def test_unknown_view_refused_by_name_before_building(self, monkeypatch, run, config,
                                                          count):
        # with or without users, before the scenario is built
        built = []
        monkeypatch.setattr(cli, "build_scenario",
                            lambda cfg: built.append(cfg) or build_scenario(cfg))
        config = dict(config, users=dict(config["users"], count=count))
        with pytest.raises(ValueError, match=r"^erasure_view must be one of "
                           r"\('allocator', 'evaluation'\), got 'guess'$"):
            run(config, erasure_view="guess")
        assert built == []
        assert run(config, erasure_view="allocator").meta["erasure_view"] == "allocator"
        assert len(built) == 1


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

    def test_zero_users_empty_result(self, tmp_path):
        config = dict(DEFAULT_SFN_CONFIG)
        config["users"] = {"pattern": "grid", "count": 0, "step_m": 38.0}
        result = run_psnr_map_sfn(config)
        assert result.rows == []
        assert result.meta["uep_feasible"] == 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["psnr-map-sfn", "--scenario", str(path), "--out", str(tmp_path)]) == 2


def _csv_writer_bytes(result) -> bytes:
    """The file ``write_csv`` writes, built with ``csv.writer`` as the oracle."""
    out = io.StringIO(newline="")
    out.write(f"# experiment={result.experiment}\n# digest={result.digest}\n")
    out.writelines(f"# seed.{k}={result.seeds[k]}\n" for k in sorted(result.seeds))
    out.writelines(f"# {k}={result.meta[k]}\n" for k in sorted(result.meta))
    writer = csv.writer(out)
    writer.writerow(result.columns)
    writer.writerows(result.rows)
    return out.getvalue().encode("utf-8")


class TestWriteCsv:
    EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-05, 1e16, 0.1 + 0.2, 5e-324,
             1.7976931348623157e308, 2.0**53 + 1, -7, 0, 10**20, True, 1 / 3]

    @pytest.mark.parametrize("count", [0, 1, 3, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
                                       2 * cli.CSV_BLOCK_ROWS + 7])
    def test_bytes_equal_csv_writer(self, tmp_path, count):
        # int and float fields, every edge value in every column, across
        # block boundaries; an empty row list writes the header alone
        rng = np.random.default_rng(count)
        values = self.EDGES + rng.normal(0.0, 1e3, 20).tolist() + rng.integers(-9, 9, 20).tolist()
        rows = [tuple(values[(r * 5 + c) % len(values)] for c in range(5)) for r in range(count)]
        result = cli.ExperimentResult("demo", "abc", {"base": 3}, list("vwxyz"),
                                      list(zip(*rows)), {"plan": [1, 2], "x": 0.5})
        assert result.write_csv(tmp_path / "out.csv").read_bytes() == _csv_writer_bytes(result)

    def test_float_column_writes_each_values_own_text(self, tmp_path):
        # one block repeating 0.0, -0.0, nan and inf: each distinct bit pattern
        # is formatted once, so 0.0 and -0.0 keep their own texts
        col = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, -0.0, 0.0, math.inf, 1.5,
                        -math.nan])
        result = cli.ExperimentResult("demo", "abc", {}, ["v", "i"], [col, list(range(10))])
        out = result.write_csv(tmp_path / "out.csv")
        assert out.read_text().splitlines()[3:] == [
            "0.0,0", "-0.0,1", "nan,2", "inf,3", "-inf,4", "-0.0,5", "0.0,6", "inf,7", "1.5,8",
            "nan,9"]
        assert out.read_bytes() == _csv_writer_bytes(result)

    def test_empty_cells_written_as_csv_writer_does(self, tmp_path):
        # sweep-rbp without the exact search leaves its cells as empty strings
        result = run_rbp_sweep(SMALL_SC, rbp_values=(5,), direct="off")
        assert result.rows[0][4:] == ("", "", "", "")
        assert result.write_csv(tmp_path / "out.csv").read_bytes() == _csv_writer_bytes(result)


@pytest.mark.parametrize("view", ["evaluation", "allocator"])
@pytest.mark.parametrize("runner, config", [
    (run_coverage_sc, SMALL_SC), (run_psnr_map_sfn, SFN_5X5),
    # 4,225 rows: the CSV crosses a block boundary
    (run_psnr_map_sfn, dict(DEFAULT_SFN_CONFIG,
                            users={"pattern": "grid", "count": 65**2, "step_m": 12.0}))])
def test_map_csv_equals_csv_writer(tmp_path, runner, config, view):
    result = runner(config, erasure_view=view)
    assert result.row_count == len(result.rows) > 0
    assert result.write_csv(tmp_path / "out.csv").read_bytes() == _csv_writer_bytes(result)


def test_cli_map_never_builds_row_tuples(tmp_path, monkeypatch, capsys):
    # the CLI writes a map and counts its rows from the columns alone
    def refuse(self):
        raise AssertionError("row tuples built")
    monkeypatch.setattr(cli.ExperimentResult, "rows", property(refuse))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SFN_5X5))
    assert main(["psnr-map-sfn", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert "(25 rows" in capsys.readouterr().out


class TestRound6:
    # round(v, 6) of each value is the reference, bit for bit
    @staticmethod
    def assert_bitwise(values):
        values = np.asarray(values, dtype=float)
        want = np.array([round(v, 6) for v in values.tolist()])
        assert cli._round6(values).tobytes() == want.tobytes()

    def test_half_millionths_and_their_neighbours(self):
        k = np.concatenate([np.arange(-50, 50), np.random.default_rng(6).integers(
            -10**9, 10**9, 20_000)])
        ties = (k + 0.5) / 1e6
        for values in (ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)):
            self.assert_bitwise(values)

    def test_signed_zeros_negatives_and_large_values(self):
        big = 2.0**52 / 1e6  # from here on v * 1e6 holds no halves
        rng = np.random.default_rng(7)
        self.assert_bitwise([0.0, -0.0, -1e-9, -4e-7, -5e-7, -6e-7, 5e-324, -5e-324,
                             -0.1234565, -123.4567895, big, -big, np.nextafter(big, 0.0),
                             np.nextafter(-big, 0.0), 3 * big, -7.5 * big, 1e300, -1e300])
        self.assert_bitwise(rng.uniform(-4 * big, 4 * big, 5_000))
        self.assert_bitwise(-rng.uniform(0.0, 1e3, 5_000))

    def test_non_finite(self):
        self.assert_bitwise([math.inf, -math.inf, math.nan, -math.nan, 0.5, math.nan])


@pytest.mark.parametrize("runner, config", [(run_coverage_sc, SMALL_SC),
                                            (run_psnr_map_sfn, SFN_5X5)])
def test_map_rerun_writes_identical_csv(tmp_path, runner, config):
    first = runner(config).write_csv(tmp_path / "a.csv")
    second = runner(config).write_csv(tmp_path / "b.csv")
    assert first.read_bytes() == second.read_bytes()


def _reference(config, view="evaluation"):
    """Per-user rebuild of the runners' inputs from one-receiver calls: each
    window's loss from the scalar error curve (evaluation view) or the
    literal report rule (allocator view), then one ``window_decode_probs``
    and one ``uncoded_survival`` per user.  Each user is a (position, SINR,
    report, window probabilities, baseline survival, baseline PSNR) tuple."""
    scenario = build_scenario(config)
    heur, mrt = heuristic_uep_ram(scenario.problem), solve_mrt(scenario.problem)
    p_hat, curve = scenario.config["p_hat"], scenario.config["bler"]
    thresholds = dict(enumerate(curve["thresholds_db"], start=1))

    def loss(m, sinr, report):
        if view == "allocator":
            return p_hat if 0 < m <= report else 1.0
        return float(bler(sinr, m, curve["decade_db"], thresholds))

    def losses(plan, sinr, report):
        return [loss(plan.mcs[i], sinr, report) if plan.tb_counts[i] > 0 else 1.0
                for i in range(plan.num_windows)]

    L = scenario.layers.num_layers
    per_user = []
    users = scenario.users
    for position, sinr, report in zip(users.positions.tolist(), users.sinr_db.tolist(),
                                      users.mcs_feedback.tolist()):
        if heur.feasible:
            p_win = window_decode_probs(scenario.layers, heur.plan,
                                        losses(heur.plan, sinr, report))
        else:
            p_win = np.zeros(L)
        p_mrt = uncoded_survival(losses(mrt.plan, sinr, report), mrt.plan.tb_counts)
        per_user.append((position, sinr, report, [float(v) for v in p_win],
                         [float(v) for v in p_mrt], float(expected_psnr(scenario.layers, p_mrt))))
    meta = {"erasure_view": view, "uep_feasible": int(heur.feasible),
            "uep_plan_mcs": list(heur.plan.mcs), "uep_plan_tb": list(heur.plan.tb_counts),
            "mrt_plan_mcs": list(mrt.plan.mcs), "mrt_plan_tb": list(mrt.plan.tb_counts)}
    return scenario, per_user, meta


def _assert_rows_match(rows, expected, float_cols):
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        for col, (a, b) in enumerate(zip(got, want)):
            if col in float_cols:
                assert abs(a - b) <= 1e-12, (col, got, want)
            else:
                assert a == b and type(a) is type(b), (col, got, want)


@pytest.mark.parametrize("config", [SMALL_SC, dict(DEFAULT_SC_CONFIG, p_hat=0.003),
                                    DEFAULT_SFN_CONFIG])
def test_allocator_view_reads_each_solvers_report_rows(config):
    # the map's baseline survival is the baseline verdict's own rows, bit for bit
    scenario, p_win, _, p_mrt, _ = cli._evaluate_users(config, "allocator")
    reports = scenario.users.mcs_feedback
    for probs, solver in ((p_win, heuristic_uep_ram), (p_mrt, solve_mrt)):
        rows = solver(scenario.problem).window_probs[reports]
        assert probs.dtype == rows.dtype and probs.tobytes() == rows.tobytes()


class TestRunnersAgainstPerUserReference:
    @pytest.mark.parametrize("view", ["evaluation", "allocator"])
    def test_coverage_sc(self, view):
        scenario, per_user, meta = _reference(SMALL_SC, view)
        q = scenario.config["q_hat"] - 1e-12
        origin = scenario.layout.sites[scenario.layout.serving[0]]
        dist = [float(np.hypot(*(np.asarray(pos) - origin))) for pos, *_ in per_user]
        order = sorted(range(len(per_user)), key=lambda i: dist[i])
        L = scenario.layers.num_layers
        rows, covered = [], []
        for i in order:
            _, _, report, p_win, p_mrt, _ = per_user[i]
            p_uep = [max(p_win[lv:]) for lv in range(L)]
            flags = [(p_uep[lv] >= q, p_mrt[lv] >= q) for lv in range(L)]
            covered.append(flags)
            rows += [(round(dist[i], 6), report, lv + 1, p_uep[lv], p_mrt[lv],
                      int(flags[lv][0]), int(flags[lv][1])) for lv in range(L)]
        for lv in range(L):
            for s, name in enumerate(("uep", "mrt")):
                hits = [c[lv][s] for c in covered]
                meta[f"{name}_fraction_l{lv + 1}"] = round(sum(hits) / len(hits), 6)
                radius = 0.0
                for i, ok in zip(order, hits):
                    if not ok:
                        break
                    radius = dist[i]
                meta[f"{name}_radius_l{lv + 1}"] = radius
        result = run_coverage_sc(SMALL_SC, erasure_view=view)
        assert result.meta["uep_feasible"] == 1
        _assert_rows_match(result.rows, rows, float_cols={0, 3, 4})
        assert result.meta == meta

    @pytest.mark.parametrize("view", ["evaluation", "allocator"])
    def test_psnr_map_sfn_5x5(self, view):
        scenario, per_user, meta = _reference(SFN_5X5, view)
        q = scenario.config["q_hat"] - 1e-12
        psnr = scenario.layers.psnr
        L = scenario.layers.num_layers
        rows = []
        uep_hits, mrt_hits = np.zeros(L, int), np.zeros(L, int)
        for (x, y), sinr, _, p_win, p_mrt, psnr_mrt in per_user:
            psnr_uep = max(a * b for a, b in zip(psnr, p_win))
            rows.append((round(x, 6), round(y, 6), round(sinr, 6), psnr_uep, psnr_mrt))
            uep_hits += [max(p_win[lv:]) >= q for lv in range(L)]
            mrt_hits += [p >= q for p in p_mrt]
        rows.sort(key=lambda r: (r[1], r[0]))
        for lv in range(L):
            meta[f"uep_fraction_l{lv + 1}"] = round(uep_hits[lv] / len(per_user), 6)
            meta[f"mrt_fraction_l{lv + 1}"] = round(mrt_hits[lv] / len(per_user), 6)
        result = run_psnr_map_sfn(SFN_5X5, erasure_view=view)
        assert result.meta["uep_feasible"] == 1
        _assert_rows_match(result.rows, rows, float_cols={0, 1, 2, 3, 4})
        assert result.meta == meta


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
        for key in ("mcs_vectors", "vectors_skipped", "vectors_cut", "leaves",
                    "tables", "grids"):
            assert f" {key}=" in stats[0]

    def test_main_solve_direct_stdout_pinned(self, capsys):
        # the SC default: block budgets, then each solver's plan and coverage
        assert main(["solve", "--direct", "exhaustive"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scenario digest=b45dc9e9d4afa468 users=80 budget=(2, 3, 6)",
            "heuristic: feasible=True tau=29.7143 mcs=(4, 0, 6) tb=(2, 0, 5) "
            "fractions=[1.0, 0.8, 0.8]",
            "direct: feasible=True tau=29.7143 mcs=(4, 0, 6) tb=(2, 0, 5) "
            "fractions=[1.0, 0.8, 0.8]",
            "mrt: feasible=False tau=0.0000 mcs=(4, 5, 9) tb=(1, 1, 1) "
            "fractions=[0.0, 0.0, 0.0]",
        ]

    def test_main_solve_without_budget_skips_every_vector(self, tmp_path, capsys):
        # a GOP so short that every window's budget is 0: the exact search
        # skips every MCS vector and builds nothing; the baseline sends its
        # lossless counts all the same, so its plan is over budget
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"stream_preset": "A", "gop_seconds": 0.0005}))
        assert main(["solve", "--scenario", str(path), "--direct", "exhaustive"]) == 2
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[0].endswith("budget=(0, 0, 0)")
        assert out[-1].startswith("mrt: feasible=False ")
        assert " mcs=(4, 5, 6) tb=(1, 1, 1) " in out[-1]
        assert captured.err.splitlines() == [
            "direct stats: mcs_vectors=2196 vectors_skipped=2196 vectors_cut=0 leaves=0 "
            "tables=0 grids=0"]

    def test_main_solve_small_loss_judges_the_baseline_by_its_survival(self, tmp_path, capsys):
        # the SC default at p_hat 0.003: the coded window DP would count 80% of the users
        # on level 3 of the baseline's plan, its uncoded survival none; solve and the
        # allocator-view map both read the survival
        config = dict(DEFAULT_SC_CONFIG, p_hat=0.003)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "heuristic: feasible=True tau=52.0000 mcs=(0, 4, 8) tb=(0, 2, 2) "
            "fractions=[1.0, 1.0, 0.6]",
            "mrt: feasible=False tau=38.0000 mcs=(4, 5, 6) tb=(1, 1, 2) "
            "fractions=[1.0, 0.9, 0.0]",
        ]
        mrt = run_solve(config)[1]["mrt"]
        meta = run_coverage_sc(config, erasure_view="allocator").meta
        assert [round(f, 6) for f in mrt.layer_fractions] == [
            meta[f"mrt_fraction_l{lv}"] for lv in (1, 2, 3)] == [1.0, 0.9, 0.0]

    def test_main_error_exit_code(self, tmp_path):
        assert main(["solve", "--scenario", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("argv", [["sweep-rbp", "--rbp", "5"],
                                      ["solve", "--direct", "exhaustive"]])
    def test_main_refuses_oversized_exact_search(self, tmp_path, capsys, argv):
        # a six-layer stream: the exact search would need up to 2.8e9 array
        # entries at n_rbp=5, and is refused before it builds anything
        config = {key: value for key, value in DEFAULT_SC_CONFIG.items()
                  if key != "stream_preset"}
        config["stream"] = {"bitrates_kbps": [47.3, 93.1, 183.2, 360.6, 709.7, 1396.7],
                            "psnr_db": [27.9, 31.5, 35.1, 38.6, 42.2, 45.8],
                            "coverage_targets": [0.99, 0.912, 0.834, 0.756, 0.678, 0.6]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = ["--out", str(tmp_path)] if argv[0] == "sweep-rbp" else []
        assert main([*argv, "--scenario", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "limit of 100,000,000" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("field, value", [("q_hat", math.nan), ("q_hat", 1.5),
                                              ("q_hat", -1.0), ("p_hat", math.nan),
                                              ("p_hat", 1.5)])
    def test_main_bad_threshold_names_field(self, tmp_path, capsys, field, value):
        # with users the thresholds reach the allocators; without any the
        # scenario itself must refuse them, not write an empty map
        cases = [("coverage-sc", DEFAULT_SC_CONFIG, "coverage_sc.csv", 10),
                 ("coverage-sc", DEFAULT_SC_CONFIG, "coverage_sc.csv", 0),
                 ("psnr-map-sfn", DEFAULT_SFN_CONFIG, "psnr_map_sfn.csv", 0)]
        for command, config, csv_name, count in cases:
            bad = dict(config, users={"pattern": "radial", "count": count,
                                      "step_m": 2.5, "start_m": 90.0})
            bad[field] = value
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(bad))
            code = main([command, "--scenario", str(path), "--out", str(tmp_path)])
            assert code == 1, (command, count)
            err = capsys.readouterr().err
            assert "ValueError" in err and field in err
            assert not (tmp_path / csv_name).exists()

    @pytest.mark.parametrize("argv, change, field", [
        (["coverage-sc"], {"stream_preset": "C"}, "stream_preset"),
        (["coverage-sc"], {"bler": {"decade_db": 0}}, "bler.decade_db"),
        (["coverage-sc"], {"bler": {"decade_db": -5}}, "bler.decade_db"),
        (["coverage-sc"], {"bler": {"thresholds_db": [-9.4, -7.6]}}, "bler.thresholds_db"),
        (["coverage-sc"], {"n_rbp": 0}, "n_rbp"),
        (["sweep-rbp", "--rbp", "0"], {}, "n_rbp"),
        (["coverage-sc"], {"bler": 5}, "bler"),
        (["coverage-sc"], {"users": [80, 2.5]}, "users"),
        (["psnr-map-sfn"], {"sfn_members": 5}, "sfn_members"),
        (["psnr-map-sfn"], {"sfn_members": [0, 19]}, "sfn_members"),
        (["coverage-sc"], {"sfn_members": [True, 2]}, "sfn_members"),
        (["psnr-map-sfn"], {"sfn_members": [True, 2]}, "sfn_members"),
        (["coverage-sc"], {"bler": {"thresholds_db": [True] + [0.0] * 14}}, "bler.thresholds_db"),
        (["coverage-sc"], None, "scenario config"),  # a JSON list, not an object
        # no users leaves nothing to allocate for: the maps exit 2 on an
        # empty CSV, the solvers name the field
        (["solve"], {"users": {"pattern": "radial", "count": 0, "step_m": 2.0}}, "users.count"),
        (["sweep-rbp"], {"users": {"pattern": "radial", "count": 0, "step_m": 2.0}},
         "users.count"),
        # an element larger than a block of MCS 4 (4 KB per pair) gives no budget
        (["solve"], {"element_kb": 8, "n_rbp": 1}, "element_kb"),
        (["sweep-rbp", "--rbp", "1", "2"], {"element_kb": 8}, "element_kb"),
        # block capacities past int64 at 1e19 pairs: refused before any solver runs
        (["solve"], {"n_rbp": 1e19}, "n_rbp"),
    ])
    def test_main_bad_scenario_names_field(self, tmp_path, capsys, argv, change, field):
        config = DEFAULT_SFN_CONFIG if argv[0] == "psnr-map-sfn" else DEFAULT_SC_CONFIG
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps([config] if change is None else {**config, **change}))
        out = [] if argv[0] == "solve" else ["--out", str(tmp_path)]
        assert main([*argv, "--scenario", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and field in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("change, field", [
        ({"bler": {"decade_db": "x"}}, "bler.decade_db"),
        ({"n_rbp": "five"}, "n_rbp"),
        ({"n_rbp": 2.7}, "n_rbp"),
        ({"n_rbp": True}, "n_rbp"),
        ({"p_hat": "x"}, "p_hat"),
        ({"seed": "s"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"gop_seconds": -1}, "gop_seconds"),
        ({"element_kb": 0}, "element_kb"),
        ({"element_kb": 5e-5}, "element_kb"),  # 0.41 bits
        ({"element_kb": 1e305}, "element_kb"),  # no finite bit count
        ({"element_kb": 1.0, "element_bits": 16384}, "element_bits"),  # one size knob
        ({"isd_m": -5}, "isd_m"),
        ({"isd_m": math.inf}, "isd_m"),
        ({"tx_power_dbm": "hi"}, "tx_power_dbm"),
        ({"shadow_sigma_db": -1.0}, "shadow_sigma_db"),
        ({"users": {"pattern": "radial", "count": "ten", "step_m": 2.5}}, "users.count"),
        ({"users": {"pattern": "radial", "count": 10, "step_m": math.nan}}, "users.step_m"),
        ({"users": {"pattern": "grid", "count": 4, "step_m": 9.0, "center": [0, "x"]}},
         "users.center"),
        ({"users": {"pattern": "grid", "count": 4, "step_m": 9.0, "center": 5}},
         "users.center"),
        ({"stream": {**STREAM_A, "bitrates_kbps": [47.3, "x", 1396.7]}},
         "stream.bitrates_kbps"),
        ({"stream": {**STREAM_A, "bitrates_kbps": 5}}, "stream.bitrates_kbps"),
        ({"stream": {**STREAM_A, "psnr_db": ["a", 2, 3]}}, "stream.psnr_db"),
        ({"stream": {**STREAM_A, "psnr_db": [True, 2.0, 3.0]}}, "stream.psnr_db"),
        ({"stream": {**STREAM_A, "coverage_targets": "ab"}}, "stream.coverage_targets"),
        ({"stream_preset": "A", "stream": STREAM_A}, "stream_preset and stream"),
        ({"stream_preset": "A", "stream": {"bogus": 1}}, "stream_preset and stream"),
        ({"stream": {**STREAM_A, "psnr_db": STREAM_A["psnr_db"][:-1]}}, "stream.psnr_db"),
        ({"stream": {**STREAM_A, "coverage_targets": [0.9, 0.8, 0.7, 0.6]}},
         "stream.coverage_targets"),
        ({"stream": {**STREAM_A, "coverage_targets": [0.9, 1.5, 0.5]}},
         "stream.coverage_targets"),
        ({"stream": {**STREAM_A, "coverage_targets": [0.9, 0.0, 0.5]}},
         "stream.coverage_targets"),
        ({"stream_preset": ["A"]}, "stream_preset"),
        ({"users": {"pattern": "line", "count": 3, "step_m": 2.0}}, "users.pattern"),
        ({"users": {"pattern": "grid", "count": 4, "step_m": 9.0, "start_m": -1}},
         "users.start_m"),
        ({"tx_power_dbm": None}, "tx_power_dbm"),
        ({"users": None}, "users"),
        ({"element_kb": 8, "n_rbp": 1}, "element_kb"),
        ({"element_kb": 20.5}, "element_kb"),  # past 20 KB at the default n_rbp of 5
        ({"mode": "SFN", "sfn_members": [0, 0, 1, 1]}, "sfn_members"),
    ])
    def test_main_bad_scenario_value_names_field(self, tmp_path, capsys, change, field):
        # a value of the wrong type, sign or finiteness is refused by name
        base = dict(DEFAULT_SC_CONFIG)
        if "stream" in change:  # a config gives one of stream_preset and stream
            del base["stream_preset"]
        config = {**base, **change}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["coverage-sc", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and field in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv, csv_name, config, starved", [
        (["validate-approx", "--trials", "12000", "--t-max", "2"], "validate_approx.csv",
         None, None),
        (["sweep-rbp", "--rbp", "5"], "sweep_rbp.csv", SMALL_SC, {"gop_seconds": 0.001}),
        (["coverage-sc"], "coverage_sc.csv", SMALL_SC,
         {"users": {"pattern": "radial", "count": 0, "step_m": 2.0}}),
        (["psnr-map-sfn"], "psnr_map_sfn.csv", SFN_5X5,
         {"users": {"pattern": "grid", "count": 0, "step_m": 38.0}}),
    ])
    def test_main_csv_subcommands(self, tmp_path, capsys, argv, csv_name, config, starved):
        # every CSV subcommand writes <name>.csv and exits 0 when feasible; a
        # run with no plan exits 2 and still writes its CSV; feasibility
        # steers the exit code only and is never written
        runs = [(config, 0)] if starved is None else [(config, 0), ({**config, **starved}, 2)]
        for i, (cfg, code) in enumerate(runs):
            out, scenario = tmp_path / f"out{i}", []
            if cfg is not None:
                path = tmp_path / f"scenario{i}.json"
                path.write_text(json.dumps(cfg))
                scenario = ["--scenario", str(path)]
            assert main([*argv, *scenario, "--out", str(out)]) == code
            assert [p.name for p in out.iterdir()] == [csv_name]
            text = (out / csv_name).read_text()
            assert text.startswith(f"# experiment={argv[0]}\n")
            assert "# feasible=" not in text
            assert capsys.readouterr().out.startswith(f"wrote {out / csv_name} (")

    def test_map_without_heuristic_plan_writes_zero_coded_probabilities(self, tmp_path, capsys):
        # users are placed, but with every block budget floored at 1 the
        # heuristic finds no plan: the coded column is all zero, the uncoded
        # baseline is still evaluated, and main exits 2 with the CSV written
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(SMALL_SC, gop_seconds=0.002)))
        assert main(["coverage-sc", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "coverage_sc.csv").read_text().splitlines()
        assert "# uep_feasible=0" in lines
        rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        assert len(rows) == 20 * 3  # every user at every level
        assert {row["p_uep"] for row in rows} == {"0.0"}
        assert {row["covered_uep"] for row in rows} == {"0"}
        assert any(float(row["p_mrt"]) > 0.0 for row in rows)
        assert capsys.readouterr().out.startswith("wrote ")

    @pytest.mark.parametrize("p_hat", [0.0, 0.1])
    def test_main_steep_error_curve_runs_without_warnings(self, tmp_path, capsys, p_hat):
        # at a 0.01 dB decade the error curve's power overflows far below a
        # threshold: it reads 1 there, whatever block loss the allocator assumes
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"stream_preset": "A", "p_hat": p_hat,
                                    "bler": {"decade_db": 0.01}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coverage-sc", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_steep_zero_loss_map_reads_the_cqi_anchored_curve(self):
        # p_hat 0 is the allocator's assumption alone: on a 0.01 dB decade the user
        # at 210 m, who reports MCS 7, loses every block of level 3's window (MCS 8)
        config = dict(DEFAULT_SC_CONFIG, p_hat=0.0, bler={"decade_db": 0.01})
        result = run_coverage_sc(config, "evaluation")
        assert result.meta["uep_plan_mcs"][2] == 8
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        (user,) = [row for row in rows if row["distance_m"] == 210.0 and row["level"] == 3]
        assert user["mcs_feedback"] == 7
        assert user["p_uep"] == 0.0 and user["covered_uep"] == 0

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

    @pytest.mark.parametrize("argv, field", [(["--t-max", "0"], "t_max"),
                                             (["--t-max", "-3"], "t_max"),
                                             (["--seed", "-1"], "seed"),
                                             # past the cap a sweep would run for minutes
                                             (["--t-max", str(SATURATION_CAP + 1)], "t_max")])
    def test_main_validate_bad_input_names_field(self, tmp_path, capsys, argv, field):
        start = time.perf_counter()
        code = main(["validate-approx", "--trials", "12000", "--out", str(tmp_path), *argv])
        assert time.perf_counter() - start < 1.0  # refused before any sampling
        assert code == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and field in err
        assert not (tmp_path / "validate_approx.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_main_validate_bad_trials_fails_before_warning(self, tmp_path, capsys, trials):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would surface as its own error
            code = main(["validate-approx", "--trials", trials, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "trials" in err
        assert not (tmp_path / "validate_approx.csv").exists()

    def test_main_validate_refuses_trials_above_limit(self, tmp_path, capsys):
        code = main(["validate-approx", "--trials", str(MAX_TRIALS + 1), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ValueError: trials must lie in [1, 10,000,000]" in err
        assert not (tmp_path / "validate_approx.csv").exists()

    def test_main_validate_writes_csv(self, tmp_path):
        code = main(["validate-approx", "--trials", "12000", "--t-max", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "validate_approx.csv").read_text().splitlines()
        assert lines[0] == "# experiment=validate-approx"
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert "analytic" in header and "simulated" in header
