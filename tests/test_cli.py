"""End-to-end CLI behavior: outputs, exit codes, reproducibility."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from costwalk import cli, forecast, stats
from costwalk.cli import _parse_grid, main
from costwalk.models import EstimationError


def _read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def _count_too_short(corpus_csv, window):
    """Series in the corpus with fewer than the window + 2 points a hindcast needs."""
    lengths = Counter(row[0] for row in _read_csv(corpus_csv)[1:])
    too_short = sum(n < window + 2 for n in lengths.values())
    assert 0 < too_short < len(lengths)  # some series are hindcast, some are not
    return too_short


class TestDescribe:
    def test_outputs(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["describe", "--input", str(corpus_csv), "--out", str(out)]) == 0
        rows = _read_csv(out / "summary.csv")
        assert rows[0] == ["technology", "sector", "T", "mu", "p_value", "K", "theta", "improving"]
        assert len(rows) == 7  # 6 technologies + header
        assert (out / "run.json").exists()
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["command"] == "describe"
        assert "alpha" in manifest["params"]

    def test_alpha_monotonicity(self, corpus_csv, tmp_path):
        counts = {}
        for alpha in (0.01, 0.5):
            out = tmp_path / f"a{alpha}"
            main(["describe", "--input", str(corpus_csv), "--out", str(out), "--alpha", str(alpha)])
            rows = _read_csv(out / "summary.csv")[1:]
            counts[alpha] = sum(int(r[-1]) for r in rows)
        assert counts[0.01] <= counts[0.5]

    @pytest.mark.parametrize("alpha", ["-1", "2", "nan"])
    def test_alpha_outside_unit_interval_exits_2(self, corpus_csv, tmp_path, capsys, alpha):
        # --alpha -1 used to report every technology as excluded and exit 0
        out = tmp_path / "o"
        assert main(["describe", "--input", str(corpus_csv), "--out", str(out), "--alpha", alpha]) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("technology,year,cost\n")
        assert main(["describe", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "no technology series" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["describe", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "input_, out, bad",
        [
            (".", "o", "input"),  # IsADirectoryError
            ("corpus.csv", "corpus.csv", "out"),  # FileExistsError
            ("corpus.csv", "corpus.csv/sub", "out"),  # NotADirectoryError
        ],
    )
    def test_unusable_path_exits_2(self, corpus_csv, capsys, input_, out, bad):
        # these used to end in a traceback and exit 1
        paths = {"input": corpus_csv.parent / input_, "out": corpus_csv.parent / out}
        assert main(["describe", "--input", str(paths["input"]), "--out", str(paths["out"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths[bad]) in err

    def test_numerical_failure_exits_3(self, corpus_csv, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise EstimationError("s: increments are constant, IMA likelihood is degenerate")

        monkeypatch.setattr(cli, "summarize_corpus", fail)
        assert main(["describe", "--input", str(corpus_csv), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: s: increments are constant, IMA likelihood is degenerate\n"
        )


class TestHindcast:
    def test_outputs_and_consistency(self, corpus_csv, tmp_path):
        out = tmp_path / "h"
        code = main(
            ["hindcast", "--input", str(corpus_csv), "--out", str(out), "--window", "5",
             "--tau-max", "10", "--theta", "0.4"]
        )
        assert code == 0
        records = _read_csv(out / "records.csv")
        assert records[0] == ["technology", "t0_year", "tau", "raw_error", "norm_error", "mu_hat", "K_hat"]
        growth = _read_csv(out / "error_growth.csv")
        assert growth[0][:4] == ["tau", "n_forecasts", "n_technologies", "xi_empirical"]
        assert sum(int(r[1]) for r in growth[1:]) == len(records) - 1

    def test_equal_tech_weighting(self, corpus_csv, tmp_path):
        out = tmp_path / "h2"
        assert main(
            ["hindcast", "--input", str(corpus_csv), "--out", str(out), "--weighting", "equal-tech"]
        ) == 0

    def test_reports_too_short_series(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "h3"
        assert main(["hindcast", "--input", str(corpus_csv), "--out", str(out), "--window", "18"]) == 0
        printed = capsys.readouterr().out
        assert re.search(r"(\d+) forecasts from", printed)
        assert "0 technologies excluded" in printed
        found = re.search(r"(\d+) improving technologies too short for the window", printed)
        assert int(found[1]) == _count_too_short(corpus_csv, 18)

    def test_window_too_large_exits_2(self, corpus_csv, tmp_path):
        assert main(
            ["hindcast", "--input", str(corpus_csv), "--out", str(tmp_path / "o"), "--window", "40"]
        ) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(("--window", "3"), "m=3 is too small"), (("--theta", "1.5"), "theta must lie")],
    )
    def test_bad_overlay_fails_before_any_output(self, corpus_csv, tmp_path, capsys, flags, message):
        # the overlay's (m, theta) used to be checked after records.csv was written
        out = tmp_path / "o"
        assert main(["hindcast", "--input", str(corpus_csv), "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]


class TestValidate:
    def test_report_and_determinism(self, corpus_csv, tmp_path):
        args = [
            "validate", "--input", str(corpus_csv), "--window", "5", "--tau-max", "8",
            "--reps", "60", "--theta", "0.3", "--seed", "5",
        ]
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("validate.json", "xi_band.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        report = json.loads((out1 / "validate.json").read_text())
        assert report["theta"] == 0.3
        assert len(report["xi_band"]["observed"]) == 8
        assert len(report["deviation_test"]["p_raw"]) == 3
        assert report["deviation_test"]["replications"] == 60

    def test_reports_too_short_series(self, corpus_csv, tmp_path):
        out = tmp_path / "ts"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out), "--window", "18",
             "--reps", "20", "--tau-max", "6", "--seed", "3"]
        ) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["hindcast"]["n_too_short"] == _count_too_short(corpus_csv, 18)

    def test_window_too_large_exits_2(self, corpus_csv, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["validate", "--input", str(corpus_csv), "--out", out, "--window", "40"]) == 2
        assert "no feasible forecasts" in capsys.readouterr().err

    def test_threads_option_is_gone(self, corpus_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(corpus_csv), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_zero_reps_exits_2(self, corpus_csv, tmp_path):
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(tmp_path / "o"), "--reps", "0"]
        ) == 2

    def test_deviation_reps_option_is_gone(self, corpus_csv, tmp_path):
        # --reps counts the replications of the band and the deviation test alike
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(corpus_csv), "--out", str(tmp_path / "o"),
                  "--deviation-reps", "40"])
        assert exc.value.code == 2

    def test_alpha_outside_unit_interval_exits_2(self, corpus_csv, tmp_path, capsys):
        # --alpha 2 used to count every series as improving
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(tmp_path / "o"),
             "--reps", "5", "--tau-max", "6", "--alpha", "2"]
        ) == 2
        assert "alpha must lie in [0, 1]" in capsys.readouterr().err

    def test_zero_grid_reps_names_the_flag(self, corpus_csv, tmp_path, capsys):
        # used to exit 2 with "need at least 1 replication", which names no flag
        out = tmp_path / "o"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out),
             "--theta-from", "matched", "--grid-reps", "0"]
        ) == 2
        assert "--grid-reps must be >= 1, got 0" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "grid, message", [("0:1.5:0.1", "theta must lie strictly inside"), ("0:0.9", "start:stop:step")]
    )
    def test_bad_grid_is_reported_before_the_corpus_is_read(self, tmp_path, capsys, grid, message):
        # used to report the missing --input file instead of the grid
        assert main(
            ["validate", "--input", str(tmp_path / "nonexistent.csv"), "--out", str(tmp_path / "o"),
             "--theta-from", "matched", "--grid", grid]
        ) == 2
        assert message in capsys.readouterr().err

    def test_theta_from_weighted(self, corpus_csv, tmp_path):
        out = tmp_path / "w"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out), "--reps", "40",
             "--theta-from", "weighted", "--tau-max", "6", "--seed", "3"]
        ) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["theta_source"] == "weighted"
        assert "theta_weighted" in report

    def test_theta_from_matched(self, corpus_csv, tmp_path):
        out = tmp_path / "m"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out), "--reps", "40",
             "--theta-from", "matched", "--grid", "0:0.4:0.2", "--grid-reps", "40",
             "--tau-max", "6", "--seed", "3"]
        ) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["theta_source"] == "matched"
        matched = report["theta_matched"]
        assert matched["theta_m"] in (0.0, 0.2, 0.4)
        # the root of the exact Z - 1 where the grid brackets it, else null
        assert (matched["theta_root"] is not None) == matched["bracketed"]
        if matched["bracketed"]:
            assert abs(matched["theta_root"] - matched["theta_m"]) <= 0.2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--theta", "0.6", "--reps", "100"),
            ("--theta-from", "matched", "--grid", "0:0.9:0.1", "--reps", "100"),
        ],
        ids=["fixed", "matched"],
    )
    def test_does_not_import_numpy_ma(self, corpus_csv, tmp_path, flags):
        # numpy.ma takes about 13 ms to import, a tenth of a small validate
        # run, and no step of validate needs it; np.nanquantile's first call
        # imported it through np.unique
        script = (
            "import sys\n"
            "import numpy\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    print('preloaded')\n"
            "    sys.exit(0)\n"
            "from costwalk.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = ["validate", "--input", str(corpus_csv), "--out", str(tmp_path / "o"),
                "--tau-max", "8", "--seed", "4", *flags]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        last = done.stdout.splitlines()[-1]
        if last == "preloaded":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert last == "0 False"

    def test_theta_root_when_the_grid_brackets_it(self, corpus_csv, tmp_path):
        out = tmp_path / "r"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out), "--reps", "20",
             "--theta-from", "matched", "--grid=-0.9:0.9:0.1", "--tau-max", "6", "--seed", "3"]
        ) == 0
        matched = json.loads((out / "validate.json").read_text())["theta_matched"]
        assert set(matched) == {"theta_m", "grid", "z_values", "bracketed", "theta_root"}
        assert matched["bracketed"]
        assert abs(matched["theta_root"] - matched["theta_m"]) <= 0.1

    def test_grid_points_are_the_typed_decimals(self, corpus_csv, tmp_path):
        # np.arange gave 0.15000000000000002 here, and the band ran at that theta
        out = tmp_path / "g"
        assert main(
            ["validate", "--input", str(corpus_csv), "--out", str(out), "--reps", "20",
             "--theta-from", "matched", "--grid", "0.05:0.15:0.05", "--grid-reps", "20",
             "--tau-max", "6", "--seed", "3"]
        ) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["theta_matched"]["grid"] == [0.05, 0.1, 0.15]
        assert report["theta"] in (0.05, 0.1, 0.15)

    @pytest.mark.parametrize(
        "grid, points",
        [
            ("0:0.9:0.05", [float(f"{0.05 * k:.2f}") for k in range(19)]),
            ("0:0.24:0.1", [0.0, 0.1, 0.2]),  # 0.3 is more than half a step past stop
            ("0:0.26:0.1", [0.0, 0.1, 0.2, 0.3]),  # and here less
            ("0.3:0.3:0.1", [0.3]),
        ],
    )
    def test_parse_grid(self, grid, points):
        assert _parse_grid(grid).tolist() == points

    @pytest.mark.parametrize(
        "grid", ["0:0.9", "a:b:c", "0:nan:0.1", "0:0.9:0", "0.5:0.1:0.1", "0:0.9:1e-16"]
    )
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            _parse_grid(grid)


class TestForecast:
    def test_outputs(self, corpus_csv, tmp_path):
        out = tmp_path / "f"
        code = main(
            ["forecast", "--input", str(corpus_csv), "--out", str(out), "--tech", "tech00",
             "--horizon", "10", "--theta", "0.63"]
        )
        assert code == 0
        payload = json.loads((out / "forecast.json").read_text())
        assert len(payload["forecasts"]) == 10
        first = payload["forecasts"][0]
        assert first["technology"] == "tech00"
        assert set(first["quantiles"]) == {"p05", "p16", "p50", "p84", "p95"}
        rows = _read_csv(out / "forecast.csv")
        assert rows[0] == ["tau", "q05", "q16", "q50", "q84", "q95"]
        assert len(rows) == 11
        # cost quantiles are ordered and the median matches the JSON payload
        q = [float(x) for x in rows[1][1:]]
        assert q == sorted(q)
        assert math.log(q[2]) == pytest.approx(first["quantiles"]["p50"], rel=1e-9)

    def test_unknown_technology_exits_2(self, corpus_csv, tmp_path, capsys):
        assert main(
            ["forecast", "--input", str(corpus_csv), "--out", str(tmp_path / "o"),
             "--tech", "nope", "--horizon", "5"]
        ) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--window", "abc"), "--window must be 'all' or an integer, got 'abc'"),
            (("--window", "2.5"), "--window must be 'all' or an integer, got '2.5'"),
            (("--horizon", "0"), "--horizon must be >= 1, got 0"),
            (("--horizon", "-2"), "--horizon must be >= 1, got -2"),
        ],
    )
    def test_bad_flag_is_named(self, corpus_csv, tmp_path, capsys, flags, message):
        # used to exit 2 with "invalid literal for int()" or "tau_max must be
        # >= 1", which name no flag
        out = tmp_path / "o"
        args = {"--horizon": "5", "--window": "all", flags[0]: flags[1]}
        assert main(
            ["forecast", "--input", str(corpus_csv), "--out", str(out), "--tech", "tech00",
             *(x for kv in args.items() for x in kv)]
        ) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    def test_integer_window(self, corpus_csv, tmp_path):
        out = tmp_path / "fw"
        assert main(
            ["forecast", "--input", str(corpus_csv), "--out", str(out), "--tech", "tech01",
             "--horizon", "3", "--window", "8"]
        ) == 0

    @pytest.mark.parametrize("window", ["all", "8"])
    def test_csv_cells_are_the_json_quantiles_evaluated_once(
        self, corpus_csv, tmp_path, monkeypatch, window
    ):
        # forecast.csv used to evaluate every quantile a second time
        calls = []
        quantile = forecast.DistributionalForecast.quantile
        monkeypatch.setattr(
            forecast.DistributionalForecast, "quantile", lambda f, p: calls.append(p) or quantile(f, p)
        )
        out = tmp_path / "f"
        assert main(
            ["forecast", "--input", str(corpus_csv), "--out", str(out), "--tech", "tech01",
             "--horizon", "12", "--window", window, "--theta", "0.63"]
        ) == 0
        records = json.loads((out / "forecast.json").read_text())["forecasts"]
        rows = _read_csv(out / "forecast.csv")[1:]
        assert len(calls) == 5 * len(records) == 5 * len(rows) == 60
        for tau, (row, record) in enumerate(zip(rows, records), start=1):
            q = [record["quantiles"][k] for k in ("p05", "p16", "p50", "p84", "p95")]
            assert row == [str(tau)] + [f"{math.exp(v):.10g}" for v in q]

    def test_t_quantiles_bisected_once_per_run(self, corpus_csv, tmp_path, monkeypatch):
        # each horizon used to bisect its five t(m-1) quantiles twice: 252 CDF calls per horizon
        counts = {}
        cdf = stats.student_t_cdf
        for horizon in (1, 40):
            calls = []
            monkeypatch.setattr(stats, "student_t_cdf", lambda x, df: calls.append(df) or cdf(x, df))
            forecast._standard_t_quantile.cache_clear()
            assert main(
                ["forecast", "--input", str(corpus_csv), "--out", str(tmp_path / f"h{horizon}"),
                 "--tech", "tech00", "--horizon", str(horizon)]
            ) == 0
            counts[horizon] = len(calls)
        assert counts[1] == counts[40] > 0


class TestCompare:
    def test_fig10_style_run(self, tmp_path, capsys):
        out = tmp_path / "c"
        cost_a = 0.82
        code = main(
            ["compare", "--out", str(out),
             "--cost-a", str(cost_a), "--mu-a", "-0.10", "--k-a", "0.15",
             "--cost-b", str(cost_a / 3), "--mu-b", "0", "--k-b", "0.05", "0.15", "0.30",
             "--m", "33", "--theta", "0.63", "--tau-max", "20"]
        )
        assert code == 0
        for k_b in ("0.05", "0.15", "0.3"):
            rows = _read_csv(out / f"compare_kb{k_b}.csv")
            assert rows[0] == ["tau", "p_cross"]
            assert len(rows) == 21
        # all three scenarios cross even odds at the same horizon
        assert capsys.readouterr().out.count("tau = 10.99") == 3

    def test_mismatched_horizons_still_validated(self, tmp_path):
        code = main(
            ["compare", "--out", str(tmp_path / "c2"),
             "--cost-a", "1.0", "--mu-a", "-0.1", "--k-a", "0.1",
             "--cost-b", "1.0", "--mu-b", "0", "--k-b", "0.1",
             "--m", "3", "--theta", "0.0"]
        )
        assert code == 2  # m <= 3 rejected

    def test_zero_tau_max_exits_2(self, tmp_path, capsys):
        # used to write a header-only CSV and exit 0
        out = tmp_path / "c3"
        code = main(
            ["compare", "--out", str(out),
             "--cost-a", "3.0", "--mu-a", "-0.1", "--k-a", "0.1",
             "--cost-b", "1.0", "--mu-b", "0", "--k-b", "0.1",
             "--m", "5", "--tau-max", "0"]
        )
        assert code == 2
        assert "--tau-max must be >= 1" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "flag, cost",
        [("--cost-a", "-1"), ("--cost-b", "0"), ("--cost-a", "inf"), ("--cost-b", "nan")],
    )
    def test_nonpositive_cost_exits_2(self, tmp_path, capsys, flag, cost):
        # a cost <= 0 used to fail with "math domain error", which names no flag
        out = tmp_path / "c4"
        costs = {"--cost-a": "3.0", "--cost-b": "1.0", flag: cost}
        code = main(
            ["compare", "--out", str(out), "--mu-a", "-0.1", "--k-a", "0.1",
             "--mu-b", "0", "--k-b", "0.1", "--m", "5", *(x for kv in costs.items() for x in kv)]
        )
        assert code == 2
        assert f"{flag} must be a finite positive cost" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    def test_k_b_values_with_one_file_name_fail_before_any_output(self, tmp_path, capsys):
        # the second CSV used to overwrite the first, and both were reported written
        out = tmp_path / "c6"
        code = main(
            ["compare", "--out", str(out),
             "--cost-a", "3.0", "--mu-a", "-0.1", "--k-a", "0.1",
             "--cost-b", "1.0", "--mu-b", "0", "--k-b", "0.15", "0.1500001", "--m", "5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--k-b values [0.15, 0.1500001]" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    def test_bad_scenario_fails_before_any_output(self, tmp_path, capsys):
        # the first --k-b's CSV used to be written and reported before the
        # negative second one failed
        out = tmp_path / "c5"
        code = main(
            ["compare", "--out", str(out),
             "--cost-a", "3.0", "--mu-a", "-0.1", "--k-a", "0.1",
             "--cost-b", "1.0", "--mu-b", "0", "--k-b", "0.05", "-0.05", "--m", "5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "volatility cannot be negative" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "flag, value", [("--mu-a", "nan"), ("--k-a", "inf"), ("--mu-b", "inf"), ("--k-b", "nan")]
    )
    def test_non_finite_scenario_exits_2(self, tmp_path, capsys, flag, value):
        # --mu-a nan used to write p_cross rows of nan and --k-a inf rows of
        # 0.5, both with exit 0
        out = tmp_path / "c6"
        values = {"--mu-a": "-0.1", "--k-a": "0.1", "--mu-b": "0", "--k-b": "0.1", flag: value}
        code = main(
            ["compare", "--out", str(out), "--cost-a", "3.0", "--cost-b", "1.0", "--m", "5",
             *(x for kv in values.items() for x in kv)]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run.json"]


class TestTrend:
    def test_reference_value(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(
            ["trend", "--out", str(out), "--f", "0.0022", "--gf", "1.425", "--s", "0.2",
             "--gs", "1.026"]
        )
        assert code == 0
        assert json.loads((out / "trend.json").read_text())["years_to_crossing"] == pytest.approx(
            13.73, abs=0.01
        )
        assert "13.73" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--gf", "nan"), ("--gf", "inf"), ("--s", "inf")])
    def test_non_finite_argument_exits_2(self, tmp_path, capsys, flag, value):
        # these used to print nan, 0.0 and inf years with exit 0
        out = tmp_path / "t3"
        values = {"--f": "0.0022", "--gf": "1.425", "--s": "0.2", "--gs": "1.026", flag: value}
        code = main(["trend", "--out", str(out), *(x for kv in values.items() for x in kv)])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "trend.json").exists()

    def test_no_crossing_exits_2(self, tmp_path):
        assert main(
            ["trend", "--out", str(tmp_path / "t2"), "--f", "0.01", "--gf", "1.01",
             "--s", "0.2", "--gs", "1.2"]
        ) == 2


class TestManifest:
    def test_every_command_writes_run_json(self, corpus_csv, tmp_path):
        runs = [
            ["describe", "--input", str(corpus_csv)],
            ["hindcast", "--input", str(corpus_csv), "--tau-max", "5"],
            ["forecast", "--input", str(corpus_csv), "--tech", "tech02", "--horizon", "2"],
            ["compare", "--cost-a", "1", "--mu-a", "-0.1", "--k-a", "0.1", "--cost-b", "1",
             "--mu-b", "0", "--k-b", "0.1", "--m", "10"],
            ["trend", "--f", "0.01", "--gf", "1.4", "--s", "0.2", "--gs", "1.02"],
        ]
        for i, args in enumerate(runs):
            out = tmp_path / f"r{i}"
            assert main(args + ["--out", str(out)]) == 0
            manifest = json.loads((out / "run.json").read_text())
            assert manifest["command"] == args[0]
            assert manifest["kernel_backend"] == "fallback"
