"""Command-line interface.

Subcommands map one-to-one onto the analysis stages: ``describe`` (corpus
statistics and the volatility-drift relation), ``hindcast`` (exhaustive
rolling-origin forecast errors), ``validate`` (surrogate Monte Carlo bands,
distribution tests and global theta estimates), ``forecast`` /``compare`` /
``trend`` (applied forecasts and crossing questions).

Every run writes a ``run.json`` manifest echoing the fully resolved
configuration into the output directory. Commands are pure functions of
their inputs, flags and seed: no wall-clock anywhere, so repeated runs are
byte-identical. Exit codes: 0 success, 2 usage or data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .dataset import (
    DataFormatError,
    corpus_template,
    ingest_csv,
    mu_k_regression,
    select_improving,
    summarize_corpus,
    write_summary_csv,
)
from .forecast import variance_factors
from .hindcast import error_growth, hindcast_corpus, write_error_growth_csv, write_records_csv
from .models import EstimationError
from .scenarios import (
    CrossingSpec,
    NoCrossingError,
    TechState,
    crossing_probability,
    deterministic_trend_crossing,
    even_odds_horizon,
    forecast_technology,
)
from .surrogate import (
    DEVIATION_STATISTICS,
    SurrogateConfig,
    estimate_theta_matched,
    estimate_theta_weighted,
    validation_nulls,
)

# not called here; perfbench/tracing.py patches these names in this module
from .surrogate import distribution_deviation_test, null_xi_band  # noqa: F401

DEFAULT_SEED = 1234567  # fixed so randomized commands are reproducible by default


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", "utf-8")


def _prepare_out(args: argparse.Namespace, command: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = {k: v for k, v in vars(args).items() if k != "func"}
    for key, value in params.items():
        if isinstance(value, Path):
            params[key] = str(value)
    _write_json(
        out / "run.json",
        {
            "command": command,
            "params": params,
            "version": __version__,
            "kernel_backend": _kernels.backend(),
        },
    )
    return out


def _load_corpus(args: argparse.Namespace):
    corpus = ingest_csv(args.input)
    if not corpus:
        raise DataFormatError(f"{args.input}: no technology series found")
    return corpus


def _hindcast_improving(args: argparse.Namespace, purpose: str):
    """Improving and excluded series of ``--input``, and a hindcast of the improving ones."""
    corpus = _load_corpus(args)
    improving, excluded = select_improving(corpus, alpha=args.alpha)
    if not improving:
        raise DataFormatError(f"no improving technologies {purpose}")
    result = hindcast_corpus(improving, args.window, tau_max=args.tau_max)
    if not result.records:
        raise DataFormatError("no feasible forecasts; series too short for the window")
    return improving, excluded, result


def _parse_grid(text: str) -> np.ndarray:
    """The points of np.arange(start, stop + step/2, step), each rounded to the
    fewest decimal places that hold start, stop and step, so that a point is
    the float nearest its decimal value (0.15, not 0.15000000000000002)."""
    try:
        start, stop, step = values = [float(part) for part in text.split(":")]
    except ValueError:
        raise ValueError(f"grid must be 'start:stop:step', got {text!r}") from None
    if not all(map(math.isfinite, values)) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    # at most 15 places: rounding scales a point |x| < 9 to an integer below 2^53
    d = next((d for d in range(16) if np.all(np.round(values, d) == values)), None)
    if d is None:
        raise ValueError(f"grid {text!r} needs more than 15 decimal places")
    return np.round(np.arange(start, stop + step / 2, step), d)


def cmd_describe(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "describe")
    corpus = _load_corpus(args)
    summaries = summarize_corpus(corpus, alpha=args.alpha)
    summaries.sort(key=lambda s: (s.p_value, s.name))
    write_summary_csv(out / "summary.csv", summaries)
    improving = [s for s in summaries if s.improving]
    print(f"{len(improving)} improving / {len(summaries) - len(improving)} excluded "
          f"at alpha={args.alpha}")
    if len(improving) >= 3:
        reg = mu_k_regression(summaries)
        _write_json(
            out / "mu_k_regression.json",
            {
                "linear": vars(reg.linear),
                "log_log": vars(reg.log_log),
                "n_linear": reg.n_linear,
                "n_log_log": reg.n_log_log,
            },
        )
        print(
            f"K on mu: intercept {reg.linear.intercept:.4f} (se {reg.linear.se_intercept:.4f}), "
            f"slope {reg.linear.slope:.4f} (se {reg.linear.se_slope:.4f}), "
            f"R^2 {reg.linear.r_squared:.3f}"
        )
        print(
            f"ln K on ln(-mu): intercept {reg.log_log.intercept:.4f}, "
            f"exponent {reg.log_log.slope:.4f}, R^2 {reg.log_log.r_squared:.3f}"
        )
    else:
        print("fewer than 3 improving technologies; volatility-drift regression skipped")
    return 0


def cmd_hindcast(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "hindcast")
    variance_factors(1, args.window, args.theta)  # the overlay's (m, theta), before any output
    improving, excluded, result = _hindcast_improving(args, "to hindcast")
    weighting = "equal-technology" if args.weighting == "equal-tech" else "pooled"
    curve = error_growth(result.records, weighting=weighting)
    write_records_csv(out / "records.csv", result.records)
    write_error_growth_csv(out / "error_growth.csv", curve, args.window, args.theta)
    print(
        f"{len(result.records)} forecasts from {len(improving)} improving technologies "
        f"(window {args.window}, tau <= {args.tau_max}); "
        f"{result.skipped_zero_volatility} zero-volatility windows skipped; "
        f"{len(excluded)} technologies excluded"
    )
    print(f"{len(result.too_short)} improving technologies too short for the window")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "validate")
    checked = [("--reps", args.reps)]
    if args.theta_from == "matched":
        checked.append(("--grid-reps", args.grid_reps))
    for flag, reps in checked:
        if reps < 1:
            raise ValueError(f"{flag} must be >= 1, got {reps}")
    improving, _, result = _hindcast_improving(args, "to validate against")
    curve = error_growth(result.records)
    base = SurrogateConfig(
        replications=args.reps,
        theta=args.theta,
        m=args.window,
        tau_max=args.tau_max,
        seed=args.seed,
        template=corpus_template(improving),
    )

    report: dict = {"window": args.window, "tau_max": args.tau_max, "seed": args.seed}
    theta = args.theta
    if args.theta_from == "weighted":
        summaries = summarize_corpus(improving, alpha=args.alpha)
        tw = estimate_theta_weighted(summaries, result.records, tau_max=args.tau_max)
        theta = tw.theta_w
        report["theta_weighted"] = {
            "theta_w": tw.theta_w,
            "per_horizon": tw.per_horizon,
            "excluded": list(tw.excluded),
        }
    elif args.theta_from == "matched":
        tm = estimate_theta_matched(curve, base, _parse_grid(args.grid))
        theta = tm.theta_m
        report["theta_matched"] = {
            "theta_m": tm.theta_m,
            "grid": tm.theta_grid,
            "z_values": tm.z_values,
            "bracketed": tm.bracketed,
            "theta_root": tm.theta_root,
        }
    report["theta"] = theta
    report["theta_source"] = args.theta_from or "fixed"

    config = dataclasses.replace(base, theta=theta)
    band, dev = validation_nulls(config, curve, result.records)
    report["xi_band"] = {
        "tau": band.taus,
        "observed": band.observed,
        **band.quantiles,
        "p_raw": band.p_raw,
        "p_smoothed": band.p_smoothed,
        "replications": args.reps,
    }

    report["deviation_test"] = {
        "statistics": list(DEVIATION_STATISTICS),
        "observed": dev.observed,
        "p_raw": dev.p_raw,
        "p_smoothed": dev.p_smoothed,
        "replications": args.reps,
    }
    report["hindcast"] = {
        "n_records": len(result.records),
        "skipped_zero_volatility": result.skipped_zero_volatility,
        "n_improving": len(improving),
        "n_too_short": len(result.too_short),
    }
    _write_json(out / "validate.json", report)

    columns = ("observed", "q025", "q500", "q975", "p_raw", "p_smoothed")
    with open(out / "xi_band.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("tau,observed_xi,q025,q500,q975,p_raw,p_smoothed\n")
        for t, *values in zip(band.taus.tolist(), *(report["xi_band"][c] for c in columns)):
            handle.write(f"{t}," + ",".join(f"{v:.10g}" for v in values) + "\n")
    print(f"validation report written to {out / 'validate.json'} (theta={theta:.4g})")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "forecast")
    if args.horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {args.horizon}")
    try:
        window = "all" if args.window == "all" else int(args.window)
    except ValueError:
        raise ValueError(f"--window must be 'all' or an integer, got {args.window!r}") from None
    corpus = _load_corpus(args)
    if args.tech not in corpus.names:
        raise DataFormatError(
            f"technology {args.tech!r} not in corpus; available: {sorted(corpus.names)}"
        )
    series = corpus[corpus.names.index(args.tech)]
    forecasts = forecast_technology(series, args.horizon, args.theta, m=window)
    origin_year = int(series.years[-1])
    _write_json(
        out / "forecast.json",
        {"forecasts": [f.as_record(args.tech, origin_year) for f in forecasts]},
    )
    with open(out / "forecast.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("tau,q05,q16,q50,q84,q95\n")
        for tau, f in enumerate(forecasts, start=1):
            cost_q = [math.exp(f.quantile(p)) for p in (0.05, 0.16, 0.50, 0.84, 0.95)]
            handle.write(f"{tau}," + ",".join(f"{q:.10g}" for q in cost_q) + "\n")
    last = forecasts[-1]
    print(
        f"{args.tech}: median cost at horizon {args.horizon} = {last.median_cost:.4g} "
        f"(origin year {origin_year}, theta={args.theta})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "compare")
    if args.tau_max < 1:
        raise ValueError(f"--tau-max must be >= 1, got {args.tau_max}")
    for flag, cost in (("--cost-a", args.cost_a), ("--cost-b", args.cost_b)):
        if not (math.isfinite(cost) and cost > 0.0):
            raise ValueError(f"{flag} must be a finite positive cost, got {cost}")
    tech_a = TechState(math.log(args.cost_a), args.mu_a, args.k_a, args.m)
    specs = [  # every scenario is checked before any CSV is written
        CrossingSpec(tech_a, TechState(math.log(args.cost_b), args.mu_b, k_b, args.m), args.theta)
        for k_b in args.k_b
    ]
    for k_b, spec in zip(args.k_b, specs):
        path = out / f"compare_kb{k_b:g}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("tau,p_cross\n")
            for tau in range(1, args.tau_max + 1):
                handle.write(f"{tau},{crossing_probability(spec, tau):.10g}\n")
        try:
            midpoint = even_odds_horizon(spec, 1.0, float(args.tau_max))
            note = f"even odds at tau = {midpoint:.2f}"
        except NoCrossingError:
            note = "no even-odds horizon within range"
        print(f"K_b={k_b:g}: wrote {path.name}; {note}")
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    out = _prepare_out(args, "trend")
    years = deterministic_trend_crossing(args.f, args.gf, args.s, args.gs)
    _write_json(out / "trend.json", {"years_to_crossing": years})
    print(f"{years:.4g}")
    return 0


def _add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("--input", type=Path, required=True, help="corpus CSV (technology,year,cost)")
    sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root seed for randomized steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costwalk",
        description="Technology-cost forecasting with validated error distributions",
    )
    parser.add_argument("--version", action="version", version=f"costwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="corpus statistics and the volatility-drift relation")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.10, help="improving-trend significance level")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("hindcast", help="exhaustive rolling-origin forecast errors")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.10)
    p.add_argument("--window", type=int, default=5, help="differences per estimation window (m)")
    p.add_argument("--tau-max", type=int, default=20, help="horizon cap")
    p.add_argument("--theta", type=float, default=0.0, help="theta for the prediction overlay")
    p.add_argument("--weighting", choices=("pooled", "equal-tech"), default="pooled")
    p.set_defaults(func=cmd_hindcast)

    p = sub.add_parser("validate", help="surrogate bands, distribution tests, theta estimates")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.10)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--tau-max", type=int, default=20)
    p.add_argument(
        "--reps", type=int, default=1000, help="replications for the Xi band and the deviation test"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=0.0)
    group.add_argument("--theta-from", choices=("weighted", "matched"), default=None)
    p.add_argument("--grid", default="0:0.9:0.01", help="theta grid for --theta-from matched")
    p.add_argument(
        "--grid-reps", type=int, default=3000, help="unused: theta matching draws no replication"
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("forecast", help="distributional forecast for one technology")
    _add_common(p)
    p.add_argument("--tech", required=True, help="technology name in the corpus")
    p.add_argument("--horizon", type=int, required=True, help="maximum horizon (years ahead)")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--window", default="all", help="'all' or an integer window of differences")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("compare", help="probability one technology undercuts another")
    _add_common(p, with_input=False)
    p.add_argument("--cost-a", type=float, required=True, help="current cost of technology A")
    p.add_argument("--mu-a", type=float, required=True)
    p.add_argument("--k-a", type=float, required=True)
    p.add_argument("--cost-b", type=float, required=True, help="current cost of technology B")
    p.add_argument("--mu-b", type=float, required=True)
    p.add_argument("--k-b", type=float, nargs="+", required=True, help="one or more volatilities for B")
    p.add_argument("--m", type=int, required=True, help="shared estimation window")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--tau-max", type=int, default=20)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trend", help="deterministic exponential-trend crossing time")
    _add_common(p, with_input=False)
    p.add_argument("--f", type=float, required=True, help="follower's current level")
    p.add_argument("--gf", type=float, required=True, help="follower's annual growth factor")
    p.add_argument("--s", type=float, required=True, help="leader's current level")
    p.add_argument("--gs", type=float, required=True, help="leader's annual growth factor")
    p.set_defaults(func=cmd_trend)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError, ValueError, KeyError) as exc:  # OSError: a bad --input/--out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
