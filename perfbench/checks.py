"""Output checks for each CLI call, so that a fast but wrong change fails.

Every check reads only the files the call wrote and what it printed. None
compares against stored golden values: intended numeric changes to the
statistics must still pass, wrong or inconsistent outputs must not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

EXPECTED_FILES = {
    "describe": ("run.json", "summary.csv"),
    "hindcast": ("run.json", "records.csv", "error_growth.csv"),
    "validate": ("run.json", "validate.json", "xi_band.csv"),
}

# The inputs are drawn from the null itself, so the observed Xi lies inside
# the 95% null band at most horizons. Horizons are strongly correlated,
# though: with theta = 0.63 and 300 replications, 160 seeds gave between 6
# and 20 of 20 horizons inside. Requiring more than half would reject about
# one correct run in twenty, so the check only rejects a band that misses the
# observed curve at every horizon.
MIN_HORIZONS_INSIDE = 1


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_op(command: str, out: Path, code: int, stdout: str) -> list[str]:
    """Problems found in one call's exit code, files and printed summary."""
    if code != 0:
        return [f"{command}: exit code {code}"]
    missing = [name for name in EXPECTED_FILES[command] if not (out / name).is_file()]
    if missing:
        return [f"{command}: missing outputs {missing}"]
    return {"describe": _check_describe, "hindcast": _check_hindcast, "validate": _check_validate}[
        command
    ](out, stdout)


def _check_describe(out: Path, stdout: str) -> list[str]:
    problems = []
    found = re.search(r"(\d+) improving / (\d+) excluded", stdout)
    if not found:
        return ["describe: improving/excluded summary line not printed"]
    improving, excluded = int(found[1]), int(found[2])
    rows = _rows(out / "summary.csv")
    if len(rows) != improving + excluded:
        problems.append(f"describe: {len(rows)} summary rows, reported {improving + excluded}")
    if sum(r["improving"] == "1" for r in rows) != improving:
        problems.append("describe: improving flags disagree with the reported count")
    if any(not 0.0 <= float(r["p_value"]) <= 1.0 for r in rows):
        problems.append("describe: trend p-value outside [0, 1]")
    if any(not float(r["K"]) > 0.0 for r in rows):
        problems.append("describe: non-positive volatility")
    if improving >= 3 and not (out / "mu_k_regression.json").is_file():
        problems.append("describe: mu_k_regression.json missing")
    return problems


def _check_hindcast(out: Path, stdout: str) -> list[str]:
    problems = []
    found = re.search(r"(\d+) forecasts from", stdout)
    if not found:
        return ["hindcast: record count not printed"]
    reported = int(found[1])
    if reported < 1:
        problems.append("hindcast: no records")
    records = _rows(out / "records.csv")
    if len(records) != reported:
        problems.append(f"hindcast: records.csv has {len(records)} rows, reported {reported}")
    curve = _rows(out / "error_growth.csv")
    if sum(int(r["n_forecasts"]) for r in curve) != reported:
        problems.append("hindcast: error_growth.csv forecast counts do not add up to the records")
    if any(not float(r["xi_empirical"]) > 0.0 for r in curve):
        problems.append("hindcast: non-positive error growth")
    return problems


def _is_p(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


def _check_validate(out: Path, stdout: str) -> list[str]:
    problems = []
    report = json.loads((out / "validate.json").read_text("utf-8"))
    band = report["xi_band"]
    horizons = len(band["tau"])
    if horizons != report["tau_max"]:
        problems.append(f"validate: band has {horizons} horizons, tau_max is {report['tau_max']}")
    observed = band["observed"]
    for key in ("p_raw", "p_smoothed"):
        if any(not _is_p(p) for p, obs in zip(band[key], observed) if obs is not None):
            problems.append(f"validate: band {key} outside [0, 1]")
        if any(not _is_p(p) for p in report["deviation_test"][key]):
            problems.append(f"validate: deviation test {key} outside [0, 1]")
    unordered = inside = compared = 0
    for lo, mid, hi, obs in zip(band["q025"], band["q500"], band["q975"], observed):
        if None in (lo, mid, hi):
            continue
        unordered += not lo <= mid <= hi
        if obs is not None:
            compared += 1
            inside += lo <= obs <= hi
    if unordered:
        problems.append(f"validate: band quantiles not ordered at {unordered} horizons")
    if inside < MIN_HORIZONS_INSIDE:
        problems.append(f"validate: observed Xi inside the null band at {inside} of {compared} horizons")
    matched = report.get("theta_matched")
    if matched is not None:
        # theta_m is the grid point where |Z - 1| is smallest; an estimate
        # interpolated between grid points must stay within one step of it.
        grid, z = matched["grid"], matched["z_values"]
        if None in z:
            return problems + ["validate: non-finite Z(theta)"]
        best = min(range(len(grid)), key=lambda i: abs(z[i] - 1.0))
        step = min(b - a for a, b in zip(grid, grid[1:])) if len(grid) > 1 else 0.0
        if not abs(matched["theta_m"] - grid[best]) <= step + 1e-12:
            problems.append(f"validate: theta_m {matched['theta_m']} is not next to the best grid point")
        # Whether Z(theta) - 1 changes sign depends on the draw: a correct
        # program leaves about 3 seeds in 20 unbracketed on this corpus, so
        # the check is that the flag agrees with the reported Z values.
        crosses = any(v > 1.0 for v in z) and any(v < 1.0 for v in z)
        if matched["bracketed"] is not crosses:
            problems.append("validate: bracketed flag disagrees with the Z values")
        if report["theta"] != matched["theta_m"]:
            problems.append("validate: band theta differs from theta_m")
    with open(out / "xi_band.csv", encoding="utf-8", newline="") as handle:
        if sum(1 for _ in handle) != horizons + 1:
            problems.append("validate: xi_band.csv row count differs from validate.json")
    return problems


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except run.json, which embeds --out."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file() and path.name != "run.json"
    }
