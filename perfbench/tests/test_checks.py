import json

import pytest

import checks
import workloads


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine describe, hindcast and validate outputs on a small seeded corpus."""
    import contextlib
    import io

    import costwalk.cli

    root = tmp_path_factory.mktemp("outputs")
    inputs = workloads.build_inputs(root, seed=11)
    calls = {
        "describe": ["describe"],
        "hindcast": ["hindcast", "--weighting", "equal-tech"],
        "validate": ["validate", "--theta-from", "matched", "--grid", "0:0.9:0.3",
                     "--grid-reps", "20", "--reps", "100"],
    }
    printed = {}
    for command, argv in calls.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = costwalk.cli.main(
                argv + ["--input", str(inputs["x1"]), "--out", str(root / command), "--seed", "11"]
            )
        assert code == 0
        printed[command] = out.getvalue()
    return root, printed


@pytest.mark.parametrize("command", ["describe", "hindcast", "validate"])
def test_genuine_outputs_pass(outputs, command):
    root, printed = outputs
    assert checks.check_op(command, root / command, 0, printed[command]) == []


def _copy(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def test_p_value_above_one_is_rejected(outputs, tmp_path):
    root, printed = outputs
    out = _copy(root / "validate", tmp_path / "v")
    report = json.loads((out / "validate.json").read_text())
    report["deviation_test"]["p_raw"][0] = 1.2
    (out / "validate.json").write_text(json.dumps(report))
    assert any("p_raw outside [0, 1]" in p for p in checks.check_op("validate", out, 0, printed["validate"]))


def test_unordered_band_and_far_theta_are_rejected(outputs, tmp_path):
    root, printed = outputs
    out = _copy(root / "validate", tmp_path / "v")
    report = json.loads((out / "validate.json").read_text())
    band = report["xi_band"]
    band["q025"][3], band["q975"][3] = band["q975"][3], band["q025"][3]
    report["theta_matched"]["theta_m"] = report["theta"] = 0.95
    (out / "validate.json").write_text(json.dumps(report))
    problems = checks.check_op("validate", out, 0, printed["validate"])
    assert any("not ordered" in p for p in problems)
    assert any("best grid point" in p for p in problems)


def test_dropped_record_row_is_rejected(outputs, tmp_path):
    root, printed = outputs
    out = _copy(root / "hindcast", tmp_path / "h")
    lines = (out / "records.csv").read_text().splitlines(keepends=True)
    (out / "records.csv").write_text("".join(lines[:-1]))
    problems = checks.check_op("hindcast", out, 0, printed["hindcast"])
    assert any("records.csv has" in p for p in problems)


def test_failed_call_and_missing_file_are_rejected(outputs, tmp_path):
    root, printed = outputs
    assert checks.check_op("describe", root / "describe", 2, printed["describe"])
    out = _copy(root / "describe", tmp_path / "d")
    (out / "summary.csv").unlink()
    assert checks.check_op("describe", out, 0, printed["describe"])


def test_digests_ignore_run_json_only(outputs, tmp_path):
    root, _ = outputs
    out = _copy(root / "validate", tmp_path / "v")
    first = checks.output_digests(out)
    assert "run.json" not in first and {"validate.json", "xi_band.csv"} <= first.keys()
    (out / "run.json").write_text("{}")
    assert checks.output_digests(out) == first
    (out / "xi_band.csv").write_text((out / "xi_band.csv").read_text() + "\n")
    assert checks.output_digests(out) != first


def test_inputs_depend_only_on_the_seed(tmp_path):
    built = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / label).mkdir()
        built[label] = workloads.build_inputs(tmp_path / label, seed=seed)
    assert built["a"]["x10"].read_bytes() == built["b"]["x10"].read_bytes()
    assert built["a"]["x1"].read_bytes() != built["c"]["x1"].read_bytes()
    assert len(built["a"]["x10"].read_text().splitlines()) == 1 + 10020
