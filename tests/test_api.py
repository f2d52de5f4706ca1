"""The costwalk names that code outside the library reaches, and what the library imports.

``perfbench/`` patches entry points by name and, like
``benchmarks/bench_kernels.py``, imports costwalk names, some of them
private. A name that moves or goes away fails these tests, not only a
benchmark run. The library and its CLI need numpy alone; scipy, hypothesis
and mpmath serve only the tests.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import costwalk

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_FILES = [
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "benchmarks" / "bench_kernels.py",
]


def _resolves(dotted: str) -> bool:
    """Whether a dotted name is an importable module or an attribute reached from one."""
    parts = dotted.split(".")
    target = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(target, part):
            target = getattr(target, part)
            continue
        try:
            target = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def _trees(path: Path):
    """The file's syntax tree, then that of each string in it that is code
    importing costwalk (a script the file runs in a new process)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "import costwalk" in node.value or "from costwalk" in node.value:
                try:
                    yield ast.parse(node.value)
                except SyntaxError:  # prose, such as a docstring
                    continue


def _costwalk_names(tree: ast.AST) -> set[str]:
    """Dotted costwalk names that the code imports or reads as attributes."""
    local = {}  # name bound by an import -> the dotted costwalk name it stands for
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "costwalk":
                    names.add(alias.name)
                    if alias.asname:
                        local[alias.asname] = alias.name
                    else:  # "import costwalk.cli" binds costwalk
                        local["costwalk"] = "costwalk"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.partition(".")[0] == "costwalk":
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
                    local[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, value = [], node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in local:
                names.add(".".join([local[value.id], *reversed(chain)]))
    return names


def _load_tracing():
    """perfbench/tracing.py as a module, loaded from its file."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_entry_points_resolve():
    entry_points = _load_tracing().ENTRY_POINTS
    assert entry_points
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in entry_points
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"perfbench/tracing.py patches names costwalk no longer has: {missing}"


def test_benchmark_names_resolve():
    names = set()
    for path in BENCHMARK_FILES:
        for tree in _trees(path):
            names |= _costwalk_names(tree)
    # the scan sees plain, aliased, submodule and in-string imports
    assert {
        "costwalk.cli.main",
        "costwalk.kernel_backend",
        "costwalk._kernels.hindcast_errors",
        "costwalk.surrogate._t_cdf_grid",
        "costwalk.SurrogateConfig",
    } <= names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"the benchmarks reach names costwalk no longer has: {missing}"


def test_library_and_cli_need_only_numpy(corpus_csv, tmp_path):
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "for name in ('scipy', 'hypothesis', 'mpmath'):\n"
        "    sys.modules[name] = None  # any import of it raises ImportError\n"
        "import costwalk, costwalk.cli\n"
        f"out, corpus = {str(out)!r}, {str(corpus_csv)!r}\n"
        "runs = [\n"
        "    ['trend', '--out', out + '/trend', '--f', '0.0022', '--gf', '1.425',\n"
        "     '--s', '0.2', '--gs', '1.026'],\n"
        "    ['describe', '--input', corpus, '--out', out + '/describe'],\n"
        "    ['hindcast', '--input', corpus, '--out', out + '/hindcast'],\n"
        "    ['validate', '--input', corpus, '--out', out + '/validate', '--reps', '100',\n"
        "     '--theta-from', 'matched', '--grid', '0:0.6:0.2'],\n"
        "]\n"
        "sys.exit(max(costwalk.cli.main(argv) for argv in runs))\n"
    )
    src = str(Path(costwalk.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trend = json.loads((out / "trend" / "trend.json").read_text())
    assert trend["years_to_crossing"] == pytest.approx(13.73, abs=0.01)
    assert (out / "validate" / "validate.json").is_file()
