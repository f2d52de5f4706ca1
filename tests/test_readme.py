"""The README's library example runs as written, on a small corpus, and its
command-line examples parse."""

import math
import re
import shlex
from pathlib import Path

import pytest

from costwalk import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text("utf-8")
    library = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", library, re.S)[1]


def _commands() -> list[str]:
    """Each ``costwalk`` command of the Command line block, continuation lines joined."""
    text = README.read_text("utf-8")
    block = re.search(r"```\n(.*?)```", text[text.index("## Command line"):], re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("costwalk ")]


def test_command_line_block_parses():
    # a flag the README shows but the parser no longer has exits 2 here
    parser = cli.build_parser()
    argvs = [shlex.split(command)[1:] for command in _commands()]
    for argv in argvs:
        parser.parse_args(argv)
    assert {argv[0] for argv in argvs} == {
        "describe", "hindcast", "validate", "forecast", "compare", "trend"
    }


def test_library_block_runs(corpus_csv, monkeypatch):
    monkeypatch.chdir(corpus_csv.parent)  # the block reads "corpus.csv"
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    cw = namespace["cw"]
    # the values the block's comments quote
    assert namespace["fc"].median_cost == pytest.approx(0.15, abs=0.01)
    assert cw.crossing_probability(namespace["spec"], tau=15) == pytest.approx(0.62, abs=0.01)
    assert cw.even_odds_horizon(namespace["spec"]) == pytest.approx(math.log(3) / 0.10)
    assert namespace["band"].values.shape == (1000, 20)
    assert namespace["deviation"].values.shape == (1000, 3)
