"""Workload definitions and their seeded inputs.

Every input is a surrogate corpus drawn from the bundled 53-technology
template (``load_reference_params(improving_only=True)``) with theta = 0.63
and the benchmark's seed, written in the CLI's long CSV format:

* x1: the template once, 53 series and 1,002 points;
* x10: the template repeated 10 times, 530 series and 10,020 points.

Because the corpus is drawn from the surrogate null itself, the observed
error growth should sit inside the null band, which the output checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

INPUT_THETA = 0.63
GRID = "0:0.9:0.05"
GRID_POINTS = 19  # 0, 0.05, ..., 0.9
SCALES = {"x1": 1, "x10": 10}  # copies of the template in each corpus


@dataclass(frozen=True)
class Op:
    """One CLI call: a subcommand, the input it reads and its other flags."""

    command: str
    corpus: str  # a key of SCALES
    flags: tuple[str, ...]
    replications: int = 0  # surrogate corpora simulated by this call

    def argv(self, inputs: dict[str, Path], out: Path, seed: int) -> list[str]:
        return [
            self.command,
            "--input", str(inputs[self.corpus]),
            "--out", str(out),
            "--seed", str(seed),
            *self.flags,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]

    @property
    def replications(self) -> int:
        return sum(op.replications for op in self.ops)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's significance test at its realistic corpus size: 1,000
        # band plus 1,000 deviation-test replications. The surrogate kernel
        # takes most of the time and the observed-data path a few percent;
        # the only workload with many ECDF-deviation replications.
        Workload(
            name="mc-band",
            ops=(
                Op("validate", "x1", ("--theta", str(INPUT_THETA), "--reps", "1000"),
                   replications=2 * 1000),
            ),
        ),
        # Same kernel split into 19 small configs of 100 replications, plus
        # 2 x 200 for band and deviation test. Per-config overhead and common
        # random numbers across theta show here and not in mc-band. The
        # fuller run (--grid-reps 300 --reps 1000) takes about 37 s on the
        # numpy kernels, too long for one benchmark run, so counts are scaled.
        Workload(
            name="theta-match",
            ops=(
                Op("validate", "x1",
                   ("--theta-from", "matched", "--grid", GRID, "--grid-reps", "100", "--reps", "200"),
                   replications=GRID_POINTS * 100 + 2 * 200),
            ),
        ),
        # The observed-data path at 10x corpus size and no surrogate work:
        # IMA maximum likelihood in describe, record building, error growth
        # and CSV writing in hindcast. Surrogate-engine changes should not
        # move it; it is also the memory-heavy case.
        Workload(
            name="observed-x10",
            ops=(
                Op("describe", "x10", ()),
                Op("hindcast", "x10", ("--weighting", "equal-tech")),
            ),
        ),
    )
}


def build_inputs(directory: Path, seed: int, labels=tuple(SCALES)) -> dict[str, Path]:
    """Write the corpora named in ``labels`` for ``seed`` into ``directory``."""
    import costwalk as cw

    template = cw.corpus_template(cw.load_reference_params(improving_only=True))
    paths = {}
    for label in labels:
        copies = SCALES[label]
        config = cw.SurrogateConfig(
            replications=1, theta=INPUT_THETA, m=5, tau_max=20, seed=seed, template=template * copies
        )
        path = directory / f"corpus_{label}.csv"
        cw.write_corpus_csv(path, cw.surrogate_corpus(config, cw.make_rng(seed)))
        paths[label] = path
    return paths
