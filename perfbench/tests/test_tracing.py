import pytest

import tracing
from tracing import Span, Tracer, covered_length, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a.inner", 2.0, 3.0, 1, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(7.0)  # only the direct child counts
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)


def test_self_time_of_siblings_counts_covered_time_once():
    disjoint = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 2.0, 0, 0),
        Span(2, "b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(disjoint)[0] == pytest.approx(7.0)
    overlapping = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),
        Span(3, "c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(overlapping)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_length_merges_overlapping_intervals():
    assert covered_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == pytest.approx(4.0)
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)
    assert covered_length([]) == 0.0


def test_wrapped_calls_nest_and_count():
    tracer = Tracer()

    def inner(n):
        return list(range(n))

    traced_inner = tracer.wrap("inner", inner, lambda tr, result, args: tr.count("items", len(result)))
    outer = tracer.wrap("outer", lambda: traced_inner(3) + traced_inner(2))
    tracer.run = 4
    assert outer() == [0, 1, 2, 0, 1]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (parent,) = by_name["outer"]
    assert parent.parent is None
    assert [s.parent for s in by_name["inner"]] == [parent.id, parent.id]
    assert {s.run for s in tracer.spans} == {4}
    assert tracer.counters["items"] == 5


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s.name for s in tracer.spans] == ["boom"]
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[-1].parent is None


def test_install_patches_call_sites_and_restores_them():
    import costwalk.cli
    import costwalk.surrogate

    before = (costwalk.cli.ingest_csv, costwalk.surrogate.derive_rng)
    with tracing.install(Tracer()):
        assert costwalk.cli.ingest_csv is not before[0]
        assert costwalk.surrogate.derive_rng is not before[1]
        assert costwalk.cli.ingest_csv.__wrapped__ is before[0]
    assert (costwalk.cli.ingest_csv, costwalk.surrogate.derive_rng) == before


def test_layer_metrics_on_a_traced_cli_call(tmp_path):
    import costwalk.cli
    import workloads

    inputs = workloads.build_inputs(tmp_path, seed=3)
    tracer = Tracer()
    with tracing.install(tracer):
        span = tracer.open("cli.main")
        code = costwalk.cli.main(["hindcast", "--input", str(inputs["x1"]), "--out", str(tmp_path / "h")])
        tracer.close(span)
    assert code == 0
    wall = tracer.spans[-1].end - tracer.spans[-1].start
    m = tracing.layer_metrics(tracer.spans, tracer.counters, {0: "hindcast"}, wall)
    assert m["dataset.series_ingested"] == 53
    assert m["hindcast.records"] == m["_kernels.hindcast_errors.records"] > 0
    assert m["_kernels.hindcast_errors.calls"] == 53 - m["dataset.series_excluded"]
    assert m["hindcast.records_csv_bytes"] == (tmp_path / "h" / "records.csv").stat().st_size
    assert m["_kernels.corpus_norm_errors.calls"] == 0
    parts = m["hindcast.hindcast_corpus.self_s"] + m["_kernels.hindcast_errors.busy_s"]
    assert parts == pytest.approx(m["hindcast.hindcast_corpus.busy_s"])
    assert 0.0 < m["cli.self_s"] < wall


def test_every_listed_layer_metric_is_computed():
    import json
    from pathlib import Path

    listed = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    computed = set(tracing.layer_metrics([], {}, {}, 1.0))
    measured = {"cli.ops", "cli.ops_failed", "trace.overhead_s", "trace.span_cost_us"}
    assert {e["name"] for e in listed["per_layer"]} == computed | measured
