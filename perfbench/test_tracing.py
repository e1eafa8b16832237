"""Tests of the benchmark's tracing helpers and regression rule.

    python3 -m pytest perfbench -q
"""

import math
import threading
import time
import types

import compare
import tracing


def span(name, start, end, span_id, parent=None):
    return tracing.Span(name, start, end, span_id, parent, "run-1", 1)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_children_and_sums_to_wall():
    spans = [
        span("export", 0.0, 10.0, "root"),
        span("encode", 1.0, 3.0, "a", "root"),
        span("digest", 1.5, 2.5, "aa", "a"),
        span("generate", 5.0, 6.0, "b", "root"),
    ]
    own = tracing.self_times(spans)
    assert own == {"root": 7.0, "a": 1.0, "aa": 1.0, "b": 1.0}
    assert math.isclose(sum(own.values()), 10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("export", 0.0, 10.0, "root"),
        span("x", 1.0, 4.0, "a", "root"),
        span("y", 3.0, 5.0, "b", "root"),
    ]
    assert tracing.self_times(spans)["root"] == 6.0


def test_self_time_clips_children_to_the_parent():
    spans = [span("export", 2.0, 4.0, "root"), span("x", 1.0, 3.0, "a", "root")]
    assert tracing.self_times(spans)["root"] == 1.0


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([span("x", 1.0, 1.25, "a")]) == {"a": 0.25}


def test_self_time_by_name_and_subtree():
    spans = [
        span("export", 0.0, 10.0, "root"),
        span("encode", 1.0, 3.0, "a", "root"),
        span("encode", 4.0, 5.0, "b", "root"),
        span("verify", 11.0, 12.0, "v"),
    ]
    tree = tracing.subtree(spans, "root")
    assert {s.span_id for s in tree} == {"root", "a", "b"}
    assert tracing.self_time_by_name(tree) == {"export": 7.0, "encode": 3.0}


# -- highest percentile with at least ten samples beyond it -------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(10))) is None
    assert tracing.tail_percentile(list(range(1, 21))) == (50.0, 10)


def test_tail_percentile_picks_the_highest_qualifying():
    values = list(range(1, 101))
    assert tracing.tail_percentile(values) == (90.0, 90)
    assert tracing.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tracing.tail_percentile(list(range(1, 10001))) == (99.9, 9990)


def test_nearest_rank():
    assert tracing.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert tracing.nearest_rank(list(range(1, 124)), 90) == 111


def test_tail_percentile_uses_nearest_rank_on_unsorted_input():
    values = list(range(109, 0, -1))
    # rank ceil(0.9 * 109) = 99 leaves exactly 10 samples beyond it.
    assert tracing.tail_percentile(values) == (90.0, 99)
    # rank ceil(0.9 * 99) = 90 leaves 9, so p75 (rank 75) is the highest.
    assert tracing.tail_percentile(list(range(99, 0, -1))) == (75.0, 75)


# -- the tracer ---------------------------------------------------------------


def test_tracer_nests_spans_and_restores_wrappers():
    module = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.001)
        return x * 2

    def outer(x):
        return module.inner(x) + 1

    module.inner, module.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.wrap(module, "inner", "layer.inner", lambda t, a, k, r: t.count("calls"))
    tracer.wrap(module, "outer", "layer.outer")
    root = tracer.start_operation("op", "run-7")
    assert module.outer(3) == 7
    tracer.finish_operation(root)
    tracer.restore()
    assert module.inner is inner and module.outer is outer

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].span_id
    assert by_name["layer.outer"].parent == root.span_id
    assert {s.run_id for s in tracer.spans} == {"run-7"}
    assert tracer.counts["calls"] == 1
    own = tracing.self_times(tracing.subtree(tracer.spans, root.span_id))
    assert math.isclose(sum(own.values()), root.duration, rel_tol=1e-9)


def test_tracer_wraps_classmethods_and_parents_other_threads_to_the_root():
    class Box:
        @classmethod
        def make(cls):
            return cls()

    tracer = tracing.Tracer()
    tracer.wrap(Box, "make", "box.make")
    root = tracer.start_operation("op", "run-8")
    worker = threading.Thread(target=Box.make)
    worker.start()
    worker.join()
    tracer.finish_operation(root)
    tracer.restore()
    assert isinstance(Box.__dict__["make"], classmethod)
    made = [s for s in tracer.spans if s.name == "box.make"]
    assert len(made) == 1 and made[0].parent == root.span_id


# -- the regression rule ------------------------------------------------------


def result(hosts_per_s, correct=True):
    return {"correct": correct, "metrics": {"hosts_per_s": {"value": hosts_per_s}}}


METRICS = [{"name": "hosts_per_s", "better": "higher", "bound": 0.1}]


def test_regression_rule_flags_only_beyond_the_bound():
    base = [result(v) for v in (100.0, 101.0, 99.0)]
    assert compare.regressions(base, [result(v) for v in (95.0, 92.0, 96.0)], METRICS) == []
    slowed = compare.regressions(base, [result(v) for v in (80.0, 82.0, 79.0)], METRICS)
    assert len(slowed) == 1 and slowed[0].startswith("hosts_per_s:")


def test_regression_rule_fails_incorrect_runs():
    base = [result(100.0)]
    assert compare.regressions(base, [result(100.0, correct=False)], METRICS)


def test_spread_is_interquartile_share_of_median():
    assert compare.spread([1.0]) == 0.0
    assert math.isclose(compare.spread([9.0, 10.0, 10.0, 11.0]), 0.15)
