"""Self-time arithmetic and span nesting on synthetic spans."""

import threading

import pytest

import tracing
from subgroupdlp import bsgs, groups

P = tracing.NO_PARENT


def test_self_time_subtracts_nested_children():
    # 0: [0, 10] parent; 1: [1, 4] child; 2: [2, 3] grandchild; 3: [6, 7]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [P, 0, 1, 0]
    assert list(tracing.self_times(start, end, parent)) == [6.0, 2.0, 1.0, 1.0]


def test_overlapping_children_are_merged_not_double_counted():
    # two worker-thread children overlap on [2, 3]; union is [1, 5]
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 3.0, 5.0, 9.0]
    parent = [P, 0, 0, 0]
    selfs = tracing.self_times(start, end, parent)
    assert selfs[0] == pytest.approx(10 - 4 - 1)
    assert all(s <= e - b for s, b, e in zip(selfs, start, end))


def test_children_are_clipped_to_the_parent_and_counted_as_errors():
    start, end, parent = [0.0, 8.0], [10.0, 12.0], [P, 0]
    assert tracing.self_times(start, end, parent)[0] == pytest.approx(8.0)
    assert tracing.nesting_errors(start, end, parent) == 1
    assert tracing.nesting_errors([0.0, 1.0], [10.0, 2.0], [P, 0]) == 0


def test_worker_threads_nest_under_the_waiting_span():
    tracer = tracing.Tracer()
    outer = tracer.open(tracer.name_id("parallel.campaign"))

    def worker():
        inner = tracer.open(tracer.name_id("bsgs.solve"))
        leaf = tracer.open(tracer.name_id("groups.scalar_mul"))
        tracer.close(leaf)
        tracer.close(inner)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(outer)
    names = [tracer.names[n] for n in tracer.name]
    parents = list(tracer.parent)
    for i, name in enumerate(names):
        if name == "bsgs.solve":
            assert parents[i] == outer
        if name == "groups.scalar_mul":
            assert names[parents[i]] == "bsgs.solve"
    assert tracing.nesting_errors(tracer.start, tracer.end,
                                  tracer.parent) == 0


def test_layer_totals_split_setup_from_items():
    tracer = tracing.Tracer()
    for item in (tracing.SETUP_ITEM, 0, 1):
        tracer.current_item = item
        tracer.close(tracer.open(tracer.name_id("factoring.factor")))
    items, everything = tracing.layer_totals(tracer)
    assert items["factoring.factor"][0] == 2
    assert everything["factoring.factor"][0] == 3


def test_instrumented_solve_counts_steps_and_verifications():
    tracer = tracing.Tracer()
    uninstall = tracing.instrument(tracer)
    try:
        group = groups.AdditiveOracleGroup(1009)   # p - 1 = 2^4 * 3^2 * 7
        assert isinstance(group, tracing.TracedGroup)
        from subgroupdlp import factoring
        H = factoring.subgroup_generator(1009, 16)
        tracer.current_item = 0
        member = pow(11, (1009 - 1) // 16, 1009)
        verdict = bsgs.solve_in_subgroup(
            bsgs.DlpInstance.from_secret(group, member), H)
    finally:
        uninstall()
    assert isinstance(verdict, bsgs.Found)
    assert not isinstance(groups.AdditiveOracleGroup(1009),
                          tracing.TracedGroup)
    assert tracer.counters["bsgs.steps"] == verdict.steps
    assert tracing.verify_attempts(tracer) == 1
    items, _ = tracing.layer_totals(tracer)
    # steps plus the one verification, plus from_secret's multiply
    assert items["groups.scalar_mul"][0] == verdict.steps + 2
    assert items["groups.encode"][0] == verdict.steps


def test_saved_spans_load_back_unchanged(tmp_path):
    tracer = tracing.Tracer()
    tracer.current_item = 3
    outer = tracer.open(tracer.name_id("cli.main"))
    tracer.close(tracer.open(tracer.name_id("factoring.factor")))
    tracer.close(outer)
    tracer.count("bsgs.steps", 12)
    tracer.save(tmp_path / "spans.bin")
    loaded = tracing.Tracer.load(tmp_path / "spans.bin")
    assert loaded.names == tracer.names
    assert loaded.counters == tracer.counters
    for a, b in zip(loaded._columns(), tracer._columns()):
        assert a == b
    assert tracing.layer_totals(loaded) == tracing.layer_totals(tracer)
