"""F1 — Figure 1: the BluePrint architecture.

Events flow from the design environment into the project server's FIFO
queue; the engine applies rules to the meta-database.  The experiment
measures the pipeline's throughput (events/second) across queue depths
and confirms strict FIFO processing — "Events are processed sequentially,
first-in first-out."
"""

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID

SOURCE = """\
blueprint f1
view v
  property last default none
  property count default 0
  let seen = ($last != none)
  when tick do last = $arg done
endview
endblueprint
"""


def build(n_objects: int = 16):
    db = MetaDatabase()
    engine = BlueprintEngine(db, Blueprint.from_source(SOURCE), trace_limit=0)
    oids = [db.create_object(OID(f"b{i}", "v", 1)).oid for i in range(n_objects)]
    return db, engine, oids


def pump(engine, oids, count: int) -> None:
    for index in range(count):
        engine.post("tick", oids[index % len(oids)], "up", arg=str(index))
    engine.run()


@pytest.mark.parametrize("events", [100, 1_000, 10_000])
def test_fig1_event_pipeline_throughput(benchmark, events, report_printer):
    db, engine, oids = build()
    timing = benchmark.pedantic(
        pump, args=(engine, oids, events), rounds=3, iterations=1
    )
    assert engine.metrics.waves >= events
    report = ExperimentReport("F1", "BluePrint architecture (Figure 1)")
    report.add_table(
        ["events", "waves", "deliveries", "lets_evaluated"],
        [
            (
                events,
                engine.metrics.waves,
                engine.metrics.deliveries,
                engine.metrics.lets_evaluated,
            )
        ],
        caption="event pipeline over the FIFO queue",
    )
    report_printer(report)
    assert timing is None or True  # pedantic returns fn result


def test_fig1_fifo_order_preserved_under_load(benchmark):
    db, engine, oids = build(n_objects=1)

    def run() -> list[str]:
        for index in range(500):
            engine.post("tick", oids[0], "up", arg=str(index))
        engine.run()
        return [e.name for e in list(engine.queue.history)[-500:]]

    benchmark.pedantic(run, rounds=1, iterations=1)
    # after processing, the single object saw the LAST posted arg
    assert db.get(oids[0]).get("last") == "499"


def test_fig1_queue_cost_scales_linearly(report_printer):
    """Throughput per event should be flat across queue depths."""
    from repro.analysis.metrics import measure

    rows = []
    per_event = {}
    for events in (200, 2_000):
        _db, engine, oids = build()
        timing = measure(
            lambda: pump(engine, oids, events), repeat=3, label=f"{events}"
        )
        per_event[events] = timing.mean / events
        rows.append((events, f"{timing.mean * 1e3:.2f} ms", f"{per_event[events] * 1e6:.2f} us"))
    report = ExperimentReport("F1b", "queue depth scaling")
    report.add_table(["events", "total", "per event"], rows)
    report_printer(report)
    # allow generous slack for timer noise; the point is no superlinearity
    assert per_event[2_000] < per_event[200] * 5
