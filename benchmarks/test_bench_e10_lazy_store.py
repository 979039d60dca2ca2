"""E10 — demand-faulting storage at scale (extension).

The paper's project database is meant to hold *every* object of a large
IC project; the experiment measures what the lazy sharded store buys on
a database that size:

* **cold open** — time to get a usable database handle, lazy vs eager
  (the eager loader materialises and re-indexes everything);
* **residency** — objects actually in core after a windowed workload
  (touch a few shards, run the headline stale query), bounded by the
  window + LRU cap rather than the database size;
* **pushdown** — the "all stale latest versions" answer must be
  identical lazy vs eager while faulting in only the result.

Sizes are object counts; 10k is the acceptance gate (lazy cold open
≥ 5× faster than eager, residency bounded), 50k shows the scaling trend.
"""

import time

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.metadb.query import Query, stale_objects

VIEWS = ("rtl", "gate", "layout", "timing")


def build_sqlite(tmp_path, n_objects: int):
    """A saved SQLite database of ~n_objects across many (block, view)
    shards, with a sprinkling of stale latest versions."""
    n_blocks = n_objects // len(VIEWS)
    db = MetaDatabase(name=f"e10-{n_objects}")
    for index in range(n_blocks):
        block = f"b{index}"
        for view in VIEWS:
            db.create_object(
                OID(block, view, 1),
                {"uptodate": index % 50 != 0, "owner": f"u{index % 7}"},
            )
    path = save_database(db, tmp_path / f"e10-{n_objects}.sqlite")
    return db, path


def timed(callable_, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("n_objects", [10_000, 50_000])
def test_e10_cold_open_lazy_vs_eager(n_objects, tmp_path, report_printer):
    db, path = build_sqlite(tmp_path, n_objects)

    eager_s, eager = timed(lambda: load_database(path)[0])
    assert eager.object_count == db.object_count

    lazy_s, lazy = timed(lambda: load_database(path, lazy=True)[0])
    assert lazy.object_count == db.object_count  # logical count, no fault
    resident = lazy.store.stats()["resident_objects"]

    report = ExperimentReport("E10", "lazy cold open")
    report.add_table(
        ["objects", "eager open (ms)", "lazy open (ms)", "speedup",
         "resident after open"],
        [(
            db.object_count,
            round(eager_s * 1e3, 2),
            round(lazy_s * 1e3, 2),
            round(eager_s / lazy_s, 1),
            resident,
        )],
    )
    report_printer(report)

    assert resident == 0
    # Acceptance: ≥5× at 10k (in practice it is orders of magnitude).
    assert eager_s >= 5 * lazy_s, (
        f"lazy open only {eager_s / lazy_s:.1f}x faster at {n_objects}"
    )


@pytest.mark.parametrize("n_objects", [10_000])
def test_e10_residency_bounded_by_window(n_objects, tmp_path, report_printer):
    db, path = build_sqlite(tmp_path, n_objects)
    lazy, _ = load_database(path, lazy=True)

    touched = 25
    for index in range(touched):
        lazy.get(OID(f"b{index * 7}", "rtl", 1))
    after_touch = lazy.store.stats()["resident_objects"]

    stale = stale_objects(lazy)
    assert [o.oid for o in stale] == [o.oid for o in stale_objects(db)]
    after_stale = lazy.store.stats()["resident_objects"]

    report = ExperimentReport("E10", "residency after windowed workload")
    report.add_table(
        ["objects", "touched shards", "resident after touch",
         "stale result", "resident after stale query"],
        [(db.object_count, touched, after_touch, len(stale), after_stale)],
    )
    report_printer(report)

    assert after_touch == touched  # one object per touched shard
    # stale query faults in only the result set, not the database
    assert after_stale <= after_touch + len(stale)
    assert after_stale < db.object_count / 10


@pytest.mark.parametrize("n_objects", [10_000])
def test_e10_lru_cap_bounds_clean_residency(n_objects, tmp_path, report_printer):
    _db, path = build_sqlite(tmp_path, n_objects)
    cap = 64
    lazy, _ = load_database(path, lazy=True, cache_lineages=cap)
    sweep = 500
    for index in range(sweep):
        lazy.get(OID(f"b{index}", "gate", 1))
    stats = lazy.store.stats()
    report = ExperimentReport("E10", "LRU window")
    report.add_table(
        ["swept shards", "cache_lineages", "resident lineages",
         "resident objects", "evictions"],
        [(sweep, cap, stats["resident_lineages"], stats["resident_objects"],
          stats["evictions"])],
    )
    report_printer(report)
    assert stats["resident_lineages"] <= cap
    assert stats["evictions"] >= sweep - cap


@pytest.mark.parametrize("n_objects", [10_000])
def test_e10_pushdown_query_benchmark(benchmark, n_objects, tmp_path):
    """pytest-benchmark measurement: the headline stale query answered
    by SQL pushdown over a cold lazy store."""
    _db, path = build_sqlite(tmp_path, n_objects)
    lazy, _ = load_database(path, lazy=True)
    result = benchmark(lambda: stale_objects(lazy))
    assert result  # the 1-in-50 stale sprinkling is non-empty

    plan = Query(lazy).where_property("owner", "u3").explain()
    assert plan.strategy in ("sql-pushdown", "index")
