"""The engine trace: its text, its bound and its off switch.

Records keep the detail's inputs and format them when read; the text
below was produced by the string-building trace the ring replaced, so
every record kind must still read exactly so.
"""

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine, TraceRecord
from repro.metadb.database import MetaDatabase
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID

SOURCE = """\
blueprint trace
view src
  property x default start
  property n default 0
  let big = $n >= 2
  when kick do x = "it's"; n = 2.5; post pulse down; post pulse down to dst; post pulse up to ghost done
  when build do exec netlister "$oid" "a b" "q'x"; notify "$user: check $oid" done
  when fail do exec broken "$arg" done
endview
view dst
  property got default no
  when pulse do got = true done
endview
endblueprint
"""


def _executor(request):
    if request.script == "broken":
        raise RuntimeError("tool crashed")


def run_scenario(trace_limit=10_000):
    """Drive one wave of every record kind (two aborts included)."""
    db = MetaDatabase()
    engine = BlueprintEngine(
        db,
        Blueprint.from_source(SOURCE),
        executor=_executor,
        trace_limit=trace_limit,
        max_wave_deliveries=6,
    )
    src = db.create_object(OID("cpu", "src", 1)).oid
    dst = db.create_object(OID("cpu", "dst", 1)).oid
    other = db.create_object(OID("cpu", "other", 1)).oid
    db.add_link(src, dst, LinkClass.DERIVE, propagates=["pulse", "kick"])
    engine.post("kick", src, "down", arg="go", user="yves")
    engine.run()
    engine.post("build", src, "up", user="yves")
    engine.post("fail", src, "up", arg="now")
    engine.post("ping", other, "down")
    engine.post("ping", OID("ghost", "src", 9), "down")
    engine.run()
    chain = [db.create_object(OID(f"n{i}", "dst", 1)).oid for i in range(8)]
    for left, right in zip(chain, chain[1:]):
        db.add_link(left, right, LinkClass.DERIVE, propagates=["wave"])
    engine.post("wave", chain[0], "down")
    engine.run()
    return engine


EXPECTED = [
    '[    1] deliver   cpu.src.1                    kick         go',
    '[    2] assign    cpu.src.1                    kick         x = "it\'s"',
    '[    3] assign    cpu.src.1                    kick         n = 2.5',
    '[    4] let       cpu.src.1                    kick         big = True',
    '[    5] post      cpu.src.1                    pulse        down (fan-out)',
    '[    6] post      cpu.dst.1                    pulse        to view dst',
    '[    7] post      cpu.src.1                    pulse        to ghost: no target found',
    '[    8] propagate cpu.dst.1                    kick         via link 1 from cpu.src.1',
    '[    9] origin    cpu.src.1                    pulse        propagate-only',
    '[   10] propagate cpu.dst.1                    pulse        via link 1 from cpu.src.1',
    '[   11] deliver   cpu.dst.1                    pulse        ',
    '[   12] assign    cpu.dst.1                    pulse        got = True',
    '[   13] deliver   cpu.dst.1                    kick         go',
    '[   14] deliver   cpu.src.1                    build        ',
    '[   15] let       cpu.src.1                    build        big = True',
    '[   16] exec      cpu.src.1                    build        netlister cpu.src.1 \'a b\' \'q\'"\'"\'x\'',
    '[   17] notify    cpu.src.1                    build        yves: check cpu.src.1',
    '[   18] deliver   cpu.src.1                    fail         now',
    '[   19] let       cpu.src.1                    fail         big = True',
    '[   20] exec      cpu.src.1                    fail         broken now',
    '[   21] execfail  cpu.src.1                    fail         broken: tool crashed',
    "[   22] skip      cpu.other.1                  ping         view 'other' untracked",
    '[   23] skip      ghost.src.9                  ping         unknown target OID',
    '[   24] deliver   n0.dst.1                     wave         ',
    '[   25] propagate n1.dst.1                     wave         via link 2 from n0.dst.1',
    '[   26] deliver   n1.dst.1                     wave         ',
    '[   27] propagate n2.dst.1                     wave         via link 3 from n1.dst.1',
    '[   28] deliver   n2.dst.1                     wave         ',
    '[   29] propagate n3.dst.1                     wave         via link 4 from n2.dst.1',
    '[   30] deliver   n3.dst.1                     wave         ',
    '[   31] propagate n4.dst.1                     wave         via link 5 from n3.dst.1',
    '[   32] deliver   n4.dst.1                     wave         ',
    '[   33] propagate n5.dst.1                     wave         via link 6 from n4.dst.1',
    '[   34] deliver   n5.dst.1                     wave         ',
    '[   35] propagate n6.dst.1                     wave         via link 7 from n5.dst.1',
    '[   36] abort     -                            wave         wave for wave down n0,dst,1 exceeded 6 deliveries; aborting (check PROPAGATE lists for storms)',
]


class TestTraceText:
    def test_every_kind_reads_as_before(self):
        engine = run_scenario()
        assert engine.trace_text() == "\n".join(EXPECTED)
        assert {record.kind for record in engine.trace} == {
            "deliver", "assign", "let", "propagate", "post", "exec",
            "execfail", "notify", "skip", "origin", "abort",
        }

    def test_records_read_as_trace_records(self):
        engine = run_scenario()
        records = list(engine.trace)
        assert all(isinstance(record, TraceRecord) for record in records)
        assert [str(record) for record in records] == EXPECTED
        hop = next(record for record in records if record.kind == "propagate")
        assert (hop.seq, hop.oid, hop.event) == (8, OID("cpu", "dst", 1), "kick")
        assert hop.detail == "via link 1 from cpu.src.1"

    @pytest.mark.parametrize("last", [None, 0, 1, 3, 100])
    def test_last_slices_the_text(self, last):
        engine = run_scenario()
        expected = EXPECTED if last is None else EXPECTED[len(EXPECTED) - last :]
        assert engine.trace_text(last=last) == "\n".join(expected)


class TestTraceBound:
    def test_limit_keeps_the_newest_records(self):
        engine = run_scenario(trace_limit=5)
        assert len(engine.trace) == 5
        assert engine.trace_text() == "\n".join(EXPECTED[-5:])

    @pytest.mark.parametrize("limit", [0, -1])
    def test_zero_or_less_records_nothing(self, limit):
        engine = run_scenario(trace_limit=limit)
        assert len(engine.trace) == 0
        assert engine.trace_text() == ""
