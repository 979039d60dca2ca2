"""Project-server benchmark: one command per workload run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tool_flow --seed 1 --seconds 15 --trace 0

The run generates the workload's inputs from the seed, replays them into
an in-process twin (the correctness oracle), starts the real server as
its own process the way ``damocles serve`` runs, drives the operation
stream through one request connection while a second connection
subscribes, checks every answer, and prints one JSON object as its last
line of output.  Timings are scaled to a reference host speed that a
probe loop gauges between the chunks of the measured phase (see
``perfbench/README.md``, "Host speed").  ``--trace 0`` reports the
end-to-end metrics;
``--trace 1`` runs the stream twice -- untraced, then on a server whose
layers are wrapped in span recorders -- and reports the per-layer
metrics.  Each run appends its raw record to
``.perfbench/runs.jsonl``; ``perfbench/summarize.py`` turns those into
medians, quartiles and spreads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Server starts per run for ``setup_s`` (the median is reported).
SETUPS = 5

#: The measured phase is split into this many chunks of operations,
#: with a host probe between each two (see :meth:`Pass._boundary`).
CHUNKS = 40

#: Host speed every timing is scaled to: the time, in ms, the probe
#: loop takes on an uncontended core of the host the benchmark was
#: written on (see :func:`host_probe`).
REFERENCE_PROBE_MS = 8.0


def quantiles(values: list[float]) -> dict[str, float]:
    """First quartile, median, third quartile and 99th percentile."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"q1": value, "p50": value, "q3": value, "p99": value}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {"q1": cuts[24], "p50": cuts[49], "q3": cuts[74], "p99": cuts[98]}


def median(values: list[float]) -> float:
    """The median, or 0.0 for a run that ended before producing any."""
    return statistics.median(values) if values else 0.0


def host_probe() -> float:
    """Milliseconds a fixed pure-Python loop of 100,000 steps takes: a
    gauge of how fast the host runs Python right now.  The median of
    three rounds of a third of the loop each, times three."""
    rounds = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(33_333):
            total += value * value % 7
        rounds.append(time.perf_counter() - started)
    return statistics.median(rounds) * 3000.0


def pin_to_one_cpu() -> int:
    """Run this process, and the servers it starts, on one CPU.

    Client and server then never compete for the cores of one host at
    the same time, and the probe gauges the very CPU the server runs
    on.  Every loop is closed, so they seldom have work at once anyway.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


class Phase:
    """Attempted / succeeded / failed counts per operation kind."""

    def __init__(self) -> None:
        self.counts: dict[str, list[int]] = {}

    def note(self, kind: str, ok: bool) -> None:
        entry = self.counts.setdefault(kind, [0, 0, 0])
        entry[0] += 1
        entry[1 if ok else 2] += 1


def to_command(kind: str, payload):
    from repro.network.protocol import Command

    if kind in ("post", "eco"):
        return Command(kind="post", event=payload)
    if kind == "batch":
        return Command(kind="batch", events=tuple(payload))
    if kind == "query":
        return Command(kind="query", oid=payload)
    return Command(kind=kind)


class Pass:
    """One server lifetime driven through the warm-up and measured ops."""

    def __init__(self, inputs, oracle, frames: bool) -> None:
        self.inputs = inputs
        self.oracle = oracle
        self.frames = frames
        self.phases = {"warmup": Phase(), "measured": Phase(), "checks": Phase()}
        # Marks, host factor and latencies of each measured chunk.
        self.chunks: list[dict] = []
        self.acked = 0
        self.probes: list[float] = []
        self.problems: list[str] = []

    def run(self, server) -> dict:
        from client import Client, PushTracker, RunFailure

        tracker = PushTracker()
        plans = []
        for phase, ops, expected in (
            ("warmup", self.inputs.warmup, self.oracle.warmup),
            ("measured", self.inputs.measured, self.oracle.measured),
        ):
            for op, exp in zip(ops, expected):
                groups = [tracker.add(t, phase == "measured") for t in exp.groups]
                plans.append((phase, op, exp, groups))
        client = Client(server.port, self.frames, tracker)
        chunk = max(1, len(self.inputs.measured) // CHUNKS)
        window = after = {}
        try:
            start_status = client.counters("status")
            measured_index = 0
            for phase, op, exp, groups in plans:
                if phase == "measured":
                    if not window:
                        window = self._mark(client, server)
                    if measured_index % chunk == 0:
                        self._boundary(server, last=False)
                    measured_index += 1
                try:
                    self._execute(client, phase, op, exp, groups)
                except RunFailure as exc:
                    # A timeout or a transport error fails the request
                    # and ends the run; what completed is still reported.
                    self.phases[phase].note(op[0], False)
                    self.problems.append(f"{phase} {op[0]}: {exc}")
                    break
            else:
                self._boundary(server, last=True)
                after = self._mark(client, server)
                client.settle()
                self._checks(client, tracker, start_status)
            rss = server.peak_rss_mb()
        finally:
            client.close()
        if not after:
            self.phases["checks"].note("completed", False)
        chunks = [c for c in self.chunks if "t1" in c]
        starts = [c["t0"] for c in chunks]

        def factor_at(at: float) -> float:
            index = max(0, bisect.bisect_right(starts, at) - 1)
            return chunks[index]["factor"] if chunks else 1.0

        # Per write call (a pipelined window is one call of many
        # waves): send to the arrival of the last STALE push of its waves.
        visible = []
        for phase, _op, _exp, groups in plans:
            waves = [group for group in groups if group.stale_total]
            if phase == "measured" and waves and not any(group.remaining for group in waves):
                sent = waves[0].sent_at
                last = max(group.last_stale_at for group in waves)
                visible.append(((last - sent) * 1000.0, factor_at(sent)))
        rates = [(c["acked1"] - c["acked0"]) / (c["t1"] - c["t0"]) for c in chunks]
        acked = max(1, sum(c["acked1"] - c["acked0"] for c in chunks))
        timed_s = sum(c["t1"] - c["t0"] for c in chunks)
        scaled_s = sum((c["t1"] - c["t0"]) / c["factor"] for c in chunks)
        return {
            "t0": window.get("t", 0.0),
            "t1": after.get("t", 0.0),
            # Each chunk's time is scaled by the host speed the probes on
            # either side of it saw, so a slow host, or a slow spell of
            # it, moves these figures little.  Throughput and CPU are
            # taken over the whole phase (chunks differ in content, and
            # /proc counts CPU time in clock ticks); write and read
            # latencies are medians over the chunks of each chunk's
            # median, stale_visible_ms a median over write calls.
            "ops_per_s": acked / scaled_s if scaled_s else 0.0,
            "server_cpu_ms_per_op": sum((c["cpu1"] - c["cpu0"]) * 1000.0 / c["factor"] for c in chunks)
            / acked,
            "write_p50_ms": median([median(c["writes"]) / c["factor"] for c in chunks if c["writes"]]),
            "read_p50_ms": median([median(c["reads"]) / c["factor"] for c in chunks if c["reads"]]),
            "stale_visible_ms": median([value / factor for value, factor in visible]),
            "visible_ms": [value for value, _ in visible],
            # The same figures as timed, unscaled.
            "raw": {
                "ops_per_s": acked / timed_s if timed_s else 0.0,
                "server_cpu_ms_per_op": sum(c["cpu1"] - c["cpu0"] for c in chunks) * 1000.0 / acked,
                "write_p50_ms": median([median(c["writes"]) for c in chunks if c["writes"]]),
                "read_p50_ms": median([median(c["reads"]) for c in chunks if c["reads"]]),
                "stale_visible_ms": median([value for value, _ in visible]),
            },
            "host_probe_ms": self.probes,
            "chunk_ops_per_s": rates,
            "acked": self.acked,
            "server_cpu_s": after["cpu"] - window["cpu"] if after else 0.0,
            "writes_ms": [value for c in chunks for value in c["writes"]],
            "reads_ms": [value for c in chunks for value in c["reads"]],
            "driver_cpu_util": (
                (after["self_cpu"] - window["self_cpu"]) / (after["t"] - window["t"]) if after else 0.0
            ),
            "server_rss_mb": rss,
            "status": (window.get("status", {}), after.get("status", {})),
            "health": (window.get("health", {}), after.get("health", {})),
            "resyncs": tracker.resyncs,
            "pushes_measured": sum(group.total for group in tracker.groups if group.measured),
            "phases": {name: phase.counts for name, phase in self.phases.items()},
            "problems": self.problems[:20],
        }

    def _boundary(self, server, last: bool) -> None:
        """Close the open chunk, probe the host, open the next chunk.

        The probe runs between the two marks, so no chunk's time
        includes it.  A chunk's host factor is the mean of the probes
        on either side of it over :data:`REFERENCE_PROBE_MS`.
        """
        if self.chunks:
            open_chunk = self.chunks[-1]
            open_chunk.update(t1=time.perf_counter(), cpu1=server.cpu_s(), acked1=self.acked)
        probe = host_probe()
        self.probes.append(probe)
        if self.chunks:
            open_chunk = self.chunks[-1]
            open_chunk["factor"] = (open_chunk["probe0"] + probe) / 2.0 / REFERENCE_PROBE_MS
        if not last:
            self.chunks.append(
                {
                    "t0": time.perf_counter(),
                    "cpu0": server.cpu_s(),
                    "acked0": self.acked,
                    "probe0": probe,
                    "writes": [],
                    "reads": [],
                }
            )

    @staticmethod
    def _mark(client, server) -> dict:
        status = client.counters("status")
        health = client.counters("health")
        times = os.times()
        return {
            "t": time.perf_counter(),
            "cpu": server.cpu_s(),
            "self_cpu": times.user + times.system,
            "status": status,
            "health": health,
        }

    def _check(self, phase: str, kind: str, got: str, want: str) -> None:
        ok = got == want
        self.phases[phase].note(kind, ok)
        if not ok:
            self.problems.append(f"{phase} {kind}: got {got[:120]!r} want {want[:120]!r}")

    def _execute(self, client, phase: str, op: tuple, exp, groups) -> None:
        kind, payload = op
        measured = phase == "measured"
        if kind == "window":
            commands = [to_command("post", event) for event in payload]
            ids, sent = client.send_window(commands)
            for group in groups:
                group.sent_at = sent
            acked = client.wait_tagged(set(ids))
            for request_id, want in zip(ids, exp.responses):
                self._check(phase, "post", client.tagged.pop(request_id), want)
            if measured:
                self.chunks[-1]["writes"].append((acked - sent) * 1000.0)
                self.acked += len(ids)
            return
        command = to_command(kind, payload)
        # Pushes can beat the reply: stamp the groups before sending.
        sent = time.perf_counter()
        for group in groups:
            group.sent_at = sent
        response = client.request(command)
        acked = time.perf_counter()
        self._check(phase, kind, response, exp.responses[0])
        if not self.frames:
            # An event-driven designer client: the next request goes out
            # once the pushes this write caused have arrived.
            for group in groups:
                client.wait_group(group)
        if measured:
            self.acked += 1
            latency = (acked - sent) * 1000.0
            self.chunks[-1]["writes" if kind in ("post", "eco", "batch") else "reads"].append(latency)

    def _checks(self, client, tracker, start_status) -> None:
        from repro.network.protocol import Command, format_stale_response

        want_stale = format_stale_response(list(self.oracle.final))
        self._check("checks", "stale_answer", client.request(Command(kind="stale")), want_stale)
        folded = format_stale_response(list(tracker.view))
        self._check("checks", "push_fold", folded, want_stale)
        end = client.counters("status")
        deltas = {key: end[key] - start_status[key] for key in ("events_posted", "deliveries")}
        self._check("checks", "counters", json.dumps(deltas, sort_keys=True), json.dumps(self.oracle.counts, sort_keys=True))
        stream_ok = not tracker.mismatches
        self.phases["checks"].note("push_stream", stream_ok)
        if not stream_ok:
            self.problems.extend(tracker.mismatches[:5])


def run_workload(args, root: Path) -> dict:
    import inputs as inputs_mod
    from repro.metadb.oid import OID
    from server import Server
    from twin import predict

    workload = inputs_mod.WORKLOADS[args.workload]
    scale = args.seconds / 10.0
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    pristine = work / "inputs"
    try:
        inputs = inputs_mod.generate(args.workload, args.seed, pristine, scale=scale, smoke=args.smoke)
        oracle = predict(inputs)
        if args.corrupt_oracle:
            # Self-check: one wrong expected OID must fail the run.
            if oracle.final:
                oracle.final.discard(min(oracle.final, key=lambda oid: oid.sort_key()))
            else:
                oracle.final.add(OID("nowhere", "rtl", 1))

        def fresh(label: str):
            run_dir = work / label
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.copytree(pristine, run_dir)
            return inputs_mod.rebase(inputs, pristine, run_dir), run_dir

        setups = []  # (seconds as timed, host probe just before)
        for index in range(SETUPS):
            run_inputs, run_dir = fresh(f"setup{index}")
            server = Server(root / "src", run_inputs, run_dir)
            probe = host_probe()
            try:
                setups.append((server.start(), probe))
            finally:
                if index < SETUPS - 1:
                    server.kill()
            if index < SETUPS - 1:
                shutil.rmtree(run_dir, ignore_errors=True)
        frames = workload.window > 0
        passes = []
        try:
            passes.append(Pass(inputs, oracle, frames).run(server))
        finally:
            exit_code = server.stop()
        if exit_code != 0:
            raise RuntimeError(f"server exited with {exit_code}: {server.output[-3:]}")
        traced = None
        if args.trace:
            run_inputs, run_dir = fresh("traced")
            spans = run_dir / "spans.json"
            tserver = Server(root / "src", run_inputs, run_dir, spans=spans)
            tserver.start()
            try:
                traced_pass = Pass(inputs, oracle, frames).run(tserver)
            finally:
                code = tserver.stop()
            if code != 0:
                raise RuntimeError(f"traced server exited with {code}: {tserver.output[-3:]}")
            import spans as spans_mod

            traced = (traced_pass, spans_mod.load(spans))
            passes.append(traced_pass)
        return summarize_run(args, workload, setups, passes[0], traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize_run(args, workload, setups, main_pass, traced) -> dict:
    import spans as spans_mod

    passes = [main_pass] + ([traced[0]] if traced else [])
    attempted = failed = 0
    for result in passes:
        for phase in result["phases"].values():
            for entry in phase.values():
                attempted += entry[0]
                failed += entry[2]
    correct = failed == 0
    e2e = {
        "setup_s": (statistics.median([t * REFERENCE_PROBE_MS / probe for t, probe in setups]), "s"),
        "ops_per_s": (main_pass["ops_per_s"], "1/s"),
        "write_p50_ms": (main_pass["write_p50_ms"], "ms"),
        "stale_visible_ms": (main_pass["stale_visible_ms"], "ms"),
        "server_cpu_ms_per_op": (main_pass["server_cpu_ms_per_op"], "ms"),
        "server_rss_mb": (main_pass["server_rss_mb"], "MB"),
    }
    layers = spans_mod.counter_metrics(main_pass, failed / max(1, attempted))
    if traced:
        layers.update(spans_mod.span_metrics(traced[0], traced[1], main_pass))
    metrics = layers if args.trace else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_fingerprint(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {name: value for name, (value, _unit) in e2e.items()},
        # Timings as measured, before scaling to the reference host speed.
        "unscaled": dict(main_pass["raw"], setup_s=statistics.median([t for t, _ in setups])),
        # Latency quartiles and tails of this run, in ms as timed.  The p99s are
        # recorded but not bounded: on a shared 2-core host their
        # run-to-run spread exceeds any bound the benchmark allows.
        "latency_ms": {
            "write": quantiles(main_pass["writes_ms"]),
            "read": quantiles(main_pass["reads_ms"]),
            "stale_visible": quantiles(main_pass["visible_ms"]),
        },
        "per_layer": {name: value for name, (value, _unit) in layers.items()},
        "samples": {
            "writes": len(main_pass["writes_ms"]),
            "reads": len(main_pass["reads_ms"]),
            "stale_visible": len(main_pass["visible_ms"]),
            "setups": len(setups),
        },
        "setups_s": [t for t, _ in setups],
        "setup_probes_ms": [probe for _, probe in setups],
        "chunk_ops_per_s": main_pass["chunk_ops_per_s"],
        "host_probe_ms": main_pass["host_probe_ms"],
        "phases": [result["phases"] for result in passes],
        "problems": [problem for result in passes for problem in result["problems"]][:20],
    }
    return {
        "record": record,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny project, few operations")
    parser.add_argument("--corrupt-oracle", action="store_true", help="self-check: corrupt one expected OID")
    args = parser.parse_args(argv)
    # A shell that starts this run in the background ignores SIGINT, and
    # an ignored signal stays ignored across exec.  The server stops (and
    # saves) on SIGINT, so its handler must be installed, not inherited.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    pin_to_one_cpu()
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import inputs as inputs_mod

    if args.workload not in inputs_mod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    outcome = run_workload(args, root)
    runs = root / ".perfbench" / "runs.jsonl"
    runs.parent.mkdir(parents=True, exist_ok=True)
    with runs.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(outcome["record"]) + "\n")
    for problem in outcome["record"]["problems"]:
        print(f"perfbench: {problem}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
