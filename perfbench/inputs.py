"""Seeded inputs for the project-server benchmark.

Everything a run needs is generated here, before any server starts:
the database file, the blueprint, the policy document, the journal tail
the server recovers at start-up, and the operation stream the client
sends.  The same ``(workload, seed, scale)`` always yields byte-identical
inputs; the project *shape* is the same for every seed, and the seed
picks targets, arguments, frozen blocks and the order of operations, so
the amount of work per run does not depend on the seed.

An operation is a tuple ``(kind, payload)``:

* ``("post", EventMessage)``, ``("batch", tuple[EventMessage, ...])``
* ``("query", OID)``, ``("stale", None)``, ``("pending", None)``
* ``("window", tuple[EventMessage, ...])`` -- independent posts sent as
  one pipelined window on the framed transport (``post_many``).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.events import EventMessage
from repro.core.policy import PolicyDocument
from repro.flows.asic import ASIC_BLUEPRINT, ASIC_VIEW_ORDER
from repro.metadb import save_database
from repro.metadb.database import MetaDatabase
from repro.metadb.links import Direction, LinkClass
from repro.metadb.oid import OID
from repro.network.wal import WriteAheadLog

TECH = OID("tech0", "tech_file", 1)

#: Views a check-in at block level regenerates, in flow order.
DERIVED_VIEWS = ASIC_VIEW_ORDER[1:]  # rtl .. gdsii

#: Tool wrappers reporting results: (view, event).
TOOL_EVENTS = (
    ("rtl", "lint"),
    ("gate_netlist", "synth"),
    ("gate_netlist", "sta"),
    ("routing", "route"),
    ("routing", "sta"),
    ("gdsii", "drc"),
)

#: Leaf check-ins: views late in the flow, so each wave is a handful of
#: deliveries.
LEAF_CKIN_VIEWS = ("placement", "routing", "gdsii")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the project it runs against."""

    name: str
    #: Fan-out per hierarchy level below the top block.
    fanouts: tuple[int, ...]
    transport: str  # damocles serve --transport
    journal: bool
    checkpoint_every: int | None
    lazy: bool
    #: Operations in the warm-up and measured phases at scale 1 (eco_wave
    #: runs fixed ECO schedules instead).
    warmup_ops: int = 0
    measured_ops: int = 0
    journal_tail: int = 0
    #: Posts per pipelined window on the framed transport; 0 sends one
    #: line-dialect request at a time.
    window: int = 0
    event_rules: bool = False
    frozen_share: float = 0.0

    def server_args(self) -> list[str]:
        args = ["--transport", self.transport]
        if self.checkpoint_every is not None:
            args += ["--checkpoint-every", str(self.checkpoint_every)]
        if self.lazy:
            args.append("--lazy")
        return args


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tool_flow",
            fanouts=(63,),
            transport="auto",
            journal=True,
            checkpoint_every=256,
            lazy=False,
            warmup_ops=2048,
            measured_ops=16384,
            journal_tail=512,
            window=16,
            event_rules=True,
            frozen_share=0.1,
        ),
        Workload(
            name="eco_wave",
            fanouts=(6, 6, 12),
            transport="lines",
            journal=True,
            checkpoint_every=1_000_000,
            lazy=False,
        ),
        Workload(
            name="stale_reads",
            fanouts=(6, 6, 12),
            transport="lines",
            journal=False,
            checkpoint_every=None,
            lazy=True,
            warmup_ops=2000,
            measured_ops=40000,
        ),
    )
}

#: ECO hierarchy levels of one measured schedule, in order (the seed
#: picks the blocks).  ``tech`` is the technology file.
ECO_SCHEDULE = (
    "subsystem", "leaf", "subsystem", "cluster", "subsystem", "top",
    "subsystem", "leaf", "subsystem", "cluster", "subsystem", "tech",
    "subsystem", "leaf", "subsystem", "cluster", "subsystem",
)
ECO_WARMUP = ("leaf", "cluster", "leaf", "cluster")


@dataclass
class Project:
    """The generated project: database plus its block hierarchy."""

    db: MetaDatabase
    levels: list[list[str]]
    parent: dict[str, str]

    @property
    def blocks(self) -> list[str]:
        return [block for level in self.levels for block in level]

    def subtree(self, block: str) -> list[str]:
        """*block* and every block below it, parents before children."""
        children: dict[str, list[str]] = {}
        for child, parent in self.parent.items():
            children.setdefault(parent, []).append(child)
        order, frontier = [], [block]
        while frontier:
            order.extend(frontier)
            frontier = [c for b in frontier for c in sorted(children.get(b, ()))]
        return order


def build_project(fanouts: tuple[int, ...], rng: random.Random, frozen_share: float) -> Project:
    """A hierarchical SoC: rtl use-links form a tree under ``top``.

    Objects are created under a blueprint engine so its auto-linking
    wires each block's pipeline (derive and depend-on links).
    """
    db = MetaDatabase(name="soc")
    BlueprintEngine(db, Blueprint.from_source(ASIC_BLUEPRINT))
    db.create_object(TECH)
    levels: list[list[str]] = [["top"]]
    parent: dict[str, str] = {}
    for depth, fanout in enumerate(fanouts, start=1):
        level = []
        for up in levels[-1]:
            for _ in range(fanout):
                block = f"b{depth}_{len(level):03d}"
                parent[block] = up
                level.append(block)
        levels.append(level)
    project = Project(db=db, levels=levels, parent=parent)
    blocks = project.blocks
    frozen = set(rng.sample(blocks, round(len(blocks) * frozen_share)))
    owners = ("alice", "bob", "carol", "dave")
    for block in blocks:
        owner = "frozen" if block in frozen else rng.choice(owners)
        for view in ASIC_VIEW_ORDER:
            # Set after creation: the blueprint's template applies the
            # view's defaults (owner = unassigned) as the object appears.
            db.create_object(OID(block, view, 1)).properties.set("owner", owner)
    for child, up in parent.items():
        db.add_link(OID(up, "rtl", 1), OID(child, "rtl", 1), LinkClass.USE)
    return project


@dataclass
class Inputs:
    workload: Workload
    seed: int
    db_path: Path
    blueprint_path: Path
    policy_path: Path | None
    journal_path: Path | None
    tail: list[EventMessage]
    warmup: list[tuple]
    measured: list[tuple]


def rebase(inputs: Inputs, old: Path, new: Path) -> Inputs:
    """The same inputs with their files under *new* instead of *old*."""

    def moved(path: Path | None) -> Path | None:
        return None if path is None else new / path.relative_to(old)

    return replace(
        inputs,
        db_path=moved(inputs.db_path),
        blueprint_path=moved(inputs.blueprint_path),
        policy_path=moved(inputs.policy_path),
        journal_path=moved(inputs.journal_path),
    )


def _event(name: str, target: OID, arg: str = "", user: str = "") -> EventMessage:
    return EventMessage(name=name, direction=Direction.DOWN, target=target, arg=arg, user=user)


def _tool_post(rng: random.Random, blocks: list[str], ckin_share: float) -> EventMessage:
    block = rng.choice(blocks)
    if rng.random() < ckin_share:
        return _event("ckin", OID(block, rng.choice(LEAF_CKIN_VIEWS), 1), user="designer")
    view, event = rng.choice(TOOL_EVENTS)
    arg = "good" if rng.random() < 0.8 else "bad"
    return _event(event, OID(block, view, 1), arg, user=f"wrapper-{event}")


class Zipf:
    """Seeded Zipf(s) sampler over a fixed population."""

    def __init__(self, population: list, s: float, rng: random.Random) -> None:
        self.population = list(population)
        rng.shuffle(self.population)
        weights = [1.0 / (rank ** s) for rank in range(1, len(self.population) + 1)]
        total = 0.0
        self.cdf = []
        for weight in weights:
            total += weight
            self.cdf.append(total)
        self.total = total

    def draw(self, rng: random.Random):
        return self.population[bisect.bisect_left(self.cdf, rng.random() * self.total)]


def _tool_flow_ops(project: Project, rng: random.Random, count: int, window: int) -> list[tuple]:
    """Pipelined windows of tool results, each followed by a wrapper's
    state checks (three point queries and one stale listing)."""
    blocks = project.blocks
    oids = list(project.db.oids())
    ops: list[tuple] = []
    for _ in range(count // window):
        ops.append(("window", tuple(_tool_post(rng, blocks, 0.12) for _ in range(window))))
        ops.extend(("query", rng.choice(oids)) for _ in range(3))
        ops.append(("stale", None))
    return ops


def _eco_ops(project: Project, rng: random.Random, schedule) -> list[tuple]:
    """ECO check-ins, each followed by one regeneration batch per block
    it invalidated (parents first) and a query of the regenerated result."""
    by_level = {
        "top": project.levels[0],
        "subsystem": project.levels[1],
        "cluster": project.levels[2],
        "leaf": project.levels[3],
    }
    ops: list[tuple] = []
    for level in schedule:
        if level == "tech":
            ops.append(("eco", _event("ckin", TECH, user="eco")))
            regenerate = [(block, DERIVED_VIEWS[1:]) for block in project.blocks]
        else:
            block = rng.choice(by_level[level])
            ops.append(("eco", _event("ckin", OID(block, "rtl", 1), user="eco")))
            regenerate = [(block, DERIVED_VIEWS[1:])] + [
                (child, DERIVED_VIEWS) for child in project.subtree(block)[1:]
            ]
        for block, views in regenerate:
            ops.append(("batch", tuple(_event("ckin", OID(block, view, 1), user="regen") for view in views)))
            ops.append(("query", OID(block, "gdsii", 1)))
    return ops


def _stale_reads_ops(project: Project, rng: random.Random, zipf: Zipf, count: int) -> list[tuple]:
    """Zipf point queries plus stale listings, an occasional pending
    scan, and about one write in twenty."""
    blocks = project.blocks
    ops: list[tuple] = []
    for index in range(count):
        if index % 1000 == 999:
            ops.append(("pending", None))
            continue
        roll = rng.random()
        if roll < 0.05:
            ops.append(("post", _tool_post(rng, blocks, 0.3)))
        elif roll < 0.12:
            ops.append(("stale", None))
        else:
            ops.append(("query", zipf.draw(rng)))
    return ops


def generate(name: str, seed: int, workdir: Path, scale: float = 1.0, smoke: bool = False) -> Inputs:
    """Write the workload's input files under *workdir* and return the
    operation streams.  *scale* multiplies the operation counts; *smoke*
    also shrinks the project to a few dozen blocks."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    fanouts = workload.fanouts
    if smoke:
        fanouts = (7,) if len(fanouts) == 1 else (2, 2, 3)
    project = build_project(fanouts, rng, workload.frozen_share)
    workdir.mkdir(parents=True, exist_ok=True)
    db_path = workdir / "project.sqlite"
    save_database(project.db, db_path)
    blueprint_path = workdir / "flow.bp"
    blueprint_path.write_text(ASIC_BLUEPRINT)
    blueprint = Blueprint.from_source(ASIC_BLUEPRINT)
    policy_path = None
    if workload.journal:
        # Event rules gate admission on tool_flow; eco_wave's document
        # carries only a tool-permission rule, so the gate finds nothing.
        rules = [("signoff", "$uptodate == true", "gdsii")]
        if workload.event_rules:
            rules.append(("event:*", "$owner != frozen", ""))
        policy_path = workdir / "policy.json"
        PolicyDocument.initial(blueprint, tuple(rules)).save(policy_path)

    def ops_count(base: int) -> int:
        return max(64, int(base * scale)) if not smoke else 256

    blocks = project.blocks
    tail: list[EventMessage] = []
    journal_path = None
    if workload.journal:
        journal_path = workdir / "journal"
        if workload.journal_tail:
            size = workload.journal_tail if not smoke else 32
            tail = [_tool_post(rng, blocks, 0.12) for _ in range(size)]
            wal = WriteAheadLog(journal_path)
            for event in tail:
                wal.append_event(event, sync=False)
            wal.sync(wal.last_seq)
            wal.close()
    if name == "tool_flow":
        warmup = _tool_flow_ops(project, rng, ops_count(workload.warmup_ops), workload.window)
        measured = _tool_flow_ops(project, rng, ops_count(workload.measured_ops), workload.window)
    elif name == "eco_wave":
        warmup = _eco_ops(project, rng, ECO_WARMUP)
        schedule = ECO_SCHEDULE if not smoke else ("leaf", "cluster", "top", "tech")
        repeats = max(1, round(scale)) if not smoke else 1
        measured = []
        for _ in range(repeats):
            measured += _eco_ops(project, rng, schedule)
    else:
        # One popularity ranking for both phases: the warm-up heats the
        # same objects the measured phase asks about most.
        zipf = Zipf(list(project.db.oids()), 1.1, rng)
        warmup = _stale_reads_ops(project, rng, zipf, ops_count(workload.warmup_ops))
        measured = _stale_reads_ops(project, rng, zipf, ops_count(workload.measured_ops))
    return Inputs(
        workload=workload,
        seed=seed,
        db_path=db_path,
        blueprint_path=blueprint_path,
        policy_path=policy_path,
        journal_path=journal_path,
        tail=tail,
        warmup=warmup,
        measured=measured,
    )

