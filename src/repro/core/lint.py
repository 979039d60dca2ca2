"""Static analysis ("lint") for blueprint rule files.

Blueprints are programs, and the 1995 failure mode is timeless: an event
is posted but nothing propagates it; a link propagates an event no view
handles; two views' templates form a propagation cycle; a continuous
assignment reads a property no rule ever writes.  The project
administrator finds these at 2 a.m. unless a linter finds them first.

Each finding has a stable code (``BP###``), a severity, and a location
string.  ``lint_blueprint`` returns findings sorted by severity then
code; the CLI's ``check`` command prints them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.core.blueprint import Blueprint
from repro.core.expressions import And, Compare, Expression, Literal, Not, Or
from repro.core.lang.ast import AssignAction, ExecAction, PostAction


class Severity(enum.Enum):
    ERROR = "error"      # the blueprint will not behave as written
    WARNING = "warning"  # very likely a mistake
    INFO = "info"        # worth a look

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One lint finding."""

    code: str
    severity: Severity
    location: str  # "view schematic" etc.
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.location}: {self.message}"


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


def lint_blueprint(blueprint: Blueprint) -> list[Finding]:
    """Run every check against a compiled blueprint."""
    findings: list[Finding] = []
    findings.extend(_check_compile_warnings(blueprint))
    findings.extend(_check_posted_events_propagate(blueprint))
    findings.extend(_check_propagated_events_handled(blueprint))
    findings.extend(_check_handled_events_reachable(blueprint))
    findings.extend(_check_template_cycles(blueprint))
    findings.extend(_check_let_inputs_written(blueprint))
    findings.extend(_check_assigned_properties_declared(blueprint))
    findings.extend(_check_exec_without_args(blueprint))
    findings.extend(_check_keyword_values(blueprint))
    findings.sort(key=lambda f: (_SEVERITY_ORDER[f.severity], f.code, f.location))
    return findings


def _check_compile_warnings(blueprint: Blueprint) -> list[Finding]:
    """Surface the compiler's structural warnings as findings."""
    return [
        Finding("BP001", Severity.WARNING, "blueprint", warning)
        for warning in blueprint.warnings
    ]


def _propagated_events(blueprint: Blueprint) -> set[str]:
    events: set[str] = set()
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        for template in view.link_templates:
            events |= set(template.propagates)
        if view.use_link is not None:
            events |= set(view.use_link.propagates)
    return events


def _posted_events(blueprint: Blueprint) -> dict[str, list[tuple[str, PostAction]]]:
    posted: dict[str, list[tuple[str, PostAction]]] = {}
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        for rules in view.rules.values():
            for rule in rules:
                for action in rule.actions:
                    if isinstance(action, PostAction):
                        posted.setdefault(action.event, []).append(
                            (view_name, action)
                        )
    return posted


def _handled_events(blueprint: Blueprint) -> set[str]:
    events: set[str] = set()
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        events |= view.events_handled()
    return events


def _check_posted_events_propagate(blueprint: Blueprint) -> list[Finding]:
    """A fan-out post of an event no link propagates reaches nothing."""
    findings = []
    propagated = _propagated_events(blueprint)
    for event, posts in _posted_events(blueprint).items():
        for view_name, action in posts:
            if action.to_view is None and event not in propagated:
                findings.append(
                    Finding(
                        "BP010",
                        Severity.WARNING,
                        f"view {view_name}",
                        f"'post {event} {action.direction}' fans out, but no "
                        f"link template propagates {event!r} — the post is "
                        f"a no-op",
                    )
                )
    return findings


def _check_propagated_events_handled(blueprint: Blueprint) -> list[Finding]:
    """An event carried by links but handled nowhere only burns cycles."""
    findings = []
    handled = _handled_events(blueprint)
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        templates = list(view.link_templates)
        if view.use_link is not None:
            templates.append(view.use_link)  # type: ignore[arg-type]
        for template in templates:
            for event in template.propagates:
                if event not in handled:
                    findings.append(
                        Finding(
                            "BP011",
                            Severity.INFO,
                            f"view {view_name}",
                            f"links propagate {event!r} but no view has a "
                            f"'when {event}' rule",
                        )
                    )
    return findings


def _check_handled_events_reachable(blueprint: Blueprint) -> list[Finding]:
    """A 'when E' rule for an event nothing posts or propagates is dead —
    unless E arrives from outside (wrappers), which we cannot know, so
    this is informational and skips conventional wrapper events."""
    conventional = {"ckin", "ckout", "delete", "release"}
    findings = []
    posted = set(_posted_events(blueprint))
    propagated = _propagated_events(blueprint)
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        for event in view.events_handled():
            if event in conventional:
                continue
            if event not in posted and event not in propagated:
                findings.append(
                    Finding(
                        "BP012",
                        Severity.INFO,
                        f"view {view_name}",
                        f"'when {event}' fires only if a wrapper posts "
                        f"{event!r} directly (no rule posts it, no link "
                        f"carries it)",
                    )
                )
    return findings


def _check_template_cycles(blueprint: Blueprint) -> list[Finding]:
    """Cycles in the view-level link-template graph.

    The engine's per-wave visited set makes cycles safe at run time, but
    a template cycle almost always means a view derives from itself
    transitively — worth flagging.
    """
    graph: dict[str, set[str]] = {}
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        for template in view.link_templates:
            graph.setdefault(template.from_view, set()).add(view_name)

    findings = []
    visiting: set[str] = set()
    done: set[str] = set()

    def walk(node: str, path: list[str]) -> None:
        if node in done:
            return
        if node in visiting:
            cycle = path[path.index(node):] + [node]
            findings.append(
                Finding(
                    "BP020",
                    Severity.WARNING,
                    "blueprint",
                    "link templates form a cycle: " + " -> ".join(cycle),
                )
            )
            return
        visiting.add(node)
        for successor in sorted(graph.get(node, ())):
            walk(successor, path + [node])
        visiting.discard(node)
        done.add(node)

    for node in sorted(graph):
        walk(node, [])
    return findings


def _writers_of(blueprint: Blueprint, view_name: str) -> set[str]:
    """Property names written by any rule or declared on the view."""
    view = blueprint.effective(view_name)
    assert view is not None
    written = {spec.name for spec in view.properties}
    for rules in view.rules.values():
        for rule in rules:
            for action in rule.actions:
                if isinstance(action, AssignAction):
                    written.add(action.name)
    written |= set(view.lets)  # lets write their own property
    return written


_BUILTIN_VARS = {
    "arg", "user", "date", "event", "oid", "OID",
    "block", "view", "version", "owner",
}


def _check_let_inputs_written(blueprint: Blueprint) -> list[Finding]:
    """A let reading a property nothing writes is stuck at its default."""
    findings = []
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        written = _writers_of(blueprint, view_name)
        for let_name, expr in view.lets.items():
            for variable in sorted(expr.variables() - _BUILTIN_VARS):
                if variable not in written:
                    findings.append(
                        Finding(
                            "BP030",
                            Severity.WARNING,
                            f"view {view_name}",
                            f"let {let_name} reads ${variable}, but no "
                            f"property or rule of this view writes it",
                        )
                    )
    return findings


def _check_assigned_properties_declared(blueprint: Blueprint) -> list[Finding]:
    """Assigning an undeclared property works but has no default — the
    value is undefined until the first event, which surprises queries."""
    findings = []
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        declared = {spec.name for spec in view.properties} | set(view.lets)
        for rules in view.rules.values():
            for rule in rules:
                for action in rule.actions:
                    if (
                        isinstance(action, AssignAction)
                        and action.name not in declared
                    ):
                        findings.append(
                            Finding(
                                "BP031",
                                Severity.INFO,
                                f"view {view_name}",
                                f"'when {rule.event}' assigns "
                                f"{action.name!r} which has no property "
                                f"declaration (no default value)",
                            )
                        )
    return findings


def _check_exec_without_args(blueprint: Blueprint) -> list[Finding]:
    """An exec without an $oid argument runs a tool with no target."""
    findings = []
    for view_name in blueprint.tracked_views():
        view = blueprint.effective(view_name)
        assert view is not None
        for rules in view.rules.values():
            for rule in rules:
                for action in rule.actions:
                    if isinstance(action, ExecAction) and not any(
                        "$oid" in arg.lower() for arg in action.args
                    ):
                        findings.append(
                            Finding(
                                "BP040",
                                Severity.INFO,
                                f"view {view_name}",
                                f"exec {action.script} passes no $oid/$OID "
                                f"argument; the wrapper must infer its "
                                f"target",
                            )
                        )
    return findings


#: Keywords that open or close a declaration.  The rule language reads
#: any other word where a value belongs as a bare-word literal
#: (``$state == done``), so when a value is missing the next
#: declaration's keyword becomes the value: ``let x = $a ==`` followed
#: by ``endview`` parses as ``x = ($a == "endview")``.
_STRUCTURAL_KEYWORDS = frozenset(
    {"endview", "view", "endblueprint", "when", "let", "property",
     "link_from", "use_link"}
)


def _check_keyword_values(blueprint: Blueprint) -> list[Finding]:
    """A bare-word value spelling a structural keyword means the value
    before it is missing."""
    findings = []
    for view in blueprint.declaration.views:
        expressions = [(f"let {let.name}", let.value) for let in view.lets]
        expressions += [
            (f"'when {rule.event}' assigns {action.name}", action.value)
            for rule in view.rules
            for action in rule.actions
            if isinstance(action, AssignAction)
        ]
        for where, expression in expressions:
            for word in _bare_words(expression):
                if word.lower() in _STRUCTURAL_KEYWORDS:
                    findings.append(
                        Finding(
                            "BP050",
                            Severity.ERROR,
                            f"view {view.name}",
                            f"{where} reads the keyword {word!r} as a "
                            f"value: the value before it is missing",
                        )
                    )
    return findings


def _bare_words(expression: Expression) -> Iterator[str]:
    """The unquoted string literals of *expression*."""
    if isinstance(expression, Literal):
        if not expression.quoted and isinstance(expression.value, str):
            yield expression.value
    elif isinstance(expression, Compare):
        yield from _bare_words(expression.left)
        yield from _bare_words(expression.right)
    elif isinstance(expression, (And, Or)):
        for item in expression.items:
            yield from _bare_words(item)
    elif isinstance(expression, Not):
        yield from _bare_words(expression.item)
