"""The damocles command-line front end."""

import pytest

from repro.cli import main
from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.journal import Journal, attach_journal
from repro.flows.edtc import EDTC_BLUEPRINT
from repro.flows.generators import chain_blueprint_source
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database


@pytest.fixture
def blueprint_file(tmp_path):
    path = tmp_path / "flow.bp"
    path.write_text(EDTC_BLUEPRINT)
    return str(path)


@pytest.fixture
def database_file(tmp_path):
    blueprint = Blueprint.from_source(chain_blueprint_source(3))
    db = MetaDatabase(name="cli")
    engine = BlueprintEngine(db, blueprint)
    for index in range(3):
        db.create_object(OID("core", f"v{index}", 1))
    db.create_object(OID("core", "v0", 2))
    engine.post("ckin", OID("core", "v0", 2), "up")
    engine.run()
    path = tmp_path / "db.json"
    save_database(db, path)
    chain_path = tmp_path / "chain.bp"
    chain_path.write_text(chain_blueprint_source(3))
    return str(path), str(chain_path)


class TestCheck:
    def test_clean_blueprint(self, blueprint_file, capsys):
        assert main(["check", blueprint_file]) == 0
        out = capsys.readouterr().out
        assert "EDTC_example" in out
        assert "0 error(s)" in out

    def test_syntax_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.bp"
        bad.write_text("view oops property broken")
        assert main(["check", str(bad)]) == 1
        assert "syntax error" in capsys.readouterr().out

    def test_malformed_number_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "rev.bp"
        path.write_text("view a when touch do rev = 1.2.3 done endview")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "syntax error" in out
        assert "malformed number '1.2.3'" in out

    def test_missing_value_before_keyword_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "swallow.bp"
        path.write_text("view v\n  let x = $a ==\nendview\n")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "BP050 [error] view v: let x reads the keyword 'endview'" in out
        assert "1 error(s)" in out

    def test_lint_findings_printed(self, tmp_path, capsys):
        path = tmp_path / "warn.bp"
        path.write_text(
            "blueprint w view a when go do post ghost down done endview "
            "endblueprint"
        )
        main(["check", str(path)])
        assert "BP010" in capsys.readouterr().out


class TestFormat:
    def test_stdout(self, blueprint_file, capsys):
        assert main(["format", blueprint_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("blueprint EDTC_example")

    def test_in_place(self, tmp_path, capsys):
        path = tmp_path / "messy.bp"
        path.write_text("view   a   property p default   x endview")
        assert main(["format", str(path), "--in-place"]) == 0
        assert "property p default x" in path.read_text()

    def test_format_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.bp"
        path.write_text("when done view")
        assert main(["format", str(path)]) == 1


class TestViewsAndDot:
    def test_views(self, blueprint_file, capsys):
        assert main(["views", blueprint_file]) == 0
        assert "[schematic]" in capsys.readouterr().out

    def test_dot(self, blueprint_file, capsys):
        assert main(["dot", blueprint_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestDatabaseCommands:
    def test_status(self, database_file, capsys):
        db_path, bp_path = database_file
        assert main(["status", db_path, bp_path]) == 0
        assert "up_to_date" in capsys.readouterr().out

    def test_pending_nonzero_when_work_exists(self, database_file, capsys):
        db_path, bp_path = database_file
        assert main(["pending", db_path, bp_path]) == 1
        assert "core.v1.1" in capsys.readouterr().out

    def test_query(self, database_file, capsys):
        db_path, _bp_path = database_file
        assert main(["query", db_path, "core,v1,1"]) == 0
        assert "uptodate = false" in capsys.readouterr().out

    def test_query_unknown(self, database_file, capsys):
        db_path, _bp_path = database_file
        assert main(["query", db_path, "zz,v,1"]) == 1

    def test_find_malformed_number_is_a_bad_expression(self, database_file, capsys):
        db_path, _bp_path = database_file
        assert main(["find", db_path, "$x == 1.2.3"]) == 2
        assert "bad expression" in capsys.readouterr().out

    def test_dashboard(self, database_file, tmp_path, capsys):
        db_path, bp_path = database_file
        out = tmp_path / "dash.html"
        assert main(["dashboard", db_path, bp_path, str(out)]) == 0
        assert out.exists()


class TestReplayCommand:
    def test_replay_rebuilds_database(self, tmp_path, capsys):
        blueprint_source = chain_blueprint_source(3)
        bp_path = tmp_path / "chain.bp"
        bp_path.write_text(blueprint_source)

        blueprint = Blueprint.from_source(blueprint_source)
        db = MetaDatabase()
        engine = BlueprintEngine(db, blueprint)
        journal = attach_journal(engine, Journal())
        for index in range(3):
            db.create_object(OID("core", f"v{index}", 1))
        engine.post("ckin", OID("core", "v0", 1), "up")
        engine.run()
        journal_path = journal.save(tmp_path / "events.jsonl")

        out_path = tmp_path / "rebuilt.json"
        assert main(
            ["replay", str(journal_path), str(bp_path), str(out_path)]
        ) == 0
        from repro.metadb.persistence import load_database

        rebuilt, _ = load_database(out_path)
        assert rebuilt.object_count == 3
        assert rebuilt.get(OID("core", "v1", 1)).get("uptodate") is False


class TestConvert:
    """``damocles convert``: the output suffix alone picks the format."""

    def test_json_to_sqlite_to_json_keeps_state(self, database_file, tmp_path, capsys):
        from repro.core.journal import state_fingerprint

        json_path, _bp = database_file
        original = state_fingerprint(load_database(json_path)[0])
        sqlite_path = str(tmp_path / "converted.db")
        back_path = str(tmp_path / "back.json")
        assert main(["convert", json_path, sqlite_path]) == 0
        with open(sqlite_path, "rb") as handle:
            assert handle.read(16) == b"SQLite format 3\0"
        assert state_fingerprint(load_database(sqlite_path)[0]) == original
        assert main(["convert", sqlite_path, back_path]) == 0
        assert state_fingerprint(load_database(back_path)[0]) == original
        assert "converted" in capsys.readouterr().out

    def test_unknown_suffix_writes_json(self, database_file, tmp_path):
        import json

        json_path, _bp = database_file
        out_path = tmp_path / "project.meta"
        assert main(["convert", json_path, str(out_path)]) == 0
        assert json.loads(out_path.read_text())["name"] == "cli"


class TestServe:
    def _free_port(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_serve_answers_clients(self, database_file, capsys):
        import threading

        from repro.network.client import BlueprintClient
        from repro.network.server import wait_for_port

        db_path, chain_path = database_file
        port = self._free_port()
        result: list[int] = []

        def run_server():
            result.append(
                main(
                    [
                        "serve",
                        db_path,
                        chain_path,
                        "--port",
                        str(port),
                        "--serve-seconds",
                        "8",
                    ]
                )
            )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert wait_for_port("127.0.0.1", port, timeout=5)
        client = BlueprintClient(host="127.0.0.1", port=port)
        assert client.ping() is True
        assert client.status()["objects"] == 4
        stale = client.stale()
        assert stale  # the ckin wave left downstream views stale
        with client.subscribe() as sub:
            client.post_event("ckin", stale[0].wire(), "up")
            assert sub.next(timeout=5.0).verb == "FRESH"
        from repro import cli

        cli.stop_serving()  # end the serve loop without waiting out --serve-seconds
        thread.join(timeout=30)
        assert result == [0]
        out = capsys.readouterr().out
        assert "serving" in out
        assert "subscribe" in out
        assert "saved" in out
        # events posted over the wire persist across server shutdown
        saved, _ = load_database(db_path)
        assert saved.get(stale[0]).get("uptodate") is True

    def test_serve_help_documents_push(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--port" in out
        assert "subscribe" in out or "STALE" in out
        assert "--transport" in out

    def test_serve_auto_transport_serves_both_dialects(
        self, database_file, capsys
    ):
        """``--transport auto`` runs the asyncio server: framed and
        line-dialect clients share the one port, seeing one state."""
        import threading

        from repro.network.client import BlueprintClient
        from repro.network.server import wait_for_port

        db_path, chain_path = database_file
        port = self._free_port()
        result: list[int] = []

        def run_server():
            result.append(
                main(
                    [
                        "serve",
                        db_path,
                        chain_path,
                        "--port",
                        str(port),
                        "--serve-seconds",
                        "8",
                        "--transport",
                        "auto",
                        "--no-save",
                    ]
                )
            )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert wait_for_port("127.0.0.1", port, timeout=5)
        framed = BlueprintClient(host="127.0.0.1", port=port, transport="frames")
        lined = BlueprintClient(host="127.0.0.1", port=port)
        assert framed.ping() is True and lined.ping() is True
        stale = framed.stale()
        assert stale == lined.stale()
        assert stale
        framed.post_event("ckin", stale[0].wire(), "up")
        assert stale[0] not in set(lined.stale())
        from repro import cli

        cli.stop_serving()
        thread.join(timeout=30)
        assert result == [0]
        assert "serving" in capsys.readouterr().out


class TestLazyAndExplain:
    """--lazy/--blocks/--views window options and planner surfacing."""

    @pytest.fixture
    def sqlite_database(self, tmp_path):
        blueprint = Blueprint.from_source(chain_blueprint_source(3))
        db = MetaDatabase(name="cli-lazy")
        BlueprintEngine(db, blueprint)
        for block in ("core", "alu", "mem"):
            for index in range(3):
                db.create_object(OID(block, f"v{index}", 1))
        for obj in db.objects():
            obj.set("uptodate", obj.block != "alu")
        path = tmp_path / "db.sqlite"
        save_database(db, path)
        chain_path = tmp_path / "chain.bp"
        chain_path.write_text(chain_blueprint_source(3))
        return str(path), str(chain_path)

    def test_find_explain_eager(self, sqlite_database, capsys):
        db_path, _bp = sqlite_database
        main([
            "find", db_path, "$uptodate == false", "--explain", "--all-versions"
        ])
        out = capsys.readouterr().out
        assert out.startswith("plan: index property~uptodate=False")
        assert "alu.v0.1" in out

    def test_find_explain_lazy_reports_pushdown(self, sqlite_database, capsys):
        db_path, _bp = sqlite_database
        main([
            "find", db_path, "$uptodate == false", "--lazy", "--explain",
            "--all-versions",
        ])
        out = capsys.readouterr().out
        assert out.startswith("plan: sql-pushdown property~uptodate=False")
        assert out.count("alu") == 3

    def test_find_scan_plan_visible(self, sqlite_database, capsys):
        db_path, _bp = sqlite_database
        main([
            "find", db_path, "$version >= 1", "--explain", "--all-versions"
        ])
        assert capsys.readouterr().out.startswith("plan: scan")

    def test_query_explain(self, sqlite_database, capsys):
        db_path, _bp = sqlite_database
        assert main(["query", db_path, "alu,v1,1", "--lazy", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan: sql-pushdown" in out
        assert "uptodate = false" in out

    def test_blocks_window_restricts_find(self, sqlite_database, capsys):
        db_path, _bp = sqlite_database
        code = main([
            "find", db_path, "$uptodate == false", "--lazy", "--blocks",
            "core,mem", "--all-versions",
        ])
        out = capsys.readouterr().out
        assert code == 1  # no stale objects inside the window
        assert "0 match(es)" in out

    def test_status_lazy(self, sqlite_database, capsys):
        db_path, bp_path = sqlite_database
        assert main(["status", db_path, bp_path, "--lazy"]) == 0
        assert "v0" in capsys.readouterr().out

    def test_pending_lazy_with_views_window(self, sqlite_database, capsys):
        db_path, bp_path = sqlite_database
        main(["pending", db_path, bp_path, "--lazy", "--views", "v0,v1,v2"])
        assert "alu" in capsys.readouterr().out

    def test_lazy_requires_sqlite_backend(self, database_file, capsys):
        db_path, _bp = database_file  # a .json database
        assert main(["query", db_path, "core,v0,1", "--lazy"]) == 1
        assert "cannot open lazily" in capsys.readouterr().out

    @staticmethod
    def _serve(argv, capsys, session) -> int:
        """Run ``damocles serve`` with *argv* in a thread, call *session*
        with a client once the port is up, then stop the server; returns
        its exit code."""
        import re
        import threading
        import time

        from repro import cli as cli_module
        from repro.network.client import BlueprintClient

        result: dict = {}

        def run() -> None:
            result["code"] = main(["serve", *argv])

        thread = threading.Thread(target=run)
        thread.start()
        try:
            port = None
            deadline = time.time() + 4
            while port is None and time.time() < deadline:
                match = re.search(r"on 127\.0\.0\.1:(\d+)", capsys.readouterr().out)
                if match:
                    port = int(match.group(1))
                time.sleep(0.05)
            assert port is not None
            session(BlueprintClient("127.0.0.1", port))
        finally:
            cli_module.stop_serving()
            thread.join(timeout=5)
        return result["code"]

    def test_serve_lazy_round_trip(self, sqlite_database, capsys):
        """damocles serve --lazy answers stale from the pushdown and
        writes posted events back incrementally on shutdown."""
        db_path, bp_path = sqlite_database

        def session(client):
            assert OID("alu", "v0", 1) in client.stale()
            client.post_event("uptodate", OID("core", "v0", 1), direction="down")

        assert self._serve(
            [db_path, bp_path, "--port", "0", "--lazy", "--serve-seconds", "5"],
            capsys,
            session,
        ) == 0
        reloaded, _ = load_database(db_path)
        assert reloaded.get(OID("core", "v0", 1)).get("uptodate") is True

    def test_serve_lazy_journal_recovers_after_restart(
        self, sqlite_database, tmp_path, capsys
    ):
        """A lazy journaled server checkpoints through the same save as an
        eager one; a restart replays what the last checkpoint missed."""
        db_path, bp_path = sqlite_database
        journal = str(tmp_path / "journal")
        argv = [db_path, bp_path, "--port", "0", "--lazy", "--journal", journal,
                "--checkpoint-every", "2", "--serve-seconds", "5"]

        def first(client):
            client.post_event("outofdate", OID("core", "v0", 1), direction="down")
            client.post_event("outofdate", OID("mem", "v0", 1), direction="down")
            client.post_event("ckin", OID("alu", "v1", 1), direction="up")

        # --no-save: the third post stays in the journal only.
        assert self._serve([*argv, "--no-save"], capsys, first) == 0
        checkpointed, _ = load_database(db_path)
        assert checkpointed.wal_seq == 2
        assert checkpointed.get(OID("core", "v2", 1)).get("uptodate") is False
        assert checkpointed.get(OID("mem", "v1", 1)).get("uptodate") is False
        assert checkpointed.get(OID("alu", "v1", 1)).get("uptodate") is False

        def second(client):
            assert OID("alu", "v1", 1) not in client.stale()

        assert self._serve(argv, capsys, second) == 0
        recovered, _ = load_database(db_path)
        assert recovered.wal_seq == 3
        assert recovered.get(OID("alu", "v1", 1)).get("uptodate") is True
        assert recovered.get(OID("core", "v2", 1)).get("uptodate") is False
        assert recovered.get(OID("mem", "v1", 1)).get("uptodate") is False

    def test_serve_window_saves_back_without_loss(self, sqlite_database, capsys):
        """Serving a --blocks window saves the change posted inside it
        back on shutdown and keeps every object outside the window."""
        db_path, bp_path = sqlite_database
        before, _ = load_database(db_path)
        assert before.get(OID("core", "v0", 1)).get("uptodate") is True
        assert self._serve(
            [db_path, bp_path, "--port", "0", "--blocks", "core",
             "--serve-seconds", "5"],
            capsys,
            lambda client: client.post_event(
                "outofdate", OID("core", "v0", 1), direction="down"
            ),
        ) == 0
        after, _ = load_database(db_path)
        assert after.object_count == before.object_count
        assert after.link_count == before.link_count
        assert after.get(OID("core", "v0", 1)).get("uptodate") is False
        for obj in before.objects():
            if obj.block != "core":
                assert after.get(obj.oid).properties.as_dict() == (
                    obj.properties.as_dict()
                )
