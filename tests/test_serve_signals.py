"""``damocles serve`` saves the database on SIGTERM and SIGINT.

A server without ``--journal`` holds posted events only in memory until
its shutdown save, so a signal that skips that save loses them.  Each
case starts the real CLI in a child process, posts one event, signals
it and then looks for the change in the saved database.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.network.client import BlueprintClient

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SOURCE = """\
blueprint signals
view v
  property last default none
  when seen do last = $arg done
endview
endblueprint
"""


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.slow
@pytest.mark.parametrize(
    "signum, sigint_ignored",
    [(signal.SIGTERM, False), (signal.SIGINT, True)],
    ids=["sigterm", "sigint-ignored-at-launch"],
)
def test_signal_stops_server_through_its_save(tmp_path, signum, sigint_ignored):
    (tmp_path / "flow.bp").write_text(SOURCE)
    db = MetaDatabase(name="signals")
    db.create_object(OID("a", "v", 1))
    save_database(db, tmp_path / "db.json")

    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    server = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            str(tmp_path / "db.json"), str(tmp_path / "flow.bp"), "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        preexec_fn=_ignore_sigint if sigint_ignored else None,
    )
    try:
        banner = server.stdout.readline()
        match = re.search(r" on ([\d.]+):(\d+)", banner)
        assert match, banner
        client = BlueprintClient(host=match.group(1), port=int(match.group(2)))
        client.post_event("seen", "a,v,1", "up", "signalled")
        server.send_signal(signum)
        output, _ = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0, output
    assert "saved 1 objects back to" in output
    saved, _registry = load_database(tmp_path / "db.json")
    assert saved.get(OID("a", "v", 1)).get("last") == "signalled"
