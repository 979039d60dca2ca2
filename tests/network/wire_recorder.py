"""A fake project server that records the bytes its clients send.

It speaks just enough of both dialects to keep a client going: every
line-dialect request and every framed request gets a canned answer,
looked up by the command's line spelling (``postEvent``, ``policy
approve``, ...).  Each accepted connection's received bytes are kept,
in accept order, until the peer closes; ``connections()`` waits for
every connection to end before returning them.
"""

from __future__ import annotations

import socket
import threading

from repro.network.framing import FrameDecoder, encode_frame, is_frame_byte


def _framed_spelling(cmd: str) -> str:
    return "postEvent" if cmd == "post" else cmd.replace("_", " ")


class RecordingServer:
    def __init__(self, replies: dict[str, str]) -> None:
        self.replies = replies
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self._received: list[bytearray] = []
        self._threads: list[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _reply(self, spelling: str) -> str:
        return self.replies[spelling]

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            received = bytearray()
            self._received.append(received)
            thread = threading.Thread(
                target=self._serve, args=(conn, received), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, received: bytearray) -> None:
        decoder = FrameDecoder()
        pending = bytearray()
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                received.extend(chunk)
                if is_frame_byte(received[0]):
                    for request in decoder.feed(chunk):
                        if "cmd" not in request:
                            continue  # a credit frame
                        reply = self._reply(_framed_spelling(request["cmd"]))
                        head, *pushes = reply.split("\n")
                        frames = [{"id": request["id"], "response": head}]
                        frames += [{"push": line} for line in pushes]
                        conn.sendall(b"".join(map(encode_frame, frames)))
                    continue
                pending.extend(chunk)
                while b"\n" in pending:
                    raw, _, rest = bytes(pending).partition(b"\n")
                    pending[:] = rest
                    words = raw.decode("utf-8").split()
                    spelling = " ".join(words[:2] if words[0] == "policy" else words[:1])
                    conn.sendall((self._reply(spelling) + "\n").encode("utf-8"))

    def connections(self, timeout: float = 5.0) -> list[bytes]:
        """Every connection's received bytes, once all have closed."""
        for thread in list(self._threads):
            thread.join(timeout)
            assert not thread.is_alive(), "a client connection is still open"
        return [bytes(received) for received in self._received]

    def close(self) -> None:
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()

    def __enter__(self) -> "RecordingServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
