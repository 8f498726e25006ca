"""The stdio daemon on a real pipe (:func:`repro.core.serve.run_daemon`).

``tests/core/test_serve.py`` feeds the daemon a StringIO, which takes
the one-line-per-tick path.  Here the input is an OS pipe, so the
daemon takes its ``select`` path: every line that has arrived must be
answered while stdin stays open, however the writes split them.
"""

import json
import os
import threading
import time

import pytest

from repro.core import serve
from repro.core.serve import ServeConfig

WAIT_S = 20.0


class _Responses:
    """An output stream that parses each response line as it lands."""

    def __init__(self):
        self.lines = []
        self.arrived = threading.Condition()

    def write(self, text):
        with self.arrived:
            self.lines.extend(json.loads(line)
                              for line in text.splitlines() if line)
            self.arrived.notify_all()

    def flush(self):
        pass

    def wait_for(self, count):
        with self.arrived:
            self.arrived.wait_for(lambda: len(self.lines) >= count,
                                  WAIT_S)
            return list(self.lines)


class _Daemon:
    """``run_daemon`` in a background thread, reading one pipe."""

    def __init__(self):
        read_fd, self.write_fd = os.pipe()
        self.stdin = os.fdopen(read_fd, "r")
        self.responses = _Responses()
        self.thread = threading.Thread(
            target=serve.run_daemon,
            args=(ServeConfig(batch_window=1, workers=1, source_points=16),),
            kwargs=dict(input_stream=self.stdin,
                        output_stream=self.responses, stats_interval=0),
            daemon=True)
        self.thread.start()

    def send(self, data: bytes) -> None:
        os.write(self.write_fd, data)

    def close_stdin(self) -> None:
        if self.write_fd is not None:
            os.close(self.write_fd)
            self.write_fd = None


@pytest.fixture
def daemon():
    running = _Daemon()
    yield running
    running.close_stdin()
    running.thread.join(WAIT_S)
    running.stdin.close()
    assert not running.thread.is_alive()


def test_lines_written_together_are_all_answered(daemon):
    lines = [
        json.dumps({"id": "a", "scene": "fern", "quality": "draft",
                    "step": 16}),
        "not json",
        json.dumps({"id": "c", "scene": "fern", "quality": "ultra"}),
        json.dumps({"id": "d", "scene": "fern", "quality": "draft",
                    "step": 16}),
    ]
    daemon.send(("\n".join(lines) + "\n").encode())
    # stdin stays open: every line must be answered without EOF.
    answered = daemon.responses.wait_for(len(lines))
    assert {(r["id"], r["status"]) for r in answered} == {
        ("a", "ok"), ("req-000002", "error"), ("req-000003", "error"),
        ("d", "ok")}


def test_partial_lines_wait_for_their_newline(daemon):
    daemon.send(b'{"scene": "fern", "qual')
    time.sleep(0.2)                     # ~10 ticks with half a line
    daemon.send(b'ity": "ultra"}\nnot json\n')
    answered = daemon.responses.wait_for(2)
    assert [r["status"] for r in answered] == ["error", "error"]
    assert "unknown quality" in answered[0]["error"]
    # A last line without a newline is handled at EOF.
    daemon.send(b"trailing garbage")
    daemon.close_stdin()
    answered = daemon.responses.wait_for(3)
    assert [r["id"] for r in answered] == \
        ["req-000001", "req-000002", "req-000003"]
