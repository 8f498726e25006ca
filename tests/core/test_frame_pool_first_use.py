"""The frame pool's fallbacks work before any pool was ever built.

``concurrent.futures`` loads its ``process`` submodule only when
something asks for it, so an ``except`` clause that reaches
``BrokenProcessPool`` through the package attribute raises
``AttributeError`` in a process that never built a pool, hiding the
original error.  The suite in ``tests/core/test_frame_pool.py`` cannot
see this once an earlier test has built a pool, so this check runs in a
fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

SPAWN_FAILS_BEFORE_ANY_POOL = textwrap.dedent("""
    import logging

    from repro.core import frame_pool, log

    def scaled(payload, value):
        return payload[0] * value

    def broken_pool(payload, workers):
        raise OSError("no process spawning here")

    class Keep(logging.Handler):
        records = []

        def emit(self, record):
            self.records.append(record)

    logging.getLogger("repro").addHandler(Keep())
    frame_pool.get_pool = broken_pool
    print(frame_pool.map_chunks(scaled, (5,), [(1,), (2,), (3,)],
                                workers=2))
    print(len(log.events_named(Keep.records,
                               "frame_pool.degraded_sequential")))
""")


def test_spawn_failure_degrades_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_POOL_WORKER", None)
    result = subprocess.run(
        [sys.executable, "-c", SPAWN_FAILS_BEFORE_ANY_POOL], env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[5, 10, 15]", "1"], \
        result.stdout
