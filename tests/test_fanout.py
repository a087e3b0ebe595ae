"""The fan-out primitive shared by scan and bench (`scan.fan_out`).

Each case runs in its own interpreter with a time limit, so a worker that
hangs the primitive fails the test instead of hanging the suite.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap

import phenocloud

SRC = os.path.dirname(os.path.dirname(phenocloud.__file__))

PRELUDE = """
import json, multiprocessing, os
from phenocloud import scan

def target(action):
    if action == "die":
        os._exit(3)
    if action == "raise":
        raise ValueError("bad\\n  input")
    return action.upper()

def show(results):
    print(json.dumps({
        "results": [r if isinstance(r, str) else [r.index, r.reason] for r in results],
        "alive": len(multiprocessing.active_children()),
    }))
"""


def run_script(body):
    proc = subprocess.Popen(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    finally:
        # Kill the whole session, so the workers of a hung run go too.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    return json.loads(out)


def test_worker_that_dies_is_a_failure_and_all_are_joined():
    doc = run_script("""
        show(scan.fan_out(target, [("die",), ("ok",), ("raise",)]))
    """)
    assert doc["results"] == [
        [0, "exited with code 3 before reporting"],
        "OK",
        [2, "ValueError: bad input"],
    ]
    assert doc["alive"] == 0


def test_death_before_the_barrier_releases_the_siblings():
    doc = run_script("""
        report = scan._report

        def die_at_launch(index, target, args, barrier, conn):
            if args == ("early",):
                os._exit(4)
            report(index, target, args, barrier, conn)

        scan._report = die_at_launch
        show(scan.fan_out(target, [("early",), ("ok",)]))
    """)
    assert doc["results"] == [
        [0, "exited with code 4 before reporting"],
        [1, "BrokenBarrierError"],
    ]
    assert doc["alive"] == 0
