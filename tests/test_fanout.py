"""The fan-out primitive shared by scan and bench (`scan.fan_out`).

Each case runs in its own interpreter, in development mode with resource
warnings as errors, under a time limit, so a worker that hangs the
primitive fails the test instead of hanging the suite.
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
import json, os
from phenocloud import scan

def target(action):
    if action == "die":
        os._exit(3)
    if action == "raise":
        raise ValueError("bad\\n  input")
    if action.startswith("touch "):
        with open(action[6:], "w"):
            pass
    return action.upper()

def open_fds():
    return len(os.listdir("/proc/self/fd"))

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

def show(results, fds_before, **extra):
    print(json.dumps({
        "results": [r if isinstance(r, str) else [r.index, r.reason] for r in results],
        "no_child_left": no_child_left(),
        "fds_added": open_fds() - fds_before,
        **extra,
    }))
"""


def run_script(body):
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", PRELUDE + textwrap.dedent(body)],
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
    assert err == ""
    return json.loads(out)


def test_worker_that_dies_is_a_failure_and_all_are_joined():
    doc = run_script("""
        before = open_fds()
        show(scan.fan_out(target, [("die",), ("ok",), ("raise",)]), before)
    """)
    assert doc["results"] == [
        [0, "exited with code 3 before reporting"],
        "OK",
        [2, "ValueError: bad input"],
    ]
    assert doc["no_child_left"]
    assert doc["fds_added"] == 0


def test_death_before_the_release_leaves_the_siblings_running():
    doc = run_script("""
        report = scan._report

        def die_at_launch(index, target, args, *pipes):
            if args == ("early",):
                os._exit(4)
            report(index, target, args, *pipes)

        scan._report = die_at_launch
        before = open_fds()
        show(scan.fan_out(target, [("early",), ("ok",)]), before)
    """)
    assert doc["results"] == [
        [0, "exited with code 4 before reporting"],
        "OK",
    ]
    assert doc["no_child_left"]
    assert doc["fds_added"] == 0


def test_a_fork_that_fails_runs_no_target_and_leaves_no_child_or_pipe(tmp_path):
    marker = tmp_path / "ran"
    doc = run_script(f"""
        fork, forks = os.fork, []

        def fork_once():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(11, "fork refused")
            return fork()

        os.fork = fork_once
        before = open_fds()
        try:
            scan.fan_out(target, [("touch {marker}",)] * 3)
        except OSError as exc:
            show([], before, error=str(exc))
    """)
    assert doc == {"results": [], "no_child_left": True, "fds_added": 0,
                   "error": "[Errno 11] fork refused"}
    assert not marker.exists()
