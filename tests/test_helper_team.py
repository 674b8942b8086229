"""Lifetime of the sampling helper team.

Each case runs in a fresh interpreter that makes sample_curve see two CPUs,
samples one lone TE point, so that its inner integrals go to two forked
helpers, and prints the helpers' pids.  No helper may outlive that
interpreter, however it ends, and an interrupt mid-sample may not leave the
team out of step.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper team needs fork")

PREAMBLE = """
import os, signal, sys, time
from casimir_laurent import cli, quadrature
from casimir_laurent.integrands import SpectrumKind

def sample(count):
    os.sched_getaffinity = lambda pid: set(range(count))
    got = quadrature.eval_I_dielectric(SpectrumKind.TE, 1.0, 8.0 / 27.0)
    return got.value.hex(), got.est_error.hex()

def helpers():
    return " ".join(str(pid) for _, pid in quadrature._team)
"""


def start(body: str, *args: str) -> subprocess.Popen:
    """The interpreter running PREAMBLE and body, with sys.argv[1:] = args."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-c", PREAMBLE + textwrap.dedent(body), *args],
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": path})


def alive(pid: int) -> bool:
    """Whether process pid still runs: it exists and, where /proc says, is no
    zombie (an orphan's zombie waits for whoever adopted it)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def pids(line: str, count: int = 2) -> list[int]:
    found = [int(p) for p in line.split()]
    assert len(found) == count, line
    return found


def test_helpers_end_with_a_normal_exit():
    proc = start("""
        sample(2)
        print(helpers())
    """)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert [pid for pid in pids(out) if alive(pid)] == []


def test_helpers_end_with_a_failed_dielectric_command(tmp_path):
    # one panel cannot converge: the command exits 3 through sys.exit
    proc = start("""
        quadrature.MAX_PANELS = 1
        os.sched_getaffinity = lambda pid: {0, 1}
        code = cli.main(["dielectric", "--sigma", "8/27", "--grid-points", "16",
                         "--out-dir", sys.argv[1]])
        print(helpers())
        sys.exit(code)
    """, str(tmp_path / "out"))
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert [pid for pid in pids(out) if alive(pid)] == []


def test_helpers_end_when_the_parent_is_killed():
    # a child forked after the team, still running, holds no end of its pipes
    proc = start("""
        sample(2)
        child = os.fork()
        if child == 0:
            time.sleep(120)
            os._exit(0)
        print(helpers(), child, flush=True)
        time.sleep(120)
    """)
    child = None
    try:
        *team, child = pids(proc.stdout.readline(), 3)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in team) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in team if alive(pid)] == []
        assert alive(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child is not None:
            os.kill(child, signal.SIGKILL)


def test_a_forked_child_leaves_the_team_alone():
    # a child forked from a process with a team, ending the normal way (exit
    # handlers included), neither stops the parent's helpers nor uses them
    proc = start("""
        first, team = sample(2), helpers()
        child = os.fork()
        if child == 0:
            sys.exit(0)
        os.waitpid(child, 0)
        print(sample(2) == first and helpers() == team)
    """)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out == "True\n"


@pytest.mark.parametrize("where", ["helper", "parent"])
def test_interrupt_mid_sample_leaves_the_team_in_step(where, tmp_path):
    # The kernel is interrupted once, in a helper: it raises
    # KeyboardInterrupt there, which the helper sends back and this process
    # raises with the team in step; or it sends SIGINT to this process,
    # which is waiting for the helpers, so that the team is closed and the
    # next call forks a new one.  Either way the next call has the bits of
    # a serial run.
    proc = start("""
        alone = sample(1)
        kernel, parent, flag = quadrature.dlog_cross, os.getpid(), sys.argv[1]

        def interrupted_once(*args):
            if os.getpid() != parent:
                try:
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    if sys.argv[2] == "helper":
                        raise KeyboardInterrupt
                    os.kill(parent, signal.SIGINT)
                    time.sleep(60)
            return kernel(*args)

        quadrature.dlog_cross = interrupted_once
        try:
            sample(2)
        except KeyboardInterrupt:
            print(helpers())
        else:
            sys.exit("no interrupt")
        again = sample(2)
        print(helpers())
        print(again == alone)
    """, str(tmp_path / "interrupted"), where)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    after, team, same = out.splitlines()
    assert same == "True"
    if where == "helper":
        assert pids(after) == pids(team)
    else:
        assert after == "" and len(pids(team)) == 2
