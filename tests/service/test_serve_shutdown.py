"""``repro-match serve`` answers ``shutdown`` before its process exits.

The reply used to race the exit: the server was told to stop before the
handler thread had written the ``stopping`` reply, so the process could end
first and the client saw a closed connection instead.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.service.online import OnlineClient

RUNS = 20
SRC = str(Path(repro.__file__).resolve().parents[1])


def _serve(socket_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", str(socket_path)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    # The daemon renames its socket onto the path only once it listens, so
    # the path appearing is the readiness signal.
    while not socket_path.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(f"serve never bound {socket_path}")
        time.sleep(0.01)
    return proc


def test_shutdown_reply_arrives_before_exit(tmp_path):
    for run in range(RUNS):
        socket_path = tmp_path / f"d{run}.sock"
        proc = _serve(socket_path)
        try:
            with OnlineClient(socket_path) as client:
                assert client.shutdown_server()["stopping"] is True, f"run {run}"
            assert proc.wait(timeout=30) == 0, f"run {run}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
