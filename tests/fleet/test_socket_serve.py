"""Server and fleet clients as genuinely separate OS processes.

One corpus bug is driven end-to-end over a real Unix-domain socket:
``repro fleet serve`` hosts the GistServer, two ``repro fleet client``
processes stream failure reports / monitored runs / acks across the
socket, and the campaign must converge to the root cause.  The second
test SIGKILLs the server mid-campaign and restarts it on the same
write-ahead journal: the clients reconnect and the resumed server still
converges.
"""

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.corpus import get_bug

BUG = "transmission-1818"
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _spawn(role, sock, base=0, journal_dir=None, timeout=90):
    argv = [sys.executable, "-m", "repro.cli", "fleet", role, BUG,
            "--socket", sock, "--timeout", str(timeout)]
    if role == "client":
        argv += ["--endpoints", "4", "--base", str(base)]
    if journal_dir is not None:
        argv += ["--journal-dir", journal_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + \
        env.get("PYTHONPATH", "")
    # Unbuffered: each log line reaches the pipe when it is printed.
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _finish(proc, timeout=120):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        pytest.fail(f"process did not finish: {out[-2000:]}")
    return proc.returncode, out


def test_corpus_bug_end_to_end_over_unix_socket(tmp_path):
    sock = str(tmp_path / "gist.sock")
    server = _spawn("serve", sock)
    time.sleep(1.0)
    clients = [_spawn("client", sock, base=b) for b in (0, 4)]
    rc, out = _finish(server)
    assert rc == 0, out
    assert "campaign converged" in out
    # The sketch the server printed names the bug's root cause.
    spec = get_bug(BUG)
    assert "Failure Sketch" in out
    for rc_client, out_client in map(_finish, clients):
        assert rc_client == 0, out_client
        assert "found=True" in out_client
    assert spec is not None


def _follow(tag, proc, merged, transcript):
    """Feed ``proc``'s output lines, tagged, into the ``merged`` queue and
    into ``transcript[tag]``, from a reader thread (returned)."""
    transcript[tag] = []

    def read():
        for line in proc.stdout:
            transcript[tag].append(line)
            merged.put((tag, line))
    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


def _wait_for(merged, ready, what, transcript, timeout=60):
    """Consume ``merged`` until ``ready(tag, line)`` holds (both None
    between lines); fail with every transcript after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            tag, line = merged.get(timeout=0.02)
        except queue.Empty:
            tag = line = None
        if ready(tag, line):
            return
    pytest.fail(f"{what}: " + "".join(
        f"[{tag}] {''.join(lines)[-1000:]}"
        for tag, lines in transcript.items()))


def test_server_sigkill_resumes_from_journal(tmp_path):
    sock = str(tmp_path / "gist.sock")
    jdir = str(tmp_path)
    wal = tmp_path / f"{BUG}.wal"
    merged, transcript = queue.Queue(), {}
    # Both clients are re-dialing before the server listens, so they
    # connect within one re-dial interval of each other — not one process
    # start-up apart, which is long enough for the first to finish a
    # campaign alone.
    clients = {base: _spawn("client", sock, base=base, timeout=150)
               for base in (0, 4)}
    readers = {base: _follow(base, proc, merged, transcript)
               for base, proc in clients.items()}
    dialing = set()

    def all_dialing(tag, line):
        if line and "dialing" in line:
            dialing.add(tag)
        return dialing == set(clients)
    _wait_for(merged, all_dialing, "clients never dialed", transcript)
    server = _spawn("serve", sock, journal_dir=jdir)
    _follow("server", server, merged, transcript)
    # Kill only once the server has logged both client groups' hellos,
    # both clients have been welcomed, and the campaign-start record
    # (synced immediately) is in the journal: every client then has a
    # connection to lose and a campaign to resume.
    hellos, welcomed = set(), set()

    def ready(tag, line):
        match = line and re.search(r"hello from base (\d+)", line)
        if match:
            hellos.add(int(match.group(1)))
        if line and tag in clients and "connected" in line:
            welcomed.add(tag)
        return hellos == welcomed == set(clients) and wal.exists() and \
            wal.stat().st_size > 8
    _wait_for(merged, ready, "campaign never bootstrapped", transcript)
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=10)
    restarted = _spawn("serve", sock, journal_dir=jdir)
    rc, out = _finish(restarted)
    assert rc == 0, out
    assert "resumed from journal" in out
    assert "campaign converged" in out
    for base, proc in clients.items():
        try:
            rc_client = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc_client = proc.wait()
        readers[base].join(timeout=10)
        out_client = "".join(transcript[base])
        assert rc_client == 0, out_client
        assert "reconnecting" in out_client
        assert "found=True" in out_client
