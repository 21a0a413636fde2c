"""A worker killed mid-write must not silence the other workers.

The master SIGKILLs workers (chaos kills, cell timeouts, lost
heartbeats), so a kill can land while a worker is writing a result. The
victim below does exactly that on purpose: the first worker takes its
result channel's write lock (a shared result queue's lock) or leaves a
torn message on it (a private result pipe), then kills itself. Every
other cell must still complete.

The campaign runs in a subprocess with a deadline because the failure
mode is a hang, not an exception.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import repro
from repro.campaign.worker import worker_main

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)
GRID = "app=synthetic;scale=tiny;nodes=2;degree=1,2;imbalance=1.5,2.0;seed=0..1"


def victim_worker(uid, task_queue, results, *args):
    """The first worker dies holding (or tearing) its result channel."""
    if uid == 0:
        wlock = getattr(results, "_wlock", None)
        if wlock is not None:
            wlock.acquire()
        else:
            # a message header promising 1 MiB, then only four bytes
            os.write(results.fileno(), struct.pack("!i", 1 << 20) + b"torn")
        os.kill(os.getpid(), signal.SIGKILL)
    worker_main(uid, task_queue, results, *args)


SCRIPT = f"""
import json, sys
from repro.campaign import CampaignGrid, master, run_campaign
from tests.campaign.test_result_channel import victim_worker
master.worker_main = victim_worker
grid = CampaignGrid.parse({GRID!r})
report = run_campaign(grid, sys.argv[1], workers=2, backoff_base=0.05,
                      heartbeat_timeout=5.0)
print(json.dumps({{"exit": report.exit_code, "completed": report.completed,
                  "total": report.total, "cells": len(grid.cells()),
                  "quarantined": len(report.quarantined),
                  "counters": report.metrics["counters"]}}))
"""


def test_killed_writer_does_not_block_other_workers(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([SRC_DIR, str(REPO_ROOT)])},
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("campaign hung after a worker died holding "
                             "its result channel") from None
    assert proc.returncode == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["exit"] == 0
    assert summary["completed"] == summary["total"] == summary["cells"]
    assert summary["quarantined"] == 0
    assert summary["counters"].get("campaign.workers_crashed", 0) >= 1
