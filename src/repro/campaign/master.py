"""Fault-tolerant master/worker campaign orchestrator.

:func:`run_campaign` shards a :class:`~repro.campaign.grid.CampaignGrid`
across a pool of worker processes through a dynamic master/worker queue
(the ``dlp_mpi``-style pattern: the master hands out one cell at a time,
so fast workers naturally take more cells) and survives everything the
workers can do to it:

* **crash detection** — a worker that dies (OOM kill, segfault, chaos
  SIGKILL) is detected by process liveness; its in-flight cell is
  requeued with exponential backoff and a fresh worker is spawned;
* **private result pipes** — each worker reports on its own pipe, read
  through :func:`multiprocessing.connection.wait`, so a worker killed
  halfway through a write can only tear its own channel;
* **hang detection** — workers heartbeat every ``heartbeat_interval``
  even while computing; a silent worker (``heartbeat_timeout``) or a
  cell past its ``cell_timeout`` wall-clock deadline is SIGKILLed and
  the cell requeued;
* **quarantine** — a cell that *raises* ``max_failures`` times, or is
  interrupted ``max_requeues`` times, is abandoned and reported; the
  campaign completes instead of dying (graceful degradation);
* **crash-safe journal** — every completion is fsynced to the
  :class:`~repro.campaign.journal.CampaignJournal` before the master
  acts on it, so a killed or interrupted campaign resumes exactly where
  it stopped, recomputing nothing and double-counting nothing;
* **Ctrl-C** — workers are killed, the journal flushed, and the report
  flags the interruption so the CLI can print the resume command and
  exit 130.

Progress and retry counters thread through :mod:`repro.obs`: the master
owns a :class:`~repro.obs.metrics.MetricsRegistry` (per-cell wall-clock
histogram, per-worker completion counters, retry/requeue/quarantine and
chaos-injection totals) whose snapshot lands in ``report.json`` and the
final :class:`CampaignReport`.

Because every cell is a deterministic simulator run whose recorded row
contains only simulated quantities, the merged report of a chaos-ridden
campaign is bit-identical to a fault-free one — the property the
``--chaos`` self-test and CI smoke job assert.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Any, Callable, Optional

from ..errors import CampaignError
from ..experiments.base import ResultTable
from ..ioutil import atomic_write_text
from ..obs.metrics import MetricsRegistry
from .cells import RESULT_COLUMNS
from .chaos import ChaosPlan
from .grid import CampaignGrid, Cell, expand_fault_spec, fault_tag
from .journal import CampaignJournal
from .worker import worker_main

__all__ = ["run_campaign", "CampaignReport", "JOURNAL_NAME", "RESULTS_NAME",
           "REPORT_NAME"]

JOURNAL_NAME = "journal.jsonl"
RESULTS_NAME = "results.csv"
REPORT_NAME = "report.json"

_POLL = 0.05                    # master loop tick, seconds
_BACKOFF_MAX = 30.0


@dataclass
class CampaignReport:
    """Everything one campaign run produced (merged + diagnostics)."""

    table: ResultTable
    total: int
    completed: int
    computed: int               # cells computed by *this* run
    resumed: int                # cells skipped thanks to the journal
    quarantined: dict[str, dict]
    metrics: dict[str, Any]
    interrupted: bool
    out_dir: Path
    csv_path: Optional[Path]
    #: wall-clock accounting of *this* run: total seconds, cells/sec,
    #: per-cell mean/p95 and worker utilization (busy / capacity)
    wall_clock: dict[str, Any] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """0 complete, 3 with quarantined cells, 130 when interrupted."""
        if self.interrupted:
            return 130
        return 3 if self.quarantined else 0

    def summary(self) -> str:
        """One-line machine-greppable outcome."""
        counters = self.metrics.get("counters", {})
        return (f"# campaign: {self.total} cells, {self.resumed} from "
                f"journal, {self.computed} computed, "
                f"{len(self.quarantined)} quarantined, "
                f"{int(counters.get('campaign.retries', 0))} retries, "
                f"{int(counters.get('campaign.requeues', 0))} requeues, "
                f"{int(counters.get('campaign.workers_crashed', 0))} worker "
                f"crashes, "
                f"{int(counters.get('campaign.workers_killed', 0))} workers "
                f"killed")

    def format(self) -> str:
        """The merged table plus the outcome summary."""
        lines = [self.table.format(), self.summary()]
        for cell_id, record in sorted(self.quarantined.items()):
            lines.append(f"# quarantined: {cell_id} — "
                         f"{record.get('reason', 'unknown')}")
        return "\n".join(lines)


@dataclass
class _Worker:
    """One live incarnation of a worker slot."""

    slot: int
    uid: int
    proc: Any
    task_queue: Any
    #: the read end of this incarnation's private result pipe
    results: Connection
    last_seen: float
    assignment: Optional[tuple[Cell, int, float]] = None   # cell, attempt, t0

    @property
    def busy(self) -> bool:
        return self.assignment is not None


@dataclass
class _Pending:
    """The retry-aware work queue (min-heap on ready time)."""

    heap: list[tuple[float, int, Cell]] = field(default_factory=list)
    seq: int = 0

    def push(self, cell: Cell, ready_at: float) -> None:
        heapq.heappush(self.heap, (ready_at, self.seq, cell))
        self.seq += 1

    def pop_ready(self, now: float, skip: Callable[[str], bool]
                  ) -> Optional[Cell]:
        """The first cell whose backoff has elapsed and that still needs
        running; entries for finished cells are dropped on the way."""
        while self.heap:
            ready_at, _seq, cell = self.heap[0]
            if skip(cell.cell_id):
                heapq.heappop(self.heap)
                continue
            if ready_at > now:
                return None
            heapq.heappop(self.heap)
            return cell
        return None

    def __len__(self) -> int:
        return len(self.heap)


class _Master:
    """State machine of one campaign run (see module doc)."""

    def __init__(self, grid: CampaignGrid, out_dir: Path, workers: int,
                 cell_timeout: float, heartbeat_interval: float,
                 heartbeat_timeout: float, max_failures: int,
                 max_requeues: int, backoff_base: float, check: bool,
                 chaos: Optional[ChaosPlan],
                 progress: Optional[Callable[[dict], None]]) -> None:
        self.grid = grid
        self.out_dir = Path(out_dir)
        self.cells = grid.cells()
        self.by_id = {cell.cell_id: cell for cell in self.cells}
        self.num_workers = max(1, min(workers, len(self.cells)))
        self.cell_timeout = cell_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_failures = max_failures
        self.max_requeues = max_requeues
        self.backoff_base = backoff_base
        self.check = check
        self.chaos = chaos
        self.progress = progress
        self.metrics = MetricsRegistry()
        self.ctx = multiprocessing.get_context("spawn")
        self.slots: dict[int, _Worker] = {}
        self.next_uid = 0
        self.pending = _Pending()
        self.hang_injected: set[str] = set()
        self.kill_points: list[int] = list(chaos.kill_after) if chaos else []
        self.completions_this_run = 0
        self.journal: Optional[CampaignJournal] = None
        self.resumed = 0
        self.interrupted = False
        #: wall-clock bookkeeping for the progress line and report
        self.wall_started: Optional[float] = None
        self.busy_seconds = 0.0

    # -- events ----------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> None:
        if self.progress is not None:
            fields["event"] = event
            self.progress(fields)

    # -- worker lifecycle ------------------------------------------------

    def spawn_worker(self, slot: int) -> _Worker:
        uid = self.next_uid
        self.next_uid += 1
        task_queue = self.ctx.Queue()
        results, sender = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=worker_main,
            args=(uid, task_queue, sender, self.check,
                  self.heartbeat_interval),
            name=f"campaign-worker-{slot}", daemon=True)
        proc.start()
        # Only the worker may hold the write end: once it dies, reads
        # see EOF instead of blocking on a half-written message.
        sender.close()
        worker = _Worker(slot=slot, uid=uid, proc=proc,
                         task_queue=task_queue, results=results,
                         last_seen=time.monotonic())
        self.slots[slot] = worker
        self.metrics.counter("campaign.workers_spawned").add()
        self.metrics.gauge("campaign.workers_alive").set(
            sum(1 for w in self.slots.values() if w.proc.is_alive()))
        self.emit("spawn", slot=slot, worker=uid, pid=proc.pid)
        return worker

    def kill_worker(self, worker: _Worker, reason: str) -> None:
        """SIGKILL an incarnation (hung, timed out, or chaos victim)."""
        if worker.proc.is_alive() and worker.proc.pid is not None:
            try:
                os.kill(worker.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
        worker.proc.join(5)
        self.drain_pipe(worker)     # a result sent just before the kill counts
        self.metrics.counter("campaign.workers_killed").add()
        self.emit("kill", slot=worker.slot, worker=worker.uid,
                  reason=reason)
        self.close_channels(worker)

    def close_channels(self, worker: _Worker) -> None:
        """Release a finished incarnation's task queue and result pipe."""
        worker.task_queue.cancel_join_thread()
        worker.task_queue.close()
        worker.results.close()

    def shutdown_workers(self, graceful: bool) -> None:
        for worker in list(self.slots.values()):
            if graceful and worker.proc.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + (2.0 if graceful else 0.0)
        for worker in list(self.slots.values()):
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(1)
            if worker.proc.is_alive():       # pragma: no cover - stubborn
                worker.proc.kill()
                worker.proc.join(1)
            self.close_channels(worker)
        self.metrics.gauge("campaign.workers_alive").set(0)

    # -- cell accounting -------------------------------------------------

    def attempts_of(self, cell_id: str) -> int:
        journal = self.journal
        assert journal is not None
        return (len(journal.failures.get(cell_id, []))
                + journal.requeues.get(cell_id, 0))

    def finished(self, cell_id: str) -> bool:
        journal = self.journal
        assert journal is not None
        return cell_id in journal.done or cell_id in journal.quarantined

    def backoff(self, cell_id: str) -> float:
        attempts = max(1, self.attempts_of(cell_id))
        return min(_BACKOFF_MAX, self.backoff_base * 2 ** (attempts - 1))

    def requeue_interrupted(self, cell: Cell, attempt: int,
                            reason: str) -> None:
        """A worker died/hung/timed out under *cell*: retry or quarantine."""
        journal = self.journal
        assert journal is not None
        journal.record_requeued(cell.cell_id, attempt, reason)
        self.metrics.counter("campaign.requeues").add()
        self.emit("requeued", cell=cell.cell_id, attempt=attempt,
                  reason=reason)
        if journal.requeues.get(cell.cell_id, 0) > self.max_requeues:
            journal.record_quarantined(
                cell.cell_id,
                f"interrupted {journal.requeues[cell.cell_id]} times "
                f"(last: {reason}); exceeds --max-requeues="
                f"{self.max_requeues}")
            self.metrics.counter("campaign.quarantined").add()
            self.emit("quarantined", cell=cell.cell_id, reason=reason)
        else:
            self.pending.push(cell,
                              time.monotonic() + self.backoff(cell.cell_id))

    def record_failure(self, cell: Cell, attempt: int, error: str) -> None:
        """The cell itself raised: poison budget, then backoff retry."""
        journal = self.journal
        assert journal is not None
        journal.record_failed(cell.cell_id, attempt, error)
        self.metrics.counter("campaign.cells_failed").add()
        self.emit("failed", cell=cell.cell_id, attempt=attempt, error=error)
        failures = journal.failures.get(cell.cell_id, [])
        if len(failures) >= self.max_failures:
            journal.record_quarantined(
                cell.cell_id,
                f"failed {len(failures)} times; exceeds --max-failures="
                f"{self.max_failures} (last error: {error})",
                errors=failures)
            self.metrics.counter("campaign.quarantined").add()
            self.emit("quarantined", cell=cell.cell_id, reason=error)
        else:
            self.metrics.counter("campaign.retries").add()
            self.pending.push(cell,
                              time.monotonic() + self.backoff(cell.cell_id))

    def record_done(self, worker: _Worker, cell_id: str, attempt: int,
                    row: dict, wall: float) -> None:
        journal = self.journal
        assert journal is not None
        if cell_id in journal.done:
            # late result from a worker we already timed out: drop it —
            # never double-count a cell
            self.metrics.counter("campaign.duplicate_results").add()
            return
        journal.record_done(cell_id, attempt, row, wall)
        self.completions_this_run += 1
        self.busy_seconds += wall
        self.metrics.counter("campaign.cells_done").add()
        self.metrics.histogram("campaign.cell_seconds").observe(wall)
        self.metrics.counter(
            f"campaign.worker.{worker.slot}.cells_done").add()
        # Throughput + ETA over this run's wall clock (resumed cells cost
        # nothing, so the rate only counts cells actually computed here).
        rate = None
        eta = None
        if self.wall_started is not None:
            elapsed = time.monotonic() - self.wall_started
            if elapsed > 0:
                rate = self.completions_this_run / elapsed
                remaining = (len(self.cells) - len(journal.done)
                             - len(journal.quarantined))
                eta = remaining / rate if rate > 0 else None
        self.emit("done", cell=cell_id, attempt=attempt, wall=wall,
                  completed=len(journal.done),
                  total=len(self.cells),
                  cells_per_sec=rate, eta=eta)

    # -- chaos -----------------------------------------------------------

    def maybe_unleash_chaos(self) -> None:
        if not self.kill_points or self.chaos is None:
            return
        if self.completions_this_run < self.kill_points[0]:
            return
        self.kill_points.pop(0)
        rng = random.Random(self.chaos.seed * 7919
                            + self.completions_this_run)
        candidates = [w for w in self.slots.values()
                      if w.proc.is_alive() and w.busy]
        if not candidates:
            candidates = [w for w in self.slots.values()
                          if w.proc.is_alive()]
        if not candidates:
            return
        victim = rng.choice(candidates)
        self.metrics.counter("campaign.chaos_kills").add()
        self.emit("chaos-kill", slot=victim.slot, worker=victim.uid)
        if victim.proc.pid is not None:
            try:
                os.kill(victim.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
        # liveness pass picks up the corpse: requeue + respawn

    # -- the loop --------------------------------------------------------

    def drain_results(self) -> None:
        """Wait up to one poll interval for any worker's pipe, then
        handle everything readable on every pipe."""
        by_pipe = {w.results: w for w in self.slots.values()
                   if not w.results.closed}
        for pipe in wait(list(by_pipe), timeout=_POLL):
            self.drain_pipe(by_pipe[pipe])

    def drain_pipe(self, worker: _Worker) -> None:
        """Handle every whole message waiting on *worker*'s pipe.

        A pipe at EOF, or holding a message torn by a kill mid-write, is
        closed: its worker is dead, and the liveness pass requeues its
        cell.
        """
        pipe = worker.results
        while not pipe.closed and pipe.poll():
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                pipe.close()
                return
            self.handle(worker, message)

    def handle(self, worker: _Worker, message: tuple) -> None:
        """Act on one message from *worker*, the current incarnation of
        its slot (a pipe is closed once its worker leaves the slot)."""
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind in ("beat", "exiting", "started"):
            return
        cell_id, attempt = message[2], message[3]
        assignment = worker.assignment
        if assignment is None or assignment[0].cell_id != cell_id:
            assignment = None
        if kind == "done":
            row, wall = message[4], message[5]
            self.record_done(worker, cell_id, attempt, row, wall)
            self.maybe_unleash_chaos()
        elif kind == "failed":
            if assignment is None:
                return      # stale failure: already requeued as crash
            self.record_failure(assignment[0], attempt, message[4])
        if assignment is not None:
            worker.assignment = None

    def check_liveness(self) -> None:
        now = time.monotonic()
        for slot, worker in list(self.slots.items()):
            if not worker.proc.is_alive():
                worker.proc.join(0)
                # whatever it finished before dying still counts
                self.drain_pipe(worker)
                self.metrics.counter("campaign.workers_crashed").add()
                self.emit("crash", slot=slot, worker=worker.uid)
                if worker.assignment is not None:
                    cell, attempt, _ = worker.assignment
                    worker.assignment = None
                    if not self.finished(cell.cell_id):
                        self.requeue_interrupted(cell, attempt, "crash")
                self.close_channels(worker)
                del self.slots[slot]
                if self.work_remains():
                    self.spawn_worker(slot)
                continue
            if worker.assignment is not None:
                cell, attempt, assigned_at = worker.assignment
                if now - assigned_at > self.cell_timeout:
                    self.metrics.counter("campaign.cells_timed_out").add()
                    worker.assignment = None
                    self.kill_worker(worker, "cell-timeout")
                    del self.slots[slot]
                    if not self.finished(cell.cell_id):
                        self.requeue_interrupted(cell, attempt, "timeout")
                    if self.work_remains():
                        self.spawn_worker(slot)
                    continue
            if now - worker.last_seen > self.heartbeat_timeout:
                self.metrics.counter("campaign.workers_hung").add()
                assignment = worker.assignment
                worker.assignment = None
                self.kill_worker(worker, "heartbeat-lost")
                del self.slots[slot]
                if assignment is not None:
                    cell, attempt, _ = assignment
                    if not self.finished(cell.cell_id):
                        self.requeue_interrupted(cell, attempt, "hung")
                if self.work_remains():
                    self.spawn_worker(slot)

    def work_remains(self) -> bool:
        journal = self.journal
        assert journal is not None
        return (len(journal.done) + len(journal.quarantined)
                < len(self.cells))

    def assign_work(self) -> None:
        now = time.monotonic()
        for worker in self.slots.values():
            if worker.busy or not worker.proc.is_alive():
                continue
            cell = self.pending.pop_ready(now, self.finished)
            if cell is None:
                return
            attempt = self.attempts_of(cell.cell_id) + 1
            message: dict[str, Any] = {"cell": cell.to_json(),
                                       "attempt": attempt}
            if (self.chaos is not None
                    and cell.cell_id in self.chaos.hang_cells
                    and cell.cell_id not in self.hang_injected):
                self.hang_injected.add(cell.cell_id)
                message["hang"] = self.cell_timeout * 20 + 60
                self.metrics.counter("campaign.chaos_hangs").add()
                self.emit("chaos-hang", cell=cell.cell_id,
                          worker=worker.uid)
            worker.assignment = (cell, attempt, now)
            worker.task_queue.put(message)
            self.emit("assign", cell=cell.cell_id, attempt=attempt,
                      worker=worker.uid)

    def run(self) -> CampaignReport:
        self.wall_started = time.monotonic()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        journal = CampaignJournal.open(self.out_dir / JOURNAL_NAME,
                                       self.grid.fingerprint(),
                                       self.grid.spec)
        self.journal = journal
        self.resumed = sum(1 for cell in self.cells
                           if cell.cell_id in journal.done
                           or cell.cell_id in journal.quarantined)
        if self.resumed:
            self.emit("resume", resumed=self.resumed,
                      total=len(self.cells))
        for cell in self.cells:
            if not self.finished(cell.cell_id):
                self.pending.push(cell, 0.0)
        try:
            if self.work_remains():
                for slot in range(self.num_workers):
                    self.spawn_worker(slot)
            while self.work_remains():
                self.drain_results()
                self.check_liveness()
                self.assign_work()
        except KeyboardInterrupt:
            self.interrupted = True
            self.shutdown_workers(graceful=False)
        else:
            self.shutdown_workers(graceful=True)
        finally:
            journal.close()
        return self.build_report()

    # -- reporting -------------------------------------------------------

    def build_report(self) -> CampaignReport:
        journal = self.journal
        assert journal is not None
        table = ResultTable(
            title=f"Campaign results ({len(self.cells)} cells, "
                  f"grid {self.grid.fingerprint()[:12]})",
            columns=list(RESULT_COLUMNS))
        for cell in self.cells:
            row = journal.done.get(cell.cell_id)
            if row is not None:
                table.add(**{c: row.get(c) for c in RESULT_COLUMNS})
        for token in self.grid.axis("faults"):
            if token != "none":
                table.note(f"faults {fault_tag(token)} = "
                           f"{expand_fault_spec(token)}")
        if journal.quarantined:
            table.note(f"{len(journal.quarantined)} cells quarantined "
                       "(excluded from rows; see report.json)")
        csv_path = self.out_dir / RESULTS_NAME
        atomic_write_text(csv_path, table.to_csv() + "\n")
        report = CampaignReport(
            table=table, total=len(self.cells), completed=len(journal.done),
            computed=self.completions_this_run, resumed=self.resumed,
            quarantined=dict(journal.quarantined),
            metrics=self.metrics.snapshot(), interrupted=self.interrupted,
            out_dir=self.out_dir, csv_path=csv_path,
            wall_clock=self.wall_clock_section())
        atomic_write_text(
            self.out_dir / REPORT_NAME,
            json.dumps({
                "grid": self.grid.spec,
                "fingerprint": self.grid.fingerprint(),
                "total": report.total,
                "completed": report.completed,
                "computed": report.computed,
                "resumed": report.resumed,
                "interrupted": report.interrupted,
                "quarantined": report.quarantined,
                "metrics": report.metrics,
                "wall_clock": report.wall_clock,
            }, indent=2, sort_keys=True) + "\n")
        return report

    def wall_clock_section(self) -> dict[str, Any]:
        """Wall-clock accounting of this run for ``report.json``.

        ``worker_utilization`` is the summed in-cell seconds over the
        pool's wall-clock capacity — how much of the campaign the
        workers spent simulating rather than idle or respawning.
        """
        total = (time.monotonic() - self.wall_started
                 if self.wall_started is not None else 0.0)
        hist = self.metrics.histogram("campaign.cell_seconds")
        capacity = total * self.num_workers
        return {
            "total_s": total,
            "cells_per_sec": (self.completions_this_run / total
                              if total > 0 else 0.0),
            "cell_seconds": {
                "mean": hist.mean,
                "p95": hist.quantile(0.95) if hist.count else 0.0,
            },
            "worker_utilization": (self.busy_seconds / capacity
                                   if capacity > 0 else 0.0),
        }


def run_campaign(grid: CampaignGrid, out_dir: "Path | str",
                 workers: int = 2, cell_timeout: float = 300.0,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 60.0,
                 max_failures: int = 3, max_requeues: int = 10,
                 backoff_base: float = 0.25, check: bool = False,
                 chaos: "ChaosPlan | bool | None" = None,
                 chaos_seed: int = 0,
                 progress: Optional[Callable[[dict], None]] = None
                 ) -> CampaignReport:
    """Run (or resume) a campaign; returns the merged report.

    *out_dir* holds the journal, ``results.csv`` and ``report.json``; an
    existing journal for the same grid is resumed (completed cells are
    skipped), a journal for a different grid is refused. *chaos* arms
    the self-test: ``True`` plans one worker kill and one hung cell from
    *chaos_seed*; pass a :class:`~repro.campaign.chaos.ChaosPlan` for
    full control. *progress*, when given, receives one dict per
    orchestration event (spawn/assign/done/failed/requeued/kill/...).
    """
    if workers < 1:
        raise CampaignError(f"need at least one worker, got {workers}")
    if cell_timeout <= 0:
        raise CampaignError(f"cell timeout must be > 0, got {cell_timeout}")
    if max_failures < 1 or max_requeues < 0:
        raise CampaignError("retry budgets must be positive")
    plan: Optional[ChaosPlan]
    if chaos is True:
        plan = ChaosPlan.plan(grid.cells(), seed=chaos_seed)
    elif chaos is False:
        plan = None
    else:
        plan = chaos
    master = _Master(grid=grid, out_dir=Path(out_dir), workers=workers,
                     cell_timeout=cell_timeout,
                     heartbeat_interval=heartbeat_interval,
                     heartbeat_timeout=heartbeat_timeout,
                     max_failures=max_failures, max_requeues=max_requeues,
                     backoff_base=backoff_base, check=check, chaos=plan,
                     progress=progress)
    return master.run()
