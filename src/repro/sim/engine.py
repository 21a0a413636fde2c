"""The discrete-event simulator core.

Two styles of simulated activity coexist on one clock:

* **Callback events** — ``sim.schedule(delay, fn)`` — used by the runtime,
  DLB, and policies, whose logic is naturally a state machine.
* **Coroutine processes** — ``sim.spawn(gen)`` where *gen* is a generator
  yielding awaitables (:class:`Timeout`, :class:`repro.sim.primitives.Signal`,
  another :class:`Process`) — used for application main functions, which read
  like the SPMD program they model.

All ordering is deterministic: same-time events fire in scheduling order
within their priority band (see :class:`repro.sim.events.EventPriority`).

Hot-path notes
--------------

The engine is the innermost loop of every experiment, so it trades a
little uniformity for speed:

* event construction is inlined into :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` (no delegation, positional ``Event``
  call);
* dynamic (f-string) event labels are only built when something will
  read them — ``sim.labels`` is maintained by the ``tracer``/``validator``
  property setters and is False on plain runs, making label construction
  free on the hot path (static labels like ``"timeout"`` are interned
  constants and always attached);
* :meth:`Simulator.run` has a tight drain loop for the common case
  (no ``until``, no event cap, no validator) that skips the peek/step
  double scan and batches the ``events_fired`` counter update;
* the engine carries no wall-clock instrumentation: ``python -m repro
  bench`` times runs from outside and attributes host time with one
  :mod:`cProfile` pass.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessError, SimulationError, WaitCancelledError
from .events import Event, EventPriority
from .queue import EventQueue

__all__ = ["Simulator", "Timeout", "Process", "Interrupt"]

_NORMAL = int(EventPriority.NORMAL)


class Interrupt:
    """Resume-with-error marker for process waits.

    When an awaitable resumes a waiting :class:`Process` with an
    ``Interrupt(error)`` instead of a plain value, the error is *thrown*
    into the coroutine at the ``yield`` — the process can catch it (e.g. a
    timeout/retry loop) or let it terminate the process.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class Timeout:
    """Awaitable that resumes the yielding process after ``delay`` sim-seconds.

    The scheduled event is exposed as :attr:`event` once a process waits on
    the timeout; cancelling it through :meth:`Simulator.cancel` resumes the
    waiter with :class:`repro.errors.WaitCancelledError` instead of leaving
    it suspended forever.
    """

    __slots__ = ("delay", "value", "event", "_sim", "_resume")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.delay = float(delay)
        self.value = value
        self.event: Optional[Event] = None
        self._sim: Optional["Simulator"] = None
        self._resume: Optional[Callable[[Any], None]] = None

    def _subscribe(self, sim: "Simulator", resume: Callable[[Any], None]) -> None:
        # Bound methods instead of per-subscribe closures: a runtime that
        # arms and cancels timeouts per message would otherwise allocate
        # two closures per wait.
        self._sim = sim
        self._resume = resume
        self.event = sim.schedule(self.delay, self._fire, label="timeout")
        self.event.on_cancel = self._on_cancel

    def _fire(self) -> None:
        self.event.on_cancel = None    # a later cancel() is a plain no-op
        self._resume(self.value)

    def _on_cancel(self) -> None:
        self._sim.schedule(0.0, self._fire_cancelled, label="timeout-cancelled")

    def _fire_cancelled(self) -> None:
        self._resume(Interrupt(WaitCancelledError("timeout cancelled")))


class Process:
    """A coroutine process driven by the simulator.

    The wrapped generator yields awaitables; each yield suspends the process
    until the awaitable completes, and the awaitable's value is sent back in.
    A process is itself awaitable (join semantics): waiters receive the
    generator's return value.
    """

    __slots__ = ("sim", "name", "_gen", "_done", "_result", "_error",
                 "_waiters", "_done_hooks", "_wait_epoch")

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any],
                 name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: list[Callable[[Any], None]] = []
        #: synchronous completion callbacks — run inside :meth:`_finish`
        #: without scheduling an event, so bookkeeping (e.g. ``run_all``'s
        #: pending counter) costs no events and cannot perturb ordering
        self._done_hooks: list[Callable[["Process"], None]] = []
        #: incremented on every suspension; resumes from a superseded wait
        #: (e.g. after :meth:`interrupt` detached it) are ignored
        self._wait_epoch = 0

    @property
    def done(self) -> bool:
        """Whether the generator has finished (normally or with an error)."""
        return self._done

    @property
    def result(self) -> Any:
        """Return value of the generator; raises if it failed or is still running."""
        if not self._done:
            raise ProcessError(f"process {self.name!r} still running")
        if self._error is not None:
            raise self._error
        return self._result

    def _subscribe(self, sim: "Simulator", resume: Callable[[Any], None]) -> None:
        if self._done:
            sim.schedule(0.0, lambda: resume(self._result), label="join-done")
        else:
            self._waiters.append(resume)

    def _start(self) -> None:
        self.sim.schedule(0.0, self._first_step,
                          label=f"start:{self.name}" if self.sim.labels else "")

    def _first_step(self) -> None:
        self._step(None)

    def interrupt(self, error: Optional[BaseException] = None) -> None:
        """Throw *error* into the process at its current ``yield``.

        Detaches the process from whatever it is waiting on (a later fire
        of that awaitable is ignored) and resumes it with the error at the
        current simulated time. Interrupting a finished process raises
        :class:`ProcessError`.
        """
        if self._done:
            raise ProcessError(f"interrupt of finished process {self.name!r}")
        if error is None:
            error = WaitCancelledError(f"process {self.name!r} interrupted")
        self._wait_epoch += 1     # detach the pending wait, if any
        self.sim.schedule(0.0, lambda: self._step(Interrupt(error)),
                          label=f"interrupt:{self.name}")

    def _step(self, value: Any) -> None:
        if self._done:
            raise ProcessError(f"resumed finished process {self.name!r}")
        try:
            if isinstance(value, Interrupt):
                awaited = self._gen.throw(value.error)
            else:
                awaited = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # propagate after marking done
            self._finish(None, exc)
            raise
        subscribe = getattr(awaited, "_subscribe", None)
        if subscribe is None:
            err = ProcessError(
                f"process {self.name!r} yielded non-awaitable {awaited!r}"
            )
            self._finish(None, err)
            raise err
        self._wait_epoch += 1
        epoch = self._wait_epoch

        def resume(resumed_value: Any, _epoch: int = epoch) -> None:
            # A stale resume (the wait was detached by interrupt()) or a
            # resume after the process already finished is dropped: the
            # generator has moved on and must not be stepped twice.
            if self._done or self._wait_epoch != _epoch:
                return
            self._step(resumed_value)

        subscribe(self.sim, resume)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self._done = True
        self._result = result
        self._error = error
        sim = self.sim
        if sim._tracer is not None:
            sim._tracer.process_finished(self.name)
        if self._done_hooks:
            hooks, self._done_hooks = self._done_hooks, []
            for hook in hooks:
                hook(self)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            label = f"join:{self.name}" if sim.labels else ""
            for resume in waiters:
                sim.schedule(0.0, lambda r=resume: r(result), label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "running"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Event loop owning the simulated clock.

    A single instance underlies one simulated cluster execution. The clock
    unit is seconds; it starts at 0 and only moves forward.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._seq = 0
        self._running = False
        self.events_fired = 0
        self._tracer: Optional[Any] = None
        self._validator: Optional[Any] = None
        #: whether dynamic (f-string) event labels should be built; kept in
        #: sync by the ``tracer``/``validator`` setters so plain runs pay
        #: nothing for labels nobody will read
        self.labels = False

    @property
    def tracer(self) -> Optional[Any]:
        """Optional instrumentation tap (:class:`repro.obs.Observability`):
        notified of process lifecycles; never schedules events itself."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self._tracer = value
        self.labels = value is not None or self._validator is not None

    @property
    def validator(self) -> Optional[Any]:
        """Optional invariant sanitizer (:class:`repro.validate.Sanitizer`):
        sees every fired event; never schedules events itself."""
        return self._validator

    @validator.setter
    def validator(self, value: Optional[Any]) -> None:
        self._validator = value
        self.labels = value is not None or self._tracer is not None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = _NORMAL,
        label: str = "",
    ) -> Event:
        """Run *callback* ``delay`` seconds from now; returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._seq = seq = self._seq + 1
        event = Event(self._now + delay, int(priority), seq, callback,
                      False, False, label, None)
        self._queue.push(event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = _NORMAL,
        label: str = "",
    ) -> Event:
        """Run *callback* at absolute simulated *time* (>= now)."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at t={time} < now={self._now}")
        self._seq = seq = self._seq + 1
        event = Event(time, int(priority), seq, callback,
                      False, False, label, None)
        self._queue.push(event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if already fired or cancelled).

        If the event backs an awaitable that registered an ``on_cancel``
        hook (e.g. a :class:`Timeout` a process is waiting on), the hook
        runs so the waiter is resumed with an error rather than suspended
        forever.
        """
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._queue.notify_cancelled()
            if event.on_cancel is not None:
                hook, event.on_cancel = event.on_cancel, None
                hook()

    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register a coroutine process; it first runs at the current time."""
        process = Process(self, gen, name=name)
        if self._tracer is not None:
            self._tracer.process_started(process.name)
        process._start()
        return process

    def step(self) -> bool:
        """Fire the earliest event. Returns False when the queue is empty."""
        queue = self._queue
        if not queue:
            return False
        event = queue.pop()
        time = event.time
        if time < self._now:
            raise SimulationError("event queue returned a past event")
        self._now = time
        self.events_fired += 1
        validator = self._validator
        if validator is not None:
            validator.on_event(event)
        event.callback()
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drain events until quiescence, ``until`` time, or ``max_events``.

        Returns the clock value when the run stops. When *until* is given,
        the clock is advanced to exactly *until* even if the last event fires
        earlier (so periodic samplers see a full window).
        """
        if self._running:
            raise SimulationError("run() re-entered")
        self._running = True
        if until is None and max_events is None and self._validator is None:
            # Tight drain: no peek/step double scan, no per-event branch
            # ladder, one counter update at the end.
            queue = self._queue
            pop = queue.pop
            fired = 0
            try:
                while queue._live:
                    event = pop()
                    self._now = event.time
                    fired += 1
                    event.callback()
            finally:
                self.events_fired += fired
                self._running = False
            return self._now
        fired = 0
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_all(self, processes: Iterable[Process],
                until: Optional[float] = None) -> float:
        """Run until every process in *processes* is done (or *until*)."""
        processes = list(processes)
        # Completion is counted synchronously via done-hooks instead of
        # rescanning the full process list every drain cycle (which was
        # quadratic with many processes).
        pending = sum(1 for p in processes if not p.done)
        counter = [pending]

        def on_done(_process: Process) -> None:
            counter[0] -= 1

        for process in processes:
            if not process._done:
                process._done_hooks.append(on_done)
        while True:
            if counter[0] == 0:
                return self._now
            before = self.events_fired
            self.run(until=until)
            if until is not None and self._now >= until:
                return self._now
            if self.events_fired == before:
                names = ", ".join(p.name for p in processes if not p.done)
                raise SimulationError(f"deadlock: processes never complete: {names}")

    def pending_events(self) -> int:
        """Number of live events still queued (diagnostics)."""
        return len(self._queue)
