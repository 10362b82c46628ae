"""Generator-based simulation processes."""

from repro.des.errors import Interrupt, SimulationError
from repro.des.events import URGENT, Event, Timeout


class _TickSentinel:
    """Marker stored in ``Process._target`` while the process sleeps on
    a bare delay (``yield 1.5``) instead of a real event.

    It quacks just enough like an event for :meth:`Process._resume`'s
    detach branch (``_waiter``/``callbacks`` both ``None``), so an
    interrupt delivered during a bare-delay sleep detaches cleanly: the
    resume path replaces ``_target``, which invalidates the pending
    tick entry (the dispatcher double-checks ``_tick_eid``).
    """

    __slots__ = ()
    _waiter = None
    callbacks = None

    def __repr__(self):
        return "<TICK>"


#: The single tick sentinel (identity-compared everywhere).
_TICK = _TickSentinel()

#: Sentinel for "no staged yield" in :meth:`Process._resume`.
_NO_YIELD = object()


class Process(Event):
    """Wraps a generator so it runs as a simulation process.

    The generator yields :class:`Event` objects; the process suspends
    until each yielded event is processed, then resumes with the event's
    value (or the event's exception thrown in, if it failed).

    A generator may also yield a bare non-negative ``float`` or ``int``
    delay — exactly equivalent to ``yield env.timeout(delay)`` (the
    process resumes with ``None`` after *delay* time units, interrupts
    included) but with no event allocated at all: the kernel schedules
    the process itself as a *tick* entry and resumes the generator
    straight from the dispatch loop.  The tick entry consumes the same
    event id the equivalent Timeout would have, so switching a call
    site between the two forms leaves the kernel's dispatch order (and
    therefore every simulation result) bit-identical.

    A process is itself an event: it triggers with the generator's
    return value when the generator finishes, so other processes can
    wait on it, alone or inside a condition event.  Work that needs no
    generator of its own (the model's sub-transactions) runs instead
    as a chain of completion callbacks reporting into a
    :class:`~repro.des.events.Join`.
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "_tick_eid")

    def __init__(self, env, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self._generator = generator
        #: The event this process currently waits on (None if running or
        #: not yet started; :data:`_TICK` during a bare-delay sleep).
        self._target = None
        #: The resume callback is bound once: every yield re-registers
        #: it, and ``self._resume`` would allocate a fresh bound method
        #: per access on the hottest path in the kernel.  It points back
        #: at the process, so it is dropped when the generator finishes:
        #: a finished process is then freed by reference counting alone.
        self._resume_cb = self._resume
        #: Entry id of the pending tick (bare-delay sleep).  The
        #: dispatcher skips tick entries whose eid no longer matches —
        #: an interrupt resumed the process first, making them stale.
        self._tick_eid = -1
        env._live_procs += 1
        from repro.des.events import Initialize

        Initialize(env, self)

    def __repr__(self):
        return "<Process({}) object at {:#x}>".format(
            getattr(self._generator, "__name__", "?"), id(self)
        )

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its yield point.

        The interrupt is delivered as an urgent event at the current
        instant.  Interrupting a finished process is an error; a process
        cannot interrupt itself.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume_cb)
        self.env.schedule(interrupt_event, delay=0, priority=URGENT)

    def _resume(self, event, yielded=_NO_YIELD):
        """Advance the generator with the outcome of *event*.

        When *yielded* is given, the generator has already produced
        that value (the dispatch loop's tick fast path called ``send``
        itself and hit a non-delay yield); the loop below then starts
        by handling it instead of advancing the generator again.
        """
        # An interrupt may arrive while we were waiting on another
        # event; detach from that event so its later processing does
        # not resume us twice.  (During a bare-delay sleep the target
        # is the _TICK sentinel: both detach probes are no-ops, and
        # replacing _target below is what marks the pending tick entry
        # stale for the dispatcher.)
        if self._target is not None and self._target is not event:
            target = self._target
            if target._waiter is self._resume_cb:
                target._waiter = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        self._target = None
        while True:
            if yielded is _NO_YIELD:
                try:
                    if event is None or event._ok:
                        next_event = self._generator.send(
                            None if event is None else event.value
                        )
                    else:
                        event.defuse()
                        next_event = self._throw(event._value)
                except StopIteration as stop:
                    self._finish_stop(stop)
                    return
                except BaseException as error:
                    self._finish_error(error)
                    return
            else:
                next_event = yielded
                yielded = _NO_YIELD
            cls = next_event.__class__
            if cls is float or cls is int:
                # Bare-delay sleep: schedule the process itself as a
                # tick entry (no event object).  The eid drawn here
                # lands at exactly the point in the id stream where
                # ``env.timeout(delay)`` would have drawn it (inside
                # the yield expression, i.e. still within this resume),
                # so both spellings dispatch identically.
                self.env.schedule_tick(self, next_event)
                return
            if cls is Timeout:
                # Fast path for the ubiquitous ``yield env.timeout(d)``:
                # a freshly created timeout nobody else watches gets its
                # single waiter stored directly on the event, skipping
                # the generic callback list (one append + one list
                # iteration per event saved).  The run loop fires the
                # waiter before any listed callbacks, which is exactly
                # the order an immediate append would have produced.
                if next_event._waiter is None and not next_event.callbacks:
                    if next_event.callbacks is None:
                        event = next_event
                        continue  # already processed: feed it back in
                    next_event._waiter = self._resume_cb
                    self._target = next_event
                    return
            elif not isinstance(next_event, Event):
                raise SimulationError(
                    "process yielded a non-event: {!r}".format(next_event)
                )
            if next_event.processed:
                # Already done: loop and feed its value immediately.
                event = next_event
                continue
            next_event.callbacks.append(self._resume_cb)
            self._target = next_event
            return

    def _throw(self, error):
        """Throw a failed event's *error* in at the yield point.

        The error keeps the traceback it arrived with, whether the
        generator handles it or not: the event that failed still holds
        it, and the generator frame the throw would add to it may hold
        that event (a cycle through the frame's locals).
        """
        tb = error.__traceback__
        try:
            return self._generator.throw(error)
        finally:
            error.__traceback__ = tb

    # -- finish hooks (shared by _resume and the tick fast path) --------

    def _finish_stop(self, stop):
        """The generator returned: succeed with its return value.

        The bound ``_resume_cb`` points back at the process, so it is
        dropped here: a finished process is freed by reference counting.
        """
        self._target = None
        self._ok = True
        self._value = stop.value
        self._resume_cb = None
        self.env._live_procs -= 1
        self.env.schedule(self, delay=0)

    def _finish_error(self, error):
        """The generator raised *error*: fail with it (an escaped
        :class:`Interrupt` propagates out of the run loop instead).

        The traceback's first entry is the kernel frame that caught the
        error, whose locals hold this process; it is cut, so the error
        keeps only its own frames and a failed process is freed by
        reference counting too.
        """
        self._target = None
        self.env._live_procs -= 1
        if isinstance(error, Interrupt):
            raise error
        error.__traceback__ = error.__traceback__.tb_next
        self._ok = False
        self._value = error
        self._resume_cb = None
        self.env.schedule(self, delay=0)
