"""Structured tracing for the serving stack: spans + instant events.

:class:`TraceRecorder` records OpenTelemetry-style events against the
engine's clock (normally a deterministic
:class:`~repro.serve.clock.VirtualClock`): *spans* with a start and a
duration (engine step phases, request lifecycle states), *instants*
(first token, an eviction, a retry) and *counter* samples (queue depth,
resident bytes).  Every serve-layer component takes an optional
recorder and defaults to :class:`NullRecorder`, whose every hook is a
no-op over shared singletons — the instrumented paths allocate nothing
when tracing is off, so observability is free by default and never
changes behaviour when it is on (the recorder reads the clock, it never
advances it, and it draws no randomness).

Request lifecycle tracking is stateful: :meth:`TraceRecorder.request_state`
closes the span for the request's previous state and opens one for the
new state, so a request's track renders as a gap-free ribbon of
``waiting -> prefilling -> running -> ... -> finished`` segments.
Terminal states (``finished``/``shed``) close the ribbon with an
instant.  Spans still open when an exporter runs are synthesized by
:meth:`TraceRecorder.open_state_spans` so a mid-run snapshot shows
in-flight requests too.

The event buffer is a bounded ring: past ``max_events`` the oldest
events drop (counted in ``dropped``), so a week-long replay cannot eat
the heap.  Event identity is deterministic — tracks are caller-supplied
names (request IDs, ``engine/decode``), timestamps come from the
deterministic clock, and buffer order is append order — so two seeded
replays produce byte-identical exports.
"""

from __future__ import annotations

from collections import deque

__all__ = ["NullRecorder", "TERMINAL_STATES", "TraceEvent", "TraceRecorder"]

#: Request lifecycle states that end the request's ribbon.
TERMINAL_STATES = frozenset({"finished", "shed"})

#: Shared empty args mapping: events without args all alias this one
#: dict, so an argless instant costs no allocation beyond the event.
_EMPTY_ARGS: dict = {}


class TraceEvent:
    """One recorded event.  ``kind`` is ``"span"`` (has a duration),
    ``"instant"`` or ``"counter"``; ``track`` is the timeline the event
    renders on (a request ID, an engine phase, ``"frontend"``); times
    are clock seconds."""

    __slots__ = ("kind", "name", "cat", "track", "ts", "dur", "args")

    def __init__(self, kind, name, cat, track, ts, dur=0.0, args=_EMPTY_ARGS):
        self.kind = kind
        self.name = name
        self.cat = cat
        self.track = track
        self.ts = ts
        self.dur = dur
        self.args = args

    def to_obj(self) -> dict:
        """A plain JSON-able dict (the JSONL export row)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "ts": self.ts,
            "dur": self.dur,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.kind} {self.cat}/{self.name} "
            f"track={self.track!r} ts={self.ts:.6f} dur={self.dur:.6f})"
        )


class _Span:
    """Context manager recording one complete span on exit."""

    __slots__ = ("_recorder", "name", "track", "cat", "args", "start_s")

    def __init__(self, recorder, name, track, cat, args):
        self._recorder = recorder
        self.name = name
        self.track = track
        self.cat = cat
        self.args = args
        self.start_s = 0.0

    def __enter__(self) -> "_Span":
        self.start_s = self._recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.complete(
            self.name,
            self.track,
            self.start_s,
            self._recorder.clock(),
            cat=self.cat,
            **self.args,
        )
        return False


class _NullSpan:
    """The do-nothing span: one shared instance serves every
    ``NullRecorder.span`` call, so disabled tracing allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default: every hook is a no-op.

    All instances are interchangeable (no state), ``events`` is the
    shared empty tuple, and :meth:`span` returns one module-level
    singleton context manager — instrumented hot paths pay a method
    call and nothing else when tracing is off.
    """

    __slots__ = ()

    enabled = False
    events: tuple = ()
    dropped = 0

    def __len__(self) -> int:
        return 0

    def instant(self, name, track, cat="event", **args) -> None:
        pass

    def counter(self, name, value, track, cat="counter") -> None:
        pass

    def complete(self, name, track, start_s, end_s, cat="span", **args) -> None:
        pass

    def span(self, name, track, cat="span", **args):
        return _NULL_SPAN

    def request_state(self, request_id, state, **args) -> None:
        pass

    def open_state_spans(self) -> list:
        return []


class TraceRecorder:
    """Bounded-ring trace recorder over a shared clock.

    ``clock`` is a zero-argument callable returning seconds (the
    engine's ``VirtualClock`` for deterministic replays).  The recorder
    never advances it.
    """

    enabled = True

    def __init__(self, clock, max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.clock = clock
        self.max_events = int(max_events)
        self._events: deque[TraceEvent] = deque()
        #: Events dropped off the ring's old end once it filled.
        self.dropped = 0
        #: request track -> (state, since_s, args) for the open
        #: lifecycle span of each in-flight request.
        self._open: dict[str, tuple[str, float, dict]] = {}

    @property
    def events(self):
        """The retained events, oldest first."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) >= self.max_events:
            self._events.popleft()
            self.dropped += 1
        self._events.append(event)

    # ------------------------------------------------------------------
    # Recording primitives.
    # ------------------------------------------------------------------
    def instant(self, name, track, cat="event", **args) -> None:
        """A zero-duration event at the current clock time."""
        self._append(
            TraceEvent(
                "instant", name, cat, track, self.clock(),
                args=args if args else _EMPTY_ARGS,
            )
        )

    def counter(self, name, value, track, cat="counter") -> None:
        """A counter-series sample (renders as a graph track)."""
        self._append(
            TraceEvent(
                "counter", name, cat, track, self.clock(),
                args={"value": value},
            )
        )

    def complete(self, name, track, start_s, end_s, cat="span", **args) -> None:
        """A finished span whose bounds the caller already knows."""
        self._append(
            TraceEvent(
                "span", name, cat, track, start_s,
                dur=max(0.0, end_s - start_s),
                args=args if args else _EMPTY_ARGS,
            )
        )

    def span(self, name, track, cat="span", **args):
        """Context manager: records a complete span from entry to exit."""
        return _Span(self, name, track, cat, args)

    # ------------------------------------------------------------------
    # Request lifecycle ribbons.
    # ------------------------------------------------------------------
    def request_state(self, request_id, state, **args) -> None:
        """The request entered ``state``: close its previous state span
        and open the new one (or close the ribbon with an instant when
        ``state`` is terminal)."""
        now = self.clock()
        prev = self._open.pop(request_id, None)
        if prev is not None:
            prev_state, since_s, prev_args = prev
            self._append(
                TraceEvent(
                    "span", prev_state, "request", request_id, since_s,
                    dur=max(0.0, now - since_s), args=prev_args,
                )
            )
        if state in TERMINAL_STATES:
            self._append(
                TraceEvent(
                    "instant", state, "request", request_id, now,
                    args=args if args else _EMPTY_ARGS,
                )
            )
        else:
            self._open[request_id] = (state, now, args if args else _EMPTY_ARGS)

    def open_state_spans(self) -> list[TraceEvent]:
        """Synthesized spans for lifecycle states still open at the
        current clock time (exporters append these so mid-run snapshots
        show in-flight requests; the recorder's own buffer is
        untouched)."""
        now = self.clock()
        return [
            TraceEvent(
                "span", state, "request", request_id, since_s,
                dur=max(0.0, now - since_s),
                args={**args, "open": True},
            )
            for request_id, (state, since_s, args) in self._open.items()
        ]
