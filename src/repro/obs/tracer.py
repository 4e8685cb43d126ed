"""Hierarchical wall-clock tracing for the simulated MPI/OpenMP SCF.

A :class:`Tracer` records *spans* — named, nestable regions of wall
time with arbitrary attributes — via a context manager::

    tracer = Tracer()
    with tracer.span("fock/build", algorithm="shared-fock"):
        with tracer.span("fock/rank", rank=0):
            ...

Spans form a tree (the nesting structure of the ``with`` statements);
attributes such as ``rank`` and ``thread`` are inherited down the tree,
which is what lets the Chrome-trace exporter place every span on the
track of its simulated rank/thread.

The disabled path is near-free: a tracer constructed with
``enabled=False`` (or the module-level :data:`NULL_TRACER`) hands out a
single shared no-op context manager from :meth:`Tracer.span`, so
instrumented code pays one method call and no allocation per span.

The wall clock defaults to :func:`time.perf_counter`; tests inject a
deterministic fake clock through the ``clock`` parameter.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def new_trace_id() -> str:
    """A fresh W3C trace id: 32 lowercase hex chars, never all-zero.

    Read straight from ``os.urandom`` (the source ``secrets`` reads):
    importing ``secrets`` maps OpenSSL's libcrypto, 3.6 MB of RSS in
    every process that traces nothing.
    """
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id.strip("0"):
            return trace_id


_span_ids = itertools.count(1)


def _reseed_span_ids() -> None:
    """A fresh random prefix and a restarted serial (import, fork)."""
    global _span_ids
    _span_ids = itertools.count(
        random.SystemRandom().randrange(1, 0x80000000) << 32 | 1
    )


_reseed_span_ids()
# A forked worker must not mint its parent's ids.
os.register_at_fork(after_in_child=_reseed_span_ids)


def new_span_id() -> str:
    """A fresh W3C span id: 16 lowercase hex chars, never all-zero.

    One 64-bit counter per process: a random nonzero 31-bit prefix over
    a 32-bit serial that starts at 1.  Unique within the process (a
    serial that runs past 32 bits carries into the prefix, and 2**63
    ids fit below the top bit), and across processes as far as their
    prefixes differ — one counter step per span instead of a call into
    the OS random source.
    """
    return f"{next(_span_ids):016x}"


class TraceContext:
    """Remote parentage for a tracer: ``(trace_id, span_id)`` of the caller.

    When a :class:`Tracer` carries a context, every root span it opens
    is stamped with ``trace_id`` and parented (via ``parent_span_id``)
    onto the context's ``span_id`` — that is how a forked worker's SCF
    spans attach to the job-level span minted by the service queue in
    another process.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext({self.trace_id!r}, {self.span_id!r})"


def format_traceparent(ctx: TraceContext) -> str:
    """W3C ``traceparent`` header form: ``00-<trace_id>-<span_id>-01``."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(header: str) -> TraceContext | None:
    """Parse a ``traceparent`` string; ``None`` on any malformation."""
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if version != "00" or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(trace_id, span_id)


class Span:
    """One traced region: a name, a wall-time interval, and attributes.

    :meth:`Tracer.span` hands a span out unopened; it is its own context
    manager, opened (timed, parented, given its ids) on ``__enter__`` and
    closed on ``__exit__``.
    """

    __slots__ = ("name", "attrs", "start", "end", "parent", "children",
                 "trace_id", "span_id", "parent_span_id", "_tracer")

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any],
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end: float | None = None
        self.parent: Span | None = None
        self.children: list[Span] = []
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_span_id: str | None = None
        self._tracer = tracer

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        self.parent = parent
        ctx = tracer.context
        if ctx is not None:
            self.trace_id = ctx.trace_id
            self.span_id = new_span_id()
            self.parent_span_id = (
                parent.span_id if parent is not None else ctx.span_id
            )
        (parent.children if parent is not None else tracer.roots).append(self)
        stack.append(self)
        self.start = tracer.clock()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        tracer = self._tracer
        self.end = tracer.clock()
        tracer._stack.pop()
        if tracer.on_close is not None:
            tracer.on_close(self)
        return False

    @property
    def duration(self) -> float:
        """Span wall seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a root span)."""
        d, s = 0, self.parent
        while s is not None:
            d, s = d + 1, s.parent
        return d

    def effective_attr(self, key: str, default: Any = None) -> Any:
        """Attribute value, inherited from the nearest ancestor that set it."""
        s: Span | None = self
        while s is not None:
            if key in s.attrs:
                return s.attrs[key]
            s = s.parent
        return default

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, dur={self.duration:.6f}, "
            f"attrs={self.attrs!r}, children={len(self.children)})"
        )


class _NullSpanContext:
    """Shared no-op context manager handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Span recorder with a current-span stack.

    Parameters
    ----------
    enabled:
        When ``False`` the tracer records nothing and :meth:`span`
        returns a shared no-op context manager.
    clock:
        Monotonic second counter; :func:`time.perf_counter` by default.
    on_close:
        Optional callback invoked with each span as it completes —
        the hook the incremental NDJSON streamer
        (:class:`~repro.obs.stream.ObsStreamer`) uses to make records
        durable before a worker can die.  ``None`` (the default) costs
        one ``is None`` test per span close.
    context:
        Optional :class:`TraceContext` naming the remote parent.  When
        set, every span gets W3C ids: ``trace_id`` from the context,
        a fresh ``span_id``, and ``parent_span_id`` chaining to the
        enclosing span (or to ``context.span_id`` for roots).  When
        ``None`` (the default) spans carry no ids and tracing stays
        purely in-process, exactly as before.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        on_close: Callable[[Span], None] | None = None,
        context: TraceContext | None = None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.on_close = on_close
        self.context = context
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span | _NullSpanContext:
        """A named span for the duration of a ``with`` block."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, attrs, self)

    # -- inspection ----------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """Innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def walk(self) -> Iterator[Span]:
        """All recorded spans, depth-first over the root forest."""
        for root in self.roots:
            yield from root.walk()

    @property
    def nspans(self) -> int:
        return sum(1 for _ in self.walk())

    def total_seconds(self) -> float:
        """Sum of root-span durations (total traced wall time)."""
        return sum(r.duration for r in self.roots)

    def clear(self) -> None:
        """Drop all recorded spans (open spans are discarded too)."""
        self.roots.clear()
        self._stack.clear()


#: The shared disabled tracer installed by default.
NULL_TRACER = Tracer(enabled=False)

_current_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently installed tracer (:data:`NULL_TRACER` by default)."""
    return _current_tracer


def set_tracer(tracer: Tracer | None) -> None:
    """Install ``tracer`` globally; ``None`` restores :data:`NULL_TRACER`."""
    global _current_tracer
    _current_tracer = NULL_TRACER if tracer is None else tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = _current_tracer
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
