"""The query governor: per-query wall-clock, row, and memory budgets.

A production engine cannot let one pathological plan — a cross join the
optimizer could not avoid, a hash build over an unexpectedly huge extent —
stall the process for every other caller.  The governor bounds each
execution cooperatively:

* **wall-clock deadline** (``timeout`` seconds): checked on an amortized
  schedule from the operator loops;
* **row budget** (``max_rows``): counts *work units* — rows emitted by
  operators plus inner join-pair iterations — so a nested-loop blowup is
  charged even when it emits few rows.  The check schedule is clamped to
  the budget and the engine settles units in steps that stop at the next
  checkpoint, so a trip happens at exactly ``max_rows + 1`` units;
* **memory budget** (``max_bytes``): blocking operators (hash-join builds,
  hash-nest groups, nested-loop inner materialization)
  :meth:`~Governor.charge` a shallow byte estimate for what they buffer,
  sampled one row per :data:`SAMPLE_STRIDE`;
* **cancellation** (:class:`CancelToken`): a thread-safe flag a caller can
  trip from outside; the running query observes it at the next settle and
  stops with :class:`~repro.errors.QueryCancelled`.

The engine's operators settle work units once per chunk via
:meth:`~Governor.tick_many`, in steps of at most :meth:`~Governor.batch`
units, so governed execution pays no per-unit method call; deadline and
cancellation checks — the expensive parts, a clock read and an ``Event``
load — run once per ``tick_interval`` units.

A :class:`Governor` is created per execution and owned by the one thread
that runs it, so its counters are plain attributes.  Only the
:class:`CancelToken` is shared across threads, and it is thread-safe.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout

__all__ = [
    "CancelToken",
    "Governor",
    "SAMPLE_STRIDE",
    "estimate_bytes",
]


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Hand the token to :meth:`CompiledQuery.execute` (or build a
    :class:`Governor` with it), keep a reference, and call :meth:`cancel`
    from any thread; the running query raises
    :class:`~repro.errors.QueryCancelled` at its next governor checkpoint.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation.  Idempotent; safe from any thread."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def estimate_bytes(value: Any) -> int:
    """A cheap, shallow estimate of the memory a buffered row costs.

    ``sys.getsizeof`` on the container plus one level of contents — not a
    deep traversal, which would cost more than the buffering it polices.
    Rows are records or scalars; one level covers the common shapes.
    """
    size = sys.getsizeof(value, 64)
    fields = getattr(value, "_fields", None)
    if fields is not None:  # a Record: charge its field dict's values
        value = fields
    if isinstance(value, dict):
        size += sum(sys.getsizeof(v, 64) for v in value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        size += sum(sys.getsizeof(v, 64) for v in value)
    return size


#: Blocking operators estimate one buffered row per stride and charge the
#: whole stride at that rate — rows in a buffer share a shape, so sampling
#: loses little accuracy and cuts the estimator out of the per-row path.
SAMPLE_STRIDE = 16


class Governor:
    """Per-execution resource limits, checked cooperatively.

    Args:
        timeout: wall-clock budget in seconds, or ``None`` for unlimited.
        max_rows: work-unit budget (rows emitted + join pairs considered),
            or ``None`` for unlimited.  Trips at exactly ``max_rows + 1``
            units when callers settle in steps of :meth:`batch`.
        max_bytes: estimated-memory budget for blocking operators, or
            ``None`` for unlimited.
        token: an optional :class:`CancelToken` observed at checkpoints.
        source: the query source, attached to raised errors.
        tick_interval: work units between deadline/cancellation checks.
    """

    __slots__ = (
        "timeout",
        "max_rows",
        "max_bytes",
        "token",
        "source",
        "tick_interval",
        "ticks",
        "bytes_charged",
        "peak_bytes",
        "checkpoints",
        "_deadline",
        "_next_check",
    )

    def __init__(
        self,
        *,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_bytes: int | None = None,
        token: CancelToken | None = None,
        source: str | None = None,
        tick_interval: int = 1024,
    ):
        self.timeout = timeout
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.token = token
        self.source = source
        self.tick_interval = max(1, tick_interval)
        self.ticks = 0
        self.bytes_charged = 0
        self.peak_bytes = 0
        self.checkpoints = 0
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._next_check = self._schedule(0)

    def _schedule(self, ticks: int) -> int:
        """The tick count at which the next checkpoint must run.

        Clamped to ``max_rows + 1`` so the row budget trips exactly when
        exceeded, never ``tick_interval`` rows late.
        """
        nxt = ticks + self.tick_interval
        if self.max_rows is not None:
            nxt = min(nxt, self.max_rows + 1)
        return nxt

    def tick(self) -> None:
        """Charge one work unit (a row emitted or a join pair considered).

        The common case is an increment and a comparison; limits are
        checked on the amortized schedule."""
        self.ticks += 1
        if self.ticks >= self._next_check:
            self._checkpoint()

    def batch(self) -> int:
        """How many work units a caller may settle before the next
        checkpoint: the distance to it, clamped near a row budget.

        Settling in steps of at most this many units (see
        :meth:`repro.engine.physical._Context.settle`) makes every
        checkpoint land exactly on schedule, so a row budget trips at
        exactly ``max_rows + 1`` units."""
        return max(1, self._next_check - self.ticks)

    def tick_many(self, units: int) -> None:
        """Settle *units* locally-counted work units (see :meth:`batch`)."""
        if not units:
            return
        self.ticks += units
        if self.ticks >= self._next_check:
            self._checkpoint()

    def charge(self, nbytes: int) -> None:
        """Charge *nbytes* of buffered memory (blocking operators only)."""
        self.bytes_charged += nbytes
        if self.bytes_charged > self.peak_bytes:
            self.peak_bytes = self.bytes_charged
        if self.max_bytes is not None and self.bytes_charged > self.max_bytes:
            raise BudgetExceeded(
                f"memory budget exceeded: ~{self.bytes_charged} bytes buffered "
                f"(max_bytes={self.max_bytes})",
                source=self.source,
                stage="execute",
            )

    def release(self, nbytes: int) -> None:
        """Return *nbytes* previously charged (a buffer was dropped)."""
        self.bytes_charged = max(0, self.bytes_charged - nbytes)

    def check(self) -> None:
        """Force a full limit check now (used between pipeline stages)."""
        self._checkpoint()

    def _checkpoint(self) -> None:
        self.checkpoints += 1
        self._next_check = self._schedule(self.ticks)
        if self.max_rows is not None and self.ticks > self.max_rows:
            raise BudgetExceeded(
                f"row budget exceeded: {self.ticks} work units "
                f"(max_rows={self.max_rows})",
                source=self.source,
                stage="execute",
            )
        if self.token is not None and self.token.cancelled:
            raise QueryCancelled(
                "query cancelled", source=self.source, stage="execute"
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout(
                f"query exceeded timeout of {self.timeout}s",
                source=self.source,
                stage="execute",
            )
