"""Micro-batching of concurrent estimate requests — across estimators.

Individually, network estimate requests would each pay a full scalar
``estimate`` call.  The batch kernels answer a whole query batch for barely
more than one scalar call, so both serving fronts *coalesce*: concurrent
in-flight ``estimate`` requests are gathered into one bucket and answered
through a single engine dispatch (a cluster router's scatters once per
name per batch, :mod:`repro.cluster.router`).  Since the compiled-program layer
(:mod:`repro.core.program`) the bucket is **cross-estimator**: a mixed
workload of N requests over K estimators coalesces into *one*
:meth:`~repro.service.service.EstimationService.answer_multi` dispatch
instead of K per-estimator batches: one executor call per batch, in which
each name's program de-duplicates its own letter sums.  Result ``j`` of a
dispatch is bit-identical to the scalar estimate of request ``j``, so
coalescing is invisible to clients except in latency.

The shared bucket dispatches when either

* it reaches ``max_batch`` queued queries (size trigger), or
* ``max_delay`` seconds elapsed since its first query (timer trigger) —
  the knob trading a little latency for a larger coalesce factor.

Admission control bounds the total number of queries that are queued or
in flight at ``max_queue``; beyond that, :meth:`submit` raises
:class:`~repro.errors.OverloadedError` *immediately* instead of queueing
without bound, so an overloaded server answers with fast structured errors
rather than stalling every connection.

Queued requests live in **per-tenant queues** drained weighted-round-
robin: each dispatch cycles over the tenants with queued work, taking up
to ``share`` (the tenant's configured weight) queries from each before
moving on, and each dispatch starts the cycle one tenant further along.
A tenant that floods the queue therefore lengthens only *its own* line —
another tenant's requests still board the very next batch, which is what
keeps the well-behaved tenant's p99 flat under a noisy neighbor (the
``tenancy`` perf gate).  Untenanted traffic (a server with no tenant
registry) all rides one queue, making the drain order identical to the
pre-tenancy coalescer.

All methods must be called from the event-loop thread; the engine call
runs on a thread-pool executor so the loop stays responsive (a router's
awaits its workers on the loop first).
"""

from __future__ import annotations

import asyncio
import copy
from collections import Counter, OrderedDict, deque
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.result import EstimateResult
from repro.errors import OverloadedError, ServiceError
from repro.geometry.boxset import BoxSet


@dataclass
class EstimatorCoalesceStats:
    """Per-estimator coalescing counters (event-loop thread only)."""

    queries: int = 0      # queries answered for this estimator
    dispatches: int = 0   # engine dispatches that included this estimator

    @property
    def coalesce_factor(self) -> float:
        """Queries this estimator contributed per engine dispatch it rode."""
        return self.queries / self.dispatches if self.dispatches else 0.0


@dataclass
class CoalescerStats:
    """Lifetime counters of one coalescer (event-loop thread only)."""

    submitted: int = 0
    rejected: int = 0
    batches: int = 0
    batched_queries: int = 0
    size_dispatches: int = 0
    timer_dispatches: int = 0
    largest_batch: int = 0
    #: Dispatches whose bucket spanned more than one estimator — the
    #: cross-estimator coalescing the program executor makes one engine call.
    cross_dispatches: int = 0
    per_estimator: dict[str, EstimatorCoalesceStats] = field(default_factory=dict)
    #: Per-tenant queries/dispatches (same counter shape as per-estimator);
    #: untenanted traffic is not tracked here.
    per_tenant: dict[str, EstimatorCoalesceStats] = field(default_factory=dict)

    @property
    def coalesce_factor(self) -> float:
        """Average queries answered per engine call (1.0 = no coalescing)."""
        return self.batched_queries / self.batches if self.batches else 0.0

    def copy(self) -> "CoalescerStats":
        return copy.deepcopy(self)


@dataclass
class _Pending:
    """One queued estimate request."""

    name: str
    query: BoxSet | None
    future: "asyncio.Future[EstimateResult]"
    tenant: str | None = None


class EstimateCoalescer:
    """Gathers concurrent estimate requests into batched engine calls.

    Parameters
    ----------
    get_service:
        Zero-argument callable returning the *current*
        :class:`EstimationService` (a subclass's engine step may take
        another engine).  Resolved at dispatch time, so a snapshot
        hot-reload swaps the backing service without touching queued
        requests.
    max_batch:
        Size trigger: the shared bucket dispatches as soon as it holds this
        many queries (across all estimators).  ``1`` disables coalescing
        (every request becomes its own engine call) — the "naive" baseline
        of the latency benchmark.
    max_delay:
        Timer trigger, in seconds: the longest a queued query waits for
        companions before its bucket dispatches anyway.
    max_queue:
        Admission cap on queued-plus-in-flight queries; beyond it,
        :meth:`submit` raises :class:`OverloadedError`.
    executor:
        Thread pool the engine calls run on (``None`` uses the loop's
        default executor).
    """

    def __init__(self, get_service: Callable[[], Any], *, max_batch: int = 64,
                 max_delay: float = 0.002, max_queue: int = 1024,
                 executor: Executor | None = None) -> None:
        if max_batch < 1:
            raise ServiceError("max_batch must be positive")
        if max_delay < 0:
            raise ServiceError("max_delay must be non-negative")
        if max_queue < 1:
            raise ServiceError("max_queue must be positive")
        self._get_service = get_service
        self._max_batch = int(max_batch)
        self._max_delay = float(max_delay)
        self._max_queue = int(max_queue)
        self._executor = executor
        # One queue per tenant (None = untenanted traffic), drained
        # weighted-round-robin; insertion order gives the base rotation.
        self._queues: "OrderedDict[str | None, deque[_Pending]]" = OrderedDict()
        self._weights: dict[str | None, int] = {}
        self._rr_offset = 0
        self._timer: asyncio.TimerHandle | None = None
        self._queued = 0
        self._inflight = 0
        self._tasks: set[asyncio.Task] = set()
        self._stats = CoalescerStats()

    # -- introspection ------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queries currently queued or in flight (the admission level)."""
        return self._queued + self._inflight

    @property
    def stats(self) -> CoalescerStats:
        return self._stats.copy()

    # -- submission ---------------------------------------------------------------

    def submit(self, name: str, query: BoxSet | None, *,
               tenant: str | None = None, weight: int = 1
               ) -> "asyncio.Future[EstimateResult]":
        """Queue one estimate; the returned future resolves with its result.

        ``query`` is a single-row :class:`BoxSet` for queryable families or
        ``None`` for query-less ones; it is checked where its dispatch
        compiles, like every estimate.  Requests for *different* estimators
        share one dispatch — mixed batches are answered by a single
        ``answer_multi`` engine call.  ``tenant`` selects the fair-share
        queue the request waits in and ``weight`` its round-robin allowance
        (the tenant quota's ``share``).  Raises :class:`OverloadedError`
        synchronously when the admission queue is full.
        """
        if self.queue_depth >= self._max_queue:
            self._stats.rejected += 1
            raise OverloadedError()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        queue.append(_Pending(name, query, future, tenant))
        self._weights[tenant] = max(1, int(weight))
        self._queued += 1
        self._stats.submitted += 1
        if self._queued >= self._max_batch:
            self._dispatch("size")
        elif self._timer is None:
            self._timer = loop.call_later(self._max_delay, self._dispatch,
                                          "timer")
        return future

    # -- dispatching --------------------------------------------------------------

    def _take_batch(self) -> list[_Pending]:
        """Up to ``max_batch`` entries, drained weighted-round-robin.

        Each cycle over the non-empty tenant queues grants every tenant up
        to its ``share`` slots; the starting tenant rotates per dispatch so
        no queue is structurally first.  With a single queue (untenanted
        serving) this degenerates to the historical FIFO slice.
        """
        keys = [key for key, queue in self._queues.items() if queue]
        if not keys:
            return []
        entries: list[_Pending] = []
        start = self._rr_offset % len(keys)
        order = keys[start:] + keys[:start]
        self._rr_offset += 1
        while len(entries) < self._max_batch:
            took_any = False
            for key in order:
                queue = self._queues[key]
                allowance = min(self._weights.get(key, 1),
                                self._max_batch - len(entries))
                while allowance > 0 and queue:
                    entries.append(queue.popleft())
                    allowance -= 1
                    took_any = True
                if len(entries) >= self._max_batch:
                    break
            if not took_any:
                break
        # Idle queues are dropped so departed tenants cost nothing and the
        # rotation stays over live queues only.
        for key in order:
            if not self._queues[key]:
                del self._queues[key]
        return entries

    def _dispatch(self, reason: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        entries = self._take_batch()
        if not entries:
            return
        if self._queued > len(entries):
            # Leftovers (only possible after a burst larger than max_batch):
            # dispatch them on the next loop iteration rather than waiting
            # a full delay window again.
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(0, self._dispatch, reason)
        self._queued -= len(entries)
        self._inflight += len(entries)
        self._stats.batches += 1
        self._stats.batched_queries += len(entries)
        self._stats.largest_batch = max(self._stats.largest_batch, len(entries))
        if reason == "size":
            self._stats.size_dispatches += 1
        else:
            self._stats.timer_dispatches += 1
        per_name = Counter(entry.name for entry in entries)
        for name, count in per_name.items():
            stats = self._stats.per_estimator.setdefault(
                name, EstimatorCoalesceStats())
            stats.queries += count
            stats.dispatches += 1
        if len(per_name) > 1:
            self._stats.cross_dispatches += 1
        per_tenant = Counter(entry.tenant for entry in entries
                             if entry.tenant is not None)
        for tenant, count in per_tenant.items():
            stats = self._stats.per_tenant.setdefault(
                tenant, EstimatorCoalesceStats())
            stats.queries += count
            stats.dispatches += 1
        task = asyncio.get_running_loop().create_task(self._run_batch(entries))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, entries: list[_Pending]) -> None:
        """One engine call answers every entry: a bad request gets its own
        error inside that call, so it cannot fail the requests coalesced
        with it; only an engine that fails as a whole fails the batch."""
        try:
            results = await self._run_engine(self._get_service(), entries)
        except Exception as exc:
            self._fail(entries, exc)
        else:
            self._resolve(entries, results)
        finally:
            self._inflight -= len(entries)

    async def _run_engine(self, service: Any, entries: list[_Pending]) -> list:
        """One result per entry, in order (an exception answers its entry)."""
        def answer():
            # record_coalesced takes the service lock, so it stays on the
            # executor thread with the engine call — the event loop never
            # waits on that lock.
            results = service.answer_multi(
                [(entry.name, entry.query) for entry in entries])
            service.record_coalesced(len(entries))
            return results

        return await asyncio.get_running_loop().run_in_executor(
            self._executor, answer)

    @staticmethod
    def _resolve(entries: list[_Pending], results) -> None:
        for entry, result in zip(entries, results):
            if not entry.future.done():
                if isinstance(result, BaseException):
                    entry.future.set_exception(result)
                else:
                    entry.future.set_result(result)

    @staticmethod
    def _fail(entries: list[_Pending], exc: Exception) -> None:
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(exc)

    # -- shutdown -----------------------------------------------------------------

    async def drain(self) -> None:
        """Dispatch everything queued and wait for in-flight batches."""
        while self._queued or self._tasks:
            self._dispatch("timer")
            if self._tasks:
                await asyncio.gather(*list(self._tasks), return_exceptions=True)
            else:
                await asyncio.sleep(0)
