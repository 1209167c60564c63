"""Request coalescing: many small sample requests, few large forward passes.

The trainer amortizes forward-pass cost by batching latents; serving does
the same across *users*.  Concurrent :class:`SampleRequest`s are queued,
drained in groups by a small worker pool, and fused per mixture component:
all latent rows destined for generator ``g`` — across every request in the
group — run through ``g`` in one chunked matmul, then the output rows are
sliced back to their owners.

Determinism survives coalescing because each request's randomness is fixed
up-front by :func:`repro.serving.compute.build_plan` from its own seed, and
:func:`forward_rows` is bitwise row-stable — so the engine's answer equals
:meth:`ServableEnsemble.sample` exactly, no matter which strangers shared
the batch (asserted by ``tests/test_serving_engine.py``).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import lockcheck
from repro.serving.api import SampleRequest, ServerClosedError, ServerOverloadedError
from repro.serving.compute import assemble, build_plan, forward_rows
from repro.serving.registry import ServableEnsemble
from repro.telemetry import bus as telemetry

__all__ = ["BatchingEngine", "EngineStats"]

_SHUTDOWN = object()


@dataclass
class _Job:
    """One queued request, resolved to a concrete ensemble and seed."""

    request: SampleRequest
    ensemble: ServableEnsemble
    version: str
    seed: int
    future: Future = field(default_factory=Future)

    @property
    def weights(self) -> np.ndarray:
        if self.request.weights is not None:
            return self.ensemble.normalize_weights(self.request.weights)
        return self.ensemble.weights

    def deliver(self, images: np.ndarray | None = None,
                error: BaseException | None = None) -> bool:
        """Resolve this job's future, tolerating client-side cancellation.

        A cancelled or already-settled future is skipped silently — one
        client giving up must not poison the other requests coalesced into
        the same batch.  Returns whether the future was actually resolved.
        """
        future = self.future
        if future.done() or not future.set_running_or_notify_cancel():
            return False
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(images)
        return True


@dataclass
class EngineStats:
    """Counters describing how well coalescing is working."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    forward_calls: int = 0
    rows_forwarded: int = 0
    largest_batch_requests: int = 0

    @property
    def mean_requests_per_batch(self) -> float:
        return self.coalesced_requests / self.batches if self.batches else 0.0

    @property
    def mean_rows_per_forward(self) -> float:
        return self.rows_forwarded / self.forward_calls if self.forward_calls else 0.0


class BatchingEngine:
    """A bounded queue plus worker threads that fuse requests per generator.

    ``max_batch_samples`` caps the total sample count one drained group may
    hold; ``max_delay_s`` is how long a worker lingers for company after the
    first request arrives (the classic batching latency/throughput knob).
    ``max_pending`` bounds the queue — a full queue raises
    :class:`ServerOverloadedError` instead of growing without limit, which
    is the backpressure contract the server relies on.
    """

    def __init__(self, *, max_batch_samples: int = 4096, max_delay_s: float = 0.002,
                 workers: int = 2, max_pending: int = 256,
                 autostart: bool = True):
        if max_batch_samples < 1:
            raise ValueError("max_batch_samples must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_batch_samples = max_batch_samples
        self.max_delay_s = max_delay_s
        self.max_pending = max_pending
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._lock = threading.Lock()
        self._stats = EngineStats()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"serving-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        self._started = False
        if autostart:
            self.start()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (``autostart=False`` defers this for tests)."""
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
        for thread in self._threads:
            thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, and join the workers.

        Holding the lock while flipping ``_closed`` pairs with
        :meth:`submit` holding it across check-and-enqueue: any job that
        made it into the queue is ordered before the shutdown sentinels and
        therefore still executes; any later submit raises.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            for _ in self._threads:
                self._queue.put(_SHUTDOWN)
            for thread in self._threads:
                thread.join(timeout=timeout)
        else:
            # No workers will ever run: fail any queued jobs instead of
            # leaving their futures unresolved forever.
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not _SHUTDOWN:
                    job.deliver(error=ServerClosedError("engine is shut down"))

    def __enter__(self) -> "BatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def submit(self, request: SampleRequest, ensemble: ServableEnsemble,
               version: str, seed: int) -> Future:
        """Enqueue one request; returns a future resolving to the images."""
        job = _Job(request=request, ensemble=ensemble, version=version, seed=seed)
        with self._lock:
            if self._closed:
                raise ServerClosedError("engine is shut down")
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise ServerOverloadedError(
                    f"request queue full ({self.max_pending} pending)"
                ) from None
            lockcheck.check_owned(self._lock, "BatchingEngine._stats")
            self._stats.submitted += 1
        if telemetry.enabled():
            telemetry.gauge("serving.queue_depth", self._queue.qsize())
        return job.future

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> EngineStats:
        with self._lock:
            return EngineStats(**vars(self._stats))

    # -- the coalescing loop --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            jobs = self._collect(first)
            try:
                self._execute(jobs)
            except BaseException as error:  # defensive: never kill the worker
                for job in jobs:
                    job.deliver(error=error)

    def _collect(self, first: _Job) -> list[_Job]:
        """Linger briefly after the first request to coalesce followers."""
        jobs = [first]
        total = first.request.n
        deadline = time.monotonic() + self.max_delay_s
        while total < self.max_batch_samples:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Keep the shutdown signal observable for this worker's
                # next loop turn (and for siblings).
                self._queue.put(item)
                break
            jobs.append(item)
            total += item.request.n
        return jobs

    def _execute(self, jobs: list[_Job]) -> None:
        with self._lock:
            lockcheck.check_owned(self._lock, "BatchingEngine._stats")
            self._stats.batches += 1
            self._stats.coalesced_requests += len(jobs)
            self._stats.largest_batch_requests = max(
                self._stats.largest_batch_requests, len(jobs)
            )
        if telemetry.enabled():
            telemetry.count("serving.batches")
            telemetry.count("serving.batch_requests", len(jobs))
            telemetry.gauge("serving.batch_size",
                            sum(job.request.n for job in jobs))
            telemetry.gauge("serving.queue_depth", self._queue.qsize())
        # Requests against different ensemble objects cannot share a matmul.
        groups: dict[int, list[_Job]] = {}
        for job in jobs:
            groups.setdefault(id(job.ensemble), []).append(job)
        with telemetry.span("serving.batch"):
            for group in groups.values():
                self._execute_group(group)

    def _execute_group(self, jobs: list[_Job]) -> None:
        ensemble = jobs[0].ensemble
        # Per-job planning: one request's bad weights override (or any other
        # per-request defect) fails that job alone, not its batch neighbors.
        plans: list = []
        planned: list[_Job] = []
        for job in jobs:
            try:
                plan = build_plan(job.request.n, job.weights,
                                  ensemble.latent_size,
                                  np.random.default_rng(job.seed))
            except Exception as error:
                with self._lock:
                    self._stats.failed += 1
                job.deliver(error=error)
                continue
            plans.append(plan)
            planned.append(job)
        jobs = planned
        if not jobs:
            return
        try:
            components = len(ensemble.generators)
            # One fused forward pass per mixture component.
            outputs: list[list[np.ndarray]] = [[] for _ in jobs]
            for g in range(components):
                stacks = [plan.latents[g] for plan in plans]
                stacked = np.concatenate(stacks, axis=0)
                merged = forward_rows(ensemble.generators[g], stacked)
                with self._lock:
                    self._stats.forward_calls += 1
                    self._stats.rows_forwarded += stacked.shape[0]
                lo = 0
                for j, stack in enumerate(stacks):
                    rows = stack.shape[0]
                    outputs[j].append(merged[lo:lo + rows])
                    lo += rows
            for job, plan, blocks in zip(jobs, plans, outputs):
                images = assemble(plan, blocks)
                if job.deliver(images=images):
                    with self._lock:
                        self._stats.completed += 1
        except BaseException as error:
            # Count only jobs this error actually failed — some may already
            # have been delivered (or cancelled) before the fault.
            failed = sum(1 for job in jobs if job.deliver(error=error))
            with self._lock:
                self._stats.failed += failed
