"""The serving front door: routing, caching, backpressure, statistics.

:class:`GeneratorServer` wires the registry, the LRU cache, the optional
sample pool and the batching engine into one object with the interface a
network endpoint would wrap:

* ``submit(...)`` — non-blocking; returns a future of a
  :class:`SampleResponse` (or raises :class:`ServerOverloadedError` when
  the bounded queue is full — reject-when-full backpressure).
* ``request(...)`` — the blocking convenience wrapper.
* ``promote(version)`` — atomic hot-swap of the version anonymous traffic
  is served from; the seedless pool is rebuilt for the new version.
* ``stats()`` — a :class:`ServerStats` snapshot: throughput, p50/p95
  latency, queue depth and cache hit rates.

Request routing: seeded requests (deterministic) are looked up in the LRU
first and inserted after computation; seedless requests try the pool; every
miss goes to the engine, which coalesces concurrent misses into large fused
forward passes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.runtime import pin_blas_threads
from repro.serving.api import (
    SampleRequest,
    SampleResponse,
    ServerClosedError,
    ServerOverloadedError,
    ServerStats,
    _percentile,
)
from repro.serving.cache import LRUSampleCache, SamplePool
from repro.serving.engine import BatchingEngine
from repro.serving.registry import ModelRegistry, ServableEnsemble
from repro.telemetry import TimerSnapshot, bus as telemetry

__all__ = ["GeneratorServer"]

#: Seeds for seedless requests are drawn above this bound so they can never
#: collide with a client-chosen (cacheable) seed by accident.
_EPHEMERAL_SEED_BASE = 2 ** 48


class GeneratorServer:
    """Serve samples from a registry of trained generator ensembles."""

    def __init__(self, source: ModelRegistry | ServableEnsemble, *,
                 version: str = "v1", max_pending: int = 256, workers: int = 2,
                 max_batch_samples: int = 4096, max_delay_s: float = 0.002,
                 lru_capacity: int = 256, pool_capacity: int = 0,
                 pool_refill_batch: int = 256, seed: int = 0,
                 max_request_samples: int = 65_536, autostart: bool = True):
        # Single-threaded BLAS is what makes gemm row-stable — the
        # foundation of the batched == unbatched determinism guarantee
        # (repro.serving.compute).  Both trainers pin; so does serving.
        pin_blas_threads(1)
        if isinstance(source, ServableEnsemble):
            registry = ModelRegistry()
            registry.register(version, source, promote=True)
            source = registry
        self.registry: ModelRegistry = source
        self.engine = BatchingEngine(
            max_batch_samples=max_batch_samples, max_delay_s=max_delay_s,
            workers=workers, max_pending=max_pending, autostart=autostart,
        )
        self.lru = LRUSampleCache(lru_capacity) if lru_capacity > 0 else None
        if self.lru is not None:
            # Replacing/evicting a version orphans its uid-keyed entries;
            # drop them eagerly instead of letting them squat on the budget.
            self.registry.subscribe(self.lru.invalidate)
        if max_request_samples < 1:
            raise ValueError("max_request_samples must be >= 1")
        self.max_request_samples = max_request_samples
        self._pool_capacity = pool_capacity
        self._pool_refill_batch = pool_refill_batch
        self._pool_autostart = autostart
        self._pool: SamplePool | None = None
        self._seed_rng = np.random.default_rng(seed)  # guarded by _lock
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=4096)
        # Cumulative serve time and calls per path; guarded by _lock.
        self._path_seconds: dict[str, float] = {}
        self._path_calls: dict[str, int] = {}
        self._requests = 0
        self._rejected = 0
        self._samples = 0
        self._pool_hits = 0
        self._pool_misses = 0
        self._start = time.monotonic()
        self._closed = False
        if pool_capacity > 0 and self.registry.active_version is not None:
            self._ensure_pool()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.lru is not None:
            # Stop a shared, caller-owned registry from retaining (and
            # notifying) this server's cache after shutdown.
            self.registry.unsubscribe(self.lru.invalidate)
        self.engine.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "GeneratorServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- model lifecycle ------------------------------------------------------

    def promote(self, version: str) -> None:
        """Hot-swap the active version; the seedless pool follows it.

        Idempotent: re-promoting the already-active version keeps the
        existing pool (and its pre-generated samples) intact.
        """
        self.registry.promote(version)
        if self._pool_capacity > 0:
            self._ensure_pool()

    def _ensure_pool(self) -> None:
        # Resolve *inside* the lock: concurrent promote() calls serialize
        # here, and each re-resolves the then-active version, so the last
        # rebuild always leaves the pool matching the final active model.
        with self._lock:
            _, ensemble = self.registry.resolve(None)
            if self._pool is not None and self._pool.ensemble is ensemble:
                return
            old = self._pool
            self._pool = SamplePool(
                ensemble, capacity=self._pool_capacity,
                refill_batch=self._pool_refill_batch,
                seed=int(self._seed_rng.integers(2 ** 32)),
                autostart=self._pool_autostart,
            )
        if old is not None:
            old.close()

    @property
    def pool(self) -> SamplePool | None:
        return self._pool

    # -- the request path -----------------------------------------------------

    def submit(self, n: int, *, seed: int | None = None,
               version: str | None = None,
               weights: np.ndarray | None = None) -> "Future[SampleResponse]":
        """Route one request; returns a future of the response."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is shut down")
        if n > self.max_request_samples:
            # Backpressure bounds the queue in requests; this bounds the
            # memory one request can demand.
            raise ValueError(
                f"n={n} exceeds max_request_samples="
                f"{self.max_request_samples}"
            )
        start = time.monotonic()
        resolved_version, ensemble = self.registry.resolve(version)
        if weights is not None:
            ensemble.normalize_weights(weights)  # fail fast, before enqueue
        request = SampleRequest(n=n, seed=seed, version=resolved_version,
                                weights=weights)

        # 1. Deterministic requests: exact-hit LRU.  The key includes the
        # ensemble's uid so re-registering a version can't serve stale bits.
        key = request.cache_key
        if key is not None:
            key = key + (ensemble.uid,)
        if key is not None and self.lru is not None:
            images = self.lru.get(key)
            if images is not None:
                return self._immediate(request, images, "lru", start)

        # 2. Anonymous requests: the pre-generated pool.  Created lazily so
        # a registry that gained its first model *after* server construction
        # still gets one.  Matching on the resolved ensemble *object* (not
        # the version name) means a concurrent promote() or re-register can
        # never pair an old pool's samples with the new model.
        # Only unpinned requests are pool-eligible (the pool tracks the
        # active version); a request pinned to a non-active version would
        # otherwise re-run the ensure dance on every call for nothing.
        if request.seed is None and weights is None and version is None:
            with self._lock:
                pool = self._pool
            if self._pool_capacity > 0 \
                    and (pool is None or pool.ensemble is not ensemble):
                # Lazy create / freshen only when the pool doesn't already
                # match — the steady-state hit path skips the extra resolve.
                self._ensure_pool()
                with self._lock:
                    pool = self._pool
            if pool is not None and pool.ensemble is ensemble:
                images = pool.take(n)
                if images is not None:
                    with self._lock:
                        self._pool_hits += 1
                    return self._immediate(request, images, "pool", start)
                with self._lock:
                    self._pool_misses += 1

        # 3. Everything else: the batching engine (backpressure may raise).
        if request.seed is not None:
            engine_seed = request.seed
        else:
            with self._lock:  # np.random.Generator is not thread-safe
                engine_seed = _EPHEMERAL_SEED_BASE + int(
                    self._seed_rng.integers(2 ** 32)
                )
        try:
            inner = self.engine.submit(request, ensemble, resolved_version,
                                       engine_seed)
        except ServerOverloadedError:
            # Only genuine backpressure counts as a rejection; a close()
            # racing this submit propagates without skewing the stats.
            with self._lock:
                self._rejected += 1
            raise
        outer: Future = Future()

        def _finish(done: Future) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            images = done.result()
            if key is not None and self.lru is not None:
                self.lru.put(key, images)
            outer.set_result(self._record(request, images, None, start))

        inner.add_done_callback(_finish)
        return outer

    def request(self, n: int, *, seed: int | None = None,
                version: str | None = None,
                weights: np.ndarray | None = None,
                timeout: float | None = 60.0) -> SampleResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(n, seed=seed, version=version,
                           weights=weights).result(timeout=timeout)

    # -- bookkeeping ----------------------------------------------------------

    def _record(self, request: SampleRequest, images: np.ndarray,
                cached: str | None, start: float) -> SampleResponse:
        latency = time.monotonic() - start
        with self._lock:
            self._requests += 1
            self._samples += images.shape[0]
            self._latencies.append(latency)
            path = cached or "engine"
            self._path_seconds[path] = self._path_seconds.get(path, 0.0) + latency
            self._path_calls[path] = self._path_calls.get(path, 0) + 1
        if telemetry.enabled():
            telemetry.count("serving.requests")
            telemetry.count("serving.samples", images.shape[0])
        return SampleResponse(images=images, version=request.version,
                              cached=cached, latency_s=latency)

    def profile(self) -> "TimerSnapshot":
        """Cumulative serve time split by path (``engine``/``lru``/``pool``)."""
        with self._lock:
            return TimerSnapshot(dict(self._path_seconds), dict(self._path_calls))

    def _immediate(self, request: SampleRequest, images: np.ndarray,
                   cached: str, start: float) -> "Future[SampleResponse]":
        future: Future = Future()
        future.set_result(self._record(request, images, cached, start))
        return future

    def stats(self) -> ServerStats:
        lru_stats = self.lru.stats() if self.lru is not None else None
        engine_stats = self.engine.stats()
        with self._lock:
            latencies = list(self._latencies)
            return ServerStats(
                uptime_s=time.monotonic() - self._start,
                requests=self._requests,
                rejected=self._rejected,
                samples=self._samples,
                queue_depth=self.engine.queue_depth,
                p50_latency_s=_percentile(latencies, 50),
                p95_latency_s=_percentile(latencies, 95),
                lru_hits=lru_stats.hits if lru_stats else 0,
                lru_misses=lru_stats.misses if lru_stats else 0,
                pool_hits=self._pool_hits,
                pool_misses=self._pool_misses,
                engine_batches=engine_stats.batches,
                engine_requests=engine_stats.coalesced_requests,
                versions=self.registry.versions(),
                active_version=self.registry.active_version,
            )
