"""Bounded retry with exponential backoff and jitter for the transport layer.

This module is the **only** sanctioned home of socket retry loops in the
codebase (lint rule R9, :mod:`repro.analysis.rules`): a bare
``while True: try: sock.connect(...) except OSError: pass`` loop hides the
real failure forever and hammers the peer in lock-step with every other
retrier.  :func:`with_backoff` gives every retry site the same contract —
a bounded number of attempts, exponentially growing waits, and
*jitter* so a thundering herd of reconnecting workers spreads out instead
of synchronizing.

Jitter draws from a private :class:`random.Random` instance (never the
interpreter-global RNG — rule R2: transport timing must not perturb the
seeded training streams).
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["BackoffPolicy", "with_backoff", "retry_connect", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Shape of one bounded retry schedule."""

    attempts: int = 5
    """Total tries (first call included); 1 means no retry at all."""
    base_delay_s: float = 0.05
    """Wait before the first retry."""
    max_delay_s: float = 2.0
    """Ceiling on any single wait."""
    multiplier: float = 2.0
    """Exponential growth factor between retries."""
    jitter: float = 0.25
    """Fraction of each delay drawn uniformly at random (0 disables)."""
    deadline_s: float | None = None
    """Wall-clock budget for the whole schedule (``None`` = unbounded).
    When the budget runs out the *last underlying error* is re-raised —
    never a synthetic timeout, so the caller still sees what actually
    failed (connection refused vs. reset vs. ...)."""

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(
                f"attempts must be >= 1 (got {self.attempts}); an "
                f"attempts=0 policy would never call the operation at all")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1] (got {self.jitter})")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive when set (got {self.deadline_s})")

    def delays(self, rng: random.Random) -> Iterator[float]:
        """The ``attempts - 1`` waits of this schedule."""
        delay = self.base_delay_s
        for _ in range(max(0, self.attempts - 1)):
            jittered = delay
            if self.jitter:
                jittered *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield min(self.max_delay_s, max(0.0, jittered))
            delay = min(self.max_delay_s, delay * self.multiplier)


DEFAULT_POLICY = BackoffPolicy()


def _fresh_rng() -> random.Random:
    # Seeded from the monotonic clock so concurrent retriers (forked
    # workers share nothing else) de-synchronize; deliberately NOT the
    # global RNG, whose state belongs to seeded training streams.
    return random.Random(time.monotonic_ns())


def with_backoff(fn: Callable[[], Any], *,
                 policy: BackoffPolicy = DEFAULT_POLICY,
                 retryable: tuple[type[BaseException], ...] = (OSError,),
                 on_retry: Callable[[int, BaseException], None] | None = None,
                 rng: random.Random | None = None) -> Any:
    """Call ``fn`` under the policy; re-raise the last error when exhausted.

    ``on_retry(attempt, exc)`` fires before each wait — the socket worker
    counts its connect retries with it, so recovery work is visible as
    :attr:`~repro.mpi.stats.TransportStats.send_retries`.
    """
    rng = rng if rng is not None else _fresh_rng()
    delays = policy.delays(rng)
    deadline = (None if policy.deadline_s is None
                else time.monotonic() + policy.deadline_s)
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retryable as exc:
            try:
                delay = next(delays)
            except StopIteration:
                raise exc from None
            if deadline is not None and time.monotonic() + delay > deadline:
                # Budget exhausted: surface the real failure, not a
                # synthetic timeout — the caller needs the actual errno.
                raise exc from None
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(delay)


def retry_connect(address: tuple[str, int], *, timeout: float,
                  policy: BackoffPolicy = DEFAULT_POLICY,
                  on_retry: Callable[[int, BaseException], None] | None = None,
                  ) -> socket.socket:
    """``socket.create_connection`` under backoff.

    Used by workers joining (or re-joining, after a respawn) a coordinator:
    a replacement worker often races the coordinator's late-accept loop, so
    its first connect can land on a queue the listener has not drained yet.
    """
    def connect() -> socket.socket:
        return socket.create_connection(address, timeout=timeout)

    return with_backoff(connect, policy=policy, on_retry=on_retry)
