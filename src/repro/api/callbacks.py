"""The callback/hook system of the experiment run loop.

Five hooks fire over a run's lifetime::

    on_run_start(ctx)                      once, before the first iteration
    on_exchange(ctx, iteration)            per iteration, at the exchange
    on_iteration_end(ctx, iteration, reports)   per iteration, after training
    on_checkpoint(ctx, path, checkpoint)   whenever a checkpoint is written
    on_run_end(ctx, result)                once, after the result is built

The sequential backend fires them **live** — ``on_iteration_end`` may call
``ctx.request_stop()`` (early stopping) or ``ctx.write_checkpoint()``
(periodic snapshots) and the loop reacts immediately.  The distributed
backends run master/slaves to completion and then *replay* the per-iteration
hooks from the reduced cell reports, so observers (metrics streaming,
logging) behave identically, while control hooks (stop requests) have no
effect — that trade-off is inherent to the master–slave substrate.

Three shipped callbacks cover the common cases: :class:`PeriodicCheckpoint`,
:class:`EarlyStopping` (plateaued best-FID or best-fitness) and
:class:`JsonlMetrics`.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.coevolution.cell import CellReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends imports us)
    from repro.api.backends import RunContext
    from repro.coevolution.sequential import RunResult

__all__ = [
    "Callback",
    "CallbackList",
    "PeriodicCheckpoint",
    "EarlyStopping",
    "JsonlMetrics",
]


class Callback:
    """Base class: override any subset of the five hooks."""

    def on_run_start(self, ctx: "RunContext") -> None:
        pass

    def on_exchange(self, ctx: "RunContext", iteration: int) -> None:
        pass

    def on_iteration_end(self, ctx: "RunContext", iteration: int,
                         reports: list[CellReport]) -> None:
        pass

    def on_checkpoint(self, ctx: "RunContext", path: str, checkpoint) -> None:
        pass

    def on_run_end(self, ctx: "RunContext", result: "RunResult") -> None:
        pass


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks."""

    def __init__(self, callbacks: Iterable[Callback] = ()):
        self.callbacks: list[Callback] = list(callbacks)
        for callback in self.callbacks:
            if not isinstance(callback, Callback):
                raise TypeError(f"not a Callback: {callback!r}")

    def append(self, callback: Callback) -> None:
        self.callbacks.append(callback)

    def on_run_start(self, ctx) -> None:
        for callback in self.callbacks:
            callback.on_run_start(ctx)

    def on_exchange(self, ctx, iteration) -> None:
        for callback in self.callbacks:
            callback.on_exchange(ctx, iteration)

    def on_iteration_end(self, ctx, iteration, reports) -> None:
        for callback in self.callbacks:
            callback.on_iteration_end(ctx, iteration, reports)

    def on_checkpoint(self, ctx, path, checkpoint) -> None:
        for callback in self.callbacks:
            callback.on_checkpoint(ctx, path, checkpoint)

    def on_run_end(self, ctx, result) -> None:
        for callback in self.callbacks:
            callback.on_run_end(ctx, result)


class PeriodicCheckpoint(Callback):
    """Write a resumable checkpoint every ``every`` iterations (and at end).

    Live checkpoints need the trainer state, so mid-run snapshots fire on
    the sequential backend only; the end-of-run snapshot works everywhere
    (the reduced result carries the full coevolutionary state).
    """

    def __init__(self, path: str | os.PathLike, every: int = 1,
                 at_end: bool = True):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = os.fspath(path)
        self.every = every
        self.at_end = at_end
        self.writes = 0

    def on_iteration_end(self, ctx, iteration, reports) -> None:
        if ctx.can_checkpoint and iteration % self.every == 0:
            ctx.write_checkpoint(self.path)
            self.writes += 1

    def on_run_end(self, ctx, result) -> None:
        if self.at_end:
            # No on_checkpoint dispatch here: other callbacks' on_run_end
            # may already have run (stream terminators written, handles
            # closed), so a late hook would arrive out of order.
            result.save_checkpoint(self.path)
            self.writes += 1


class EarlyStopping(Callback):
    """Stop when the tracked metric plateaus for ``patience`` evaluations.

    ``metric="fid"`` tracks the best cell's FID against the training data
    (a digit classifier is lazily trained on the run's dataset the first
    time it is needed); ``metric="fitness"`` tracks the minimum
    ``best_generator_fitness`` across cells, which is free.  FID needs live
    generators, so on distributed replays it falls back to the fitness
    metric.  Lower is better for both.
    """

    def __init__(self, patience: int = 3, min_delta: float = 0.0,
                 metric: str = "fid", eval_every: int = 1,
                 fid_samples: int = 128, classifier_epochs: int = 2,
                 seed: int = 0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if metric not in ("fid", "fitness"):
            raise ValueError(f"metric must be 'fid' or 'fitness', got {metric!r}")
        self.patience = patience
        self.min_delta = min_delta
        self.metric = metric
        self.eval_every = eval_every
        self.fid_samples = max(2, fid_samples)
        self.classifier_epochs = classifier_epochs
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._classifier = None
        self.best = math.inf
        self.history: list[tuple[int, float]] = []
        self.stopped_at: int | None = None
        self._stale = 0

    def on_run_start(self, ctx) -> None:
        # Per-run state resets so the same callback instance (or a re-run
        # Experiment) starts every run with full patience and a fresh
        # classifier for that run's dataset.
        self._rng = np.random.default_rng(self._seed)
        self._classifier = None
        self.best = math.inf
        self.history = []
        self.stopped_at = None
        self._stale = 0

    def on_iteration_end(self, ctx, iteration, reports) -> None:
        if self.stopped_at is not None or iteration % self.eval_every != 0:
            return
        value = self._evaluate(ctx, reports)
        self.history.append((iteration, value))
        if value < self.best - self.min_delta:
            self.best = value
            self._stale = 0
            return
        self._stale += 1
        if self._stale >= self.patience:
            self.stopped_at = iteration
            ctx.request_stop()

    # -- metric evaluation -------------------------------------------------

    def _evaluate(self, ctx, reports: list[CellReport]) -> float:
        if self.metric == "fid" and ctx.trainer is not None:
            return self._best_fid(ctx, reports)
        return float(min(r.best_generator_fitness for r in reports))

    def _best_fid(self, ctx, reports: list[CellReport]) -> float:
        from repro.metrics.scores import frechet_distance

        classifier = self._ensure_classifier(ctx)
        best_cell = int(np.argmin([r.best_generator_fitness for r in reports]))
        # Own RNG only: consuming a cell's stream here would perturb the
        # training trajectory and break backend bit-equivalence.
        fake = ctx.trainer.cells[best_cell].sample_from_mixture(
            self.fid_samples, self._rng)
        images = ctx.dataset.images
        picks = self._rng.choice(len(images), size=min(self.fid_samples, len(images)),
                                 replace=False)
        return frechet_distance(classifier, images[picks], fake)

    def _ensure_classifier(self, ctx):
        if self._classifier is None:
            from repro.metrics.classifier import train_digit_classifier

            dataset = ctx.dataset
            if dataset.labels is None:
                raise ValueError("FID early stopping needs a labeled dataset")
            n = min(len(dataset), 2000)
            self._classifier = train_digit_classifier(
                dataset.images[:n], dataset.labels[:n],
                np.random.default_rng(12345), epochs=self.classifier_epochs,
            )
        return self._classifier


class JsonlMetrics(Callback):
    """Stream per-iteration metrics as one JSON object per line.

    The file is append-friendly and tail-able while a run is in flight —
    the streaming analogue of the post-hoc ``metrics.dynamics`` curves.
    The writing itself rides :class:`repro.telemetry.JsonlWriter` (lazy
    append-open, one sorted-key JSON object per line, flushed per record),
    so every JSONL stream in the system shares one implementation.
    """

    def __init__(self, path: str | os.PathLike):
        from repro.telemetry import JsonlWriter

        self.path = os.fspath(path)
        self._writer = JsonlWriter(self.path)

    def _write(self, record: dict) -> None:
        self._writer.write(record)

    def on_run_start(self, ctx) -> None:
        coev = ctx.config.coevolution
        self._write({
            "event": "run_start",
            "backend": ctx.backend_name,
            "grid": [coev.grid_rows, coev.grid_cols],
            "iterations": coev.iterations,
            "seed": ctx.config.seed,
        })

    def on_iteration_end(self, ctx, iteration, reports) -> None:
        self._write({
            "event": "iteration",
            "iteration": iteration,
            "best_generator_fitness": float(min(r.best_generator_fitness
                                                for r in reports)),
            "cells": [
                {
                    "generator_fitness": float(r.best_generator_fitness),
                    "discriminator_fitness": float(r.best_discriminator_fitness),
                    "learning_rate": float(r.learning_rate),
                    "d_loss": None if math.isnan(r.d_loss) else float(r.d_loss),
                    "g_loss": None if math.isnan(r.g_loss) else float(r.g_loss),
                }
                for r in reports
            ],
        })

    def on_checkpoint(self, ctx, path, checkpoint) -> None:
        self._write({"event": "checkpoint", "path": os.fspath(path),
                     "iteration": checkpoint.iteration})

    def on_run_end(self, ctx, result) -> None:
        self._write({
            "event": "run_end",
            "backend": result.backend,
            "iterations_run": result.iterations_run,
            "stopped_early": result.stopped_early,
            "wall_time_s": result.wall_time_s,
            "best_cell": result.best_cell_index(),
            "complete": result.complete,
        })
        self._writer.close()
