"""Command-line interface: ``python -m repro <command>``.

A thin shell over :mod:`repro.api` — every command routes through the
:class:`~repro.api.Experiment` facade (or its checkpoint helpers), and every
training default comes from :func:`repro.config.default_config`, the single
source of truth.

Commands
--------

``info``
    Print the library version, the paper being reproduced, and the active
    platform model.
``run``
    Train a grid: ``python -m repro run --grid 3x3 --backend process
    --iterations 4 --dataset-size 2000 [--checkpoint out.npz]``.
``resume``
    Continue from a checkpoint: ``python -m repro resume out.npz``.
``config``
    Print the resolved experiment configuration as JSON, or validate a
    saved one: ``python -m repro config [--from-json PATH]``.
``table``
    Regenerate a paper table: ``python -m repro table 1|2|3|4``.
``fig``
    Regenerate a paper figure: ``python -m repro fig 1|2|3|4``.
``serve``
    Load a checkpoint into the serving stack and run a request-replay load
    test: ``python -m repro serve --checkpoint out.npz --requests 200``.
``sample``
    One-shot generation from a checkpoint to ``.npz``:
    ``python -m repro sample --checkpoint out.npz --n 64 --out images.npz``.
``worker``
    Attach this machine to a socket-backend run:
    ``python -m repro worker --connect coordinator:5555 --slots 1``.
    The coordinator side is ``repro run --backend socket --hosts ...``.
    With ``--join``, attach to an *already running* job through the live
    rendezvous, filling a vacant rank slot (a dead or drained worker's).
    SIGTERM/SIGINT drain the worker gracefully: its cells are
    checkpointed and handed off, then it exits 0.
``drain``
    Ask a live socket-backend run to release one rank gracefully:
    ``python -m repro drain 3 --connect coordinator:5555``.  The rank
    checkpoints its cells, hands them off, and its worker exits cleanly.
``trace``
    Digest a Perfetto trace written by ``repro run --trace out.json``:
    per-routine totals, comm/compute overlap, slowest cells.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        parsed = (int(rows), int(cols))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like '3x3', got {text!r}") from None
    if parsed[0] < 1 or parsed[1] < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be >= 1")
    return parsed


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """The training knobs, defaulted from ``default_config()`` — one source.

    ``repro run`` and ``repro config`` share these so what ``config``
    prints is exactly what ``run`` would execute.
    """
    from repro.api.experiment import DEFAULT_DATASET
    from repro.config import default_config
    from repro.registry import BACKENDS, DATASETS, DTYPES, LOSSES

    defaults = default_config()
    parser.add_argument("--grid", type=_parse_grid, metavar="RxC",
                        default=defaults.coevolution.grid_size)
    parser.add_argument("--backend", choices=sorted(BACKENDS.known()),
                        default=defaults.execution.backend)
    parser.add_argument("--iterations", type=int,
                        default=defaults.coevolution.iterations)
    parser.add_argument("--dataset-size", type=int, default=defaults.dataset_size)
    parser.add_argument("--batch-size", type=int,
                        default=defaults.training.batch_size)
    parser.add_argument("--batches-per-iteration", type=int,
                        default=defaults.training.batches_per_iteration)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--loss", choices=sorted(LOSSES.known() | {"mustangs"}),
                        default=defaults.training.loss_function)
    parser.add_argument("--dtype", choices=sorted(DTYPES.known()),
                        default=defaults.network.dtype,
                        help="dtype policy: float64 is the bit-identical "
                             "reference, float32 roughly doubles training "
                             "throughput, mixed16 additionally halves "
                             "genome exchange/checkpoint bytes")
    parser.add_argument("--dataset", choices=sorted(DATASETS.known()),
                        default=DEFAULT_DATASET,
                        help="training corpus (from the dataset registry)")
    parser.add_argument("--exchange", choices=("neighbors", "allgather"),
                        default="neighbors")
    parser.add_argument("--hosts", metavar="HOST:SLOTS,...",
                        help="socket backend only: where the cells run, e.g. "
                             "'nodeA:5,nodeB:4' (localhost entries are "
                             "forked automatically; slots must sum to "
                             "cells + 1, the master takes the first, and "
                             "each worker trains the rest of its slots' "
                             "cells as one block rank)")
    parser.add_argument("--bind", metavar="HOST:PORT",
                        help="socket backend only: coordinator listen "
                             "address (default 127.0.0.1, ephemeral port; "
                             "bind 0.0.0.0:PORT for remote workers)")
    parser.add_argument("--token", metavar="TOKEN", dest="token",
                        help="socket backend only: fixed rendezvous token "
                             "(default: generated per run); share it with "
                             "'repro worker --join' and 'repro drain'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel/distributed cellular GAN training "
                    "(reproduction of Perez et al., IPDPS/PDCO 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and platform information")

    run = sub.add_parser("run", help="train a grid of GANs")
    _add_experiment_arguments(run)
    run.add_argument("--fault-policy", choices=("abort", "degrade", "recover"),
                     default="abort",
                     help="what to do when a rank dies mid-run: abort the "
                          "survivors (default), finish with the dead cells "
                          "frozen at their last checkpoint, or migrate the "
                          "dead cells to surviving/respawned workers and "
                          "train them to completion")
    run.add_argument("--max-restarts", type=int, default=0, metavar="N",
                     help="socket backend + --fault-policy recover: respawn "
                          "up to N replacement workers for dead ones "
                          "(default 0: recover by in-grid adoption only)")
    run.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                     help="per-cell checkpoint cadence in iterations "
                          "(default: every iteration for non-abort fault "
                          "policies, off for abort)")
    run.add_argument("--profile", action="store_true",
                     help="print the Table IV per-routine profile, computed "
                          "from the run's telemetry (needs a level other "
                          "than 'off')")
    run.add_argument("--checkpoint", metavar="PATH",
                     help="write a checkpoint here after training")
    run.add_argument("--metrics-jsonl", metavar="PATH",
                     help="stream per-iteration metrics as JSON lines")
    run.add_argument("--telemetry", choices=("off", "basic", "trace"),
                     default=None,
                     help="span/counter bus level (default: $REPRO_TELEMETRY "
                          "or 'basic')")
    run.add_argument("--trace", metavar="PATH",
                     help="write the merged Chrome/Perfetto trace here "
                          "(implies --telemetry trace; open in ui.perfetto.dev)")

    resume = sub.add_parser("resume", help="continue a checkpointed run")
    resume.add_argument("checkpoint", metavar="PATH")

    config = sub.add_parser(
        "config", help="print the resolved experiment configuration as JSON")
    _add_experiment_arguments(config)
    config.add_argument("--from-json", metavar="PATH",
                        help="validate and resolve a saved config file "
                             "instead of the flag-built one")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(1, 2, 3, 4))

    serve = sub.add_parser("serve", help="serve a checkpoint: replay a "
                                         "synthetic traffic trace and report")
    serve.add_argument("--checkpoint", required=True, metavar="PATH")
    serve.add_argument("--cell", type=int, default=0,
                       help="grid cell whose mixture to serve (default 0)")
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--concurrency", type=int, default=8,
                       help="client threads replaying the trace")
    serve.add_argument("--request-size", type=int, default=8,
                       help="mean images per request")
    serve.add_argument("--workers", type=int, default=2,
                       help="engine worker threads")
    serve.add_argument("--pool-capacity", type=int, default=1024,
                       help="seedless sample pool size (0 disables)")
    serve.add_argument("--seed", type=int, default=0)

    sample = sub.add_parser("sample", help="one-shot generation from a "
                                           "checkpoint to .npz")
    sample.add_argument("--checkpoint", required=True, metavar="PATH")
    sample.add_argument("--cell", type=int, default=0)
    sample.add_argument("--n", type=int, default=64)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True, metavar="PATH")

    worker = sub.add_parser("worker", help="host ranks of a socket-backend "
                                           "run on this machine")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's rendezvous address")
    worker.add_argument("--slots", type=int, default=1,
                        help="how many ranks this worker hosts (default 1; "
                             "a worker trains its cells as one rank, so only "
                             "the master's worker hosts 2)")
    worker.add_argument("--token", default=None,
                        help="rendezvous token printed by the coordinator")
    worker.add_argument("--index", type=int, default=None,
                        help=argparse.SUPPRESS)  # set by the coordinator's command
    worker.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for the rendezvous (default 60)")
    worker.add_argument("--quiet", action="store_true")
    worker.add_argument("--dtype", default="float64",
                        help="dtype policy of the run this worker joins "
                             "(must match the coordinator's --dtype)")
    worker.add_argument("--join", action="store_true",
                        help="attach to an already-running job through the "
                             "live rendezvous, filling a vacant rank slot "
                             "(a dead or drained worker's)")

    drain = sub.add_parser("drain", help="gracefully release one rank of a "
                                         "live socket-backend run")
    drain.add_argument("rank", type=int,
                       help="WORLD rank to drain (1..cells; rank 0 is the "
                            "master)")
    drain.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="the coordinator's rendezvous address")
    drain.add_argument("--token", default=None,
                       help="rendezvous token printed by the coordinator")
    drain.add_argument("--timeout", type=float, default=10.0,
                       help="seconds to wait for the coordinator's reply")

    trace = sub.add_parser("trace", help="summarize a Perfetto trace written "
                                         "by 'repro run --trace'")
    trace.add_argument("file", metavar="PATH")

    # Dispatched before parsing (see main): the lint CLI owns its own flags
    # (--format/--baseline/--select/...), which argparse's REMAINDER would
    # mangle.  The stub keeps `repro --help` honest.
    sub.add_parser("lint", help="project-invariant static analysis "
                                "(rules R1-R10; repro lint --list-rules)",
                   add_help=False)

    return parser


def _cmd_info(_args) -> int:
    import repro
    from repro.cluster import cluster_uy

    platform = cluster_uy()
    print(f"repro {repro.__version__}")
    print("reproduction of: Perez, Nesmachnow, Toutouh, Hemberg, O'Reilly —")
    print("  'Parallel/distributed implementation of cellular training for")
    print("   generative adversarial neural networks', IPDPS Workshops/PDCO 2020")
    print(f"platform model: {platform.name}, {len(platform.nodes)} nodes, "
          f"{platform.total_cores} cores")
    return 0


def _build_experiment(args):
    """Translate the shared CLI flags into an :class:`Experiment`."""
    from repro.api import Experiment
    from repro.config import paper_table1_config

    backend_options = {}
    for option in ("hosts", "bind", "token"):
        value = getattr(args, option, None)
        if value is not None:
            if args.backend != "socket":
                raise SystemExit(
                    f"--{option} only applies to --backend socket "
                    f"(got --backend {args.backend})")
            backend_options[option] = value
    base = paper_table1_config(*args.grid).scaled(
        iterations=args.iterations,
        dataset_size=args.dataset_size,
        batch_size=args.batch_size,
        batches_per_iteration=args.batches_per_iteration,
    )
    return (Experiment(base)
            .loss(args.loss)
            .dtype(args.dtype)
            .override(seed=args.seed)
            .dataset(args.dataset)
            .backend(args.backend, **backend_options)
            .exchange(args.exchange))


def _report_result(result, cells: int) -> None:
    print(f"wall time: {result.wall_time_s:.2f}s")
    for cell in range(cells):
        reports = result.cell_reports[cell]
        if not reports:
            print(f"  cell {cell}: no reports (dead slave?)")
            continue
        last = reports[-1]
        print(f"  cell {cell}: g-fitness {last.best_generator_fitness:9.4f}  "
              f"d-fitness {last.best_discriminator_fitness:9.4f}  "
              f"lr {last.learning_rate:.6f}")
    print(f"best cell: {result.best_cell_index()}")
    _report_transport_stats(result)
    _report_telemetry(result)


def _report_transport_stats(result) -> None:
    """Per-rank message/byte counters of a distributed run (rank 0 is the
    master)."""
    stats = getattr(result, "transport_stats", [])
    if not stats:
        return
    from repro.mpi import merge_transport_stats

    total = merge_transport_stats(stats)
    print(f"transport traffic: {total.messages_sent} messages, "
          f"{total.bytes_sent / 1024:.1f} KiB payload")
    for record in stats:
        print(f"  {record.summary()}")


def _report_telemetry(result) -> None:
    """One-liner for every backend: throughput, traffic, and the
    train-vs-communication split from the merged telemetry view.

    Exchange payloads travel *through* the transport, so the transport
    counter already contains the exchange counter — two numbers, never a
    sum."""
    merged = getattr(result, "telemetry", None)
    if merged is None:
        return
    rate = (result.iterations_run / result.wall_time_s
            if result.wall_time_s > 0 else 0.0)
    train_s = merged.span_seconds("cell.train")
    comm_s = merged.span_seconds("exchange.gather")
    print(f"telemetry: {rate:.2f} iteration(s)/s, "
          f"exchange {merged.counter('exchange.bytes_sent') / 1024:.1f} KiB "
          f"of transport {merged.counter('mpi.bytes_sent') / 1024:.1f} KiB "
          f"({merged.counter('exchange.genomes_sent'):.0f} of "
          f"{merged.counter('mpi.messages_sent'):.0f} messages), "
          f"train {train_s:.2f}s vs comm {comm_s:.2f}s")


def _cmd_run(args) -> int:
    from repro.api import JsonlMetrics

    experiment = _build_experiment(args)
    experiment.fault_policy(args.fault_policy,
                            max_restarts=args.max_restarts,
                            snapshot_every=args.snapshot_every)
    level = args.telemetry
    if level is None:
        level = os.environ.get("REPRO_TELEMETRY", "basic")
        if level not in ("off", "basic", "trace"):
            level = "basic"
    if args.profile and level == "off" and not args.trace:
        print("--profile prints a view over the run's telemetry; it cannot "
              "be combined with telemetry level 'off' (use --telemetry basic)",
              file=sys.stderr)
        return 2
    experiment.telemetry(level=level, trace_path=args.trace)
    if args.metrics_jsonl:
        experiment.callbacks(JsonlMetrics(args.metrics_jsonl))
    config = experiment.config
    cells = config.coevolution.cells
    print(f"grid {args.grid[0]}x{args.grid[1]} ({cells} cells), "
          f"backend={args.backend}, iterations={config.coevolution.iterations}")

    result = experiment.run()
    _report_result(result, cells)
    if args.trace:
        if result.telemetry is not None:
            print(f"trace written to {args.trace} "
                  f"(inspect with 'repro trace {args.trace}')")
        else:
            print(f"WARNING: no telemetry recorded; {args.trace} not written",
                  file=sys.stderr)
    if args.profile:
        from repro.telemetry import format_table4, profile_rows

        rows = profile_rows(result.profile(parallel=False),
                            result.profile(parallel=True))
        print("\n" + format_table4(rows))
    if args.checkpoint:
        # Written even for incomplete runs: the survivors' genomes are the
        # valuable artifact, and the checkpoint's iteration counter stays
        # at the aborted point so `repro resume` trains the remainder.
        result.save_checkpoint(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}"
              + ("" if result.ok else " (partial: run aborted early)"))
    if result.dead_ranks:
        # One breakdown line regardless of policy, so operators see what
        # the fault machinery actually did with each lost rank.
        print(f"fault report ({result.fault_policy}): "
              f"died {result.dead_ranks}, "
              f"recovered {result.recovered_ranks}, "
              f"degraded {result.degraded_ranks}", file=sys.stderr)
    if not result.ok:
        print(f"WARNING: run did not meet its {result.fault_policy!r} "
              f"fault-policy contract (dead ranks {result.dead_ranks})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_resume(args) -> int:
    from repro.api import Experiment

    experiment = Experiment.from_checkpoint(args.checkpoint)
    checkpoint = experiment.checkpoint
    print(f"resuming at iteration {checkpoint.iteration} "
          f"({checkpoint.remaining_iterations} remaining)")
    result = experiment.run()
    _report_result(result, checkpoint.config.coevolution.cells)
    return 0


def _cmd_config(args) -> int:
    from repro.config import ConfigError, ExperimentConfig

    try:
        if args.from_json:
            with open(args.from_json, encoding="utf-8") as handle:
                config = ExperimentConfig.from_json(handle.read())
        else:
            config = _build_experiment(args).config
    except (ConfigError, ValueError, OSError) as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    print(config.to_json())
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import table1, table2, table3, table4

    if args.number == 1:
        print(table1.run()["table"])
    elif args.number == 2:
        print(table2.format_table(table2.run()))
    elif args.number == 3:
        print(table3.format_table(table3.run()))
    else:
        print(table4.format_table(table4.run()))
    return 0


def _cmd_fig(args) -> int:
    from repro.experiments import fig1, fig2, fig3, fig4

    if args.number == 1:
        print(fig1.format_figure(fig1.run()))
    elif args.number == 2:
        print(fig2.format_figure(fig2.run()))
    elif args.number == 3:
        print(fig3.format_figure(fig3.run()))
    else:
        print(fig4.format_figure(fig4.run()))
    return 0


def _cmd_serve(args) -> int:
    from repro.api import serve_checkpoint

    stats = serve_checkpoint(
        args.checkpoint,
        cell=args.cell,
        requests=args.requests,
        concurrency=args.concurrency,
        request_size=args.request_size,
        workers=args.workers,
        pool_capacity=args.pool_capacity,
        seed=args.seed,
    )
    print()
    print(stats.report())
    return 0


def _cmd_sample(args) -> int:
    from repro.api import load_ensemble
    from repro.runtime import pin_blas_threads

    pin_blas_threads(1)  # gemm row-stability => reproducible samples
    checkpoint, ensemble = load_ensemble(args.checkpoint, cell=args.cell)
    print(checkpoint.summary())
    images = ensemble.sample(args.n, seed=args.seed)
    # Images are stored flat, (n, side*side); image_side is the render hint.
    np.savez_compressed(args.out, images=images,
                        image_side=checkpoint.config.network.image_side)
    print(f"{args.n} samples from cell {args.cell} (seed {args.seed}) "
          f"written to {args.out}")
    return 0


def _cmd_worker(args) -> int:
    from repro.mpi.socket_transport import worker_main
    from repro.runtime import pin_blas_threads

    pin_blas_threads(1)  # one rank = one core, exactly like forked workers
    return worker_main(
        args.connect,
        slots=args.slots,
        token=args.token,
        index=args.index,
        timeout=args.timeout,
        quiet=args.quiet,
        dtype=args.dtype,
        join=args.join,
    )


def _cmd_drain(args) -> int:
    from repro.mpi.socket_transport import drain_request

    return drain_request(
        args.connect,
        rank=args.rank,
        token=args.token,
        timeout=args.timeout,
    )


def _cmd_trace(args) -> int:
    import json

    from repro.telemetry import format_summary, summarize

    try:
        with open(args.file, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.file!r}: {error}", file=sys.stderr)
        return 2
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        print(f"{args.file!r} is not a Chrome/Perfetto trace "
              "(no 'traceEvents' key)", file=sys.stderr)
        return 2
    print(format_summary(summarize(trace)))
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "config": _cmd_config,
    "table": _cmd_table,
    "fig": _cmd_fig,
    "serve": _cmd_serve,
    "sample": _cmd_sample,
    "worker": _cmd_worker,
    "drain": _cmd_drain,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.engine import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Reports are made to be piped (`repro trace ... | head`); a closed
        # pipe is a normal way for the reader to stop, not an error.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
