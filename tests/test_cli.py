"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main

from tests.conftest import make_random_checkpoint


@pytest.fixture()
def checkpoint_file(tmp_path):
    from repro.coevolution.checkpoint import save_checkpoint

    path = tmp_path / "model.npz"
    save_checkpoint(path, make_random_checkpoint())
    return str(path)


class TestParser:
    def test_grid_parsing(self):
        args = build_parser().parse_args(["run", "--grid", "3x4"])
        assert args.grid == (3, 4)

    def test_grid_parsing_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--grid", "three-by-three"])

    def test_grid_parsing_rejects_zero(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--grid", "0x3"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.backend == "process"
        assert args.loss == "bce"
        assert args.exchange == "neighbors"

    def test_async_exchange_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--exchange", "async"])
        assert exit_info.value.code == 2

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    def test_socket_backend_accepted(self):
        args = build_parser().parse_args(
            ["run", "--backend", "socket", "--hosts", "a:3,b:2",
             "--bind", "0.0.0.0:5555"])
        assert args.backend == "socket"
        assert args.hosts == "a:3,b:2"
        assert args.bind == "0.0.0.0:5555"

    def test_hosts_requires_socket_backend(self):
        args = build_parser().parse_args(
            ["run", "--backend", "process", "--hosts", "a:5"])
        from repro.cli import _build_experiment

        with pytest.raises(SystemExit, match="socket"):
            _build_experiment(args)

    def test_worker_parser(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "coord:5555", "--slots", "4",
             "--token", "abc"])
        assert args.connect == "coord:5555"
        assert args.slots == 4
        assert args.token == "abc"
        assert args.quiet is False

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "Cluster-UY" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "TABLE II" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert main(["fig", "1"]) == 0
        assert "FIG. 1" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig", "2"]) == 0
        assert "FIG. 2" in capsys.readouterr().out

    def test_run_sequential_tiny(self, capsys, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)  # default: basic
        code = main([
            "run", "--grid", "2x2", "--backend", "sequential",
            "--iterations", "1", "--dataset-size", "200",
            "--batch-size", "20", "--batches-per-iteration", "1", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best cell:" in out
        # --profile prints the Table IV view on every backend.
        assert "\noverall " in out

    def test_run_threaded_tiny(self, capsys, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code = main([
            "run", "--grid", "2x2", "--backend", "threaded",
            "--iterations", "1", "--dataset-size", "200",
            "--batch-size", "20", "--batches-per-iteration", "1", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "\noverall " in out
        # Exchange payloads are sent through the transport: its counter
        # contains theirs, so the one-liner reports two numbers, not a sum.
        import re

        exchange, transport = map(float, re.search(
            r"exchange ([\d.]+) KiB of transport ([\d.]+) KiB", out).groups())
        assert 0 < exchange <= transport
        # One message per destination host: on a 2x2 torus each cell has
        # two distinct neighbours, so one iteration is 8, not 16.
        exchanged, sent = map(int, re.search(
            r"\((\d+) of (\d+) messages\)", out).groups())
        assert exchanged == 8 <= sent

    def test_profile_without_telemetry_is_a_usage_error(self, capsys):
        code = main(["run", "--grid", "2x2", "--backend", "sequential",
                     "--profile", "--telemetry", "off"])
        assert code == 2
        assert "--telemetry basic" in capsys.readouterr().err

    def test_run_socket_tiny(self, capsys, cache_dir):
        """The CI smoke path: a 2x2 grid over two localhost workers —
        rendezvous, exchange, transport counters, shutdown."""
        code = main(["run", "--grid", "2x2", "--backend", "socket",
                     "--hosts", "127.0.0.1:3,127.0.0.1:2",
                     "--iterations", "1", "--dataset-size", "200",
                     "--batch-size", "10", "--batches-per-iteration", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=socket" in out
        assert "transport traffic:" in out
        assert "rank 4:" in out  # per-rank counters printed in rank order

    def test_worker_unreachable_coordinator(self, capsys):
        code = main(["worker", "--connect", "127.0.0.1:1",
                     "--timeout", "0.5", "--quiet"])
        assert code == 2
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_run_with_checkpoint_then_resume(self, capsys, cache_dir, tmp_path):
        ckpt = str(tmp_path / "cli.ckpt.npz")
        code = main([
            "run", "--grid", "2x2", "--backend", "sequential",
            "--iterations", "2", "--dataset-size", "200",
            "--batch-size", "20", "--batches-per-iteration", "1",
            "--checkpoint", ckpt,
        ])
        assert code == 0
        assert "checkpoint written" in capsys.readouterr().out
        # A finished run resumes with zero remaining iterations.
        code = main(["resume", ckpt])
        assert code == 0
        assert "0 remaining" in capsys.readouterr().out

    def test_sample_writes_npz(self, capsys, tmp_path, checkpoint_file):
        out = str(tmp_path / "images.npz")
        code = main(["sample", "--checkpoint", checkpoint_file,
                     "--n", "12", "--seed", "5", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "checkpoint v1" in printed  # the summary() satellite
        with np.load(out) as archive:
            assert archive["images"].shape == (12, 784)
            assert int(archive["image_side"]) == 28

    def test_serve_load_test_prints_report(self, capsys, checkpoint_file):
        code = main(["serve", "--checkpoint", checkpoint_file,
                     "--requests", "40", "--concurrency", "4",
                     "--pool-capacity", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint v1" in out
        assert "ServerStats" in out
        assert "throughput" in out

    def test_run_mustangs_loss(self, capsys, cache_dir):
        code = main([
            "run", "--grid", "2x2", "--backend", "sequential",
            "--iterations", "1", "--dataset-size", "200",
            "--batch-size", "20", "--batches-per-iteration", "1",
            "--loss", "mustangs",
        ])
        assert code == 0
