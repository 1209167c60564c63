"""Tests for training checkpoints (survive the 96-hour wall-time limit)."""

import dataclasses

import numpy as np
import pytest

from repro.coevolution import (
    SequentialTrainer,
    TrainingCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.coevolution.cell import Cell
from repro.coevolution.checkpoint import CellSnapshot
from tests.conftest import make_quick_config


@pytest.fixture()
def trained_trainer(small_dataset):
    config = make_quick_config(2, 2, iterations=4)
    trainer = SequentialTrainer(config, small_dataset)
    trainer.run(iterations=2)  # halfway through the configured 4
    return trainer


class TestSnapshot:
    def test_from_trainer(self, trained_trainer):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        assert checkpoint.iteration == 2
        assert checkpoint.remaining_iterations == 2
        assert len(checkpoint.center_genomes) == 4
        assert all(w.shape == (5,) for w in checkpoint.mixture_weights)

    def test_validation_wrong_cell_count(self, trained_trainer):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        with pytest.raises(ValueError, match="genomes"):
            TrainingCheckpoint(
                config=checkpoint.config,
                iteration=1,
                center_genomes=checkpoint.center_genomes[:2],
                mixture_weights=checkpoint.mixture_weights[:2],
            )

    def test_validation_negative_iteration(self, trained_trainer):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        with pytest.raises(ValueError, match="iteration"):
            TrainingCheckpoint(
                config=checkpoint.config,
                iteration=-1,
                center_genomes=checkpoint.center_genomes,
                mixture_weights=checkpoint.mixture_weights,
            )

    def test_summary_and_repr(self, trained_trainer):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        summary = checkpoint.summary()
        assert "grid 2x2 (4 cells)" in summary
        assert "iteration 2/4" in summary
        assert "2 remaining" in summary
        assert summary in repr(checkpoint)


class TestFileRoundTrip:
    def test_save_load_identical(self, trained_trainer, tmp_path):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.iteration == checkpoint.iteration
        assert loaded.config == checkpoint.config
        for (g1, d1), (g2, d2) in zip(checkpoint.center_genomes, loaded.center_genomes):
            np.testing.assert_array_equal(g1.parameters, g2.parameters)
            np.testing.assert_array_equal(d1.parameters, d2.parameters)
            assert g1.learning_rate == g2.learning_rate
            assert g1.loss_name == g2.loss_name
        for w1, w2 in zip(checkpoint.mixture_weights, loaded.mixture_weights):
            np.testing.assert_array_equal(w1, w2)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_tmp(self, trained_trainer, tmp_path):
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(path, checkpoint)
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []


class TestResume:
    def test_resume_runs_remaining_iterations(self, trained_trainer, small_dataset,
                                              tmp_path):
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(path, TrainingCheckpoint.from_trainer(trained_trainer))
        resumed = SequentialTrainer.from_checkpoint(load_checkpoint(path), small_dataset)
        assert resumed.start_iteration == 2
        result = resumed.run()  # runs only the remaining 2 of 4 iterations
        assert all(len(reports) == 2 for reports in result.cell_reports)
        # Cells continue counting from the checkpointed iteration.
        assert all(cell.iteration == 4 for cell in resumed.cells)

    def test_resume_starts_from_checkpointed_genomes(self, trained_trainer,
                                                     small_dataset, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        checkpoint = TrainingCheckpoint.from_trainer(trained_trainer)
        save_checkpoint(path, checkpoint)
        resumed = SequentialTrainer.from_checkpoint(load_checkpoint(path), small_dataset)
        for cell, (g, _) in zip(resumed.cells, checkpoint.center_genomes):
            restored, _ = cell.center_genomes()
            np.testing.assert_array_equal(restored.parameters, g.parameters)

    def test_resume_is_deterministic(self, trained_trainer, small_dataset, tmp_path):
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(path, TrainingCheckpoint.from_trainer(trained_trainer))

        def resume_and_finish():
            trainer = SequentialTrainer.from_checkpoint(
                load_checkpoint(path), small_dataset
            )
            result = trainer.run()
            return result.center_genomes[0][0].parameters

        np.testing.assert_array_equal(resume_and_finish(), resume_and_finish())

    def test_restore_adopts_genome_loss(self, small_dataset):
        config = make_quick_config(2, 2, iterations=2)
        trainer = SequentialTrainer(config, small_dataset)
        cell = trainer.cells[0]
        g, d = cell.center_genomes()
        g.loss_name = "mse"
        d.loss_name = "mse"
        cell.restore(CellSnapshot(cell.cell_index, 1, g, d, np.full(5, 0.2)))
        assert cell.loss_name == "mse"
        assert cell.center.loss.name == "mse"
        assert cell.iteration == 1


def record_bytes(snapshot):
    """Everything a :class:`CellSnapshot` holds, as comparable bytes."""
    genomes = [(genome.parameters.dtype.str, genome.parameters.tobytes(),
                genome.learning_rate, genome.loss_name)
               for genome in (snapshot.generator_genome, snapshot.discriminator_genome)]
    return (snapshot.cell_index, snapshot.iteration, genomes,
            snapshot.mixture_weights.dtype.str, snapshot.mixture_weights.tobytes())


class TestCellRecord:
    """``Cell.snapshot`` and ``Cell.restore`` are the only conversions
    between a live cell and its record."""

    @pytest.mark.parametrize("dtype", ["float64", "float32", "mixed16"])
    def test_round_trip_under_every_dtype_policy(self, small_dataset, dtype):
        quick = make_quick_config(2, 2, iterations=4)
        config = dataclasses.replace(
            quick, network=dataclasses.replace(quick.network, dtype=dtype))
        neighbors = [Cell(config, index, small_dataset).center_genomes()
                     for index in (1, 2, 3, 1)]
        trained = Cell(config, 0, small_dataset)
        for _ in range(2):
            trained.step(neighbors)
        record = trained.snapshot()
        assert record.iteration == 2

        # Restored from another cell's record, a fresh cell's own record
        # is that record, bit for bit (storage dtype included).
        restored = Cell(config, 0, small_dataset)
        restored.restore(record)
        assert record_bytes(restored.snapshot()) == record_bytes(record)

        # Two cells restored from one record step identically.
        twins = [Cell(config, 0, small_dataset) for _ in range(2)]
        for twin in twins:
            twin.restore(record)
            twin.step(neighbors)
        first, second = (twin.center_genomes() for twin in twins)
        for ours, theirs in zip(first, second):
            assert ours.parameters.tobytes() == theirs.parameters.tobytes()

    def test_restore_refuses_another_cells_record(self, small_dataset):
        config = make_quick_config(2, 2)
        record = Cell(config, 1, small_dataset).snapshot()
        with pytest.raises(ValueError, match="record of cell 1"):
            Cell(config, 0, small_dataset).restore(record)

