"""Stream layout and worker-agnostic chunked execution."""
import numpy as np
import pytest

from sibdep.rng import DEFAULT_CHUNK_SIZE, RngStream, chunk_layout, run_chunked, worker_count


def test_streams_reproduce_and_separate():
    a = RngStream(5, 2).generator().standard_normal(8)
    b = RngStream(5, 2).generator().standard_normal(8)
    c = RngStream(5, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunk_layout_partitions_exactly():
    layout = chunk_layout(10_000)
    assert layout == [(0, 4096), (1, 4096), (2, 1808)]
    assert chunk_layout(1) == [(0, 1)]
    with pytest.raises(ValueError):
        chunk_layout(0)


def test_run_chunked_result_independent_of_workers(monkeypatch):
    def task(gen, size):
        return np.full(size, gen.standard_normal())

    monkeypatch.delenv("SIBDEP_WORKERS", raising=False)
    one = run_chunked(task, 9000, seed=3)
    monkeypatch.setenv("SIBDEP_WORKERS", "4")
    four = run_chunked(task, 9000, seed=3)
    np.testing.assert_array_equal(one, four)
    # chunk k draws from stream (3, k); results are joined in chunk order
    draws = [RngStream(3, k).generator().standard_normal() for k in range(3)]
    np.testing.assert_array_equal(one, np.repeat(draws, [4096, 4096, 808]))


def test_worker_count_reads_environment(monkeypatch):
    monkeypatch.delenv("SIBDEP_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SIBDEP_WORKERS", "6")
    assert worker_count() == 6
    monkeypatch.setenv("SIBDEP_WORKERS", "-2")
    assert worker_count() == 1
    monkeypatch.setenv("SIBDEP_WORKERS", "many")
    with pytest.raises(ValueError):
        worker_count()


def test_default_chunk_size_is_stable():
    # estimates freeze per (seed, chunk); the chunk size is part of that contract
    assert DEFAULT_CHUNK_SIZE == 4096


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_streams_reject_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed .* must be a nonnegative integer$"):
        RngStream(seed, 0)
    with pytest.raises(ValueError, match=r"must be a nonnegative integer$"):
        run_chunked(lambda gen, size: np.zeros(size), 8, seed)
    assert RngStream(np.int64(3)).generator().random() == RngStream(3).generator().random()


@pytest.mark.parametrize("replicas", [8.5, 4096.0])
def test_replica_counts_must_be_integers(replicas):
    def no_draws(gen, size):
        raise AssertionError("the replica check must come before any draw")

    with pytest.raises(ValueError, match="^replicas must be an integer$"):
        run_chunked(no_draws, replicas, 0)
