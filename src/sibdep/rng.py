"""Reproducible random number streams and replica chunking.

Monte Carlo work is split into fixed-size chunks of replicas.  Chunk k always
draws from the stream (seed, k), and partial results are combined in chunk
order, so estimates are bit-identical no matter how many workers execute the
chunks.  The worker count comes from the SIBDEP_WORKERS environment variable
and defaults to 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible generator source.

    Identical (seed, stream_index) pairs reproduce draws exactly; distinct
    indices give statistically independent streams.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((int(self.seed), int(self.stream_index)))
        return np.random.Generator(np.random.PCG64(ss))


def worker_count() -> int:
    raw = os.environ.get("SIBDEP_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SIBDEP_WORKERS must be an integer, got {raw!r}")
    return max(1, n)


def chunk_layout(replicas: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Split a replica count into (stream_index, size) chunks."""
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    out = []
    start = 0
    index = 0
    while start < replicas:
        size = min(chunk_size, replicas - start)
        out.append((index, size))
        start += size
        index += 1
    return out


def run_chunked(task, replicas: int, seed: int, chunk_size: int = DEFAULT_CHUNK_SIZE,
                workers: int | None = None):
    """Run task(generator, size) over every chunk, returning results in chunk order.

    The task must be a pure function of its generator and size; workers only
    change wall time, never the combined result.
    """
    layout = chunk_layout(replicas, chunk_size)
    if workers is None:
        workers = worker_count()

    def _one(entry):
        index, size = entry
        return task(RngStream(seed, index).generator(), size)

    if workers <= 1 or len(layout) == 1:
        return [_one(entry) for entry in layout]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_one, layout))
