"""Reproducible random number streams and replica chunking.

Monte Carlo work is split into chunks of DEFAULT_CHUNK_SIZE (4096) replicas,
the last one partial.  Chunk k always draws from the stream (seed, k), and
chunk results are joined in chunk order, so estimates are bit-identical no
matter how many workers execute the chunks.  The chunk size is fixed: it is
part of the seed contract, since a different size would move every seeded
result.  The worker count is set only by the SIBDEP_WORKERS environment
variable and defaults to 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import check_domains

DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible generator source.

    Identical (seed, stream_index) pairs reproduce draws exactly; distinct
    indices give statistically independent streams.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        check_domains(seed=self.seed)

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


def chunk_layout(replicas: int):
    """Split a replica count into (stream_index, size) chunks."""
    check_domains(replicas=replicas)
    starts = range(0, replicas, DEFAULT_CHUNK_SIZE)
    return [(index, min(DEFAULT_CHUNK_SIZE, replicas - start))
            for index, start in enumerate(starts)]


def run_chunked(task, replicas: int, seed: int) -> np.ndarray:
    """Run task(generator, size) over every chunk; join the results along axis 0.

    The task must be a pure function of its generator and size, returning an
    array whose first axis has one entry per replica (or per kept replica);
    workers only change wall time, never the joined result.
    """
    layout = chunk_layout(replicas)
    workers = worker_count()

    def _one(entry):
        index, size = entry
        return task(RngStream(seed, index).generator(), size)

    if workers <= 1 or len(layout) == 1:
        parts = [_one(entry) for entry in layout]
    else:
        # imported here: concurrent.futures pulls in logging, which a run
        # with one worker would pay for at every start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_one, layout))
    return np.concatenate(parts)
