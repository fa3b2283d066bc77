"""Fork-based trajectory fan-out with index-stable merging.

Workers receive index ranges only, and the work closure runs a whole range
at once (the solver steps a block of trajectories together); the closure is
inherited through fork, so models built from arbitrary callables need no
pickling.  Results are reassembled in trajectory order, which makes every
downstream estimate independent of worker count and scheduling.
"""

import multiprocessing as mp
import os

_PAYLOAD = None


def _chunk_worker(bounds):
    return _PAYLOAD(*bounds)


def map_indices(fn, n, threads=1):
    """Evaluate fn(lo, hi) over blocks covering range(n), optionally in forked workers.

    fn returns a list with one picklable record (tuples of plain
    floats/ints) per index in [lo, hi); the lists are joined in index
    order.  The worker count is capped at the number of CPUs.  Serially, or
    when fork is unavailable or n is small, fn sees the single block
    (0, n).
    """
    if threads is None:
        threads = 1
    threads = max(1, min(int(threads), os.cpu_count() or 1))
    if threads == 1 or n < 4 * threads or "fork" not in mp.get_all_start_methods():
        return list(fn(0, n))
    global _PAYLOAD
    chunk = max(1, -(-n // (threads * 4)))
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    ctx = mp.get_context("fork")
    _PAYLOAD = fn
    try:
        with ctx.Pool(threads) as pool:
            parts = pool.map(_chunk_worker, bounds)
    finally:
        _PAYLOAD = None
    return [rec for part in parts for rec in part]
