"""Fork-based trajectory fan-out on lockstep-block boundaries.

Workers get index ranges that start on block boundaries, so each steps the
lockstep blocks a serial run steps; the closure is inherited through fork,
so models built from arbitrary callables need no pickling.  Results are
joined in trajectory order, so no estimate depends on worker count.
"""

import os

_PAYLOAD = None


def _chunk_worker(bounds):
    return _PAYLOAD(*bounds)


def map_indices(fn, n, threads=1, block=1):
    """Evaluate fn(lo, hi) over ranges covering range(n), in forked workers when it pays.

    fn returns a list with one picklable record (tuples of plain
    floats/ints) per index in [lo, hi); the lists are joined in index
    order.  Workers are capped at the CPU count and at n // (2 * block), so
    each gets two blocks of ``block`` indices; with one, or without fork, fn
    sees (0, n).  Otherwise up to four ranges per worker, of whole blocks
    spread as evenly as they go, start at multiples of ``block``.
    """
    threads = max(1, min(int(threads or 1), os.cpu_count() or 1, n // (2 * block)))
    if threads == 1:
        return list(fn(0, n))
    # loaded here, not at import: a serial run never needs it
    import multiprocessing as mp
    if "fork" not in mp.get_all_start_methods():
        return list(fn(0, n))
    global _PAYLOAD
    blocks = -(-n // block)
    pieces = min(4 * threads, blocks)
    cuts = [block * (k * blocks // pieces) for k in range(pieces)] + [n]
    bounds = list(zip(cuts, cuts[1:]))
    ctx = mp.get_context("fork")
    _PAYLOAD = fn
    try:
        with ctx.Pool(threads) as pool:
            parts = pool.map(_chunk_worker, bounds)
    finally:
        _PAYLOAD = None
    return [rec for part in parts for rec in part]
