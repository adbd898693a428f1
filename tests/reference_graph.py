"""Dense reference builder for G(n, p), the differential oracle for ``erdos_renyi``.

The construction ``erdos_renyi`` used before it dropped the ``np.triu`` mask
of ones and the modulo and before it compared PCG64's raw words with an
integer threshold: ``Generator.random`` doubles from the same PCG64 stream
fill the upper triangle of a dense n x n matrix row by row, which is
mirrored and read back in row-major order.
"""

import numpy as np

from beepmis import Graph


def reference_erdos_renyi(n, p_edge, seed):
    rng = np.random.default_rng(int(seed) & (2**64 - 1))
    draws = rng.random(n * (n - 1) // 2)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[np.triu(np.ones((n, n), dtype=bool), k=1)] = draws < p_edge
    adjacent |= adjacent.T
    flat = np.flatnonzero(adjacent)
    return Graph.from_csr(np.searchsorted(flat, np.arange(n + 1) * n), flat % n)
