"""Numba-compiled inner loops for brute-force KNN and farthest-point sampling.

Selected at import time by backend(): IM2PC_BACKEND=numpy forces the pure
numpy path (see sampling.py); any other value uses numba when it imports.
Both paths order candidates by (distance, index) with the same float64
arithmetic. Without numba the functions below stay plain Python.
Projection-aware KNN has no kernel here: its windowed numpy search in
sampling.py runs on every backend.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_OK = False
if os.environ.get("IM2PC_BACKEND", "auto") != "numpy":
    try:
        from numba import njit

        NUMBA_OK = True
    except ImportError:  # pragma: no cover
        pass

if not NUMBA_OK:

    def njit(*args, **kwargs):  # no-op decorator fallback
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


def backend() -> str:
    mode = os.environ.get("IM2PC_BACKEND", "auto")
    if mode == "numpy" or not NUMBA_OK:
        return "numpy"
    return "numba"


@njit(cache=True)
def _sq_dist(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return dx * dx + dy * dy + dz * dz


@njit(cache=True)
def knn_select(centers, candidates, k, max_sq):
    """Per-center k-nearest among all candidates within sqrt(max_sq).

    Returns (idx, mask); invalid slots repeat the nearest valid index, or
    the globally nearest candidate when nothing is valid.
    """
    M = centers.shape[0]
    N = candidates.shape[0]
    idx = np.zeros((M, k), dtype=np.int64)
    mask = np.zeros((M, k), dtype=np.bool_)
    for i in range(M):
        best_idx = np.full(k, -1, dtype=np.int64)
        best_d = np.full(k, np.inf)
        fallback = -1
        fallback_d = np.inf
        for j in range(N):
            d = _sq_dist(centers[i], candidates[j])
            if d < fallback_d:
                fallback_d = d
                fallback = j
            if d > max_sq:
                continue
            # insertion sort by (d, j); ties keep the lower index,
            # which arrives first since j is ascending
            if d < best_d[k - 1]:
                pos = k - 1
                while pos > 0 and d < best_d[pos - 1]:
                    best_d[pos] = best_d[pos - 1]
                    best_idx[pos] = best_idx[pos - 1]
                    pos -= 1
                best_d[pos] = d
                best_idx[pos] = j
        nvalid = 0
        for s in range(k):
            if best_idx[s] >= 0:
                nvalid += 1
        if nvalid == 0:
            for s in range(k):
                idx[i, s] = fallback
        else:
            for s in range(k):
                if s < nvalid:
                    idx[i, s] = best_idx[s]
                    mask[i, s] = True
                else:
                    idx[i, s] = best_idx[0]
    return idx, mask


@njit(cache=True)
def fps_select(positions, m, start):
    n = positions.shape[0]
    chosen = np.zeros(m, dtype=np.int64)
    min_d = np.full(n, np.inf)
    chosen[0] = start
    for step in range(1, m):
        last = positions[chosen[step - 1]]
        best = -1
        best_d = -1.0
        for j in range(n):
            d = _sq_dist(positions[j], last)
            if d < min_d[j]:
                min_d[j] = d
            if min_d[j] > best_d:
                best_d = min_d[j]
                best = j
        chosen[step] = best
    return chosen
