"""Support-counting kernels.

The hot loop of candidate counting runs over a dense boolean transaction
matrix. Two backends produce identical counts:

  * "numba"  - an @njit kernel over the flattened candidate list (default
               when numba is importable)
  * "numpy"  - a blocked matrix-product formulation, no JIT

Select with the ELECTMINE_BACKEND environment variable ("auto", "numba",
"numpy"). electbench/run.py records which one ran.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

import numpy as np

_requested = os.environ.get("ELECTMINE_BACKEND", "auto").lower()
if _requested not in ("auto", "numba", "numpy"):
    warnings.warn(f"unknown ELECTMINE_BACKEND={_requested!r}, using auto")
    _requested = "auto"

_have_numba = False
if _requested in ("auto", "numba"):
    try:
        from numba import njit

        _have_numba = True
    except ImportError:
        if _requested == "numba":
            warnings.warn("ELECTMINE_BACKEND=numba but numba is not importable; using numpy")

BACKEND = "numba" if _have_numba else "numpy"


def _flatten(itemsets: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(itemsets) + 1, dtype=np.int64)
    for i, s in enumerate(itemsets):
        offsets[i + 1] = offsets[i] + len(s)
    flat = np.empty(offsets[-1], dtype=np.int64)
    for i, s in enumerate(itemsets):
        flat[offsets[i] : offsets[i + 1]] = s
    return flat, offsets


if _have_numba:

    @njit(cache=True)
    def _count_kernel(matrix, flat, offsets, out):  # pragma: no cover - jitted
        n_rows = matrix.shape[0]
        for c in range(out.shape[0]):
            start = offsets[c]
            end = offsets[c + 1]
            total = 0
            for t in range(n_rows):
                ok = True
                for j in range(start, end):
                    if not matrix[t, flat[j]]:
                        ok = False
                        break
                if ok:
                    total += 1
            out[c] = total

    def count_itemsets(matrix: np.ndarray, itemsets: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Occurrence count of each itemset in the boolean transaction matrix."""
        out = np.zeros(len(itemsets), dtype=np.int64)
        if not itemsets or matrix.shape[0] == 0:
            return out
        flat, offsets = _flatten(itemsets)
        _count_kernel(matrix, flat, offsets, out)
        return out

else:
    _BLOCK = 1024

    def count_itemsets(matrix: np.ndarray, itemsets: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Occurrence count of each itemset in the boolean transaction matrix."""
        out = np.zeros(len(itemsets), dtype=np.int64)
        if not itemsets or matrix.shape[0] == 0:
            return out
        n_items = matrix.shape[1]
        mat = matrix.astype(np.int32)
        for start in range(0, len(itemsets), _BLOCK):
            block = itemsets[start : start + _BLOCK]
            indicator = np.zeros((len(block), n_items), dtype=np.int32)
            sizes = np.empty(len(block), dtype=np.int64)
            for i, s in enumerate(block):
                indicator[i, list(s)] = 1
                sizes[i] = len(s)
            hits = mat @ indicator.T  # (n_transactions, len(block))
            out[start : start + len(block)] = (hits == sizes).sum(axis=0)
        return out
