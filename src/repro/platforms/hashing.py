"""Knuth multiplicative hashing: the id placement the engines share.

Giraph's vertex partitioning, GraphLab's masters and edge cut, the
RDD and dataflow key partitioners and the column store's exchange
operator all place an integer id on one of ``buckets`` workers by
``((id * KNUTH) & 0xFFFFFFFF) % buckets``. The scalar and vectorized
forms live here so that every engine places the same id on the same
worker.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KNUTH", "hash_worker", "hash_workers"]

#: Knuth's multiplicative hashing constant (2**32 / golden ratio).
KNUTH = 2654435761


def hash_worker(key: int, buckets: int) -> int:
    """The bucket of one integer id."""
    return ((int(key) * KNUTH) & 0xFFFFFFFF) % buckets


def hash_workers(keys: np.ndarray, buckets: int) -> np.ndarray:
    """:func:`hash_worker` of every id in ``keys``, as int64.

    Unsigned 64-bit multiplication wraps modulo 2**64, which keeps the
    low 32 bits of the product, so this equals the scalar hash
    element-wise; negative ids reinterpret as their two's complement,
    exactly as Python's ``&`` sees them.
    """
    hashed = np.asarray(keys).astype(np.int64, copy=False).view(np.uint64)
    hashed = hashed * np.uint64(KNUTH)
    return ((hashed & np.uint64(0xFFFFFFFF)) % np.uint64(buckets)).astype(
        np.int64
    )
