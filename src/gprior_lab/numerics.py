"""Numerical primitives: keyed RNG streams and a log-space sum.

Everything here is deliberately boring and well tested; the statistical
modules sit on top of it and call scipy.special directly for special
functions.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "log_sum_exp"]


# ---------------------------------------------------------------------------
# keyed RNG streams


def _key_words(part) -> list[int]:
    """Stable uint32 words for one path component (int or str)."""
    if isinstance(part, (int, np.integer)):
        v = int(part) & 0xFFFFFFFFFFFFFFFF
        return [v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF]
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return [int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4)]
    raise TypeError(f"rng path components must be int or str, got {type(part)!r}")


class RngStream:
    """A reproducible random stream derived from a 64-bit master seed and a
    key path such as (experiment, n, replication, purpose).

    Streams with distinct paths are statistically independent; the same
    (seed, path) always reproduces the same draws within one build, which is
    what makes threaded experiment runs order-independent.
    """

    def __init__(self, master_seed: int, path: tuple = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(path)
        words: list[int] = []
        for part in self.path:
            words.extend(_key_words(part))
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(words))
        self.generator = np.random.default_rng(seq)

    def child(self, *parts) -> "RngStream":
        """A fresh stream for a sub-task; does not advance this stream."""
        return RngStream(self.master_seed, self.path + tuple(parts))

    def __repr__(self):
        return f"RngStream(seed={self.master_seed}, path={self.path!r})"


# ---------------------------------------------------------------------------
# log-space helpers


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) without overflow; -inf for an all-(-inf) input.

    With ``axis`` the sum runs along that axis and the result is an array:
    each entry is what the call on its own values would return."""
    arr = np.asarray(values, dtype=float)
    empty = arr.size == 0 if axis is None else arr.shape[axis] == 0
    if empty:
        raise ValueError("log_sum_exp of an empty collection")
    hi = np.max(arr, axis=axis, keepdims=True)
    finite = np.isfinite(hi)
    if not np.all(finite):
        if np.any(hi[~finite] != -np.inf):
            raise ValueError("log_sum_exp input contains +inf or nan")
        hi[~finite] = 0.0  # an all-(-inf) sum is 0, and its log -inf
    with np.errstate(divide="ignore"):
        out = hi + np.log(np.sum(np.exp(arr - hi), axis=axis, keepdims=True))
    return out.item() if axis is None else np.squeeze(out, axis=axis)
