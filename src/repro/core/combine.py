"""In-node combiner model: merging map outputs before the storing stage.

In-node combining (arXiv:1511.04861) runs a hash-merge over each node's
map outputs *before* the shuffle materialises them, collapsing records
that share a key.  Where ELB and CAD route *around* the intermediate-data
bottleneck the paper characterizes (§IV), combining attacks the volume
itself — the storing stage writes, and every reducer fetches, only the
post-combine bytes.

Reduction-factor derivation (DESIGN.md §14)
-------------------------------------------
A node holding ``B`` raw intermediate bytes holds ``m = B / pair_bytes``
key/value records whose keys follow the workload's key distribution: a
Zipf law with exponent ``1 + skew`` truncated to ``n_keys`` ranks
(``skew = 0`` degenerates to uniform), :func:`zipf_pmf`.  The data
generator draws its keys from this same vector
(``datagen.generate_kv_pairs(skew=...)``), and
``tests/workloads/test_workload_shapes.py`` checks that the distinct
keys each map partition of the local GroupBy and WordCount programs
feeds its shuffle match :func:`expected_distinct_keys` within 3
standard errors.

A perfect combiner leaves one record per *distinct* key, so the expected
post-combine volume is ``E[D(m)] * pair_bytes`` where ``D(m)`` is the
number of distinct keys among ``m`` i.i.d. draws:

    E[D(m)] = sum_k (1 - (1 - p_k)^m)

and the per-node reduction factor (post / pre, in (0, 1]) is

    r(B) = min(1, E[D(m)] / m).

Skew helps twice: a more skewed distribution concentrates draws on few
hot keys, so ``E[D(m)]`` — and with it the shuffled volume — falls
monotonically as ``skew`` grows.  Uniform keys with ``n_keys >= m``
leave almost nothing to merge (``r ~ 1``): Grep/WordCount/GroupBy get
honestly *different* curves from their distinct ``(n_keys, skew,
pair_bytes)`` parameterisations, not a shared fudge factor.

Hash partitioning after combining deals *distinct keys* — not bytes —
to reducers, so with ``n_keys`` not divisible by the reducer count the
per-reducer slices are genuinely unequal: :func:`reducer_key_shares`
returns the exact ceil/floor key split the engine sizes fetch slices
with (replacing the historical uniform ``1 / n_reducers``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["zipf_pmf", "expected_distinct_keys", "reduction_factor",
           "reduction_factors", "reducer_key_shares"]


@lru_cache(maxsize=64)
def zipf_pmf(n_keys: int, skew: float) -> np.ndarray:
    """Key-probability vector: Zipf(1 + skew) truncated to ``n_keys``
    ranks, normalised; uniform when ``skew == 0``."""
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    if skew == 0:
        p = np.full(n_keys, 1.0 / n_keys)
    else:
        ranks = np.arange(1, n_keys + 1, dtype=float)
        p = ranks ** -(1.0 + skew)
        p /= p.sum()
    p.setflags(write=False)
    return p


def expected_distinct_keys(m: float, n_keys: int, skew: float) -> float:
    """``E[D(m)]``: expected distinct keys among ``m`` i.i.d. draws."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 0.0
    p = zipf_pmf(n_keys, skew)
    # (1 - p)^m via exp(m * log1p(-p)); log1p keeps tiny p accurate.  A
    # certain key (p == 1, the n_keys == 1 corner) gives log1p(-1) =
    # -inf, which flows through expm1 to exactly one distinct key — the
    # right answer — so only the warning is suppressed.
    with np.errstate(divide="ignore"):
        return float(np.sum(-np.expm1(m * np.log1p(-p))))


def reduction_factor(nbytes: float, pair_bytes: float, n_keys: int,
                     skew: float) -> float:
    """Post-combine / pre-combine byte ratio for one node's output."""
    if pair_bytes <= 0:
        raise ValueError(f"pair_bytes must be > 0, got {pair_bytes}")
    if nbytes <= 0:
        return 1.0
    m = nbytes / pair_bytes
    if m <= 1.0:
        return 1.0  # a lone record cannot merge with anything
    return min(1.0, expected_distinct_keys(m, n_keys, skew) / m)


def reduction_factors(node_bytes: np.ndarray, pair_bytes: float,
                      n_keys: int, skew: float) -> np.ndarray:
    """Per-node reduction factors for an array of raw output sizes."""
    out = np.ones(len(node_bytes))
    for i, b in enumerate(node_bytes):
        out[i] = reduction_factor(float(b), pair_bytes, n_keys, skew)
    return out


def reducer_key_shares(n_keys: int, n_reducers: int) -> np.ndarray:
    """Fraction of the key space hash-partitioned to each reducer.

    Keys deal out ceil/floor: the first ``n_keys % n_reducers`` reducers
    take one extra key.  Shares sum to 1 (to float rounding), so slicing
    every source by them conserves bytes exactly — the conservation
    property the combiner tests pin.
    """
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    if n_reducers < 1:
        raise ValueError(f"n_reducers must be >= 1, got {n_reducers}")
    base, extra = divmod(n_keys, n_reducers)
    counts = np.full(n_reducers, base, dtype=float)
    counts[:extra] += 1.0
    return counts / n_keys
