"""Synthetic data generators for the real (local-backend) benchmarks."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.combine import zipf_pmf

__all__ = ["generate_text_corpus", "generate_kv_pairs",
           "generate_labelled_points", "WORDS"]

#: A small vocabulary; "needle" appears only when injected.
WORDS = ("the quick brown fox jumps over lazy dog data node spark shuffle "
         "cluster lustre hyperion memory task stage rdd executor").split()


def generate_text_corpus(n_lines: int, words_per_line: int = 8,
                         needle: str = "NEEDLE", needle_rate: float = 0.01,
                         seed: int = 0) -> List[str]:
    """Lines of filler text with ``needle`` injected at ``needle_rate``."""
    if n_lines < 0:
        raise ValueError("n_lines must be non-negative")
    if not 0 <= needle_rate <= 1:
        raise ValueError("needle_rate must be in [0, 1]")
    rng = np.random.default_rng(seed)
    word_idx = rng.integers(0, len(WORDS), size=(n_lines, words_per_line))
    has_needle = rng.random(n_lines) < needle_rate
    lines = []
    for i in range(n_lines):
        toks = [WORDS[j] for j in word_idx[i]]
        if has_needle[i]:
            toks[int(rng.integers(0, words_per_line))] = needle
        lines.append(" ".join(toks))
    return lines


def generate_kv_pairs(n_pairs: int, n_keys: int = 1000, value_size: int = 1,
                      skew: float = 0.0, seed: int = 0
                      ) -> List[Tuple[int, int]]:
    """(key, value) pairs; ``skew`` > 0 draws key ``k`` with probability
    :func:`~repro.core.combine.zipf_pmf` ``(n_keys, skew)[k]`` — Zipf with
    exponent ``1 + skew`` truncated to ``n_keys`` ranks, the distribution
    the simulated combiner model derives its reduction curves from."""
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be non-negative, got {n_pairs}")
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    if skew < 0:
        raise ValueError(
            f"skew must be >= 0, got {skew} (0 = uniform keys; larger "
            f"values sharpen the Zipf head)")
    rng = np.random.default_rng(seed)
    if skew > 0:
        keys = rng.choice(n_keys, size=n_pairs, p=zipf_pmf(n_keys, skew))
    else:
        keys = rng.integers(0, n_keys, size=n_pairs)
    values = rng.integers(0, 1000, size=n_pairs)
    return list(zip(keys.tolist(), values.tolist()))


def generate_labelled_points(n_points: int, dims: int = 10, seed: int = 0
                             ) -> List[Tuple[np.ndarray, float]]:
    """Linearly separable labelled points for logistic regression.

    Labels are in {-1, +1}, decided by a hidden hyperplane plus noise, so
    a correct LR implementation must achieve high training accuracy.
    """
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    if dims < 1:
        raise ValueError("dims must be >= 1")
    rng = np.random.default_rng(seed)
    true_w = rng.normal(size=dims)
    x = rng.normal(size=(n_points, dims))
    margin = x @ true_w + rng.normal(scale=0.1, size=n_points)
    y = np.where(margin > 0, 1.0, -1.0)
    return [(x[i], float(y[i])) for i in range(n_points)]
