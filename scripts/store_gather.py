#!/usr/bin/env python3
"""Time one layer-wide `ChunkStore.gather`, the store's decode-step read.

For each (L, H, m) shape and each residency (hot, offload, and budget of
k·l tokens per head), it seals m chunks of l rows on every (layer, head)
with random rows, then times gathers of k random ascending chunk ids per
head, cycling through the layers. It prints the best of several repeats in
µs per gather. The rows a gather returns are k·l per head, so its time
should not depend on m or on L·H.

Usage: python3 scripts/store_gather.py [--l 16] [--k 8]
"""

import argparse
import time

import numpy as np

from chunkattn import ChunkStore

SHAPES = ((2, 4, 64), (8, 8, 256))
D_HEAD = 16
REPEATS = 5


def build(L, H, m, l, residency, budget):
    store = ChunkStore(L, H, D_HEAD, l, residency=residency, budget=budget)
    rng = np.random.default_rng(0)
    for layer in range(L):
        store.bulk_append(layer, *rng.normal(size=(4, H, m * l, D_HEAD)))
    return store


def time_gather(store, m, k, gathers=64) -> float:
    """Best of REPEATS timings, in µs per gather over `gathers` calls."""
    rng = np.random.default_rng(1)
    H, L = store.n_heads, store.n_layers
    ids = [
        np.sort([rng.choice(m, size=k, replace=False) for _ in range(H)], axis=1)
        for _ in range(gathers)
    ]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i, chunk_ids in enumerate(ids):
            store.gather(i % L, chunk_ids)
        best = min(best, (time.perf_counter() - t0) / gathers)
    return best * 1e6


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--l", type=int, default=16, help="chunk size in tokens")
    parser.add_argument("--k", type=int, default=8, help="chunks gathered per head")
    args = parser.parse_args()

    print(f"l={args.l} k={args.k} d_head={D_HEAD}, best of {REPEATS}, µs per gather")
    print("| (L, H, m) | hot | offload | budget |")
    print("|---|---|---|---|")
    for L, H, m in SHAPES:
        cells = []
        for residency in ("hot", "offload", "budget"):
            budget = args.k * args.l if residency == "budget" else None
            store = build(L, H, m, args.l, residency, budget)
            cells.append(f"{time_gather(store, m, args.k):.1f}")
            del store
        print(f"| ({L}, {H}, {m}) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
