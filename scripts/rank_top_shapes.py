#!/usr/bin/env python3
"""Time each path of `selection.rank_top` on the score blocks it ranks.

Decode ranks one (H, C) block per layer and encode one (H, T, C) block per
chunk group, T tokens of H heads. For H = 4, each C in CANDIDATES and each
T in TOKENS, the short rows of each C in SHORT_CANDIDATES and T in
SHORT_TOKENS, and the mid-size (rows, C) blocks of MID_BLOCKS, it times the
stable argsort path, the threshold path and `rank_top` itself on normal
random scores, taking the k - 2 best as encode and decode do, and prints
the best of several repeats in µs per call.
These timings are the evidence for `rank_top`'s choice of path, which the
header line states.

Usage: python3 scripts/rank_top_shapes.py [--k 8] [--repeats 9]
"""

import argparse
import time

import numpy as np

from chunkattn import selection

HEADS = 4
CANDIDATES = (62, 128, 256, 510, 1000)
TOKENS = (16, 128)
# Encode's early chunks rank few candidates in blocks of many rows.
SHORT_CANDIDATES = (16, 30, 62)
SHORT_TOKENS = (64, 128)
# Mid-size blocks of 300-1,024 scores, on either side of the limits.
MID_BLOCKS = ((4, 160), (4, 192), (4, 256), (8, 128), (16, 64), (32, 32), (1, 300))


def path(rank):
    """One of rank_top's paths, called as rank_top is: on (..., C) scores."""
    return lambda scores, take: rank(scores.reshape(-1, scores.shape[-1]), take, None)


PATHS = {
    "argsort": path(selection._argsort_top),
    "threshold": path(selection._threshold_top),
    "rank_top": selection.rank_top,
}


def time_call(fn, scores, take, repeats) -> float:
    """Best of `repeats` timings of fn(scores, take), in µs per call."""
    calls = max(1, 20000 // scores.size)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(scores, take)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, default=8, help="chunks selected; k - 2 are ranked")
    parser.add_argument("--repeats", type=int, default=9, help="timings per cell; the best is kept")
    args = parser.parse_args()
    take = args.k - 2
    rng = np.random.default_rng(0)

    print(
        f"take={take}, best of {args.repeats}, µs per call; rank_top takes the argsort "
        f"when C <= {selection.ARGSORT_MAX_LENGTH} or the block holds <= "
        f"{selection.ARGSORT_MAX_SCORES} scores (<= {selection.ARGSORT_MAX_LONG_SCORES} "
        f"when C > 32)"
    )
    print("| shape | " + " | ".join(PATHS) + " |")
    print("|---|" + "---|" * len(PATHS))
    shapes = [(HEADS, c) for c in CANDIDATES]
    shapes += [(HEADS, t, c) for t in TOKENS for c in CANDIDATES]
    shapes += [(HEADS, t, c) for t in SHORT_TOKENS for c in SHORT_CANDIDATES]
    shapes += list(MID_BLOCKS)
    for shape in dict.fromkeys(shapes):  # each shape once
        scores = rng.normal(size=shape)
        cells = [f"{time_call(fn, scores, take, args.repeats):,.1f}" for fn in PATHS.values()]
        print(f"| {shape} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
