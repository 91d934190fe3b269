#!/usr/bin/env python3
"""Decode step times of two source trees, interleaved in one process.

Each tree, `--a` and `--b` (a directory holding the `chunkattn` package,
such as `src`; both default to this checkout's), is copied to a temporary
directory under a package name of its own, `chunkattn_a` and
`chunkattn_b`, so that both import side by side and their relative
imports resolve. Each round builds one engine per tree at the CLI default
model, encodes the same synthetic prompt in both and decodes `--steps`
greedy tokens, one step of each engine in turn, the engine that steps
first alternating from step to step. The default shape is the
`decode_m512` benchmark workload's: n = 8192, l = 16, k = 8, offload,
top-k; `--policy` selects another selection policy for both engines.

Per round it prints each tree's decode p50 and p95 in ms, b's change
from a in percent, and whether the two trees generated the same tokens;
then the median change over the rounds. Separate benchmark runs' decode
p50 move by several percent with no change to the code; steps
interleaved in one process see the same machine, so a 1-3% cost
resolves.

Usage: python3 scripts/decode_ab.py --a OTHER/src [--b src] [--rounds 5]
           [--n 8192] [--chunk-size 16] [--k 8] [--residency offload]
           [--steps 256] [--policy top-k]
"""

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def load(tree: Path, name: str, into: Path):
    """The `chunkattn` package of `tree`, imported as `name`, with its cli."""
    shutil.copytree(tree / "chunkattn", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def engine_of(pkg, args):
    residency, budget = pkg.cli._parse_residency(args.residency)
    config = pkg.EngineConfig(chunk_size=args.chunk_size, num_selected=args.k, policy=args.policy)
    model = pkg.build_model(pkg.ModelConfig.create(**pkg.cli.DEFAULT_MODEL))
    return pkg.Engine(model, config, residency=residency, budget=budget)


def round_times(pkgs, args, seed: int):
    """Per package, its (steps,) decode step times in ms and its tokens."""
    engines = [engine_of(pkg, args) for pkg in pkgs]
    vocab = pkgs[0].cli.DEFAULT_MODEL["vocab_size"]
    prompt = np.random.default_rng(seed).integers(0, vocab, size=args.n)
    for engine in engines:
        engine.encode(prompt)
    times = np.empty((len(engines), args.steps))
    tokens = [[] for _ in engines]
    clock = time.perf_counter_ns
    for step in range(args.steps):
        order = range(len(engines)) if step % 2 == 0 else reversed(range(len(engines)))
        for i in order:
            t0 = clock()
            out = engines[i].generate(1)
            times[i, step] = (clock() - t0) / 1e6
            tokens[i].extend(out.tokens)
    return times, tokens


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--a", type=Path, default=SRC, help="source tree of the reference")
    parser.add_argument("--b", type=Path, default=SRC, help="source tree compared with it")
    parser.add_argument("--n", type=int, default=8192, help="prompt length in tokens")
    parser.add_argument("--chunk-size", type=int, default=16, help="chunk length l")
    parser.add_argument("--k", type=int, default=8, help="chunks selected per token")
    parser.add_argument("--residency", default="offload", help="hot, offload, or budget:N")
    parser.add_argument("--policy", default="top-k", help="selection policy of both engines")
    parser.add_argument("--steps", type=int, default=256, help="decode steps per round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds, each on a new prompt")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(args.a.resolve(), "chunkattn_a", Path(tmp)),
                load(args.b.resolve(), "chunkattn_b", Path(tmp))]
        print(f"n={args.n} l={args.chunk_size} k={args.k} {args.residency} {args.policy}, "
              f"{args.steps} steps per round; a={args.a} b={args.b}")
        print("| round | a p50 | b p50 | Δp50 | a p95 | b p95 | Δp95 | tokens |")
        print("|---|---|---|---|---|---|---|---|")
        deltas = []
        for r in range(args.rounds):
            times, tokens = round_times(pkgs, args, seed=r)
            (a50, b50), (a95, b95) = np.percentile(times, [50, 95], axis=1)
            deltas.append((b50 / a50 - 1, b95 / a95 - 1))
            same = "same" if tokens[0] == tokens[1] else "DIFFER"
            print(f"| {r + 1} | {a50:.3f} | {b50:.3f} | {deltas[-1][0]:+.1%} | "
                  f"{a95:.3f} | {b95:.3f} | {deltas[-1][1]:+.1%} | {same} |")
        d50, d95 = np.median(deltas, axis=0)
        print(f"median over {args.rounds} rounds: Δp50 {d50:+.1%}, Δp95 {d95:+.1%}")


if __name__ == "__main__":
    main()
