#!/usr/bin/env python3
"""Encode time and peak memory of one prompt at the CLI default shape.

Builds the model, engine configuration (l=64, k=8, top-k, unless
`--chunk-size` or `--k` sets l or k as `chunkattn run` does) and synthetic
prompt that `chunkattn run` uses when given no options, with offload
residency unless `--residency` names another (hot, offload or budget:N).
It encodes one prompt of N tokens and prints encode µs per token, the
process's peak resident set size (`ru_maxrss`) per prompt token, and the
rise of that peak over its value just before the encode, per prompt token:
the first includes the interpreter, numpy and the model, the second is
the encode's own. Run it once per N: each run is a fresh process, so the
peak is this encode's.

Usage: python3 scripts/encode_memory.py --n 65536 [--residency hot]
           [--chunk-size 16] [--k 8]
"""

import argparse
import resource
import time

from chunkattn import Engine, ModelConfig, build_model, cli


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, required=True, help="prompt length in tokens")
    parser.add_argument("--residency", default="offload", help="hot, offload, or budget:N")
    parser.add_argument("--chunk-size", type=int, default=None, help="chunk length l")
    parser.add_argument("--k", type=int, default=None, help="chunks selected per token")
    args = parser.parse_args()
    residency, budget = cli._parse_residency(args.residency)

    model_cfg = ModelConfig.create(**cli.DEFAULT_MODEL)
    engine_cfg = cli._load_engine_config(
        argparse.Namespace(engine_config=None, chunk_size=args.chunk_size, k=args.k, seed=None)
    )
    engine = Engine(build_model(model_cfg), engine_cfg, residency=residency, budget=budget)
    tokens = cli._synthetic_tokens(args.n, model_cfg.vocab_size, engine_cfg.seed)
    before = max_rss_mb()
    t0 = time.perf_counter()
    engine.encode(tokens)
    seconds = time.perf_counter() - t0
    peak = max_rss_mb()
    print(
        f"n={args.n} l={engine_cfg.chunk_size} k={engine_cfg.num_selected} "
        f"encode_s={seconds:.2f} us_per_token={seconds / args.n * 1e6:.1f}"
    )
    print(
        f"ru_maxrss_mb={peak:.1f} (before encode {before:.1f}) "
        f"ru_maxrss_kb_per_token={peak * 1024 / args.n:.2f}"
    )
    rise = peak - before
    print(f"encode_rise_mb={rise:.1f} encode_rise_kb_per_token={rise * 1024 / args.n:.2f}")


if __name__ == "__main__":
    main()
