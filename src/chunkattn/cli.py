"""Command-line harness: equivalence checks, retrieval trials, ablation
sweeps, and scaling runs.

Exit codes: 0 on success/pass, 1 when an asserted comparison fails,
2 on configuration errors. All commands are deterministic given their
seeds; wall times go to timings.json, never into the deterministic
outputs (metrics.json, trace.json, heatmap.csv, counters.json).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import MetricsReport, cover_rate, export_heatmap, gini, run_passkey_trials
from .config import EngineConfig, ModelConfig, SELECTION_POLICIES, validate_pairing
from .engine import Engine, OracleDecoder
from .model import build_model

DEFAULT_MODEL = dict(n_layers=2, n_heads=4, d_head=16, vocab_size=64, pretrain_length=1024, seed=7)


def _write_json(path: Path, data) -> None:
    with open(path, "w") as f:
        json.dump(data, f, sort_keys=True, indent=2)
        f.write("\n")


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _given(value, default):
    """`value`, or `default` when the option was not given; an explicit
    zero is kept, so that validation rejects it."""
    return default if value is None else value


def _load_model_config(args) -> ModelConfig:
    if getattr(args, "model_config", None) is not None:
        return ModelConfig.from_dict(_load_json(args.model_config), where=args.model_config)
    base = dict(DEFAULT_MODEL)
    if getattr(args, "seed", None) is not None:
        base["seed"] = args.seed
    return ModelConfig.create(**base)


def _load_engine_config(args) -> EngineConfig:
    if getattr(args, "engine_config", None) is not None:
        cfg = EngineConfig.from_dict(_load_json(args.engine_config), where=args.engine_config)
    else:
        cfg = EngineConfig(
            chunk_size=_given(args.chunk_size, 64),
            num_selected=_given(args.k, 8),
            policy=_given(getattr(args, "policy", None), "top-k"),
            seed=_given(args.seed, 0),
        )
    return cfg


def _parse_residency(text: str):
    if text == "hot":
        return "hot", None
    if text == "offload":
        return "offload", None
    if text.startswith("budget:"):
        return "budget", int(text.split(":", 1)[1])
    raise ValueError(f"unknown residency {text!r}; expected hot, offload, or budget:N")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synthetic_tokens(n: int, vocab: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed, n]).integers(0, vocab, size=n)


def cmd_equivalence(args) -> int:
    out = _out_dir(args)
    model_cfg = _load_model_config(args)
    engine_cfg = _load_engine_config(args)
    validate_pairing(model_cfg, engine_cfg)
    n = _given(args.n, 512)
    steps = _given(args.steps, 32)
    l, k = engine_cfg.chunk_size, engine_cfg.num_selected
    m = -(-n // l)
    if n > model_cfg.pretrain_length:
        print(f"refused: n={n} exceeds pretrain length {model_cfg.pretrain_length}", file=sys.stderr)
        return 2
    if m > k:
        print(
            f"refused: ceil(n/l)={m} chunks exceed num_selected={k}; "
            "selection would not saturate and equivalence is not expected",
            file=sys.stderr,
        )
        return 2
    if n + steps > model_cfg.pretrain_length:
        print("refused: n + steps exceeds pretrain length for the oracle", file=sys.stderr)
        return 2
    model = build_model(model_cfg)
    tokens = _synthetic_tokens(n, model_cfg.vocab_size, engine_cfg.seed)

    engine = Engine(model, engine_cfg)
    t0 = time.perf_counter()
    engine_logits = engine.encode(tokens)
    engine_tokens = engine.generate(steps)
    t1 = time.perf_counter()
    oracle = OracleDecoder(model)
    oracle_logits = oracle.encode(tokens)
    oracle_tokens = oracle.generate(steps)
    t2 = time.perf_counter()

    diff = float(np.max(np.abs(engine_logits - oracle_logits)))
    tokens_match = engine_tokens.tokens == oracle_tokens.tokens
    passed = diff <= 1e-5 and tokens_match
    report = {
        "n": n,
        "steps": steps,
        "chunk_size": l,
        "num_selected": k,
        "max_abs_logit_diff": diff,
        "greedy_tokens_match": tokens_match,
        "engine_tokens": list(engine_tokens.tokens),
        "oracle_tokens": list(oracle_tokens.tokens),
        "pass": passed,
    }
    _write_json(out / "metrics.json", report)
    engine.trace.meta["m"] = engine.layout.m
    engine.trace.to_json(out / "trace.json")
    export_heatmap(engine.trace, out / "heatmap.csv")
    _write_json(out / "counters.json", engine.counters_dict())
    _write_json(out / "timings.json", {"engine_s": t1 - t0, "oracle_s": t2 - t1})
    print(f"equivalence: max_abs_diff={diff:.3e} tokens_match={tokens_match} -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_passkey(args) -> int:
    out = _out_dir(args)
    m = args.m
    k = _given(args.k, 8)
    trials = _given(args.trials, 50)
    seed = _given(args.seed, 0)
    if args.target is not None and args.target in (0, m - 1):
        print(
            f"warning: target={args.target} is a mandatory chunk; "
            "selection membership will be masked",
            file=sys.stderr,
        )
    report, trace = run_passkey_trials(
        m,
        k,
        args.gap,
        trials,
        seed,
        policy=_given(args.policy, "top-k"),
        target=args.target,
        chunk_size=_given(args.chunk_size, 16),
        n_heads=args.heads,
    )
    _write_json(out / "metrics.json", report.to_dict())
    trace.to_json(out / "trace.json")
    export_heatmap(trace, out / "heatmap.csv")
    _write_json(
        out / "counters.json",
        {"trials": trials, "records": len(trace), "m": m, "k": k, "gap": args.gap},
    )
    print(
        f"passkey m={m} gap={args.gap} trials={trials}: "
        f"top1={report.hit_rate_top1:.3f} top5={report.hit_rate_top5:.3f} "
        f"retrieval={report.retrieval_rate:.3f} cover={report.cover_rate:.3f} "
        f"gini={report.gini:.3f}"
    )
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ValueError("--policies names no policy")
    for p in policies:
        if p not in SELECTION_POLICIES:
            print(f"unknown policy tag {p!r}", file=sys.stderr)
            return 2
    k_sweep = _sweep_values(args.k_sweep, "--k-sweep")
    l_sweep = _sweep_values(args.l_sweep, "--l-sweep")
    m = args.m
    k = _given(args.k, 6)
    trials = _given(args.trials, 200)
    seed = _given(args.seed, 0)
    # Targets are placed outside the trailing window that last-k always
    # covers: the regime the ablation is about is relevant context far
    # from the generation point.
    target_range = (1, max(2, m - k + 1))
    rows = []
    for policy in policies:
        report, _ = run_passkey_trials(
            m,
            k,
            args.gap,
            trials,
            seed,
            policy=policy,
            target_range=target_range,
            chunk_size=_given(args.chunk_size, 16),
            n_heads=args.heads,
        )
        row = {
            "policy": policy,
            "hit_rate_top1": report.hit_rate_top1,
            "hit_rate_top5": report.hit_rate_top5,
            "retrieval_rate": report.retrieval_rate,
            "cover_rate": report.cover_rate,
            "gini": report.gini,
        }
        if policy == "no-first":
            row["note"] = (
                "degenerate: dropping the first chunk collapses a pretrained "
                "model's output distribution; that failure mode needs trained "
                "weights and is out of scope here"
            )
        rows.append(row)

    sweeps = {}
    if k_sweep is not None:
        sweeps["k"] = _load_sweep(args, "k", k_sweep)
    if l_sweep is not None:
        sweeps["chunk_size"] = _load_sweep(args, "chunk_size", l_sweep)

    table = {"m": m, "k": k, "gap": args.gap, "trials": trials, "rows": rows, "sweeps": sweeps}
    _write_json(out / "metrics.json", table)
    for row in rows:
        extra = "  # " + row["note"] if "note" in row else ""
        print(
            f"{row['policy']:>18}: retrieval={row['retrieval_rate']:.3f} "
            f"top1={row['hit_rate_top1']:.3f} cover={row['cover_rate']:.3f} "
            f"gini={row['gini']:.3f}{extra}"
        )
    return 0


def _sweep_values(text, option: str):
    """The comma list `text` as integers, or None when `option` was not given."""
    if text is None:
        return None
    if not text.strip():
        raise ValueError(f"{option} names no value")
    return [int(v) for v in text.split(",")]


def _load_sweep(args, param: str, values) -> list:
    """Per-step load counters for a small decode run at each swept value.

    The chunk-size sweep holds the attention window k*l fixed (k adjusts),
    so the per-step load stays identical across chunk sizes.
    """
    seed = _given(args.seed, 0)
    rows = []
    base_window = _given(args.k, 4) * values[0] if param == "chunk_size" else None
    for value in values:
        if param == "k":
            k, l = value, _given(args.chunk_size, 32)
        else:
            l = value
            if base_window % l:
                raise ValueError(f"window {base_window} is not divisible by chunk size {l}")
            k = base_window // l
        model_cfg = ModelConfig.create(
            n_layers=1, n_heads=2, d_head=8, vocab_size=32,
            pretrain_length=max(4 * k * l, 2 * l, 256), seed=seed,
        )
        engine_cfg = EngineConfig(chunk_size=l, num_selected=k, seed=seed)
        model = build_model(model_cfg)
        engine = Engine(model, engine_cfg, residency="offload")
        n = (2 * k + 2) * l
        engine.encode(_synthetic_tokens(n, model_cfg.vocab_size, seed))
        engine.generate(4)
        per_step = [s.rows_loaded for s in engine.counters.steps]
        rows.append({param: value, "window": k * l, "rows_loaded_per_step": per_step})
    return rows


def cmd_scaling(args) -> int:
    out = _out_dir(args)
    n_list = [int(v) for v in args.n_list.split(",")]
    steps = _given(args.steps, 8)
    seed = _given(args.seed, 0)
    model_cfg = (
        ModelConfig.from_dict(_load_json(args.model_config), where=args.model_config)
        if args.model_config is not None
        else ModelConfig.create(
            n_layers=1, n_heads=2, d_head=8, vocab_size=64,
            pretrain_length=max(n_list) + steps + 1, seed=seed,
        )
    )
    engine_cfg = _load_engine_config(args) if args.engine_config is not None else EngineConfig(
        chunk_size=_given(args.chunk_size, 64), num_selected=_given(args.k, 4), seed=seed
    )
    validate_pairing(model_cfg, engine_cfg)
    residency, budget = _parse_residency(args.residency)
    model = build_model(model_cfg)

    engine_steps = {}
    timings = {}
    for n in n_list:
        tokens = _synthetic_tokens(n, model_cfg.vocab_size, seed)
        engine = Engine(model, engine_cfg, residency=residency, budget=budget)
        t0 = time.perf_counter()
        engine.encode(tokens)
        engine.generate(steps)
        timings[str(n)] = {"engine_s": time.perf_counter() - t0}
        engine_steps[n] = [s.rows_gathered for s in engine.counters.steps]
    # full attention reads every earlier row plus the query, by definition
    oracle_steps = {n: [n + 1 + j for j in range(steps)] for n in n_list}

    baseline = engine_steps[n_list[0]]
    constant = all(engine_steps[n] == baseline for n in n_list)
    report = {
        "n_list": n_list,
        "steps": steps,
        "chunk_size": engine_cfg.chunk_size,
        "num_selected": engine_cfg.num_selected,
        "engine_rows_gathered_per_step": {str(n): engine_steps[n] for n in n_list},
        "oracle_attended_rows_per_step": {str(n): oracle_steps[n] for n in n_list},
        "engine_rows_constant_in_n": constant,
    }
    _write_json(out / "counters.json", report)
    _write_json(out / "metrics.json", {"engine_rows_constant_in_n": constant})
    _write_json(out / "timings.json", timings)
    for n in n_list:
        print(f"n={n}: engine_rows_per_step={engine_steps[n][0]} oracle_rows[0]={n + 1}")
    print(f"scaling: engine per-step rows constant in n -> {'PASS' if constant else 'FAIL'}")
    return 0 if constant else 1


def cmd_run(args) -> int:
    out = _out_dir(args)
    desc = _load_json(args.descriptor)
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor {args.descriptor} must hold a JSON object")
    required = {"model", "engine", "input", "steps"}
    missing = required - set(desc)
    if missing:
        raise ValueError(f"descriptor missing fields {sorted(missing)}")
    steps = desc["steps"]
    if type(steps) is not int or steps < 0:
        raise ValueError(f"descriptor steps must be a non-negative integer, got {steps!r}")
    model_cfg = ModelConfig.from_dict(desc["model"], where="descriptor.model")
    engine_cfg = EngineConfig.from_dict(desc["engine"], where="descriptor.engine")
    validate_pairing(model_cfg, engine_cfg)
    if not isinstance(desc["input"], str):
        raise ValueError(f"descriptor input must be a token file path, got {desc['input']!r}")
    tokens = _load_json(desc["input"])
    if not isinstance(tokens, list):
        raise ValueError(f"token file {desc['input']} must hold a JSON array")
    residency, budget = _parse_residency(desc.get("residency", "hot"))
    model = build_model(model_cfg)
    engine = Engine(model, engine_cfg, residency=residency, budget=budget)
    engine.encode(tokens)
    generated = engine.generate(steps)

    engine.trace.meta["m"] = engine.layout.m
    _write_json(out / "tokens.json", list(generated.tokens))
    engine.trace.to_json(out / "trace.json")
    export_heatmap(engine.trace, out / "heatmap.csv")
    _write_json(out / "counters.json", engine.counters_dict())
    counts = engine.trace.selection_counts(engine.layout.m)
    metrics = MetricsReport(
        cover_rate=cover_rate(engine.trace, engine.layout.m),
        gini=gini(counts) if counts.sum() else 0.0,
        selection_counts=counts.tolist(),
    )
    _write_json(out / "metrics.json", metrics.to_dict())
    print(f"run: {len(generated.tokens)} tokens generated, {len(engine.trace)} trace records")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkattn",
        description="Chunk-selection attention engine: checks, trials, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--model-config", help="ModelConfig JSON path")
        p.add_argument("--engine-config", help="EngineConfig JSON path")

    p = sub.add_parser("equivalence", help="saturated-selection oracle comparison")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("passkey", help="synthetic retrieval trials")
    common(p)
    p.add_argument("--m", type=int, required=True, help="total chunks")
    p.add_argument("--target", type=int, default=None, help="fixed target chunk (default: random)")
    p.add_argument("--gap", type=float, default=10.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--policy", choices=SELECTION_POLICIES, default=None)
    p.set_defaults(func=cmd_passkey)

    p = sub.add_parser("ablate", help="selection-policy comparison on one instance family")
    common(p)
    p.add_argument("--policies", default="top-k,random,last-k")
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--gap", type=float, default=10.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--k-sweep", default=None, help="comma list of k values for load counters")
    p.add_argument("--l-sweep", default=None, help="comma list of chunk sizes for load counters")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("scaling", help="per-step load counters across prompt lengths")
    common(p)
    p.add_argument("--n-list", default="1024,4096,16384")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--residency", default="offload", help="hot, offload, or budget:N")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("run", help="execute a run descriptor JSON")
    p.add_argument(
        "--descriptor",
        required=True,
        help="run descriptor JSON; a relative `input` path in it is resolved against "
        "the working directory, not the descriptor's directory",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
