import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkattn import (
    SelectionTrace,
    build_passkey,
    cover_rate,
    export_heatmap,
    gini,
    hit_rate,
    retrieval_rate,
    run_passkey_trials,
)
from chunkattn.analysis import instance_representations, run_passkey_trial
from chunkattn.selection import rank_top


def make_trace(records, meta=None):
    trace = SelectionTrace(meta=meta)
    for rec in records:
        trace.append(*rec)
    return trace


# -- gini -------------------------------------------------------------------

def test_gini_uniform_is_zero():
    assert gini([5, 5, 5, 5]) == 0.0


def test_gini_hand_value():
    # sum of pairwise |xi-xj| = 20; 2 * m * total = 2 * 4 * 10 = 80
    assert gini([1, 2, 3, 4]) == 0.25


def test_gini_delta_distribution():
    counts = [0] * 99 + [7]
    assert gini(counts) == pytest.approx(0.99, abs=1e-12)


def test_gini_errors():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([0, 0, 0])
    with pytest.raises(ValueError):
        gini([1, -1, 2])


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 50), min_size=1, max_size=30).filter(lambda c: sum(c) > 0),
    scale=st.integers(1, 9),
)
def test_gini_bounds_and_scale_invariance(counts, scale):
    g = gini(counts)
    m = len(counts)
    assert 0.0 <= g <= 1.0 - 1.0 / m + 1e-12
    assert gini([scale * c for c in counts]) == pytest.approx(g, abs=1e-12)


# -- cover rate ---------------------------------------------------------------

def test_cover_rate_full_and_partial():
    full = make_trace([(s, 0, 0, (s,)) for s in range(10)])
    assert cover_rate(full, 10) == 1.0
    sparse = make_trace([(0, 0, 0, (0, 9)), (1, 0, 0, (0, 9))])
    assert cover_rate(sparse, 10) == 0.2


def test_cover_rate_errors():
    with pytest.raises(ValueError):
        cover_rate(make_trace([]), 4)
    with pytest.raises(ValueError):
        cover_rate(make_trace([(0, 0, 0, (0,))]), 0)


def test_cover_rate_matches_brute_force_recount():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(3, 20))
        records = []
        for step in range(int(rng.integers(1, 10))):
            chunks = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)), replace=False)))
            records.append((step, 0, 0, chunks))
        trace = make_trace(records)
        expected = len(set().union(*(set(r[3]) for r in records))) / m
        assert cover_rate(trace, m) == expected


def test_cover_rate_monotone_as_records_accumulate():
    rng = np.random.default_rng(1)
    trace = SelectionTrace()
    prev = 0.0
    for step in range(20):
        trace.append(step, 0, 0, tuple(sorted(rng.choice(16, size=2, replace=False))))
        now = cover_rate(trace, 16)
        assert now >= prev
        prev = now


# -- hit rate -----------------------------------------------------------------

def scored_trace(scores, chosen):
    """One row per step, in one scored block: column i of `scores` scores
    candidate chunk i + 1, and every row selected `chosen`."""
    scores = np.asarray(scores, dtype=np.float64)
    trace = SelectionTrace()
    trace.append_block(np.arange(len(scores)), 0, 0, np.tile(chosen, (len(scores), 1)), scores)
    return trace


def test_hit_rate_target_always_first():
    trace = scored_trace([(9.0, 1.0, 0.0)] * 5, (0, 1, 4))
    assert hit_rate(trace, target=1, top=1) == 1.0


def test_hit_rate_target_never_in_top5():
    scores = tuple(float(10 - i) for i in range(1, 9))  # descending by id
    trace = scored_trace([scores] * 3, (0, 1, 9))
    assert hit_rate(trace, target=8, top=5) == 0.0
    assert hit_rate(trace, target=8, top=1) == 0.0


def test_hit_rate_top5_at_least_top1():
    rng = np.random.default_rng(2)
    trace = scored_trace(rng.normal(size=(50, 10)), (0, 11))
    assert hit_rate(trace, 4, 5) >= hit_rate(trace, 4, 1)


def test_hit_rate_requires_scores():
    trace = make_trace([(0, 0, 0, (0, 1))])
    with pytest.raises(ValueError, match="scores"):
        hit_rate(trace, 1, 1)


def test_retrieval_rate_counts_membership():
    trace = make_trace([(0, 0, 0, (0, 3, 9)), (1, 0, 0, (0, 9))])
    assert retrieval_rate(trace, 3) == 0.5


# -- heatmap ------------------------------------------------------------------

def test_heatmap_grid_shape(tmp_path):
    records = []
    for layer in range(2):
        for head in range(4):
            records.append((0, layer, head, (0, layer + head)))
    trace = make_trace(records, meta={"m": 16})
    path = tmp_path / "heatmap.csv"
    export_heatmap(trace, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["layer", "head"] + [f"c{i}" for i in range(16)]
    assert len(rows) == 1 + 8
    meta = json.loads((tmp_path / "heatmap.csv.meta.json").read_text())
    assert meta["m"] == 16


def test_heatmap_saturated_cells_equal(tmp_path):
    trace = make_trace(
        [(s, 0, h, tuple(range(4))) for s in range(5) for h in range(2)], meta={"m": 4}
    )
    path = tmp_path / "h.csv"
    export_heatmap(trace, path)
    with open(path) as f:
        rows = list(csv.reader(f))[1:]
    for row in rows:
        assert set(row[2:]) == {"5"}


def test_heatmap_shared_selection_gives_identical_rows(tmp_path):
    chunks = (0, 2, 7)
    trace = make_trace(
        [(s, layer, h, chunks) for s in range(3) for layer in range(2) for h in range(2)],
        meta={"m": 8},
    )
    path = tmp_path / "h.csv"
    export_heatmap(trace, path)
    with open(path) as f:
        rows = [r[2:] for r in list(csv.reader(f))[1:]]
    assert all(r == rows[0] for r in rows)


def test_heatmap_requires_m(tmp_path):
    trace = make_trace([(0, 0, 0, (0,))])
    with pytest.raises(ValueError, match="'m'"):
        export_heatmap(trace, tmp_path / "h.csv")


# -- synthetic retrieval -------------------------------------------------------

def test_build_passkey_validations():
    with pytest.raises(ValueError):
        build_passkey(2, 1, 10.0, 0)
    with pytest.raises(ValueError):
        build_passkey(8, 8, 10.0, 0)
    for gap in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            build_passkey(8, 3, gap, 0)
    for field in ("chunk_size", "d_head", "n_heads"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{field}={value} must be >= 1"):
                build_passkey(8, 3, 10.0, 0, **{field: value})
    assert build_passkey(8, 0, 10.0, 0).flagged
    assert build_passkey(8, 7, 10.0, 0).flagged
    assert not build_passkey(8, 3, 10.0, 0).flagged


def test_large_gap_dominates_scores_for_all_heads():
    inst = build_passkey(64, 17, 10.0, noise_seed=3)
    reps = instance_representations(inst)
    for head in range(inst.n_heads):
        scores = reps[head] @ inst.probes[head]
        assert int(np.argmax(scores)) == 17


def test_gap_dominance_single_trial_selects_target():
    inst = build_passkey(64, 17, 10.0, noise_seed=3)
    trace = SelectionTrace()
    ids, scores = run_passkey_trial(inst, k=8, trace=trace)
    assert ids.shape == (inst.n_heads, 8)
    for head in range(inst.n_heads):
        assert 17 in ids[head]
        best = 1 + rank_top(scores[head], 1)  # score i is candidate chunk i + 1
        assert best[0] == 17
    for rec in trace:
        best = np.asarray(rec.candidates)[rank_top(np.asarray(rec.scores), 1)]
        assert best[0] == 17


def test_end_to_end_target_always_selected():
    report, trace = run_passkey_trials(128, 8, 10.0, trials=20, seed=4)
    assert report.retrieval_rate == 1.0
    assert report.hit_rate_top1 == 1.0
    assert report.hit_rate_top5 == 1.0


def test_chance_level_at_zero_gap():
    trials = 1000
    report, _ = run_passkey_trials(16, 6, 0.0, trials=trials, seed=5, chunk_size=8, n_heads=2)
    chance = 1.0 / 14
    records = trials * 2
    sigma = np.sqrt(chance * (1 - chance) / records)
    assert abs(report.hit_rate_top1 - chance) < 3 * sigma


def test_hit_rates_nest():
    report, _ = run_passkey_trials(32, 6, 1.0, trials=50, seed=6)
    assert report.hit_rate_top5 >= report.hit_rate_top1


def test_target_range_respected():
    report, trace = run_passkey_trials(
        32, 6, 10.0, trials=30, seed=7, target_range=(1, 28)
    )
    # last-k window (chunks 27..30) untouched by construction when excluded
    report_lk, trace_lk = run_passkey_trials(
        32, 6, 10.0, trials=30, seed=7, policy="last-k", target_range=(1, 27)
    )
    assert report_lk.retrieval_rate == 0.0
    assert report.retrieval_rate == 1.0


def test_policy_ordering_on_engineered_instances():
    kwargs = dict(trials=60, seed=8, target_range=(1, 27), chunk_size=8)
    top, _ = run_passkey_trials(32, 6, 10.0, policy="top-k", **kwargs)
    rnd, _ = run_passkey_trials(32, 6, 10.0, policy="random", **kwargs)
    last, _ = run_passkey_trials(32, 6, 10.0, policy="last-k", **kwargs)
    assert top.retrieval_rate > rnd.retrieval_rate > last.retrieval_rate


def test_mandatory_target_is_flagged_in_report():
    report, _ = run_passkey_trials(8, 4, 10.0, trials=3, seed=9, target=0)
    assert report.notes


def test_fix_head_harness_shares_selections():
    _, trace = run_passkey_trials(32, 6, 0.0, trials=5, seed=10, policy="fix-head")
    by_step = {}
    for rec in trace:
        by_step.setdefault(rec.step, set()).add(rec.chunks)
    assert all(len(sets) == 1 for sets in by_step.values())
