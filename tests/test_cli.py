import hashlib
import json
from pathlib import Path

import pytest

from chunkattn import ModelConfig
from chunkattn.cli import main


def read_json(path):
    return json.loads(Path(path).read_text())


def write_model_config(tmp_path, **overrides):
    base = dict(n_layers=1, n_heads=2, d_head=8, vocab_size=32, pretrain_length=512, seed=3)
    base.update(overrides)
    cfg = ModelConfig.create(**base)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def write_engine_config(tmp_path, chunk_size=32, num_selected=8, policy="top-k", seed=0):
    path = tmp_path / "engine.json"
    path.write_text(
        json.dumps(
            {"chunk_size": chunk_size, "num_selected": num_selected, "policy": policy, "seed": seed}
        )
    )
    return path


def test_equivalence_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "equivalence",
            "--model-config", str(write_model_config(tmp_path)),
            "--engine-config", str(write_engine_config(tmp_path)),
            "--n", "256",
            "--steps", "8",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "metrics.json")
    assert report["pass"] is True
    assert report["max_abs_logit_diff"] <= 1e-5
    for name in ("metrics.json", "trace.json", "heatmap.csv", "counters.json"):
        assert (out / name).exists()


def test_equivalence_default_config_full_size(tmp_path):
    # the reference configuration: 2 layers, 4 heads, n=512, l=64, k=8
    out = tmp_path / "out"
    code = main(["equivalence", "--n", "512", "--steps", "32", "--out", str(out)])
    assert code == 0
    assert read_json(out / "metrics.json")["pass"] is True


def test_equivalence_refuses_non_saturated(tmp_path, capsys):
    code = main(
        [
            "equivalence",
            "--model-config", str(write_model_config(tmp_path)),
            "--engine-config", str(write_engine_config(tmp_path, num_selected=4)),
            "--n", "256",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "saturate" in capsys.readouterr().err


def test_equivalence_rejects_negative_steps(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["equivalence", "--n", "64", "--steps", "-3", "--out", str(out)])
    assert code == 2
    assert "steps=-3 must be >= 0" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_corrupt_config_reports_line(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text('{\n  "n_layers": 1,\n  oops\n}\n')
    code = main(["equivalence", "--model-config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model.json:3" in err


def test_unknown_config_field_rejected(tmp_path, capsys):
    path = tmp_path / "model.json"
    data = dict(n_layers=1, n_heads=2, d_head=8, d_model=16, vocab_size=32,
                pretrain_length=512, seed=3, surprise=1)
    path.write_text(json.dumps(data))
    code = main(["equivalence", "--model-config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown fields" in capsys.readouterr().err


def test_passkey_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["passkey", "--m", "32", "--gap", "10", "--trials", "10", "--k", "6",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["hit_rate_top1"] == 1.0
    assert (out / "heatmap.csv").exists()


def test_passkey_warns_on_mandatory_target(tmp_path, capsys):
    code = main(
        ["passkey", "--m", "8", "--target", "0", "--gap", "10", "--trials", "2",
         "--k", "4", "--seed", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert "mandatory" in capsys.readouterr().err


def test_ablate_ordering_and_notes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["ablate", "--policies", "top-k,random,last-k,no-first", "--m", "32",
         "--k", "6", "--trials", "40", "--gap", "10", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rows = {r["policy"]: r for r in read_json(out / "metrics.json")["rows"]}
    assert rows["top-k"]["retrieval_rate"] > rows["random"]["retrieval_rate"]
    assert rows["random"]["retrieval_rate"] > rows["last-k"]["retrieval_rate"]
    assert "degenerate" in rows["no-first"]["note"]


def test_ablate_rejects_unknown_policy(tmp_path, capsys):
    code = main(["ablate", "--policies", "top-k,sideways", "--out", str(tmp_path / "out")])
    assert code == 2


def test_ablate_k_sweep_scales_load(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["ablate", "--policies", "top-k", "--m", "16", "--k", "4", "--trials", "5",
         "--seed", "0", "--k-sweep", "4,8", "--out", str(out)]
    )
    assert code == 0
    sweep = read_json(out / "metrics.json")["sweeps"]["k"]
    for row in sweep:
        k = row["k"]
        # per-step reload is exactly k*l per (layer, head): 1 layer x 2 heads
        assert row["rows_loaded_per_step"] == [k * 32 * 2] * 4


def test_ablate_l_sweep_holds_window_fixed(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["ablate", "--policies", "top-k", "--m", "16", "--k", "8", "--trials", "5",
         "--seed", "0", "--l-sweep", "16,32,64", "--out", str(out)]
    )
    assert code == 0
    sweep = read_json(out / "metrics.json")["sweeps"]["chunk_size"]
    windows = {row["window"] for row in sweep}
    assert windows == {8 * 16}
    loads = {tuple(row["rows_loaded_per_step"]) for row in sweep}
    assert len(loads) == 1


def test_scaling_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["scaling", "--n-list", "256,512,1024", "--steps", "4", "--k", "4",
         "--chunk-size", "32", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "counters.json")
    assert report["engine_rows_constant_in_n"] is True
    oracle = report["oracle_attended_rows_per_step"]
    assert oracle["256"][0] == 257
    assert oracle["1024"][0] == 1025


def descriptor_setup(tmp_path, seed=3):
    model = dict(n_layers=1, n_heads=2, d_head=8, d_model=16, vocab_size=32,
                 pretrain_length=512, seed=seed)
    engine = dict(chunk_size=32, num_selected=4, policy="top-k", seed=1)
    tokens_path = tmp_path / "tokens.json"
    tokens_path.write_text(json.dumps([int(i) % 32 for i in range(200)]))
    desc = {
        "model": model,
        "engine": engine,
        "input": str(tokens_path),
        "steps": 8,
        "residency": "offload",
    }
    desc_path = tmp_path / "run.json"
    desc_path.write_text(json.dumps(desc))
    return desc_path


def test_run_descriptor_outputs(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--descriptor", str(descriptor_setup(tmp_path)), "--out", str(out)])
    assert code == 0
    for name in ("tokens.json", "trace.json", "counters.json", "metrics.json", "heatmap.csv"):
        assert (out / name).exists()
    tokens = read_json(out / "tokens.json")
    assert len(tokens) == 8


def test_run_descriptor_deterministic(tmp_path):
    desc = descriptor_setup(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--descriptor", str(desc), "--out", str(out_a)]) == 0
    assert main(["run", "--descriptor", str(desc), "--out", str(out_b)]) == 0
    for name in ("metrics.json", "trace.json", "heatmap.csv", "counters.json", "tokens.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_descriptor_input_resolves_against_working_directory(tmp_path, monkeypatch, capsys):
    desc = descriptor_setup(tmp_path)
    descs, work = tmp_path / "descs", tmp_path / "work"
    descs.mkdir()
    work.mkdir()
    data = json.loads(desc.read_text())
    (work / "tokens.json").write_bytes((tmp_path / "tokens.json").read_bytes())
    # a file of the same name beside the descriptor, which must not be read
    (descs / "tokens.json").write_text(json.dumps({"not": "tokens"}))
    data["input"] = "tokens.json"
    (descs / "run.json").write_text(json.dumps(data))
    monkeypatch.chdir(work)
    assert main(["run", "--descriptor", str(descs / "run.json"), "--out", str(tmp_path / "a")]) == 0
    absolute = tmp_path / "b"
    assert main(["run", "--descriptor", str(desc), "--out", str(absolute)]) == 0
    assert read_json(tmp_path / "a" / "tokens.json") == read_json(absolute / "tokens.json")
    # from a directory without the token file, the relative input is missing
    (tmp_path / "empty").mkdir()
    monkeypatch.chdir(tmp_path / "empty")
    assert main(["run", "--descriptor", str(descs / "run.json"), "--out", str(tmp_path / "c")]) == 2
    assert "tokens.json" in capsys.readouterr().err


def test_run_descriptor_missing_fields(tmp_path, capsys):
    desc = tmp_path / "run.json"
    desc.write_text(json.dumps({"model": {}}))
    code = main(["run", "--descriptor", str(desc), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["equivalence", "--chunk-size", "0"],
    ["passkey", "--m", "16", "--k", "0"],
    ["passkey", "--m", "16", "--trials", "0"],
    ["scaling", "--n-list", "256", "--k", "0"],
])
def test_explicit_zero_is_rejected_not_replaced_by_the_default(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_descriptor_must_be_an_object(tmp_path, capsys):
    desc = tmp_path / "run.json"
    desc.write_text("5")
    assert main(["run", "--descriptor", str(desc), "--out", str(tmp_path / "out")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_run_descriptor_input_must_be_a_path(tmp_path, capsys):
    desc = descriptor_setup(tmp_path)
    data = json.loads(desc.read_text())
    data["input"] = 0  # would be read as file descriptor 0, stdin
    desc.write_text(json.dumps(data))
    assert main(["run", "--descriptor", str(desc), "--out", str(tmp_path / "out")]) == 2
    assert "token file path" in capsys.readouterr().err


def test_passkey_rejects_a_non_finite_gap(tmp_path, capsys):
    code = main(["passkey", "--m", "16", "--gap", "nan", "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gap=nan must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [None, "5", 5.7, -1, True])
def test_run_descriptor_steps_must_be_a_non_negative_integer(tmp_path, capsys, steps):
    desc = descriptor_setup(tmp_path)
    data = json.loads(desc.read_text())
    data["steps"] = steps
    desc.write_text(json.dumps(data))
    assert main(["run", "--descriptor", str(desc), "--out", str(tmp_path / "out")]) == 2
    assert "steps must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("option,field", [("--chunk-size", "chunk_size"), ("--heads", "n_heads")])
def test_passkey_rejects_an_empty_instance_shape(tmp_path, capsys, option, field):
    code = main(["passkey", "--m", "16", option, "0", "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{field}=0 must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--policies", "--k-sweep", "--l-sweep"])
def test_ablate_rejects_an_empty_list(tmp_path, capsys, option):
    code = main(["ablate", option, "", "--trials", "2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{option} names no" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.json").exists()


def artifact_digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


# sha256 of each artifact at one small shape per command. The passkey
# trace holds every candidate score, so a change in how scores are stored
# or ranked shows here byte for byte.
PINNED = {
    "passkey": {
        "metrics.json": "d632d6ef1c0cce32ae11b9c85408fe69b36bfd1320c66a29caa4f67bb1f65197",
        "trace.json": "a9dc64cf64ad1d73da4185ba47cc50b88d5caf88698b36d1166cfae088bb2dcf",
        "heatmap.csv": "51ec423fcda862761f0f0b1cbd002f3ec87664a9bbb16d876be8271ce4ac5efd",
    },
    "ablate": {
        "metrics.json": "ed93e2fbe595f0c7628fac57f97ca7bc8381355f05037401de0b3e41daa5de4b",
    },
    "run": {
        "tokens.json": "dd90e37c40537baedf5af5f50917583946c6c69a4e1aaed95fd3cb5bcda03928",
        "trace.json": "e9855d91da2bcbb95a3af3a7cdad278b3a312bf360a8943b235896ec28a666d5",
        "heatmap.csv": "910a47c657f7d9415a311b14a0f929efd668d74e589e5c9905fdf65c8739cda4",
        "counters.json": "c7b08ecac3c2e730b26a505c65b7acda9275aeae434cd42f921902e05297aeba",
        "metrics.json": "c4a1bbc7871aa846d6511ffeabfae44197e59453dcb27e7871cf73daf7038dfe",
    },
    "equivalence": {
        "metrics.json": "7dae61d990e711c04e5298ddc4db7ccd38bd1d5a09eb52c304f54a919fb6c6ed",
        "trace.json": "bea69d83b197ff60cf6126ecb665880e60f7debdded814127d404fa19fd7451f",
        "counters.json": "78c1995f8eb9ac88b5bba911feb3e054f8263ef7694407bcd31f0b2d62532a77",
        "heatmap.csv": "62d08cfa508b6a910ca15a07f83470255c9a77a9b791623b84c354c6b3c7d2df",
    },
    "scaling": {
        "counters.json": "80727fe93ee6a24aade3c3f68bacfe13d43d495e92a9c7209142c29c9b11e237",
        "metrics.json": "27d2e9d1a9c1dc8d38c8a34ba72b6aac6e6d3c205890e1dc09e31e791f270559",
    },
}
SHAPE = ["--m", "12", "--k", "4", "--trials", "20", "--heads", "2", "--chunk-size", "8",
         "--gap", "0.4", "--seed", "3"]


def test_passkey_and_ablate_artifacts_match_pinned_digests(tmp_path):
    assert main(["passkey", *SHAPE, "--out", str(tmp_path / "passkey")]) == 0
    policies = "top-k,random,last-k,no-first,fix-head"
    assert main(["ablate", "--policies", policies, *SHAPE, "--out", str(tmp_path / "ablate")]) == 0
    for command in ("passkey", "ablate"):
        assert artifact_digests(tmp_path / command, PINNED[command]) == PINNED[command]


def test_run_artifacts_match_pinned_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--descriptor", str(descriptor_setup(tmp_path)), "--out", str(out)]) == 0
    assert artifact_digests(out, PINNED["run"]) == PINNED["run"]


def test_equivalence_and_scaling_artifacts_match_pinned_digests(tmp_path):
    # the scaling counters hold the oracle's attended rows, n + 1 + j
    equivalence = ["--n", "96", "--steps", "6", "--k", "4", "--chunk-size", "32", "--seed", "5"]
    scaling = ["--n-list", "128,256", "--steps", "3", "--k", "4", "--chunk-size", "16",
               "--seed", "2"]
    assert main(["equivalence", *equivalence, "--out", str(tmp_path / "equivalence")]) == 0
    assert main(["scaling", *scaling, "--out", str(tmp_path / "scaling")]) == 0
    for command in ("equivalence", "scaling"):
        assert artifact_digests(tmp_path / command, PINNED[command]) == PINNED[command]
