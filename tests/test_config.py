import json

import pytest

from chunkattn import EngineConfig, ModelConfig, validate_pairing


def test_create_derives_d_model():
    cfg = ModelConfig.create(n_layers=1, n_heads=4, d_head=8, vocab_size=16, pretrain_length=128)
    assert cfg.d_model == 32


def test_minimal_config_valid():
    cfg = ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=2, pretrain_length=64, seed=0)
    assert cfg.d_model == 4


def test_d_model_indivisible_rejected():
    with pytest.raises(ValueError, match="not divisible"):
        ModelConfig(
            n_layers=1, n_heads=4, d_head=8, d_model=30,
            vocab_size=16, pretrain_length=128, seed=0,
        )


def test_d_model_head_product_enforced():
    with pytest.raises(ValueError, match="must equal"):
        ModelConfig(
            n_layers=1, n_heads=4, d_head=8, d_model=40,
            vocab_size=16, pretrain_length=128, seed=0,
        )


def test_odd_d_head_rejected():
    with pytest.raises(ValueError, match="even"):
        ModelConfig.create(n_layers=1, n_heads=2, d_head=3, vocab_size=16, pretrain_length=128)


@pytest.mark.parametrize("field,value", [
    ("n_layers", 0), ("n_heads", -1), ("vocab_size", 0), ("pretrain_length", 0),
])
def test_nonpositive_counts_rejected(field, value):
    base = dict(n_layers=1, n_heads=2, d_head=4, d_model=8, vocab_size=16,
                pretrain_length=128, seed=0)
    base[field] = value
    with pytest.raises(ValueError):
        ModelConfig(**base)


def test_seed_range():
    with pytest.raises(ValueError):
        ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=4,
                           pretrain_length=64, seed=-1)
    with pytest.raises(ValueError):
        ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=4,
                           pretrain_length=64, seed=2**64)


def test_model_config_json_roundtrip():
    cfg = ModelConfig.create(n_layers=2, n_heads=2, d_head=4, vocab_size=8, pretrain_length=64, seed=3)
    text = json.dumps(cfg.to_dict())
    assert ModelConfig.from_dict(json.loads(text)) == cfg


def test_model_config_unknown_field_rejected():
    cfg = ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=4, pretrain_length=64)
    data = cfg.to_dict()
    data["extra"] = 1
    text = json.dumps(data)
    with pytest.raises(ValueError, match="unknown fields"):
        ModelConfig.from_dict(json.loads(text))


def test_model_config_missing_field_rejected():
    with pytest.raises(ValueError, match="missing fields"):
        ModelConfig.from_dict({"n_layers": 1})


def test_engine_config_validation():
    with pytest.raises(ValueError, match=">= 2"):
        EngineConfig(chunk_size=8, num_selected=1)
    with pytest.raises(ValueError, match="unknown policy"):
        EngineConfig(chunk_size=8, num_selected=2, policy="bogus")
    cfg = EngineConfig(chunk_size=8, num_selected=4)
    assert cfg.attention_window == 32


def test_engine_config_from_dict_checks_window():
    data = {"chunk_size": 8, "num_selected": 4, "attention_window": 99}
    with pytest.raises(ValueError, match="contradicts"):
        EngineConfig.from_dict(data)
    data["attention_window"] = 32
    assert EngineConfig.from_dict(data).attention_window == 32


def test_pairing_requires_window_below_pretrain_length():
    model = ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=4, pretrain_length=64)
    with pytest.raises(ValueError):
        validate_pairing(model, EngineConfig(chunk_size=16, num_selected=4))
    validate_pairing(model, EngineConfig(chunk_size=8, num_selected=4))


def test_pairing_requires_two_chunks_of_headroom():
    model = ModelConfig.create(n_layers=1, n_heads=1, d_head=4, vocab_size=4, pretrain_length=64)
    with pytest.raises(ValueError):
        validate_pairing(model, EngineConfig(chunk_size=40, num_selected=2))
