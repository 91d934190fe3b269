"""Configuration types for the host model and the chunked-attention engine."""

from __future__ import annotations

from dataclasses import asdict, dataclass

SELECTION_POLICIES = (
    "top-k",
    "random",
    "last-k",
    "no-first",
    "fix-head",
    "fix-layer",
    "fix-head-and-layer",
)

# Policies whose base ranking is top-k but whose selections are shared across
# heads and/or layers after the fact.
CONSTRAINT_POLICIES = ("fix-head", "fix-layer", "fix-head-and-layer")

MAX_SEED = 2**64


def _require_exact_fields(data: dict, required: tuple, optional: tuple, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")


def _check_count(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _check_seed(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not (0 <= value < MAX_SEED):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and seed of the deterministic host transformer.

    ``pretrain_length`` is the number of positions the rotary table covers;
    attending at any position at or beyond it is an error by construction.
    """

    n_layers: int
    n_heads: int
    d_head: int
    d_model: int
    vocab_size: int
    pretrain_length: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_head", "d_model", "vocab_size", "pretrain_length"):
            _check_count(name, getattr(self, name))
        _check_seed("seed", self.seed)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} is not divisible by n_heads={self.n_heads}"
            )
        if self.d_model != self.n_heads * self.d_head:
            raise ValueError(
                f"d_model={self.d_model} must equal n_heads*d_head={self.n_heads * self.d_head}"
            )
        if self.d_head % 2 != 0:
            raise ValueError(f"d_head={self.d_head} must be even for rotary encoding")

    @classmethod
    def create(
        cls,
        n_layers: int,
        n_heads: int,
        d_head: int,
        vocab_size: int,
        pretrain_length: int,
        seed: int = 0,
    ) -> "ModelConfig":
        """Build a config with d_model derived from n_heads * d_head."""
        return cls(
            n_layers=n_layers,
            n_heads=n_heads,
            d_head=d_head,
            d_model=n_heads * d_head,
            vocab_size=vocab_size,
            pretrain_length=pretrain_length,
            seed=seed,
        )

    _FIELDS = ("n_layers", "n_heads", "d_head", "d_model", "vocab_size", "pretrain_length", "seed")

    @classmethod
    def from_dict(cls, data: dict, where: str = "model config") -> "ModelConfig":
        _require_exact_fields(data, cls._FIELDS, (), where)
        return cls(**{name: data[name] for name in cls._FIELDS})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EngineConfig:
    """Chunking and selection parameters for one engine instance."""

    chunk_size: int
    num_selected: int
    policy: str = "top-k"
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("chunk_size", self.chunk_size)
        _check_count("num_selected", self.num_selected)
        if self.num_selected < 2:
            raise ValueError(
                f"num_selected={self.num_selected} must be >= 2 "
                "(first and last chunks are always kept)"
            )
        if self.policy not in SELECTION_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {SELECTION_POLICIES}")
        _check_seed("seed", self.seed)

    @property
    def attention_window(self) -> int:
        return self.num_selected * self.chunk_size

    _REQUIRED = ("chunk_size", "num_selected")
    _OPTIONAL = ("policy", "seed", "attention_window")

    @classmethod
    def from_dict(cls, data: dict, where: str = "engine config") -> "EngineConfig":
        _require_exact_fields(data, cls._REQUIRED, cls._OPTIONAL, where)
        cfg = cls(
            chunk_size=data["chunk_size"],
            num_selected=data["num_selected"],
            policy=data.get("policy", "top-k"),
            seed=data.get("seed", 0),
        )
        if "attention_window" in data and data["attention_window"] != cfg.attention_window:
            raise ValueError(
                f"{where}: attention_window={data['attention_window']} contradicts "
                f"num_selected*chunk_size={cfg.attention_window}"
            )
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def validate_pairing(model: ModelConfig, engine: EngineConfig) -> None:
    """Check the cross-config invariants that make remapping safe."""
    window = engine.attention_window
    if window >= model.pretrain_length:
        raise ValueError(
            f"num_selected*chunk_size={window} must stay below "
            f"pretrain_length={model.pretrain_length}"
        )
    if model.pretrain_length < 2 * engine.chunk_size:
        raise ValueError(
            f"pretrain_length={model.pretrain_length} must be at least "
            f"2*chunk_size={2 * engine.chunk_size}"
        )
    # One in-progress chunk rides along with the selected window.
    if window + engine.chunk_size > model.pretrain_length:
        raise ValueError(
            f"(num_selected+1)*chunk_size={window + engine.chunk_size} exceeds "
            f"pretrain_length={model.pretrain_length}; no room for the recent region"
        )
