"""Chunk-selection attention: training-free long-context inference on a
deterministic host transformer.

Each attention head picks at most k chunks of the context by dot-product
similarity between its query state and per-chunk summary vectors, remaps
the picked chunks onto contiguous in-distribution positions, and attends
the result plus the recent region. Sealed chunk KV slabs carry a
residency flag, and every read of an offloaded slab is counted in token
rows.
"""

from .analysis import (
    MetricsReport,
    PasskeyInstance,
    build_passkey,
    cover_rate,
    export_heatmap,
    gini,
    hit_rate,
    retrieval_rate,
    run_passkey_trials,
)
from .cache import ChunkStore
from .chunking import ChunkLayout, advance
from .config import EngineConfig, ModelConfig, SELECTION_POLICIES, validate_pairing
from .engine import Engine, OracleDecoder, select
from .model import (
    HostModel,
    RotaryTable,
    TokenSequence,
    build_model,
    full_attention_forward,
)
from .remapping import remap
from .representation import chunk_query, chunk_representation
from .trace import SelectionTrace

__all__ = [
    "ChunkLayout",
    "ChunkStore",
    "Engine",
    "EngineConfig",
    "HostModel",
    "MetricsReport",
    "ModelConfig",
    "OracleDecoder",
    "PasskeyInstance",
    "RotaryTable",
    "SELECTION_POLICIES",
    "SelectionTrace",
    "TokenSequence",
    "advance",
    "build_model",
    "build_passkey",
    "chunk_query",
    "chunk_representation",
    "cover_rate",
    "export_heatmap",
    "full_attention_forward",
    "gini",
    "hit_rate",
    "remap",
    "retrieval_rate",
    "run_passkey_trials",
    "select",
    "validate_pairing",
]
