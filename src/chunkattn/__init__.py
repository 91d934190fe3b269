"""Chunk-selection attention: training-free long-context inference on a
deterministic host transformer.

Each attention head picks at most k chunks of the context by dot-product
similarity between its query state and per-chunk summary vectors, remaps
the picked chunks onto contiguous in-distribution positions, and attends
the result plus the recent region. Sealed chunk KV slabs can be offloaded
to a byte tier with exact load accounting.
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
from .chunking import ChunkLayout, advance, layout
from .config import EngineConfig, ModelConfig, SELECTION_POLICIES, validate_pairing
from .engine import Engine, OracleDecoder
from .model import (
    HeadStates,
    HostModel,
    RotaryTable,
    TokenSequence,
    build_model,
    full_attention_forward,
    project_qkv,
)
from .remapping import PositionMap, remap
from .representation import (
    chunk_query,
    chunk_representation,
    mean_pool_baseline,
)
from .selection import SelectionSet, apply_head_constraints, select
from .trace import SelectionTrace

__all__ = [
    "ChunkLayout",
    "ChunkStore",
    "Engine",
    "EngineConfig",
    "HeadStates",
    "HostModel",
    "MetricsReport",
    "ModelConfig",
    "OracleDecoder",
    "PasskeyInstance",
    "PositionMap",
    "RotaryTable",
    "SELECTION_POLICIES",
    "SelectionSet",
    "SelectionTrace",
    "TokenSequence",
    "advance",
    "apply_head_constraints",
    "build_model",
    "build_passkey",
    "chunk_query",
    "chunk_representation",
    "cover_rate",
    "export_heatmap",
    "full_attention_forward",
    "gini",
    "hit_rate",
    "layout",
    "mean_pool_baseline",
    "project_qkv",
    "remap",
    "retrieval_rate",
    "run_passkey_trials",
    "select",
    "validate_pairing",
]
