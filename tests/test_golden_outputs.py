"""Pinned integer outputs of encode plus greedy decode, for every policy
and residency.

A refactor of the decode or encode path must leave these byte-identical:
the generated tokens, the selected chunk ids with their widths, the row and
load counters and the peak hot-token count. Only integers are hashed, so
the digests do not depend on how floating-point results print.
"""

import hashlib
import json

import numpy as np
import pytest

from chunkattn import Engine, EngineConfig

from conftest import random_tokens

N, L_CHUNK, K, STEPS = 333, 16, 4, 12

GOLDEN = {
    ("top-k", "hot"): "a30199389a0d2f1504c199eeddb5734d3af2d7c8ac11939cbdf8cbccf873718a",
    ("top-k", "offload"): "494a16e3ae1e70e003659b609ef3994814ad0714cffc3d22de1a8627b6164ee9",
    ("top-k", "budget"): "3cb4d475d7c8476752206f056949ae07cb8ec161e144b246f225625e55d449e7",
    ("random", "hot"): "a271f61d59b8e9c6d20afbaae147bb5b68db639972cc0fd740ff1e45711e44cb",
    ("random", "offload"): "aead8e018c6211dd9b4418fb035d441cd704ccbae00820d361f541ad8a51dc3f",
    ("random", "budget"): "8d82b1170e0aeb68a1ecb8858193978151fcc6b1c550f1d8227bb52b80772350",
    ("last-k", "hot"): "d88d8ada067eff037e25d4825e260b114770ffd9911f63464a5fd4a93760e6ea",
    ("last-k", "offload"): "15f06a380425b7a16adc132cd996bee0f784a87f50bec6414fbbb09de84e042c",
    ("last-k", "budget"): "4caa78fd2b7422518220615785c4bd957f8fbabf9b5a0556b95644998ee1cd96",
    ("no-first", "hot"): "4ebcd5c098698a38ca294075a6248c1c9b40262bf619552bf92582c8c6af0b5f",
    ("no-first", "offload"): "74a94d7e6abd62d175382a28d307e645f48a8969b414cdee17f3006891e60966",
    ("no-first", "budget"): "3366df3e93a904e33faec8e627b525eebde3d99f75dba86a1c5a2667444bb342",
    ("fix-head", "hot"): "4b449fedc243f0a089660704c5ca53dd0a1e33b484b0a6ec0de829560fbbf9c5",
    ("fix-head", "offload"): "4b72a9cbe4065e989044371e37b9a44e9e2e1984d5e4c8d90d7e9e9f8237e278",
    ("fix-head", "budget"): "4d292753d98e3b749a0602cb76bb0de7585e916d0adcb62e336204631ab8483d",
    ("fix-layer", "hot"): "21aae4ccb6e96f2c94bd240c2aeaec5fcd1a2a2bb6b56c1a72fbc542e087e378",
    ("fix-layer", "offload"): "576b648bf82e428e872dfae8d283b57fe9ade6c5a36a071be2bac61ee0113104",
    ("fix-layer", "budget"): "55d9b4a0da01f2fe25544646223bb77dd0af9529efc08feb9bdb9f274539c9b9",
    ("fix-head-and-layer", "hot"): "ed8b244844244b599478a7fa52026e5655c9d822548adb7d94f58be866d1620e",
    ("fix-head-and-layer", "offload"): "abf3b2fcf39745580115044773d62e59d68b5378a48d5fd6b00471fa472f310e",
    ("fix-head-and-layer", "budget"): "5e1fe793ef14a132d9c6785733e526db281b05610350060bd6a209c09751320b",
}


def output_digest(model, policy, residency):
    budget = (K + 1) * L_CHUNK if residency == "budget" else None
    engine = Engine(
        model,
        EngineConfig(chunk_size=L_CHUNK, num_selected=K, policy=policy, seed=11),
        residency=residency,
        budget=budget,
    )
    engine.encode(random_tokens(N))
    tokens = engine.generate(STEPS).tokens
    digest = hashlib.sha256()
    digest.update(np.asarray(tokens, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(engine.trace.chunk_ids).tobytes())
    digest.update(np.ascontiguousarray(engine.trace.width).tobytes())
    digest.update(json.dumps(engine.counters_dict(), sort_keys=True).encode())
    digest.update(str(engine.store.peak_hot_tokens).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("policy, residency", sorted(GOLDEN))
def test_outputs_match_golden_digest(tiny_model, policy, residency):
    assert output_digest(tiny_model, policy, residency) == GOLDEN[(policy, residency)]
