"""Golden bit-exactness table, checked on every benchmark run.

The table pins, at fixed seeds: SHA-256 of a ``Stream(seed).u64_block``
prefix, SHA-256 of a small matrix per init family, ``backbone_hashes()``
per preset, and the exact bytes of a packed ``tiny`` artifact
(``golden_tiny.ltlr``).  A speedup that changes any of these bits fails
the check, and each failed entry counts as a failed op.

Regenerate (only together with a new generator tag):

    PYTHONPATH=src python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "golden.json")
TINY = os.path.join(HERE, "golden_tiny.ltlr")

STREAM_SEEDS = (0, 42, 0xFFFFFFFFFFFFFFFF)
STREAM_PREFIX = 4096
FAMILY_SEED = 7
FAMILY_SHAPE = (24, 40)
PRESET_SEED = 42
TINY_SEED = 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute(L) -> tuple[dict, bytes]:
    """(table, tiny artifact bytes) for the ``lottalora`` package ``L``."""
    from lottalora.prng import DrawKind

    table = {"algorithm_id": L.ALGORITHM_ID, "stream": {}, "families": {}, "presets": {}}
    for seed in STREAM_SEEDS:
        block = L.Stream(seed).u64_block(STREAM_PREFIX).astype("<u8")
        table["stream"][str(seed)] = _sha(block.tobytes())
    for name in L.FAMILY_NAMES:
        stream = L.derive_stream(FAMILY_SEED, 0, DrawKind.BACKBONE_WEIGHT)
        matrix = L.draw_matrix(stream, L.InitFamily(name), *FAMILY_SHAPE)
        table["families"][name] = _sha(matrix.data.astype("<f4").tobytes())
    from lottalora.model import PRESETS

    for preset in PRESETS:
        cfg = L.ModelConfig(preset=preset, rank=8)
        table["presets"][preset] = L.build_model(cfg, L.BackboneSpec.from_config(cfg, PRESET_SEED)).backbone_hashes()
    cfg = L.ModelConfig(preset="tiny", rank=2)
    tiny = L.pack(L.build_model(cfg, L.BackboneSpec.from_config(cfg, TINY_SEED)))
    table["tiny_artifact"] = {"bytes": len(tiny), "sha256": _sha(tiny)}
    return table, tiny


def check(L) -> tuple[int, list[str]]:
    """(number of entries checked, names of the entries that differ)."""
    with open(TABLE, encoding="utf-8") as fh:
        want = json.load(fh)
    with open(TINY, "rb") as fh:
        want_tiny = fh.read()
    got, tiny = compute(L)
    names = ["algorithm_id"]
    bad = [] if got["algorithm_id"] == want["algorithm_id"] else ["algorithm_id"]
    for section in ("stream", "families", "presets"):
        for key, value in want[section].items():
            names.append(f"{section}.{key}")
            if got[section].get(key) != value:
                bad.append(f"{section}.{key}")
    names.append("tiny_artifact")
    if tiny != want_tiny or got["tiny_artifact"] != want["tiny_artifact"]:
        bad.append("tiny_artifact")
    return len(names), bad


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/golden.py --write")
    import lottalora

    table, tiny = compute(lottalora)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(TINY, "wb") as fh:
        fh.write(tiny)
    print(f"wrote {TABLE} and {TINY} ({len(tiny)} bytes)")
