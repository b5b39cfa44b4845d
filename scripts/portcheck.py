#!/usr/bin/env python3
"""Report which init families draw different scaffold bits under other
OpenBLAS kernels and thread counts.

Usage: python scripts/portcheck.py [--seeds N] [--families a,b] [--presets tiny,medium]
                                   [--configs SkylakeX:1,Haswell:2]

For every configuration, a child process imports this checkout's
``lottalora`` with ``OPENBLAS_CORETYPE`` and ``OPENBLAS_NUM_THREADS`` set
in its own environment, and hashes
``draw_matrix`` for each family at each layer shape of each preset, seeds
1 to N.  The default configurations are the kernels SkylakeX, Haswell,
Sandybridge, Nehalem and Prescott, each on 1 and 2 threads.  Only the
children's environment changes; nothing of the machine is touched.

Prints one JSON object: each configuration with the kernel its BLAS
reports running (null when the BLAS names none, so a kernel switch cannot
be confirmed), and, per family whose hashes differ from the first
configuration's, the configurations and the ``preset seed layer`` draws
that moved.  Exits 1 when a family differs or a child fails, else 0.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")
THREADS = (1, 2)
CHILD_TIMEOUT_S = 300  # one child of the default grid takes about 30 s


def blas_core() -> str | None:
    """The kernel name this process's OpenBLAS reports, if it reports one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def child(families: list[str], presets: list[str], seeds: int) -> dict:
    """``{"core": ..., "hashes": {family: {"preset seed layer": sha256}}}``
    for the draws of this process."""
    from lottalora.initfam import InitFamily, draw_matrix
    from lottalora.model import ModelConfig
    from lottalora.prng import DrawKind, derive_stream

    hashes = {}
    for name in families:
        family = InitFamily(name)
        hashes[name] = {}
        for preset in presets:
            for seed in range(1, seeds + 1):
                for i, (d_out, d_in) in enumerate(ModelConfig(preset=preset).layer_shapes()):
                    matrix = draw_matrix(derive_stream(seed, i, DrawKind.BACKBONE_WEIGHT), family, d_out, d_in)
                    key = f"{preset} seed {seed} layer {i}"
                    hashes[name][key] = hashlib.sha256(matrix.data.tobytes()).hexdigest()
    # read after the draws, so the BLAS library is loaded
    return {"core": blas_core(), "hashes": hashes}


def run_child(coretype: str | None, threads: int, families, presets, seeds: int) -> dict:
    """``child``'s report from a process on ``threads`` BLAS threads under
    the kernel ``coretype`` (None: the BLAS's default), or ``{"error": ...}``."""
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_CORETYPE")}
    env.update(OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    spec = json.dumps({"families": families, "presets": presets, "seeds": seeds})
    try:
        result = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", spec],
                                env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no report within {CHILD_TIMEOUT_S} s"}
    if result.returncode != 0:
        return {"error": (result.stderr.strip().splitlines() or [f"exit status {result.returncode}"])[-1]}
    return json.loads(result.stdout)


def compare(configs: list[str], outcomes: list[dict]) -> dict:
    """Per family, the configurations whose draws differ from the first
    configuration's, with the draws that moved."""
    reference = outcomes[0]["hashes"]
    differ = {}
    for config, outcome in zip(configs[1:], outcomes[1:]):
        if "error" in outcome:
            continue
        for family, hashes in outcome["hashes"].items():
            moved = [key for key, digest in hashes.items() if reference[family][key] != digest]
            if moved:
                differ.setdefault(family, {})[config] = moved
    return differ


def _csv(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="draw seeds 1 to N (default 10)")
    parser.add_argument("--families", type=_csv, default=None, help="comma-separated families (default: all)")
    parser.add_argument("--presets", type=_csv, default=None, help="comma-separated presets (default: all)")
    parser.add_argument("--configs", type=_csv, default=[f"{c}:{t}" for c in CORETYPES for t in THREADS],
                        help="comma-separated CORETYPE:THREADS pairs; the first is the reference")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(**json.loads(args.child))))
        return 0

    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    configs = []
    for config in args.configs:
        coretype, _, threads = config.partition(":")
        if not (coretype and threads.isdigit() and int(threads) >= 1):
            parser.error(f"a configuration is CORETYPE:THREADS with THREADS >= 1, got {config!r}")
        configs.append((coretype, int(threads)))
    sys.path.insert(0, SRC)
    from lottalora.initfam import FAMILY_NAMES
    from lottalora.model import PRESETS

    families = args.families or list(FAMILY_NAMES)
    presets = args.presets or list(PRESETS)
    unknown = sorted(set(families) - set(FAMILY_NAMES)) + sorted(set(presets) - set(PRESETS))
    if unknown:
        parser.error(f"unknown families or presets: {unknown}")

    names = [f"{coretype}/{threads}" for coretype, threads in configs]
    outcomes = [run_child(coretype, threads, families, presets, args.seeds) for coretype, threads in configs]
    report = {
        "reference": names[0],
        "configs": {name: {key: outcome[key] for key in ("core", "error") if key in outcome}
                    for name, outcome in zip(names, outcomes)},
        # nothing to compare against when the reference itself failed
        "differ": {} if "error" in outcomes[0] else compare(names, outcomes),
    }
    print(json.dumps(report, indent=2))
    return 1 if report["differ"] or any("error" in outcome for outcome in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
