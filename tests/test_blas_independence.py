"""The stream-only init families draw the same bits under any BLAS kernel.

Two child processes hash ``draw_matrix`` for every family at every
``medium`` layer shape, seeds 1 and 2, with ``scripts/portcheck.py``'s
``run_child``: one under the default OpenBLAS kernel on one thread, one
under ``OPENBLAS_CORETYPE=Haswell`` on two.
Each child reports the kernel its BLAS runs, so the test knows the switch
took.  ``orthogonal`` (LAPACK QR) and ``spectral_radius`` (LAPACK SVD) are
platform-bound: their scaffolds can move by an ulp with the kernel or the
thread count (ROADMAP, "v1 is not bit-exact across BLAS builds"), so they
are not compared here.  The shapes and seeds are the preset's and the
first two, not picked to pass.
"""

import pytest

from lottalora.initfam import FAMILY_NAMES
from test_portcheck import load_portcheck

PLATFORM_BOUND = ("orthogonal", "spectral_radius")
STREAM_ONLY = [name for name in FAMILY_NAMES if name not in PLATFORM_BOUND]
SEEDS = 2  # seeds 1 and 2


def draw_in_child(threads: int, coretype: str | None) -> dict:
    outcome = load_portcheck().run_child(coretype, threads, STREAM_ONLY, ["medium"], SEEDS)
    assert "error" not in outcome, outcome["error"]
    return outcome


def test_stream_only_families_hash_the_same_under_two_kernels_and_thread_counts():
    assert len(STREAM_ONLY) == 20 and set(PLATFORM_BOUND) <= set(FAMILY_NAMES)
    default = draw_in_child(1, None)
    if default["core"] is None:
        pytest.skip("the BLAS exposes no core name, so a kernel switch cannot be confirmed")
    haswell = draw_in_child(2, "Haswell")
    assert haswell["core"] == "Haswell"
    assert sorted(default["hashes"]) == sorted(STREAM_ONLY)
    moved = [name for name in STREAM_ONLY if default["hashes"][name] != haswell["hashes"][name]]
    assert moved == [], f"scaffolds differ between {default['core']}/1 thread and Haswell/2 threads"
