"""Reference kernel that calibrates every timing against host drift.

The host is a shared VM whose speed drifts by tens of percent within
minutes, and swings by up to a third within seconds; CPU time does not
remove either.  So every run times this fixed kernel in slices between its
ops and reports each op's time as ``raw_ms * REF_NOMINAL_MS / ref_ms``,
where ``ref_ms`` is the mean of the slices timed just before and just
after that op.  Scaling each op by the slices that bracket it follows the
swings within a run; on train-resample it halved the run-to-run spread of
``op_ms_p50`` against scaling by the run's median slice.

The kernel mixes the kinds of work the workloads do, so that a slowdown of
one kind (BLAS, integer passes, transcendentals, the interpreter) moves
the reference too: an f32 sgemm at the first ``medium`` layer's shape, a
splitmix-style u64 xor-shift-multiply pass over 200k elements, a ``log1p``
pass and a pure-Python loop.  It imports nothing from ``lottalora``, so no
change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical slice time on the reference host (2-core KVM guest, AVX-512,
# numpy 2.4 + OpenBLAS 0.3.31, one BLAS thread).  Calibrated timings are
# expressed in "reference-host milliseconds"; changing this constant
# rescales every timing metric, so it stays fixed across PRs.
REF_NOMINAL_MS = 5.0

_N_U64 = 200_000
_PY_LOOP = 12_000


class Reference:
    """Preallocated inputs and outputs for the kernel, built from a fixed
    seed.  The kernel allocates nothing large, so its time does not depend
    on the allocator's state or on page-fault cost."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((128, 784), dtype=np.float32)
        self.w = rng.standard_normal((784, 512), dtype=np.float32)
        self.y = np.empty((128, 512), dtype=np.float32)
        self.ramp = np.arange(1, _N_U64 + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self.z = np.empty(_N_U64, dtype=np.uint64)
        self.t = np.empty(_N_U64, dtype=np.uint64)
        self.u = -rng.random(_N_U64)
        self.l = np.empty(_N_U64)

    def _kernel(self) -> None:
        np.matmul(self.x, self.w, out=self.y)
        z, t = self.z, self.t
        np.add(self.ramp, np.uint64(0x0123456789ABCDEF), out=z)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(z, np.uint64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, np.uint64(mult), out=z)
        np.right_shift(z, np.uint64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        np.log1p(self.u, out=self.l)
        acc = 0
        for i in range(_PY_LOOP):
            acc = (acc * 31 + i) & 0xFFFFFFFF

    def slice_ms(self) -> float:
        """CPU time of one kernel call, in milliseconds."""
        start = time.process_time_ns()
        self._kernel()
        return (time.process_time_ns() - start) / 1e6


class Calibration:
    """Reference slices timed in groups around the units of work (set-up
    passes or ops) of one phase of a run: one group before each unit and
    one after the last."""

    def __init__(self, ref: Reference, per_group: int):
        self.ref = ref
        self.per_group = per_group
        self.slices_ms: list[float] = []

    def sample(self) -> None:
        self.slices_ms.extend(self.ref.slice_ms() for _ in range(self.per_group))

    def ref_ms(self) -> float:
        """Median slice of the phase, the drift figure reported per run."""
        return statistics.median(self.slices_ms)

    def scale(self, unit: int) -> float:
        """Factor from raw to calibrated time for the ``unit``-th unit of
        work, from the groups timed just before and just after it."""
        k = self.per_group
        return REF_NOMINAL_MS / statistics.fmean(self.slices_ms[unit * k:(unit + 2) * k])
