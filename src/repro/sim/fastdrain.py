"""Optional C kernel for the fluid-pipe drain.

:class:`~repro.sim.fluid.FluidPipe` advances every flow's remaining-byte
counter at each flow event; on busy pipes (spill storms, hundreds of
concurrent writers) that decrement-and-compact loop is one of the two
remaining pure-Python inner loops in the simulator (the other is the
timer drain, batched in :meth:`~repro.sim.core.Simulator.run`).  This
module compiles ``_fastdrain.c`` once per machine and loads it with
:mod:`ctypes` (:func:`repro.sim.perfmode.load_kernel`), and exposes
:func:`drain`.

The kernel is bit-for-bit equivalent to the NumPy fallback — see the
header comment in ``_fastdrain.c`` and DESIGN.md §12 — which
Hypothesis checks on adversarial cases in ``tests/sim/test_fastdrain.py``,
and ``repro bench --check`` holds whole runs to the captured
fingerprints.

Everything degrades gracefully: no C compiler, a failed build, or
``REPRO_NO_CKERNEL=1`` in the environment leaves :data:`AVAILABLE`
false and the pipe uses its vectorized NumPy drain instead.  No
third-party packages are involved (ctypes is stdlib).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.sim.perfmode import load_kernel

__all__ = ["AVAILABLE", "drain", "fair_share_into", "RAW_DRAIN", "RAW_FAIR"]


def _bind(lib: ctypes.CDLL) -> None:
    fn = lib.repro_fluid_drain
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, ctypes.c_double,  # n, dt
                   ctypes.c_void_p, ctypes.c_void_p,  # remaining, rate
                   ctypes.c_void_p]                   # finished (out)
    fs = lib.repro_fair_share
    fs.restype = ctypes.c_double                      # horizon
    fs.argtypes = [ctypes.c_double, ctypes.c_int64,   # capacity, n
                   ctypes.c_void_p, ctypes.c_void_p,  # caps, order
                   ctypes.c_void_p, ctypes.c_void_p]  # remaining, rates


_LIB = load_kernel(os.path.join(os.path.dirname(__file__), "_fastdrain.c"),
                   "fastdrain", _bind)

#: True when the compiled kernel is loaded and usable.
AVAILABLE = _LIB is not None

# Pre-bound entry points for the hot path: callers cache the raw
# ``arr.ctypes.data`` integer addresses and call these directly, so a
# per-event kernel call allocates no ctypes wrapper objects.  None when
# the kernel is unavailable.
RAW_DRAIN = _LIB.repro_fluid_drain if _LIB is not None else None
RAW_FAIR = _LIB.repro_fair_share if _LIB is not None else None


def drain(n: int, dt: float, remaining: np.ndarray, rate: np.ndarray,
          finished_out: np.ndarray) -> int:
    """Run the C drain; returns the finished count, or ``-1`` to fall back.

    ``remaining``/``rate`` must be contiguous float64 with at least ``n``
    leading live entries; both are compacted in place.  Pre-compaction
    indices of finished flows land in ``finished_out`` (contiguous
    int64, capacity >= ``n``) in ascending order.
    """
    if _LIB is None:
        return -1
    return _LIB.repro_fluid_drain(
        n, dt, remaining.ctypes.data, rate.ctypes.data,
        finished_out.ctypes.data)


def fair_share_into(capacity: float, n: int, caps: np.ndarray,
                    order: np.ndarray, remaining: np.ndarray,
                    rates_out: np.ndarray) -> float:
    """Run the fused C fair-share + horizon; returns the horizon.

    ``caps`` (float64) and ``order`` (int64, an ascending-cap stable
    sort of ``range(n)``) must be length ``n``; rates land in
    ``rates_out[:n]``.  Returns ``math.inf`` when nothing drains, or
    ``nan`` (never produced by the kernel) is not used — callers must
    check :data:`AVAILABLE` first; raises if the kernel is absent.
    """
    return _LIB.repro_fair_share(
        capacity, n, caps.ctypes.data, order.ctypes.data,
        remaining.ctypes.data, rates_out.ctypes.data)
