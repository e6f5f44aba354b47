"""Optional C kernels for the fluid core.

Every fluid resource (:class:`~repro.sim.fluid.FluidPipe` and
:class:`~repro.net.fabric.Fabric`) advances its flows' remaining-byte
counters at each flow event through one drain,
:meth:`~repro.sim.flowarray.FlowTable.drain`, and a pipe reassigns
max–min fair-share rates after each.  This module compiles
``_fastdrain.c`` once per machine and loads it with :mod:`ctypes`
(:func:`repro.sim.perfmode.load_kernel`), and exposes both entry
points pre-bound: :data:`RAW_DRAIN` (advance, finish test and
order-preserving compaction of a flow table's columns) and
:data:`RAW_FAIR` (the pipe's fair share fused with its completion
horizon).  The fabric's water-fill is :mod:`repro.net.fastalloc`.

The kernels are bit-for-bit equivalent to the NumPy fallbacks — see
the header comment in ``_fastdrain.c`` and DESIGN.md §12 — which
Hypothesis checks on adversarial cases in ``tests/sim/test_fastdrain.py``,
and ``repro bench --check`` holds whole runs to the captured
fingerprints.  Both attributes are read at call time, so setting one
to ``None`` switches its callers to NumPy.

Everything degrades gracefully: no C compiler, a failed build, or
``REPRO_NO_CKERNEL=1`` in the environment leaves :data:`AVAILABLE`
false and both entry points ``None``.  No third-party packages are
involved (ctypes is stdlib).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.sim.perfmode import load_kernel

__all__ = ["AVAILABLE", "fair_share_into", "RAW_DRAIN", "RAW_FAIR"]


def _bind(lib: ctypes.CDLL) -> None:
    fn = lib.repro_flow_drain
    fn.restype = ctypes.c_int64                       # finished count
    fn.argtypes = [ctypes.c_int64, ctypes.c_double,   # n, dt
                   ctypes.c_int64, ctypes.c_void_p,   # ncols, addresses
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
RAW_DRAIN = _LIB.repro_flow_drain if _LIB is not None else None
RAW_FAIR = _LIB.repro_fair_share if _LIB is not None else None


def fair_share_into(capacity: float, n: int, caps: np.ndarray,
                    order: np.ndarray, remaining: np.ndarray,
                    rates_out: np.ndarray) -> float:
    """Run the fused C fair-share + horizon; returns the horizon.

    ``caps`` (float64) and ``order`` (int64, an ascending-cap stable
    sort of ``range(n)``) must be length ``n``; rates land in
    ``rates_out[:n]``.  Returns ``math.inf`` when nothing drains.
    Callers must check :data:`AVAILABLE` first; raises if the kernel
    is absent.
    """
    return _LIB.repro_fair_share(
        capacity, n, caps.ctypes.data, order.ctypes.data,
        remaining.ctypes.data, rates_out.ctypes.data)
