"""Optional C kernels for the fabric's flow events.

The max–min fabric is the simulator's measured hot spot on shuffle
waves: tens of thousands of flow events, each a drain of the flow
table and a reallocation running ~a dozen water-filling rounds, whose
NumPy cost is dispatch rather than data.  This module compiles
``_fastalloc.c`` once per machine and loads it with :mod:`ctypes`
(:func:`repro.sim.perfmode.load_kernel`), and exposes the two entry
points pre-bound: :data:`RAW_DRAIN` (advance, finish test
and order-preserving compaction of the flow table) and
:data:`RAW_REALLOC` (endpoint compression, water-fill and completion
horizon), so a flow event is one native call.

The kernels are bit-for-bit equivalent to the fabric's NumPy path — see
the header comment in ``_fastalloc.c`` and DESIGN.md §8/§12 — and
``repro bench --check`` asserts that equivalence end to end.

Everything degrades gracefully: no C compiler, a failed build, or
``REPRO_NO_CKERNEL=1`` in the environment leaves :data:`AVAILABLE`
false and the fabric uses its pure-NumPy fast path instead.  No
third-party packages are involved (ctypes is stdlib).
"""

from __future__ import annotations

import ctypes
import os

from repro.sim.perfmode import load_kernel

__all__ = ["AVAILABLE", "RAW_DRAIN", "RAW_REALLOC"]


def _bind(lib: ctypes.CDLL) -> None:
    dr = lib.repro_fabric_drain
    dr.restype = ctypes.c_int64                       # finished count
    dr.argtypes = [ctypes.c_int64, ctypes.c_double,   # n, dt
                   *[ctypes.c_void_p] * 5,            # table columns
                   ctypes.c_void_p]                   # finished (out)
    ra = lib.repro_fabric_realloc
    ra.restype = ctypes.c_double                      # horizon
    ra.argtypes = [ctypes.c_int64, ctypes.c_int64,    # m, n_nodes
                   *[ctypes.c_void_p] * 5,            # table columns
                   ctypes.c_double, ctypes.c_double,  # nic_bw, bisection
                   ctypes.c_int64,                    # has_core
                   ctypes.c_void_p,                   # ids stamps
                   ctypes.c_void_p, ctypes.c_void_p]  # int/double scratch


_LIB = load_kernel(os.path.join(os.path.dirname(__file__), "_fastalloc.c"),
                   "fastalloc", _bind)

#: True when the compiled kernel is loaded and usable.
AVAILABLE = _LIB is not None

# Pre-bound entry points: callers pass raw ``arr.ctypes.data`` integer
# addresses they cached when the arrays were allocated (see
# ``FlowTable.ptrs``), so a flow event allocates no ctypes wrapper
# objects.  None when the kernel is unavailable.
RAW_DRAIN = _LIB.repro_fabric_drain if _LIB is not None else None
RAW_REALLOC = _LIB.repro_fabric_realloc if _LIB is not None else None

#: Scratch row multiples ``repro_fabric_realloc`` needs per table row:
#: int64 and float64 words respectively.
INT_SCRATCH = 8
DOUBLE_SCRATCH = 4
