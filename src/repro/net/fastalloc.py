"""Optional C kernel for the fabric's reallocation.

The max–min fabric is the simulator's measured hot spot on shuffle
waves: tens of thousands of flow events, each followed by a
reallocation running ~a dozen water-filling rounds, whose NumPy cost
is dispatch rather than data.  This module compiles ``_fastalloc.c``
once per machine and loads it with :mod:`ctypes`
(:func:`repro.sim.perfmode.load_kernel`), and exposes its one entry
point pre-bound: :data:`RAW_REALLOC` (endpoint compression, water-fill
and completion horizon), so a reallocation is one native call.  The
fabric's drain is the fluid core's (:mod:`repro.sim.fastdrain`), so
the two kernels load, and can be switched off, independently.

The kernel is bit-for-bit equivalent to the fabric's NumPy path — see
the header comment in ``_fastalloc.c`` and DESIGN.md §8/§12 — and
``repro bench --check`` asserts that equivalence end to end.

Everything degrades gracefully: no C compiler, a failed build, or
``REPRO_NO_CKERNEL=1`` in the environment leaves :data:`AVAILABLE`
false and the fabric uses its pure-NumPy fast path instead; the
fabric reads :data:`AVAILABLE` at call time.  No third-party packages
are involved (ctypes is stdlib).
"""

from __future__ import annotations

import ctypes
import os

from repro.sim.perfmode import load_kernel

__all__ = ["AVAILABLE", "RAW_REALLOC"]


def _bind(lib: ctypes.CDLL) -> None:
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

# Pre-bound entry point: callers pass raw ``arr.ctypes.data`` integer
# addresses they cached when the arrays were allocated (see
# ``FlowTable.ptrs``), so a flow event allocates no ctypes wrapper
# objects.  None when the kernel is unavailable.
RAW_REALLOC = _LIB.repro_fabric_realloc if _LIB is not None else None

#: Scratch row multiples ``repro_fabric_realloc`` needs per table row:
#: int64 and float64 words respectively.
INT_SCRATCH = 8
DOUBLE_SCRATCH = 4
