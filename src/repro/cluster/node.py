"""Runtime model of one compute node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.storage.ramdisk import RamDisk
from repro.storage.ssd import SSDDevice
from repro.storage.volume import LocalVolume

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.cluster.spec import NodeSpec

__all__ = ["ComputeNode"]


class ComputeNode:
    """A compute node: local storage volumes and a speed factor.

    Its task slots are not modelled here: a stage's runner holds one
    slot per ``spec.cores`` core of every node.

    * ``volumes`` maps mount names (``"ramdisk"``, ``"ssd"``) to
      :class:`LocalVolume` s.  The RAMDisk is used raw (it *is* memory);
      the SSD sits behind a page cache (ext4 in the paper).
    * ``speed_factor`` scales computation throughput; it is how workload
      skew across an allegedly homogeneous cluster enters the model.
    """

    def __init__(self, sim: "Simulator", node_id: int, spec: "NodeSpec",
                 speed_factor: float = 1.0) -> None:
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.speed_factor = float(speed_factor)

        ramdisk = RamDisk(sim, capacity_bytes=spec.ramdisk_usable_bytes,
                          read_bw=spec.ramdisk_read_bw,
                          write_bw=spec.ramdisk_write_bw,
                          name=f"n{node_id}.ramdisk")
        ssd = SSDDevice(sim, capacity_bytes=spec.ssd_bytes,
                        read_bw=spec.ssd_read_bw,
                        write_bw=spec.ssd_write_bw,
                        clean_pool_bytes=spec.ssd_clean_pool_bytes,
                        name=f"n{node_id}.ssd")
        self.ssd = ssd
        self.ramdisk = ramdisk
        self.volumes: Dict[str, LocalVolume] = {
            "ramdisk": LocalVolume(sim, ramdisk, use_page_cache=False,
                                   name=f"n{node_id}.ramdisk"),
            "ssd": LocalVolume(sim, ssd, use_page_cache=True,
                               memory_bw=spec.memory_copy_bw,
                               cache_bytes=spec.page_cache_bytes,
                               dirty_limit_bytes=spec.page_cache_dirty_bytes,
                               name=f"n{node_id}.ssd"),
        }

    def volume(self, name: str) -> LocalVolume:
        try:
            return self.volumes[name]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} has no volume {name!r}; "
                f"available: {sorted(self.volumes)}") from None

    def compute(self, nominal_seconds: float):
        """Occupy this node for ``nominal_seconds`` of nominal CPU work,
        adjusted by the node's speed factor.  Returns a timeout event;
        the caller is responsible for holding a core slot."""
        if nominal_seconds < 0:
            raise ValueError(f"negative compute time {nominal_seconds}")
        return self.sim.timeout(nominal_seconds / self.speed_factor)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ComputeNode {self.node_id} x{self.speed_factor:.2f}>"
