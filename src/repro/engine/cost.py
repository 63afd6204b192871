"""A simple cost model for the engine's physical operators.

Costs are expressed in abstract "comparison" units so that plans can be
ranked without timing noise; the operators also report the number of
comparisons they actually performed, which lets tests check that the model
tracks reality reasonably well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the cost formulas."""

    sweep_constant: float = 8.0
    index_probe_constant: float = 2.0
    index_build_constant: float = 4.0
    output_constant: float = 1.0

    def nested_loop_join(self, left_size: int, right_size: int) -> float:
        """All-pairs comparisons."""
        return float(left_size) * float(right_size)

    def plane_sweep_join(self, left_size: int, right_size: int,
                         estimated_output: float) -> float:
        """Sorting plus sweep plus output cost."""
        total = left_size + right_size
        if total == 0:
            return 0.0
        return (self.sweep_constant * total * max(1.0, math.log2(max(total, 2)))
                + self.output_constant * max(0.0, estimated_output))

    def index_nested_loop_join(self, probe_size: int, indexed_size: int,
                               estimated_output: float) -> float:
        """Per-probe logarithmic descent plus output cost (index assumed built)."""
        if indexed_size == 0 or probe_size == 0:
            return 0.0
        probe_cost = self.index_probe_constant * probe_size \
            * max(1.0, math.log2(max(indexed_size, 2)))
        return probe_cost + self.output_constant * max(0.0, estimated_output)

    def rtree_join(self, left_size: int, right_size: int, estimated_output: float) -> float:
        """Dual-tree join: build both trees plus output-sensitive traversal."""
        build = self.index_build_constant * (left_size + right_size) \
            * max(1.0, math.log2(max(left_size + right_size, 2)))
        return build + self.output_constant * max(0.0, estimated_output) * 4.0
