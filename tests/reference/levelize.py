"""Per-instance Kahn levelization over a NetView — the oracle for
:class:`repro.sim.vecsim.VecSim`'s numpy frontier levelization.

Mirrors the scalar simulator's walk (including its per-pin indegree
accounting): roots are input ports, sequential ``Q`` nets and memory
read nets; a combinational cell's level is the maximum level of its
input nets, and a net driven by a level-``L`` cell sits at ``L + 1``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.errors import SimulationError
from repro.rtl.netview import NetView


def kahn_levels(view: NetView) -> Dict[int, int]:
    """Level of every combinational instance, keyed by instance index.

    Raises the same :class:`SimulationError`s as ``VecSim`` for a
    sequential cell without ``Q`` and for a combinational cycle.
    """
    module = view.module
    resolved = {view.net_id[p] for p in module.input_ports}
    for idx, cell in enumerate(view.cells):
        if cell.is_sequential:
            q_pos = cell.outputs.index("Q") if "Q" in cell.outputs else -1
            q = view.out_ids[idx][q_pos] if q_pos >= 0 else -1
            if q < 0:
                inst = module.instances[idx]
                raise SimulationError(
                    f"{module.name}: sequential cell {inst.name} "
                    f"({cell.name}) has no Q connection — its state "
                    "would be invisible to the fabric"
                )
            resolved.add(q)
        elif cell.is_memory:
            for out in view.out_ids[idx]:
                if out >= 0:
                    resolved.add(out)

    indegree: Dict[int, int] = {}
    consumers: Dict[int, List[int]] = {}
    for idx, cell in enumerate(view.cells):
        if cell.is_sequential or cell.is_memory:
            continue
        missing = 0
        for net in view.in_ids[idx]:
            if net >= 0 and net not in resolved:
                missing += 1
                consumers.setdefault(net, []).append(idx)
        indegree[idx] = missing
    queue = deque(idx for idx, deg in indegree.items() if deg == 0)
    net_level: Dict[int, int] = {net: 0 for net in resolved}
    inst_level: Dict[int, int] = {}
    seen_nets = set(resolved)
    while queue:
        idx = queue.popleft()
        level = 0
        for net in view.in_ids[idx]:
            if net >= 0:
                level = max(level, net_level.get(net, 0))
        inst_level[idx] = level
        for net in view.out_ids[idx]:
            if net < 0 or net in seen_nets:
                continue
            seen_nets.add(net)
            net_level[net] = level + 1
            for consumer in consumers.get(net, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    queue.append(consumer)
    if len(inst_level) != len(indegree):
        raise SimulationError(
            f"levelization failed: {len(inst_level)} of "
            f"{len(indegree)} combinational cells ordered (cycle?)"
        )
    return inst_level
