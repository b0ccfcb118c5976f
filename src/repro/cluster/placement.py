"""Rank-to-hardware placement.

The paper runs one MPI process per GCD, eight per node, filling nodes
in rank order (the ``srun`` default used by the artifact's job
scripts). The network model asks the placement whether two ranks share
a node (Infinity-Fabric/NUMA path) or not (Slingshot path), and the
file-system model asks how many nodes (= BP5 subfiles) a job spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.frontier import MachineSpec, FRONTIER


@dataclass(frozen=True)
class RankLocation:
    """Where one MPI rank lives."""

    rank: int
    node: int
    gcd: int  # GCD index within the node

    @property
    def gpu(self) -> int:
        """The physical MI250x index within the node (2 GCDs per GPU)."""
        return self.gcd // 2


class Placement:
    """Placement of ``nranks`` onto a machine.

    ``strategy="block"`` (default, the ``srun`` default the paper's jobs
    use) fills each node before moving on; ``strategy="roundrobin"``
    (``--distribution=cyclic``) deals ranks across nodes — it destroys
    halo locality, which the placement-ablation bench quantifies.

    >>> p = Placement(16)
    >>> p.location(0).node, p.location(8).node
    (0, 1)
    >>> p.same_node(0, 7), p.same_node(0, 8)
    (True, False)
    """

    STRATEGIES = ("block", "roundrobin")

    def __init__(
        self,
        nranks: int,
        machine: MachineSpec = FRONTIER,
        *,
        ranks_per_node: int | None = None,
        strategy: str = "block",
    ) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"strategy must be one of {self.STRATEGIES}, got {strategy!r}"
            )
        self.machine = machine
        self.nranks = nranks
        self.strategy = strategy
        self.ranks_per_node = ranks_per_node or machine.node.gcds_per_node
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        if self.ranks_per_node > machine.node.gcds_per_node:
            raise ValueError(
                f"ranks_per_node={self.ranks_per_node} exceeds "
                f"{machine.node.gcds_per_node} GCDs per node"
            )
        self.nnodes = -(-nranks // self.ranks_per_node)
        if self.nnodes > machine.nodes:
            raise ValueError(
                f"job needs {self.nnodes} nodes but {machine.name} has "
                f"{machine.nodes}"
            )

    def location(self, rank: int) -> RankLocation:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        if self.strategy == "block":
            node = rank // self.ranks_per_node
            gcd = rank % self.ranks_per_node
        else:  # roundrobin: deal ranks across the job's nodes
            node = rank % self.nnodes
            gcd = rank // self.nnodes
        return RankLocation(rank=rank, node=node, gcd=gcd)

    def nodes_of(self, ranks):
        """Node of each rank in an int array (no range check)."""
        if self.strategy == "block":
            return ranks // self.ranks_per_node
        return ranks % self.nnodes

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.location(rank_a).node == self.location(rank_b).node
