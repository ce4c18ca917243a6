"""Classical Maxflow solvers (Appendix A of the paper)."""

from repro.flownet.algorithms.base import MaxflowRun, MaxflowSolver
from repro.flownet.algorithms.capacity_scaling import capacity_scaling
from repro.flownet.algorithms.dinic import dinic
from repro.flownet.algorithms.dinic_flat_persistent import dinic_flat_persistent
from repro.flownet.algorithms.edmonds_karp import edmonds_karp
from repro.flownet.algorithms.ford_fulkerson import ford_fulkerson
from repro.flownet.algorithms.lp import lp_maxflow
from repro.flownet.algorithms.push_relabel import push_relabel
from repro.flownet.algorithms.registry import (
    RESUMABLE_SOLVERS,
    SOLVERS,
    get_solver,
    solve_max_flow,
)

__all__ = [
    "MaxflowRun",
    "MaxflowSolver",
    "dinic",
    "dinic_flat_persistent",
    "capacity_scaling",
    "edmonds_karp",
    "ford_fulkerson",
    "push_relabel",
    "lp_maxflow",
    "SOLVERS",
    "RESUMABLE_SOLVERS",
    "get_solver",
    "solve_max_flow",
]
