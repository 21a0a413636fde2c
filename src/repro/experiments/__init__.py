"""Per-figure experiment harnesses (see DESIGN.md's experiment index)."""

from . import (fig05_policies, fig06_applications, fig07_local, fig08_sweep,
               fig09_traces, fig10_slownode, fig11_convergence,
               fig_multijob, fig_policies_ablation, headline, resilience,
               traced)
from .base import (MEDIUM, PAPER, SMALL, TINY, ResultTable, RunResult, Scale,
                   force_config, run_workload)
from .campaign_grids import CAMPAIGN_GRIDS

__all__ = [
    "Scale",
    "TINY",
    "SMALL",
    "MEDIUM",
    "PAPER",
    "RunResult",
    "run_workload",
    "force_config",
    "ResultTable",
    "fig05_policies",
    "fig06_applications",
    "fig07_local",
    "fig08_sweep",
    "fig09_traces",
    "fig10_slownode",
    "fig11_convergence",
    "fig_multijob",
    "fig_policies_ablation",
    "headline",
    "resilience",
    "traced",
    "CAMPAIGN_GRIDS",
]
