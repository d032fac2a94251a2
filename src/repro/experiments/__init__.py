"""Experiment drivers regenerating the paper's results (E1-E8).

Run everything with ``python -m repro.experiments``, or one at a time
with ``python -m repro.experiments.e1_single_hop`` etc.; the
manifest-migrated drivers also run through ``repro regen`` (README
"Sweep fabric").
"""

from . import (e1_single_hop, e2_wpaxos_scaling, e3_baselines,
               e4_time_lower_bound, e5_anonymous, e6_unknown_n, e7_flp,
               e8_ablations, e9_unreliable_links, e10_randomized,
               e11_fprog, e12_byzantine, e13_churn, e14_service)
from .common import ExperimentReport

ALL_EXPERIMENTS = (
    ("E1", e1_single_hop),
    ("E2", e2_wpaxos_scaling),
    ("E3", e3_baselines),
    ("E4", e4_time_lower_bound),
    ("E5", e5_anonymous),
    ("E6", e6_unknown_n),
    ("E7", e7_flp),
    ("E8", e8_ablations),
    ("E9", e9_unreliable_links),
    ("E10", e10_randomized),
    ("E11", e11_fprog),
    ("E12", e12_byzantine),
    ("E13", e13_churn),
    ("E14", e14_service),
)

__all__ = ["ALL_EXPERIMENTS", "ExperimentReport"]
