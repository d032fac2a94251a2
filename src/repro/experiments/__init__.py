"""Experiment drivers regenerating the paper's results (E1-E14).

``repro regen`` runs them: every driver by default, or the ids it is
given (``repro regen E3 E4``); ``EXPERIMENTS.md`` at the repository
root is the committed output of ``repro regen --fresh --markdown``.
:data:`EXPERIMENTS` names each driver's module, and a driver is
imported only when it runs. A driver whose module defines
``manifest()`` is a manifest driver: its ``run(cache=, workers=)``
executes those scenario cells through the result cache (README
"Sweep fabric").
"""

from typing import Iterable, List

from .._lazy import lazy_exports

#: Experiment id -> driver module, in report order.
EXPERIMENTS = {
    "E1": "repro.experiments.e1_single_hop",
    "E2": "repro.experiments.e2_wpaxos_scaling",
    "E3": "repro.experiments.e3_baselines",
    "E4": "repro.experiments.e4_time_lower_bound",
    "E5": "repro.experiments.e5_anonymous",
    "E6": "repro.experiments.e6_unknown_n",
    "E7": "repro.experiments.e7_flp",
    "E8": "repro.experiments.e8_ablations",
    "E9": "repro.experiments.e9_unreliable_links",
    "E10": "repro.experiments.e10_randomized",
    "E11": "repro.experiments.e11_fprog",
    "E12": "repro.experiments.e12_byzantine",
    "E13": "repro.experiments.e13_churn",
    "E14": "repro.experiments.e14_service",
}


def known_ids(ids: Iterable[str]) -> List[str]:
    """``ids`` upper-cased; exits naming any id not in the table."""
    wanted = [i.upper() for i in ids]
    unknown = [i for i in wanted if i not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment ids: {', '.join(unknown)} "
            f"(known: {', '.join(EXPERIMENTS)})")
    return wanted


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "common": "ExperimentReport",
})
