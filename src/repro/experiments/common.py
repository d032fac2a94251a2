"""Shared experiment-report plumbing.

Every experiment driver (``e1_single_hop`` ... ``e8_ablations``)
produces an :class:`ExperimentReport`: a titled table plus free-text
conclusions. ``python -m repro.experiments`` runs them all and prints
their tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

from ..analysis.tables import format_markdown_table, format_table


@dataclass
class ExperimentReport:
    """One experiment's regenerated table."""

    experiment_id: str
    title: str
    paper_claim: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    conclusions: List[str] = field(default_factory=list)
    passed: bool = True

    def add_row(self, *values: Any) -> None:
        self.rows.append(list(values))

    def conclude(self, text: str, ok: bool = True) -> None:
        self.conclusions.append(("[ok] " if ok else "[FAIL] ") + text)
        if not ok:
            self.passed = False

    def render(self) -> str:
        parts = [
            f"{self.experiment_id}: {self.title}",
            f"Paper claim: {self.paper_claim}",
            "",
            format_table(self.headers, self.rows),
            "",
        ]
        parts.extend(self.conclusions)
        status = "PASSED" if self.passed else "FAILED"
        parts.append(f"=> {self.experiment_id} {status}")
        return "\n".join(parts)

    def render_markdown(self) -> str:
        parts = [
            f"### {self.experiment_id}: {self.title}",
            "",
            f"*Paper claim:* {self.paper_claim}",
            "",
            format_markdown_table(self.headers, self.rows),
            "",
        ]
        parts.extend(f"- {c}" for c in self.conclusions)
        return "\n".join(parts)
