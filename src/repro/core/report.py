"""Publication reports: what PRIVAPI measured and why it chose."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MechanismEvaluation:
    """Audit outcome of one candidate mechanism on one dataset."""

    mechanism: str
    parameters: dict[str, object]
    poi_recall: float
    reidentification: float | None
    utility: float
    suppression: float
    satisfies_privacy: bool
    #: Why ``protect`` raised on this dataset: never chosen, not even as fallback.
    error: str | None = None

    def summary_row(self) -> str:
        if self.error is not None:
            return f"{self.mechanism:<28} FAILED: {self.error}"
        reident = (
            f"{self.reidentification:.2f}" if self.reidentification is not None else "-"
        )
        mark = "ok" if self.satisfies_privacy else "REJECTED"
        return (
            f"{self.mechanism:<28} recall={self.poi_recall:.2f} "
            f"reident={reident} utility={self.utility:.2f} "
            f"suppressed={self.suppression:.2f} [{mark}]"
        )


@dataclass(frozen=True)
class PublicationReport:
    """Full audit trail of one publication decision."""

    objective: str
    requirement_max_poi_recall: float
    evaluations: tuple[MechanismEvaluation, ...]
    chosen: str | None

    def chosen_evaluation(self) -> MechanismEvaluation | None:
        for evaluation in self.evaluations:
            if evaluation.mechanism == self.chosen:
                return evaluation
        return None

    def to_text(self) -> str:
        """Human-readable report (what the platform owner reads)."""
        lines = [
            f"PRIVAPI publication report (objective: {self.objective}, "
            f"max POI recall: {self.requirement_max_poi_recall:.2f})",
            "-" * 78,
        ]
        lines.extend(e.summary_row() for e in self.evaluations)
        lines.append("-" * 78)
        if self.chosen is None:
            lines.append("NO mechanism satisfied the privacy requirement; nothing published.")
        else:
            lines.append(f"chosen: {self.chosen}")
        return "\n".join(lines)
