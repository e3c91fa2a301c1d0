"""Performance-portability cascade analysis.

The cascade plot (Sewall & Pennycook's follow-up to the PP metric the
paper cites as [57]) shows how a model's aggregate portability degrades
as the platform set grows: sort the model's per-platform efficiencies in
descending order and evaluate the metric on every prefix.  A flat
cascade means genuinely portable performance; a cliff pinpoints the
platform that breaks it — e.g. Python/Numba's cascade collapses to zero
under the harmonic-mean PP the moment the AMD GPU enters the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import phi_paper, pp_pennycook

__all__ = ["CascadePoint", "Cascade", "cascade", "render_cascades"]


@dataclass(frozen=True)
class CascadePoint:
    """The metric values once ``platforms`` best platforms are included."""

    platforms: int
    added_platform: str
    phi_paper: float
    pp_pennycook: float


@dataclass(frozen=True)
class Cascade:
    """One model's full cascade."""

    model: str
    points: Tuple[CascadePoint, ...]

    @property
    def final_phi(self) -> float:
        return self.points[-1].phi_paper

    @property
    def cliff_platform(self) -> Optional[str]:
        """The platform whose inclusion first zeroes the strict PP metric
        (None if PP survives the full set)."""
        for p in self.points:
            if p.pp_pennycook == 0.0:
                return p.added_platform
        return None


def cascade(model: str,
            efficiencies: Dict[str, Optional[float]]) -> Cascade:
    """Build the cascade from a platform -> efficiency map.

    Platforms are added best-first (the convention that makes the cascade
    monotone non-increasing); unsupported platforms (None) sort last.
    """
    if not efficiencies:
        raise ValueError("empty platform set")
    ordered = sorted(efficiencies.items(),
                     key=lambda kv: (-(kv[1] if kv[1] is not None else -1.0)))
    points: List[CascadePoint] = []
    prefix: List[Optional[float]] = []
    for name, value in ordered:
        prefix.append(value)
        points.append(CascadePoint(
            platforms=len(prefix),
            added_platform=name,
            phi_paper=phi_paper(prefix),
            pp_pennycook=pp_pennycook(prefix),
        ))
    return Cascade(model=model, points=tuple(points))


def render_cascades(cascades: Sequence[Cascade]) -> str:
    """Side-by-side cascade table for several models."""
    if not cascades:
        return "(no cascades)"
    headers = ["platforms added"]
    for c in cascades:
        headers += [f"{c.model} Phi", f"{c.model} PP"]
    n = max(len(c.points) for c in cascades)
    rows: List[List[object]] = []
    for i in range(n):
        # label the row by the platform each model adds at this rank
        labels = {c.points[i].added_platform for c in cascades
                  if i < len(c.points)}
        label = f"{i + 1}: " + "/".join(sorted(labels))
        row: List[object] = [label]
        for c in cascades:
            if i < len(c.points):
                row += [f"{c.points[i].phi_paper:.3f}",
                        f"{c.points[i].pp_pennycook:.3f}"]
            else:
                row += ["", ""]
        rows.append(row)
    # Rendering borrows the harness table; ``core`` imports nothing from
    # ``harness`` at module level (see DESIGN.md, "Layering").
    from ..harness.report import ascii_table

    return ascii_table(headers, rows)
