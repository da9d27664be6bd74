"""Run configuration of the construct command."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = ["RunConfig"]


# fewest profile samples an arc may carry
MIN_POINTS_PER_ARC = 64


@dataclass(frozen=True)
class RunConfig:
    """Root tolerance, sampling density, output path and arc cap.

    Each field reaches a numerical call or the output: root_tol the elliptic
    and span root solves, points_per_arc the arc builders, max_arcs the
    stitcher, and output names the solution file.
    """

    root_tol: float = 1e-10
    points_per_arc: int = 512
    output: str | None = None  # None means standard output
    max_arcs: int = 64

    def __post_init__(self):
        if self.points_per_arc < MIN_POINTS_PER_ARC:
            raise DomainError(
                f"points_per_arc must be at least {MIN_POINTS_PER_ARC}")
        if not self.root_tol > 0.0:
            raise DomainError("root_tol must be positive")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        """Load a JSON config file holding any subset of the field names."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        data.update(overrides)
        return cls(**data)
