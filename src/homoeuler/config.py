"""Run configuration of the construct command."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = ["RunConfig", "check_arc_count"]


# fewest profile samples an arc may carry
MIN_POINTS_PER_ARC = 64

# (field, accepted types, kind) for every RunConfig field, checked before
# LIMITS; bool is refused although it is an int
TYPES = (
    ("root_tol", (int, float), "a real number"),
    ("points_per_arc", int, "an integer"),
    ("output", (str, type(None)), "a string or null"),
    ("max_arcs", int, "an integer"),
)

# (field, test, limit) for every bounded RunConfig field; the CLI checks its
# flags against the same table so both name the same limit
LIMITS = (
    ("root_tol", lambda v: v > 0.0, "must be positive"),
    ("points_per_arc", lambda v: v >= MIN_POINTS_PER_ARC,
     f"must be at least {MIN_POINTS_PER_ARC}"),
    ("max_arcs", lambda v: v >= 1, "must be at least 1"),
)


def check_arc_count(n: int, max_arcs: int) -> None:
    """Refuse a solution of n arcs unless 1 <= n <= max_arcs."""
    if not 1 <= n <= max_arcs:
        raise DomainError(f"need between 1 and {max_arcs} arcs, got {n}")


@dataclass(frozen=True)
class RunConfig:
    """Root tolerance, sampling density, output path and arc cap.

    Each field reaches a numerical call or the output: root_tol the elliptic
    and span root solves, points_per_arc the arc builders, max_arcs the
    stitcher, and output names the solution file.  Both solves stop on
    Brent's x tolerance, so root_tol is not a stopping rule but the gate
    each root must pass: |T - 2 pi/n| <= root_tol for the elliptic root (in
    ln P) and |T - target| <= root_tol for the span root (in B).
    """

    root_tol: float = 1e-10
    points_per_arc: int = 512
    output: str | None = None  # None means standard output
    max_arcs: int = 64

    def __post_init__(self):
        for name, types, kind in TYPES:
            v = getattr(self, name)
            if not isinstance(v, types) or isinstance(v, bool):
                raise DomainError(f"{name} must be {kind}, got {v!r}")
        for name, ok, limit in LIMITS:
            if not ok(getattr(self, name)):
                raise DomainError(f"{name} {limit}")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        """Load a JSON config file holding any subset of the field names."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as e:
            raise DomainError(
                f"cannot load config file {path!r}: {e}") from None
        if not isinstance(data, dict):
            raise DomainError(
                f"config file {path!r} must hold a JSON object, got"
                f" {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        data.update(overrides)
        return cls(**data)
