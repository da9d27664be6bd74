"""Parameter domain, phase-plane Hamiltonian, steady state, conjugacy.

A homogeneous stationary 2D Euler flow has stream function Psi = r^lam psi(theta)
and pressure p = r^(2 lam - 2) P.  In phase variables (x, y) = (psi, psi') the
angular profile solves the autonomous system

    x' = y,    y' = -lam^2 x + ((lam - 1)/lam) B x^((lam-2)/lam),

on the half-plane {x >= 0}, with Hamiltonian

    P = -y^2/2 - lam^2 x^2 / 2 + (B/2) x^((2 lam - 2)/lam),

where B is the Bernoulli constant of the orbit.  Everything here is a pure
function of its inputs; all values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "FlowParams",
    "PhaseState",
    "SteadyStateInfo",
    "power0",
    "pressure_hamiltonian",
    "steady_state",
    "conjugate",
    "phase_vector_field",
]


@dataclass(frozen=True)
class FlowParams:
    """Parameter triple (lam, P, B) of one solution family.

    Attributes
    ----------
    lam : float
        Homogeneity of the stream function, lam > 0.
    P : float
        Pressure constant.
    B : float
        Bernoulli constant.
    """

    lam: float
    P: float
    B: float

    def __post_init__(self):
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise DomainError(f"lam must be a positive real, got {self.lam}")
        if not (math.isfinite(self.P) and math.isfinite(self.B)):
            raise DomainError("P and B must be finite")

    @property
    def q(self) -> float:
        """Velocity homogeneity q = lam - 1 (exact)."""
        return self.lam - 1.0


@dataclass(frozen=True)
class PhaseState:
    """Point (x, y) = (psi, psi') in the right half-plane x >= 0."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x >= 0.0):
            raise DomainError(f"phase state requires x >= 0, got x = {self.x}")


@dataclass(frozen=True)
class SteadyStateInfo:
    """Center of the elliptic region: abscissa x_s and its pressure P_max."""

    x_s: float
    P_max: float


def power0(x: float, alpha: float) -> float:
    """x**alpha for x >= 0 with an explicit branch at x = 0.

    Returns 0 for alpha > 0, 1 for alpha = 0, and raises DomainError for
    alpha < 0 when x = 0; avoids platform-dependent pow(0, negative).
    """
    if x > 0.0:
        # exp(alpha*log x) in double precision; math.pow does exactly this.
        return math.pow(x, alpha)
    if x == 0.0:
        if alpha > 0.0:
            return 0.0
        if alpha == 0.0:
            return 1.0
        raise DomainError("0**alpha diverges for alpha < 0")
    raise DomainError(f"negative base in real power: {x}")


def pressure_hamiltonian(s: PhaseState, lam: float, B: float) -> float:
    """Pressure Hamiltonian P(x, y) = -y^2/2 - lam^2 x^2/2 + (B/2) x^alpha.

    alpha = (2 lam - 2)/lam.  Constant along any orbit of the phase system.

    Raises
    ------
    DomainError
        If s.x = 0 while lam < 1 and B != 0 (the power term diverges).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    alpha = 2.0 - 2.0 / lam
    if s.x == 0.0 and alpha < 0.0 and B != 0.0:
        raise DomainError("x = 0 is singular for lam < 1 with B != 0")
    pw = power0(s.x, alpha) if B != 0.0 else 0.0
    return -0.5 * s.y * s.y - 0.5 * lam * lam * s.x * s.x + 0.5 * B * pw


def steady_state(lam: float, B: float) -> SteadyStateInfo:
    """Center (x_s, 0) of the elliptic region and its pressure P_max.

    x_s = (B (lam-1)/lam^3)^(lam/2) for B > 0, lam > 1; P_max is the
    Hamiltonian there.  P_max = (1/(2 lam)) ((lam-1)/lam^3)^(lam-1) at B = 1
    and scales as |B|^lam.

    Raises
    ------
    DomainError
        If lam <= 1 (no interior center), B <= 0, or lam^3 overflows a
        double (lam above about 5.6e102).
    """
    if not lam > 1.0:
        raise DomainError("steady state requires lam > 1")
    if not B > 0.0:
        raise DomainError("steady state requires B > 0")
    try:
        lam3 = lam ** 3
    except OverflowError:
        raise DomainError(f"steady state of lam={lam!r}: lam**3 overflows"
                          " a double") from None
    base = (lam - 1.0) / lam3
    x_s = math.pow(B * base, 0.5 * lam)
    # P_max = lam^2/(2 (lam-1)) * x_s^2, stable for x_s far below 1.
    p_max = lam * lam / (2.0 * (lam - 1.0)) * x_s * x_s
    return SteadyStateInfo(x_s=x_s, P_max=p_max)


def conjugate(p: FlowParams) -> FlowParams:
    """Conjugacy transform (lam, P, B) -> (1/lam, -B/(2 lam^4), -2 P/lam^4).

    An exact involution; spans satisfy T_lam(P, B) = (1/lam)^-1-scaled:
    T_lam(P, B) = lam~ * T_lam~(P~, B~) with lam~ = 1/lam.
    """
    l4 = p.lam ** 4
    return FlowParams(1.0 / p.lam, -p.B / (2.0 * l4), -2.0 * p.P / l4)


def phase_vector_field(s: PhaseState, lam: float, B: float) -> tuple[float, float]:
    """Right-hand side (x', y') of the phase system.

    x' = y, y' = -lam^2 x + ((lam-1)/lam) B x^((lam-2)/lam).

    Raises
    ------
    DomainError
        If s.x = 0 while the power term is singular (lam < 2, B != 0).
    """
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    beta = (lam - 2.0) / lam
    if s.x == 0.0 and beta < 0.0 and B != 0.0:
        raise DomainError("x = 0 is singular for lam < 2 with B != 0")
    pw = power0(s.x, beta) if B != 0.0 else 0.0
    dy = -lam * lam * s.x + (lam - 1.0) / lam * B * pw
    return (s.y, dy)
