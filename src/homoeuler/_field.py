"""Separable evaluation of the velocity, vorticity and pressure fields.

A global solution has stream function Psi = r^lam psi(theta), so a field
on a polar tensor grid is one angular profile pass and one radial power
pass, combined cell by cell.  field_grid is the single route from the
stored profile to the field: assemble.field_at, assemble.export_grid and
the CSV writer of the command line all evaluate through it.  The angular
pass is array work piece by piece, with scalar cos, sin and pow; a radius
whose power overflows gives inf and nan cells, which the CSV writer
leaves empty.
"""

from __future__ import annotations

import math

import numpy as np

from ._mesh import hermite_pair
from .core import power0

TWO_PI = 2.0 * math.pi


def _radial_power(r: float, q: float) -> float:
    """r^q for r > 0; inf where the power overflows a double."""
    try:
        return math.pow(r, q)
    except OverflowError:
        return math.inf


def field_grid(g, rs, thetas):
    """Field on the tensor grid rs x thetas, using Psi = r^lam psi(theta).

    The angular pass is array work over the rays: np.fmod and the < 0 wrap
    reduce each angle to [0, 2 pi), np.searchsorted(side="right") finds its
    piece and np.maximum/np.minimum clip it into the arc, piece by piece,
    as bisect_right, max and min do for one point; psi and psi' come from
    one vectorised Hermite call per piece and psi'' from the phase ODE.
    The radial pass runs once per radius: r^(lam - 1), inf where it
    overflows.  Every cell is then an outer product of the two, evaluated
    in the same operation order as a one-point evaluation, so a cell does
    not depend on the grid it belongs to.  cos, sin and pow stay scalar
    math calls, as in a one-point evaluation: np.power differs from
    math.pow in the last bit for some inputs, which would change the
    exported digits.  Cells that overflow are inf or nan, without numpy
    warnings.

    Returns (singular, cells): singular is a bool array over thetas marking
    cusp junction rays, and cells maps each FieldSample field from x to
    pressure, in field order, to a (len(rs), len(thetas)) array.  Columns
    of singular rays hold no meaningful values.  All pieces share g.lam and
    g.P; every rs must be positive.
    """
    lam, P = g.lam, g.P
    rs = np.asarray(rs, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    n_t = thetas.shape[0]
    t = np.fmod(thetas, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    ts = t.tolist()
    ct = np.array([math.cos(x) for x in ts])
    st = np.array([math.sin(x) for x in ts])
    psi, dpsi, dd = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)
    singular = np.zeros(n_t, dtype=bool)
    offsets = np.array([p.offset for p in g.pieces])
    which = np.maximum(np.searchsorted(offsets, t, side="right") - 1, 0)
    beta = (lam - 2.0) / lam
    c_psi, c_pow = -lam * lam, (lam - 1.0) / lam
    for i, piece in enumerate(g.pieces):
        arc = piece.arc
        ks = np.flatnonzero(which == i)
        tau = np.minimum(np.maximum(t[ks] - piece.offset, 0.0), arc.span)
        if arc.endpoint_slope == math.inf:
            cusp = (tau < 1e-12) | (arc.span - tau < 1e-12)
            singular[ks[cusp]] = True
            ks, tau = ks[~cusp], tau[~cusp]
        if not ks.size:
            continue
        B, sign = arc.params.B, piece.sign
        pv, dv = hermite_pair(tau, *arc.profile.T)
        psi_u = np.maximum(pv, 0.0)
        psi[ks] = sign * psi_u
        dpsi[ks] = sign * dv
        # on junction rays with 1 < lam < 2 (psi = 0, B != 0) the
        # curvature term diverges
        live = (psi_u > 0.0) | (B == 0.0) | (lam >= 2.0)
        pw = (np.array([power0(x, beta) for x in psi_u[live].tolist()])
              if B != 0.0 else 0.0)
        dd[ks[live]] = sign * (c_psi * psi_u[live] + c_pow * B * pw)
        dd[ks[~live]] = math.copysign(math.inf, sign * B)
    rl = np.array([_radial_power(r, lam - 1.0) for r in rs.tolist()])[:, None]
    r = rs[:, None]
    shape = (rs.shape[0], n_t)
    with np.errstate(over="ignore", invalid="ignore"):
        u_tau = lam * rl * psi
        u_nu = -rl * dpsi
        cells = {
            "x": r * ct,
            "y": r * st,
            "u_x": u_nu * ct - u_tau * st,
            "u_y": u_nu * st + u_tau * ct,
            "u_tau": u_tau,
            "u_nu": u_nu,
            "psi": np.broadcast_to(psi, shape),
            "stream": rl * r * psi,
            "vorticity": np.where(np.isinf(dd), dd,
                                  (rl / r) * (lam * lam * psi + dd)),
            "pressure": np.broadcast_to(rl * rl * P, shape),
        }
    return singular, cells
