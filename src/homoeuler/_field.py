"""Separable evaluation of the velocity, vorticity and pressure fields.

A global solution has stream function Psi = r^lam psi(theta), so a field
on a polar tensor grid is one angular profile pass and one radial power
pass, combined cell by cell.  field_grid is the single route from the
stored profile to the field: assemble.field_at, assemble.export_grid and
the CSV writer of the command line all evaluate through it.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ._mesh import hermite_pair
from .core import power0

TWO_PI = 2.0 * math.pi


def field_grid(g, rs, thetas):
    """Field on the tensor grid rs x thetas, using Psi = r^lam psi(theta).

    The angular pass runs once per ray: it locates the piece, interpolates
    psi and psi' (one vectorised Hermite call per piece) and takes psi''
    from the phase ODE.  The radial pass runs once per radius: r^(lam - 1).
    Every cell is then an outer product of the two, evaluated in the same
    operation order as a one-point evaluation, so a cell does not depend on
    the grid it belongs to.  cos, sin and pow stay scalar math calls, as in
    a one-point evaluation: np.power differs from math.pow in the last bit
    for some inputs, which would change the exported digits.

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
    ct, st = np.empty(n_t), np.empty(n_t)
    psi, dpsi, dd = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)
    singular = np.zeros(n_t, dtype=bool)
    offsets = [p.offset for p in g.pieces]
    rays = [([], []) for _ in g.pieces]
    for k, theta in enumerate(thetas.tolist()):
        t = math.fmod(theta, TWO_PI)
        if t < 0.0:
            t += TWO_PI
        ct[k], st[k] = math.cos(t), math.sin(t)
        i = max(bisect_right(offsets, t) - 1, 0)
        arc = g.pieces[i].arc
        tau = min(max(t - g.pieces[i].offset, 0.0), arc.span)
        if arc.endpoint_slope == math.inf and (
                tau < 1e-12 or arc.span - tau < 1e-12):
            singular[k] = True
        else:
            rays[i][0].append(k)
            rays[i][1].append(tau)
    beta = (lam - 2.0) / lam
    for piece, (ks, taus) in zip(g.pieces, rays):
        if not ks:
            continue
        B, sign = piece.arc.params.B, piece.sign
        pv, dv = hermite_pair(np.array(taus), *piece.arc.profile.T)
        for k, psi_u, d in zip(ks, pv.tolist(), dv.tolist()):
            psi_u = max(psi_u, 0.0)
            psi[k] = sign * psi_u
            dpsi[k] = sign * d
            if psi_u > 0.0 or B == 0.0 or lam >= 2.0:
                pw = power0(psi_u, beta) if B != 0.0 else 0.0
                dd[k] = sign * (-lam * lam * psi_u
                                + (lam - 1.0) / lam * B * pw)
            else:
                # junction ray, 1 < lam < 2: the curvature term diverges
                dd[k] = math.copysign(math.inf, sign * B)
    rl = np.array([math.pow(r, lam - 1.0) for r in rs.tolist()])[:, None]
    r = rs[:, None]
    u_tau = lam * rl * psi
    u_nu = -rl * dpsi
    shape = (rs.shape[0], n_t)
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
