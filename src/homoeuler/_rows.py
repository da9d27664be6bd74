"""Row-batched Gauss-Kronrod quadrature: the spans of many rows of a
period-scan table as one NumPy computation.

The scalar kernels in _kernels evaluate one node per Python call.  Here the
array integrands take the nodes of many panels of many rows at once: an
array integrand f(x, rows) takes the nodes x of k panels as a (k, 15) array
and the row each panel belongs to as a (k,) index array, and gathers its
per-row constants by that index.  period_rows and hyp_rows are the array
forms of _kernels.period_integrand and hyp_integrand, built from the same
per-row arguments; they agree with them to a few ulps, since NumPy's exp,
expm1, log1p and power are not math's.  A near-centre row (the series
_kernels.centre_integrand; mostly one per table, next to its centre) takes
span_any's scalar quadrature, and so its bits.
Numerical errors (an overflowing power, 0/0 at a node on an end) give inf
or nan as NumPy defines them; adaptive_gk_rows evaluates the integrands
under np.errstate(all="ignore").  Where the scalar integrands return inf
for a nan radicand, these return nan, which fails the row.

adaptive_gk_rows refines every row to its own target, as adaptive_gk does
one span, and span_rows, period-scan's entry, routes each row by
span_any's own route and falls back to span_any where anything fails.
"""

from __future__ import annotations

import array
import math

import numpy as np

from . import periods
from ._kernels import _WG, _WGK, _XGK, _about_u1
from .core import FlowParams
from .errors import QuadratureFailure
from .periods import SpanResult

# the 15 Kronrod nodes of [-1, 1] in increasing order with their weights,
# and the 7 Gauss weights of its odd-indexed nodes
_XK15 = np.array([-x for x in _XGK[:7]] + list(_XGK[7::-1]))
_WK15 = np.array(_WGK[:7] + _WGK[7::-1])
_WG7 = np.array(_WG[:3] + _WG[3::-1])


def period_rows(args):
    """period_integrand of each row (lam2, C, beta, u1) of the array args,
    as one array integrand.

    cos z is taken as sin(pi/2 - z), so the nodes need one sine, and
    e^(-beta u) as 1/(1 + expm1(beta u)), so every exponential of both
    forms of V comes from one expm1 of three stacked arguments."""
    k = np.array([a + _about_u1(*a) for a in map(tuple, args.tolist())])
    hpi = 0.5 * math.pi

    def f(x, rows):
        lam2, cc, beta, u1, a1, c1 = k[rows].T[:, :, None]
        ex = np.empty((3,) + x.shape)
        t = ex[:2]
        np.subtract(hpi, x, out=t[0])
        np.add(hpi, x, out=t[1])
        t *= 0.5
        np.sin(t, out=t)
        t *= t
        t *= u1
        d1, d0 = t                 # u1 - u and u, each exact at its end
        near = d0 <= d1            # V formed about u = 0, else about u1
        np.multiply(d0, d1, out=x)
        # ex = (-+2 d, beta d, (beta - 2) d), d the smaller of d0 and d1
        np.minimum(d0, d1, out=ex[2])
        np.multiply(ex[2], 2.0, out=ex[0])
        np.negative(ex[0], out=ex[0], where=near)
        np.multiply(ex[2], beta, out=ex[1])
        ex[2] *= beta - 2.0
        e2, eb, eg = np.expm1(ex, out=ex)
        # about 0: lam2 expm1(-2 d) - C expm1((beta - 2) d)/(1 + expm1(beta d))
        v = eb + 1.0
        eg /= v
        eg *= cc
        np.multiply(e2, lam2, out=v)
        v -= eg
        # about u1: A1 expm1(2 d) + C1 expm1(beta d)
        e2 *= a1
        eb *= c1
        e2 += eb
        np.copyto(e2, v, where=near)
        e2 /= x
        # 1/sqrt, inf where V <= 0 (nan stays nan)
        np.copyto(e2, 0.0, where=e2 <= 0.0)
        np.sqrt(e2, out=e2)
        return np.divide(1.0, e2, out=e2)
    return f


def hyp_rows(args):
    """hyp_integrand of each row (lam2, C, alpha, d0) of the array args,
    as one array integrand."""
    k = args
    hpi = 0.5 * math.pi

    def f(x, rows):
        lam2, cc, alpha, d0 = k[rows].T[:, :, None]
        t = np.empty((2,) + x.shape)
        np.subtract(hpi, x, out=t[0])
        t[0] *= 0.5
        t[1] = x
        u, xi = np.sin(t, out=t)
        u *= u
        u *= 2.0                   # 1 - sin(phi), exact near phi = pi/2
        # xi <= 1/2: D = (d0 - lam2 xi^2 + C xi^alpha)/(1 - xi)
        far = np.power(xi, alpha, out=x)
        far *= cc
        far += d0
        w = xi * xi
        w *= lam2
        far -= w
        np.subtract(1.0, xi, out=w)
        far /= w
        # xi > 1/2: D = lam2 (2 - u) + C expm1(alpha log1p(-u))/u
        np.negative(u, out=xi)
        np.log1p(xi, out=xi)
        xi *= alpha
        np.expm1(xi, out=xi)
        xi /= u
        xi *= cc
        np.subtract(2.0, u, out=w)
        np.copyto(far, xi, where=u < 0.5)
        np.add(w * lam2, far, out=far, where=u < 0.5)
        # q_alpha(0) = alpha where u = 0
        np.copyto(far, 2.0 * lam2 - cc * alpha, where=u == 0.0)
        np.copyto(far, 0.0, where=far <= 0.0)
        w /= far                   # inf where D <= 0
        return np.sqrt(w, out=w)
    return f


# panels per integrand call of _gk_rows.  The integrands hold about five
# (panels, 15) arrays at once: 64 panels keep that near 40 kB, within the
# heap a census job has already grown, where whole rounds of 400 panels
# raised the peak RSS of a survey pass by 0.3-0.4 MB (2-CPU x86-64)
_CHUNK = 64


def _gk_rows(f, a, b, rows):
    """One G7/K15 panel on each [a[i], b[i]] of rows[i]: (kronrod,
    |kronrod - gauss|) as arrays, the integrand evaluated _CHUNK panels at
    a time; it may overwrite the nodes it is given."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    resk = np.empty(a.shape)
    resg = np.empty(a.shape)
    for i in range(0, a.shape[0], _CHUNK):
        j = i + _CHUNK
        x = hw[i:j, None] * _XK15
        x += c[i:j, None]
        y = f(x, rows[i:j])
        resg[i:j] = (y[:, 1::2] * _WG7).sum(1)
        y *= _WK15
        resk[i:j] = y.sum(1)
    return resk * hw, np.abs(resk - resg) * hw


def adaptive_gk_rows(f, a, b, tol, max_panels):
    """Adaptive Gauss-Kronrod of the array integrand f on [a, b] for every
    row of tol at once, each to its own target tol[i].

    Each round evaluates the new panels of every unfinished row as one
    array.  A row is finished once the sum S of its panels' estimates is
    at most its tol, as in adaptive_gk; otherwise every panel of the row
    with an estimate above tol/n (n its panels) is bisected, so at least
    the worst one is.  A row fails, and stops with its S > tol, where the
    bisections would take it past max_panels, or a panel to bisect is
    narrower than the machine spacing; a nan S fails it too.

    Returns (values, estimates): per row the sums of its panels' values
    and estimates.  Where estimates[i] <= tol[i] fails, the row failed.

    The bookkeeping takes counts as floats and masks from comparisons
    alone: integer and boolean array arithmetic would run NumPy loops
    that nothing else in a period-scan touches, and each maps pages of
    its own (about 0.3 MB for a first scan, measured by the peak RSS).
    """
    with np.errstate(all="ignore"):
        return _adaptive_rows(f, float(a), float(b), tol, max_panels)


def _adaptive_rows(f, a, b, tol, max_panels):
    n_rows = tol.shape[0]
    rows = np.arange(n_rows)
    pa = np.full(n_rows, a)
    pb = np.full(n_rows, b)
    pv, pe = _gk_rows(f, pa, pb, rows)
    values = np.zeros(n_rows)
    estimates = np.zeros(n_rows)
    while True:
        one = np.ones(rows.shape[0])
        est = np.bincount(rows, pe, n_rows)
        n = np.bincount(rows, one, n_rows)
        thr = (tol / n)[rows]
        split = pe > thr
        r2 = rows[split]
        # the panels each row would have after this round; inf where no
        # panel is above tol/n or one to bisect is narrower than the
        # machine spacing
        add = np.bincount(r2, one[split], n_rows)
        n += add
        np.copyto(n, math.inf, where=add <= 0.0)
        mid = 0.5 * (pa + pb)
        room = np.minimum(mid - pa, pb - mid)
        n[r2[room[split] <= 0.0]] = math.inf
        # 1 where the row is finished (S <= tol, or nan) or fails
        stop = np.where(est > tol, 0.0, 1.0)
        np.copyto(stop, 1.0, where=n > max_panels)
        stop = stop[rows]
        end = rows[stop > 0.5]
        if end.size:
            values += np.bincount(end, pv[stop > 0.5], n_rows)
            estimates[end] = est[end]
            keep = stop < 0.5
            rows, pa, pb, pv, pe, thr, mid = (
                rows[keep], pa[keep], pb[keep], pv[keep], pe[keep],
                thr[keep], mid[keep])
            if not rows.size:
                return values, estimates
            split = pe > thr
            r2 = rows[split]
        # the left halves replace the split panels, the right ones follow
        a2 = np.concatenate((pa[split], mid[split]))
        b2 = np.concatenate((mid[split], pb[split]))
        v2, e2 = _gk_rows(f, a2, b2, np.concatenate((r2, r2)))
        keep = pe <= thr           # not split: no nan is left here
        rows = np.concatenate((rows[keep], r2, r2))
        pa = np.concatenate((pa[keep], a2))
        pb = np.concatenate((pb[keep], b2))
        pv = np.concatenate((pv[keep], v2))
        pe = np.concatenate((pe[keep], e2))


# the array form of each integrand kind of periods._plan
_ARRAY = {
    periods._ELLIPTIC: period_rows,
    periods._ARCH: lambda args: periods._arch(hyp_rows(args)),
}


def span_rows(lam: float, ps, B: float) -> list:
    """span_any(FlowParams(lam, P, B)) at each pressure P of ps, in order,
    with the quadratures of all rows evaluated together.

    Each row is routed by span_any's own periods._route: its closed forms
    and refusals, and for a quadrature its (lam, P, B), turning points,
    target and conjugation scale.  A quadrature row is set up by
    periods._plan; a near-centre row is integrated there by
    periods._quadrature, and the rows of each other integrand kind go
    through one adaptive_gk_rows call, each to its own target and panel
    budget, and each row then through periods._finish.  Where any row
    raises, or its batched quadrature fails, the rows are evaluated again
    in order by span_any, so the exception is the one a loop over span_any
    raises, at its row.
    """
    try:
        return _batch(*_setup(lam, ps, B))
    except Exception:
        return [periods.span_any(FlowParams(lam, P, B)) for P in ps]


def _setup(lam: float, ps, B: float):
    """(out, jobs): the closed-form and near-centre rows of the table in
    out, and per integrand kind the rows that take a batched quadrature,
    set up."""
    out = [None] * len(ps)
    # kind -> (row indices, flat integrand arguments, the route of each
    # row): the arguments as an array of doubles, not per-row tuples, keep
    # the working set of a scan small
    jobs = {}
    for i, P in enumerate(ps):
        route = periods._route(FlowParams(lam, P, B))
        r, scale = route
        if isinstance(r, SpanResult):
            out[i] = periods._scaled(r, scale)
            continue
        q_lam, q_P, q_B, ic, _tol = r
        kind, a = periods._plan(q_lam, q_P, q_B, ic)
        if kind not in _ARRAY:
            out[i] = periods._scaled(periods._quadrature(*r), scale)
            continue
        if kind not in jobs:
            jobs[kind] = ([], array.array("d"), [])
        rows, args, routes = jobs[kind]
        rows.append(i)
        args.extend(a)
        routes.append(route)
    return out, jobs


def _batch(out: list, jobs: dict) -> list:
    """out with the rows of jobs filled in by one batched quadrature per
    integrand kind."""
    for kind, (rows, args, routes) in jobs.items():
        args = np.frombuffer(args).reshape(len(rows), -1)
        half = [0.5 * r[4] for r, _scale in routes]
        v, e = adaptive_gk_rows(_ARRAY[kind](args), kind.a, kind.b,
                                np.array(half), periods._MAX_PANELS)
        for i, vi, ei, t, ((q_lam, q_P, q_B, _ic, _tol), scale) in zip(
                rows, v.tolist(), e.tolist(), half, routes):
            if not ei <= t:
                raise QuadratureFailure("a batched quadrature failed")
            r = periods._finish(q_lam, q_P, q_B, vi, ei, 0, kind.method)
            out[i] = periods._scaled(r, scale)
    return out
