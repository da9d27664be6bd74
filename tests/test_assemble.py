"""Arc building, stitching, flux/energy diagnostics, field evaluation."""

import math
import re
from bisect import bisect_right

import numpy as np
import pytest

from homoeuler import DomainError, assemble
from homoeuler._mesh import deriv5, hermite_pair, simpson_uniform
from homoeuler.assemble import (
    FieldSample,
    GlobalSolution,
    GridSpec,
    LocalArc,
    Piece,
    SmoothnessKind,
    bernoulli_drift,
    elliptic_arc,
    elliptic_global,
    energy_flux,
    export_grid,
    field_at,
    global_profile,
    h1_seminorm,
    hyperbolic_arc,
    residual_max,
    stitch,
    weak_residuals,
)
from homoeuler.classify import (
    solution_type,
    solve_elliptic,
    solve_hyperbolic_span,
)
from homoeuler.core import FlowParams, power0, steady_state
from homoeuler.errors import (
    InadmissibleArc,
    NumericalError,
    OnSingularRay,
    QuadratureFailure,
    SpanMismatch,
)
from homoeuler.families import ode_residual, point_vortex
from homoeuler.orbits import find_intercepts, integrate_orbit
from homoeuler.periods import span_any

TWO_PI = 2.0 * math.pi

# Bernoulli constants whose arcs tile exactly, from the span solver:
# B_06/B_04 give spans 0.6 pi and 0.4 pi at lam = 3, P = -1; B_CUSP gives
# span 2 pi/3 at lam = 2/3, P = 1
B_06 = 9.210963274529362
B_04 = 2.5302339644026546
B_CUSP = 3.5002473317585845

# sum over the three cusp arcs of 2 int_0^x0 sqrt(R) dx, adaptive quadrature
# on the closed-form radicand (abs err ~4e-10)
H1_CUSP3 = 20.913585088158126


def harmonic4():
    return stitch(2.0, -0.5, [(0.0, 1), (0.0, -1), (0.0, 1), (0.0, -1)])


def lam3(signs=(1, -1, 1, -1), **kw):
    specs = [(B_06, signs[0]), (B_04, signs[1]), (B_06, signs[2]),
             (B_04, signs[3])]
    return stitch(3.0, -1.0, specs, **kw)


def cusp3(signs=(1, -1, 1)):
    return stitch(2.0 / 3.0, 1.0, [(B_CUSP, s) for s in signs])


def profile_arrays(arc):
    prof = np.array(arc.profile)
    return prof[:, 0], prof[:, 1], prof[:, 2]


class TestLocalArc:
    def test_arch_symmetry_bit_exact(self):
        arc = hyperbolic_arc(3.0, -1.0, 4.0)
        _th, psi, dpsi = profile_arrays(arc)
        assert np.array_equal(psi, psi[::-1])
        assert np.array_equal(dpsi, -dpsi[::-1])

    def test_endpoint_structure(self):
        arc = hyperbolic_arc(3.0, -1.0, 4.0)
        _th, psi, dpsi = profile_arrays(arc)
        assert psi[0] == 0.0 and psi[-1] == 0.0
        assert np.all(psi[1:-1] > 0.0)
        root2 = math.sqrt(2.0)
        assert arc.endpoint_slope == pytest.approx(root2, rel=1e-14)
        assert dpsi[0] == pytest.approx(root2, rel=1e-14)
        assert dpsi[-1] == pytest.approx(-root2, rel=1e-14)

    @pytest.mark.parametrize("builder,args", [
        (hyperbolic_arc, (3.0, -1.0, 4.0)),
        (hyperbolic_arc, (2.0, -1.0, math.sqrt(32.0))),
        (hyperbolic_arc, (2.0 / 3.0, 1.0, B_CUSP)),
        (elliptic_arc, (2.0, 1.5, 8.0)),
    ])
    def test_bernoulli_constant_along_profile(self, builder, args):
        assert bernoulli_drift(builder(*args)) <= 1e-9

    def test_mesh_weights_consistent(self):
        arc = hyperbolic_arc(3.0, -1.0, 4.0)
        w = np.asarray(arc.mesh_dtheta)
        assert w.shape[0] == len(arc.profile)
        assert np.array_equal(w, w[::-1])
        assert np.all(w >= 0.0)
        # Simpson over the node index recovers the span
        assert simpson_uniform(w) == pytest.approx(arc.span, rel=1e-9)

    @pytest.mark.parametrize("B,lam", [
        (B, lam) for B in (4.0, -1.0) for lam in (2.0, 2.5, 3.0, 5.0, 13.0)]
        + [(400.0, 2.0)])
    def test_span_matches_integrated_arch(self, lam, B):
        # the (x, y) integration from the apex shares no code with the
        # turning-point quadrature that builds the arc; at B = 400 the terms
        # of H are 2e4 times P, which the drift check must allow for
        p = FlowParams(lam, -1.0, B)
        orbit = integrate_orbit(p, find_intercepts(p).x0)
        span = hyperbolic_arc(lam, -1.0, B).span
        assert abs(span - orbit.measured_span) <= 1e-9

    @pytest.mark.parametrize("lam", [2.0, 2.5, 3.0, 5.0])
    def test_mesh_weights_match_theta_differences(self, lam):
        # the mesh is smooth in the node index across the apex, so the
        # stored d theta/dk agrees with differenced theta at every interior
        # node, the apex included
        arc = hyperbolic_arc(lam, -1.0, 4.0)
        th = arc.profile[:, 0]
        dev = np.abs(arc.mesh_dtheta - deriv5(th))[1:-1]
        assert dev.max() <= 1e-6 * arc.span / (len(th) - 1)

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_apex_weight_is_the_analytic_limit(self, lam):
        # d theta/d phi = cos(phi)/sqrt(ud) is a 0/0 at the apex, with the
        # limit 1/sqrt(lam^2 - alpha C/2), C = B x0^(-2/lam); d phi/dk there
        # is pi/(2m) on the uniform lam = 2 mesh and pi/m on the
        # phi = (pi/2)(s - sin(pi s)/pi) mesh of lam > 2
        B = 4.0
        arc = hyperbolic_arc(lam, -1.0, B)
        m = (len(arc.profile) - 1) // 2
        x0 = find_intercepts(FlowParams(lam, -1.0, B)).x0
        alpha = 2.0 - 2.0 / lam
        C = B * x0 ** (-2.0 / lam)
        dphi = (0.5 if lam == 2.0 else 1.0) * math.pi / m
        limit = dphi / math.sqrt(lam * lam - 0.5 * alpha * C)
        assert arc.mesh_dtheta[m] == pytest.approx(limit, rel=1e-8)

    def test_cusp_arc(self):
        arc = hyperbolic_arc(2.0 / 3.0, 1.0, B_CUSP)
        th, psi, dpsi = profile_arrays(arc)
        assert arc.endpoint_slope == math.inf
        # axis nodes are excluded below lam = 1; kept nodes stay positive
        assert np.all(psi > 0.0)
        assert np.array_equal(psi, psi[::-1])
        assert arc.span == pytest.approx(TWO_PI / 3.0, abs=1e-9)
        # end gradings are steeper than double spacing: theta may repeat to
        # the last ulp there, which is why mesh_dtheta exists
        assert np.all(np.diff(th) >= 0.0)

    def test_elliptic_arc_matches_closed_form(self):
        arc = elliptic_arc(2.0, 1.5, 8.0)
        th, psi, dpsi = profile_arrays(arc)
        assert arc.span == pytest.approx(math.pi, abs=1e-12)
        assert np.max(np.abs(psi - (1.0 + 0.5 * np.cos(2.0 * th)))) < 1e-9
        assert np.max(np.abs(dpsi + np.sin(2.0 * th))) < 1e-9
        assert psi.min() > 0.0

    def test_elliptic_arc_against_high_precision_reference(self):
        # lam = 10, n = 3 against a 20-digit Taylor-series solution of
        # psi'' = -lam^2 psi + ((lam - 1)/lam) psi^((lam - 2)/lam) from a
        # 20-digit outer turning point, at every 8th node of the half arc
        mp = pytest.importorskip("mpmath")
        lam = 10.0
        P = solve_elliptic(lam, 3).P_star
        th, psi, dpsi = profile_arrays(elliptic_arc(lam, P))
        with mp.workdps(20):
            L, Pm = mp.mpf(lam), mp.mpf(P)
            x1 = mp.findroot(
                lambda x: -2 * Pm - L * L * x * x + x ** (2 - 2 / L),
                mp.mpf(psi[0]))
            ref = mp.odefun(lambda t, s: [
                s[1], -L * L * s[0] + (L - 1) / L * s[0] ** ((L - 2) / L)],
                0, [x1, mp.mpf(0)])
            nodes = range(0, len(th) // 2 + 1, 8)
            rows = [[float(v) for v in ref(mp.mpf(th[k]))] for k in nodes]
        ref_psi, ref_dpsi = np.array(rows).T
        scale = psi.max()
        assert np.abs(psi[nodes] - ref_psi).max() <= 1e-11 * scale
        assert np.abs(dpsi[nodes] - ref_dpsi).max() <= 1e-10 * scale

    def test_inadmissible_parameters(self):
        with pytest.raises(InadmissibleArc):
            hyperbolic_arc(3.0, 1.0, 1.0)
        with pytest.raises(InadmissibleArc):
            hyperbolic_arc(0.4, 1.0, 2.0)

    @pytest.mark.parametrize("builder,args", [
        (hyperbolic_arc, (3.0, -1.0, 4.0)),
        (elliptic_arc, (5.0, 0.5 * steady_state(5.0, 1.0).P_max, 1.0)),
    ])
    def test_integrated_span_gate(self, monkeypatch, builder, args):
        # a span oracle 1e-8 off the span the builder measures must trip the
        # 1e-9 gate: theta accumulated over the mesh of a hyperbolic arc,
        # the integrated period of an elliptic one
        gate = {hyperbolic_arc: r"accumulated span \d\.\d+ and oracle span ",
                elliptic_arc: r"integrated span \d\.\d+ and quadrature span "}
        shifted = span_any(FlowParams(*args)).T + 1e-8
        monkeypatch.setattr(assemble, "_arc_span", lambda p: shifted)
        with pytest.raises(NumericalError,
                           match=gate[builder] + re.escape(repr(shifted))):
            builder(*args)

    def test_bernoulli_constant_where_the_power_overflows(self):
        # next to the separatrix at lam = 1.01 the apex x0 is about 1e-160,
        # so x0^(-2/lam) overflows a double while C = B x0^(-2/lam) does
        # not; the arc takes C from the span's own plan (its log fallback)
        for P, B in ((-2e-322, 1e-321), (-1e-320, 1e-318)):
            with pytest.raises(OverflowError):
                find_intercepts(FlowParams(1.01, P, B)).x0 ** (-2.0 / 1.01)
        arc = hyperbolic_arc(1.01, -2e-322, 1e-321)
        assert arc.span == span_any(FlowParams(1.01, -2e-322, 1e-321)).T
        # this arc's Bernoulli terms are subnormal (apex 1.4e-160), and its
        # drift is formed on the rescaled profile (bernoulli_drift)
        arc = hyperbolic_arc(1.01, -1e-320, 1e-318)
        assert arc.span == span_any(FlowParams(1.01, -1e-320, 1e-318)).T
        assert bernoulli_drift(arc) <= 1e-15

    @staticmethod
    def scaled_arc(arc, k):
        # the arc with psi, psi' times 2^k and P times 2^(2k); its Bernoulli
        # constant is B times 2^(2k/lam)
        lam, P, B = arc.params.lam, arc.params.P, arc.params.B
        th, psi, dpsi = arc.profile.T
        return LocalArc(
            FlowParams(lam, math.ldexp(P, 2 * k), B * 2.0 ** (2.0 * k / lam)),
            arc.span, np.column_stack((th, np.ldexp(psi, k),
                                       np.ldexp(dpsi, k))),
            arc.endpoint_slope, arc.mesh_dtheta)

    def test_bernoulli_drift_of_subnormal_terms(self):
        # formed directly on this arc, 2P + lam^2 psi^2 + psi'^2 has few
        # digits (a drift of 5.7e-5).  Formed at its own scale (2^530 here)
        # the drift is rounding, as on the same arrays scaled by 2^500,
        # whose terms are normal (1.874e-16 and 1.884e-16)
        arc = assemble._quad_arc(1.01, -1e-320, 1e-318, 512)
        drift = bernoulli_drift(arc)
        assert drift <= 1e-15
        assert drift == pytest.approx(
            bernoulli_drift(self.scaled_arc(arc, 500)), rel=0.05, abs=0.0)

    def test_bernoulli_drift_of_normal_terms_as_formed(self):
        # arcs with psi_max >= 2^-500 take the unscaled formula, bit for bit
        for arc in (hyperbolic_arc(3.0, -1.0, 4.0),
                    hyperbolic_arc(1.01, -1e-200, 1e-198)):
            lam, P, B = arc.params.lam, arc.params.P, arc.params.B
            _th, psi, dpsi = arc.profile.T
            mask = psi >= 0.25 * psi.max()
            v, d = psi[mask], dpsi[mask]
            weight = np.power(v, 2.0 / lam - 2.0)
            vals = (2.0 * P + lam * lam * v * v + d * d) * weight
            cond = (2.0 * abs(P) + lam * lam * v * v + d * d) * weight
            want = float(vals.max() - vals.min()) / max(abs(B),
                                                        float(cond.max()))
            assert bernoulli_drift(arc) == want

    def test_arc_checks_name_the_parameters(self, monkeypatch):
        monkeypatch.setattr(assemble, "bernoulli_drift", lambda arc: 1e-8)
        with pytest.raises(NumericalError, match=re.escape(
                "Bernoulli drift 1.000e-08 exceeds 1e-9 along the arc at"
                " (lam=3.0, P=-1.0, B=4.0)")):
            hyperbolic_arc(3.0, -1.0, 4.0)

    def test_theta_budget_names_the_arc(self, monkeypatch):
        # a theta mesh that runs out of panels names the arc it was for
        def out_of_panels(f, phis, tol, max_panels):
            return np.zeros(len(phis)), 1
        monkeypatch.setattr(assemble._kernels, "cumulative_theta",
                            out_of_panels)
        with pytest.raises(QuadratureFailure, match=re.escape(
                "theta accumulation at lam=1.5, P=-1.0, B=1.0 ran out of its"
                " 4096 panels on the arc mesh")):
            hyperbolic_arc(1.5, -1.0, 1.0)


class TestStitch:
    def test_harmonic_four_arc_tiling(self):
        g = harmonic4()
        assert g.smoothness is SmoothnessKind.C1
        assert len(g.pieces) == 4
        spans = [p.arc.span for p in g.pieces]
        assert abs(sum(spans) - TWO_PI) <= 1e-9
        for k, p in enumerate(g.pieces):
            assert p.offset == pytest.approx(k * 0.5 * math.pi, abs=1e-12)
        # the glued signed profile is the single smooth harmonic
        th, psi, dpsi = global_profile(g)
        assert np.max(np.abs(psi - 0.5 * np.sin(2.0 * th))) < 1e-12
        assert np.max(np.abs(dpsi - np.cos(2.0 * th))) < 1e-12

    def test_four_arc_alternating_signs(self):
        g = lam3()
        assert g.smoothness is SmoothnessKind.C1
        assert abs(sum(p.arc.span for p in g.pieces) - TWO_PI) <= 1e-9
        root2 = math.sqrt(2.0)
        for p in g.pieces:
            assert p.arc.endpoint_slope == pytest.approx(root2, abs=1e-6)
        th, _psi, _dpsi = global_profile(g)
        assert np.all(np.diff(th) > 0.0)

    def test_sign_pattern_controls_smoothness(self):
        assert lam3((1, 1, 1, 1)).smoothness is SmoothnessKind.VortexSheet
        assert lam3((1, -1, -1, 1)).smoothness is SmoothnessKind.VortexSheet

    def test_pressure_shared_bit_exact(self):
        g = lam3()
        assert all(p.arc.params.P == g.P for p in g.pieces)
        assert all(p.arc.params.lam == g.lam for p in g.pieces)

    def test_span_mismatch_reports_gap(self):
        # any B > 0 arc at lam = 2 spans strictly less than pi
        with pytest.raises(SpanMismatch, match=r"miss 2 pi by 1\.57"):
            stitch(2.0, -1.0, [(math.sqrt(32.0), 1), (math.sqrt(32.0), -1)])

    def test_auto_repair_absorbs_gap(self):
        specs_off = [(B_06, 1), (B_04, -1), (B_06, 1), (B_04 * 1.001, -1)]
        with pytest.raises(SpanMismatch):
            stitch(3.0, -1.0, specs_off)
        g = stitch(3.0, -1.0, specs_off, auto_repair=True)
        assert abs(sum(p.arc.span for p in g.pieces) - TWO_PI) <= 1e-9
        assert g.smoothness is SmoothnessKind.C1
        assert g.pieces[-1].arc.params.B == pytest.approx(B_04, rel=1e-3)

    def test_cusp_stitch(self):
        g = cusp3()
        assert g.smoothness is SmoothnessKind.CuspEndpoints
        assert abs(sum(p.arc.span for p in g.pieces) - TWO_PI) <= 1e-9
        # sign distribution is free below lam = 1
        assert cusp3((1, 1, 1)).smoothness is SmoothnessKind.CuspEndpoints

    def test_repeated_bernoulli_shares_one_arc(self):
        g = lam3()
        arcs = [p.arc for p in g.pieces]
        assert arcs[0] is arcs[2] and arcs[1] is arcs[3]
        assert arcs[0] is not arcs[1]
        assert len({id(p.arc) for p in harmonic4().pieces}) == 1

    def test_arc_count_cap(self):
        with pytest.raises(DomainError):
            stitch(2.0 / 3.0, 1.0, [(B_CUSP, 1)] * 3, max_arcs=2)


class TestDiagnostics:
    def test_flux_vanishes_on_valid_solutions(self):
        assert energy_flux(harmonic4()) == 0.0
        assert abs(energy_flux(lam3())) <= 1e-12
        assert abs(energy_flux(lam3((1, 1, 1, 1)))) <= 1e-12
        assert abs(energy_flux(cusp3())) <= 1e-10
        assert abs(energy_flux(elliptic_global(2.0, 1.5, 8.0))) <= 1e-12

    @pytest.mark.parametrize("build", [
        lambda: cusp3(), lambda: ell5(), lambda: lam3(),
        lambda: lam3((1, 1, 1, 1)),
        lambda: elliptic_global(2.0, 1.5, 8.0)],
        ids=["cusp3", "ell5", "lam3", "lam3_same_signs", "elliptic2"])
    def test_flux_cancels_exactly_on_mirrored_arcs(self, build):
        # the arcs' psi' is odd about their midpoints to the last bit, and
        # the cube by products keeps it odd, so the paired nodes cancel
        assert energy_flux(build()) == 0.0

    def test_flux_detects_asymmetric_corruption(self):
        # reparameterize one harmonic arch by theta -> theta^1.1, which
        # breaks the odd symmetry of psi' about the arc midpoint
        span = 0.5 * math.pi
        th = np.linspace(0.0, span, 513)
        warped = span * (th / span) ** 1.1
        warped[0] = 0.0
        dwarp = 1.1 * (th / span) ** 0.1
        dwarp[0] = 0.0
        params = FlowParams(2.0, -0.5, 0.0)

        def hand_arc(angles, slopes):
            psi = 0.5 * np.sin(2.0 * angles)
            dpsi = slopes * np.cos(2.0 * angles)
            profile = tuple((float(a), float(b), float(c))
                            for a, b, c in zip(th, psi, dpsi))
            return LocalArc(params, span, profile, 1.0)

        bad = GlobalSolution(2.0, -0.5,
                             (Piece(hand_arc(warped, dwarp), 1, 0.0),))
        good = GlobalSolution(2.0, -0.5,
                              (Piece(hand_arc(th, np.ones_like(th)), 1,
                                     0.0),))
        assert abs(energy_flux(bad)) > 0.1
        assert abs(energy_flux(good)) <= 1e-12
        # the hand-built records derive their type and smoothness: one arc
        # whose end slopes are both 1 jumps from -1 to 1 at the wrap-around
        # junction, so each solution is a vortex sheet
        assert bad.pieces[0].arc.type == solution_type(params)
        assert bad.smoothness is SmoothnessKind.VortexSheet
        assert good.smoothness is SmoothnessKind.VortexSheet

    def test_h1_exact_values(self):
        # psi = 0.5 sin(2 theta) and psi = 1 + 0.5 cos(2 theta) both have
        # int (psi')^2 = pi
        assert h1_seminorm(harmonic4()) == pytest.approx(math.pi, rel=1e-12)
        assert h1_seminorm(elliptic_global(2.0, 1.5, 8.0)) == pytest.approx(
            math.pi, rel=1e-10)

    def test_h1_cusp_against_quadrature(self):
        assert h1_seminorm(cusp3()) == pytest.approx(H1_CUSP3, rel=1e-8)

    def test_h1_stable_under_refinement(self):
        a = h1_seminorm(lam3())
        b = h1_seminorm(lam3(n_points=1024))
        assert abs(a - b) / abs(b) <= 1e-6

    @pytest.mark.parametrize("build", [
        harmonic4, lam3, cusp3,
        lambda: lam3((1, 1, 1, 1)),
        lambda: elliptic_global(2.0, 1.5, 8.0),
    ])
    def test_weak_residuals_below_threshold(self, build):
        g = build()
        assert max(abs(w) for w in weak_residuals(g)) <= 1e-7

    def test_weak_dual_route(self):
        # the uniform-resample route cross-checks the native-mesh route on
        # smooth globals (it cannot evaluate cusp profiles at all)
        ge = elliptic_global(2.0, 1.5, 8.0)
        th, psi, dpsi = global_profile(ge)
        rep = ode_residual(list(zip(th, psi, dpsi)), 2.0, 1.5)
        assert max(abs(w) for w in rep.weak) <= 1e-7
        assert max(abs(w) for w in weak_residuals(ge)) <= 1e-10

        g = lam3()
        th, psi, dpsi = global_profile(g)
        rep = ode_residual(list(zip(th, psi, dpsi)), 3.0, -1.0)
        assert max(abs(w) for w in rep.weak) <= 1e-6
        assert max(abs(w) for w in weak_residuals(g)) <= 1e-7

    def test_residual_max(self):
        assert residual_max(harmonic4()) <= 1e-8
        assert residual_max(elliptic_global(2.0, 1.5, 8.0)) <= 1e-7
        assert residual_max(lam3()) <= 1e-4
        # cusp arcs keep a tame-interior window; differencing still limits it
        assert residual_max(cusp3()) <= 5e-4


class TestFieldAt:
    def test_lambda2_point_values(self):
        g = elliptic_global(2.0, 1.5, 8.0)
        s = field_at(g, 1.0, 0.0)
        assert s.stream == pytest.approx(1.5, rel=1e-12)
        assert s.u_tau == pytest.approx(3.0, rel=1e-12)
        assert s.u_nu == pytest.approx(0.0, abs=1e-12)
        assert s.vorticity == pytest.approx(4.0, rel=1e-10)
        assert s.pressure == pytest.approx(1.5, rel=1e-12)
        assert s.u_x == pytest.approx(0.0, abs=1e-12)
        assert s.u_y == pytest.approx(3.0, rel=1e-12)

    def test_lambda2_rotated_components(self):
        g = elliptic_global(2.0, 1.5, 8.0)
        s = field_at(g, 1.0, 0.5 * math.pi)
        # psi(pi/2) = 0.5, tau = (-1, 0) there
        assert s.u_tau == pytest.approx(1.0, rel=1e-10)
        assert s.u_x == pytest.approx(-1.0, rel=1e-10)
        assert s.u_y == pytest.approx(0.0, abs=1e-10)

    def test_rotational_field(self):
        g = elliptic_global(2.0, 2.0, 8.0)
        assert len(g.pieces) == 1
        for r, t in [(0.7, 1.3), (1.0, 0.0), (2.0, 4.0)]:
            s = field_at(g, r, t)
            assert s.u_nu == 0.0
            assert s.u_tau == pytest.approx(2.0 * r, rel=1e-12)
            assert s.stream == pytest.approx(r * r, rel=1e-12)
            assert s.vorticity == pytest.approx(4.0, rel=1e-9)
            assert s.pressure == pytest.approx(2.0 * r * r, rel=1e-12)

    def test_scale_in_radius(self):
        g = elliptic_global(2.0, 1.5, 8.0)
        s = field_at(g, 2.0, 0.0)
        # stream ~ r^lam, velocity ~ r^(lam-1), pressure ~ r^(2 lam - 2)
        assert s.stream == pytest.approx(1.5 * 4.0, rel=1e-12)
        assert s.u_tau == pytest.approx(3.0 * 2.0, rel=1e-12)
        assert s.pressure == pytest.approx(1.5 * 4.0, rel=1e-12)

    def test_singular_ray_guard(self):
        g = cusp3()
        with pytest.raises(OnSingularRay):
            field_at(g, 1.0, 0.0)
        with pytest.raises(OnSingularRay):
            field_at(g, 1.0, TWO_PI / 3.0)
        field_at(g, 1.0, 0.3)  # interior angles stay fine

    def test_point_vortex_speed(self):
        pv = point_vortex(3.0, 4.0)
        for x, y in [(0.6, 0.8), (1.0, 0.0), (-2.0, 1.5)]:
            ux, uy = pv.velocity(x, y)
            r = math.hypot(x, y)
            assert math.hypot(ux, uy) == pytest.approx(5.0 / r, rel=1e-12)


class TestExportGrid:
    def test_rotational_grid(self):
        g = elliptic_global(2.0, 2.0, 8.0)
        rows = export_grid(g, GridSpec(0.5, 1.0, 2, 2))
        assert len(rows) == 4
        for r, theta, sample in rows:
            assert sample is not None
            assert sample.u_nu == 0.0
            assert sample.r == r and sample.theta == theta

    def test_stream_sign_change_across_junction(self):
        g = harmonic4()
        rows = export_grid(g, GridSpec(1.0, 2.0, 2, 12))
        # columns at pi/3 and 2 pi/3 straddle the junction ray pi/2
        by_theta = {round(t, 12): s for _r, t, s in rows[:12]}
        left = by_theta[round(math.pi / 3.0, 12)]
        right = by_theta[round(2.0 * math.pi / 3.0, 12)]
        assert left.psi > 0.0 > right.psi

    def test_vortex_sheet_jump_on_adjacent_columns(self):
        g = lam3((1, 1, 1, 1))
        eps = 1e-6
        jump_at = 0.6 * math.pi
        sl = field_at(g, 1.0, jump_at - eps)
        sr = field_at(g, 1.0, jump_at + eps)
        root2 = math.sqrt(2.0)
        assert sl.u_nu == pytest.approx(root2, abs=1e-5)
        assert sr.u_nu == pytest.approx(-root2, abs=1e-5)

    def test_cusp_rays_emit_null_cells(self):
        g = cusp3()
        rows = export_grid(g, GridSpec(0.5, 1.0, 2, 4))
        nulls = [(r, t) for r, t, s in rows if s is None]
        assert nulls == [(0.5, 0.0), (1.0, 0.0)]
        rows3 = export_grid(g, GridSpec(0.5, 1.0, 2, 3))
        assert all(s is None for _r, _t, s in rows3)

    def test_grid_validation(self):
        g = harmonic4()
        with pytest.raises(DomainError):
            export_grid(g, GridSpec(0.0, 1.0, 2, 2))
        with pytest.raises(DomainError):
            export_grid(g, GridSpec(1.0, 0.5, 2, 2))
        with pytest.raises(DomainError):
            export_grid(g, GridSpec(0.5, 1.0, 1, 2))
        with pytest.raises(DomainError):
            export_grid(g, GridSpec(0.5, math.inf, 2, 2))


def field_reference(g, r, theta):
    """Scalar oracle for one cell: the per-point formulas of field_at.

    Locates the piece, runs one single-point Hermite interpolation and
    evaluates every field with Python floats.  Returns None on a cusp
    junction ray.
    """
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    offsets = [p.offset for p in g.pieces]
    piece = g.pieces[max(bisect_right(offsets, t) - 1, 0)]
    arc = piece.arc
    lam, P, B = arc.params.lam, arc.params.P, arc.params.B
    tau = min(max(t - piece.offset, 0.0), arc.span)
    if arc.endpoint_slope == math.inf and (
            tau < 1e-12 or arc.span - tau < 1e-12):
        return None
    th, psi, dpsi = (np.ascontiguousarray(c) for c in arc.profile.T)
    pv, dv = hermite_pair(np.array([tau]), th, psi, dpsi)
    psi_u = max(float(pv[0]), 0.0)
    dpsi_s = piece.sign * float(dv[0])
    psi_s = piece.sign * psi_u
    if psi_u > 0.0 or B == 0.0 or lam >= 2.0:
        pw = power0(psi_u, (lam - 2.0) / lam) if B != 0.0 else 0.0
        dd_s = piece.sign * (-lam * lam * psi_u
                             + (lam - 1.0) / lam * B * pw)
    else:
        dd_s = math.copysign(math.inf, piece.sign * B)
    rl = math.pow(r, lam - 1.0)
    u_tau = lam * rl * psi_s
    u_nu = -rl * dpsi_s
    ct, st = math.cos(t), math.sin(t)
    return FieldSample(
        r=r, theta=theta, x=r * ct, y=r * st,
        u_x=u_nu * ct - u_tau * st, u_y=u_nu * st + u_tau * ct,
        u_tau=u_tau, u_nu=u_nu, psi=psi_s, stream=rl * r * psi_s,
        vorticity=(rl / r) * (lam * lam * psi_s + dd_s)
        if not math.isinf(dd_s) else dd_s,
        pressure=rl * rl * P)


def field_bits(s):
    """Every field of a sample as float.hex: equality is bit identity."""
    return tuple(float(getattr(s, f)).hex()
                 for f in FieldSample.__dataclass_fields__)


def ell5():
    return elliptic_global(5.0, solve_elliptic(5.0, 3).P_star)


def quad15():
    B = solve_hyperbolic_span(1.5, -1.0, 0.5 * math.pi)
    return stitch(1.5, -1.0, [(B, 1), (B, -1), (B, 1), (B, -1)])


class TestFieldOracle:
    """export_grid and field_at against the scalar per-cell oracle.

    24 rays hit every junction of these solutions (multiples of pi/2,
    2 pi/3 and the lam = 3 junction at pi), so cusp rays, vanishing
    junction values and the infinite-vorticity rays of 1 < lam < 2 are
    all compared.
    """

    GRID = GridSpec(0.37, 2.5, 25, 24)
    EXTRA = [(0.8, -1.0), (1.3, 7.5), (2.0, TWO_PI), (0.5, -TWO_PI / 3.0)]

    @pytest.mark.parametrize("build", [
        cusp3, ell5, lam3, harmonic4, lambda: lam3((1, 1, 1, 1)), quad15,
    ], ids=["cusp", "ell5", "ode3", "harmonic", "vortex_sheet", "quad15"])
    def test_bit_identical_to_scalar_oracle(self, build):
        g = build()
        rows = export_grid(g, self.GRID)
        assert len(rows) == self.GRID.n_r * self.GRID.n_theta
        points = [(r, t) for r, t, _s in rows] + self.EXTRA
        for k, (r, t) in enumerate(points):
            want = field_reference(g, r, t)
            if k < len(rows):
                got = rows[k][2]
                assert (got is None) == (want is None), (r, t)
                if want is not None:
                    assert field_bits(got) == field_bits(want), (r, t)
            if want is None:
                with pytest.raises(OnSingularRay):
                    field_at(g, r, t)
            else:
                assert field_bits(field_at(g, r, t)) == field_bits(want)

    def test_oracle_covers_singular_and_infinite_cells(self):
        rows = export_grid(cusp3(), self.GRID)
        assert sum(s is None for _r, _t, s in rows) == 3 * self.GRID.n_r
        rows = export_grid(quad15(), self.GRID)
        assert any(math.isinf(s.vorticity) for _r, _t, s in rows)
