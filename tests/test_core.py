"""Parameter records, the pressure Hamiltonian, and the conjugacy map."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homoeuler import (
    DomainError,
    FlowParams,
    PhaseState,
    conjugate,
    phase_vector_field,
    pressure_hamiltonian,
    steady_state,
)

val_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestFlowParams:
    def test_rejects_bad_lam(self):
        with pytest.raises(DomainError):
            FlowParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            FlowParams(-2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            FlowParams(float("nan"), 1.0, 1.0)

    def test_rejects_nonfinite_P_B(self):
        with pytest.raises(DomainError):
            FlowParams(2.0, float("inf"), 1.0)
        with pytest.raises(DomainError):
            FlowParams(2.0, 1.0, float("nan"))

    def test_phase_state_needs_nonnegative_x(self):
        with pytest.raises(DomainError):
            PhaseState(-1e-9, 0.0)


class TestPressureHamiltonian:
    def test_matches_definition_generic_point(self):
        lam, B = 3.0, 2.5
        x, y = 0.7, -0.4
        expect = -y * y / 2 - lam * lam * x * x / 2 + B / 2 * x ** (2 - 2 / lam)
        got = pressure_hamiltonian(PhaseState(x, y), lam, B)
        assert got == pytest.approx(expect, rel=1e-15)

    def test_axis_value_lam_above_one(self):
        # exponent 2 - 2/lam > 0, so the B-term vanishes at x = 0
        assert pressure_hamiltonian(PhaseState(0.0, 2.0), 1.5, 7.0) == -2.0

    def test_axis_value_lam_one(self):
        # exponent is exactly 0; x**0 -> 1 on the closed axis
        assert pressure_hamiltonian(PhaseState(0.0, 0.0), 1.0, 6.0) == 3.0

    def test_axis_rejected_below_one(self):
        with pytest.raises(DomainError):
            pressure_hamiltonian(PhaseState(0.0, 1.0), 0.8, 1.0)

    def test_axis_ok_below_one_when_B_zero(self):
        assert pressure_hamiltonian(PhaseState(0.0, 1.0), 0.8, 0.0) == -0.5


class TestSteadyState:
    def test_anchor_unit_B(self):
        info = steady_state(2.0, 1.0)
        assert info.x_s == pytest.approx(0.125, rel=1e-14)
        assert info.P_max == pytest.approx(1.0 / 32.0, rel=1e-14)

    def test_anchor_B_eight(self):
        info = steady_state(2.0, 8.0)
        assert info.x_s == pytest.approx(1.0, rel=1e-14)
        assert info.P_max == pytest.approx(2.0, rel=1e-14)

    @given(lam=st.floats(min_value=1.05, max_value=6.0),
           B=st.floats(min_value=0.01, max_value=10.0))
    def test_closed_form_P_max(self, lam, B):
        info = steady_state(lam, B)
        expect = (1.0 / (2.0 * lam)) * ((lam - 1.0) / lam ** 3) ** (lam - 1.0) * B ** lam
        assert info.P_max == pytest.approx(expect, rel=1e-8)

    @given(lam=st.floats(min_value=1.05, max_value=6.0),
           B=st.floats(min_value=0.01, max_value=10.0))
    def test_vector_field_vanishes_at_steady_point(self, lam, B):
        info = steady_state(lam, B)
        dx, dy = phase_vector_field(PhaseState(info.x_s, 0.0), lam, B)
        assert dx == 0.0
        assert abs(dy) <= 1e-14 * lam * lam * info.x_s

    def test_requires_focusing_regime(self):
        with pytest.raises(DomainError):
            steady_state(0.9, 1.0)
        with pytest.raises(DomainError):
            steady_state(2.0, -1.0)


class TestConjugacy:
    def test_anchor(self):
        q = conjugate(FlowParams(2.0, 1.5, 8.0))
        assert q.lam == 0.5
        assert q.P == pytest.approx(-0.25, rel=1e-14)
        assert q.B == pytest.approx(-3.0 / 16.0, rel=1e-14)

    def test_anchor_zero_P(self):
        q = conjugate(FlowParams(2.0, 0.0, 1.0))
        assert (q.lam, q.B) == (0.5, 0.0)
        assert q.P == pytest.approx(-1.0 / 32.0, rel=1e-14)

    @given(lam=st.floats(min_value=0.3, max_value=6.0), P=val_st, B=val_st)
    def test_involution(self, lam, P, B):
        p = FlowParams(lam, P, B)
        q = conjugate(conjugate(p))
        assert q.lam == pytest.approx(lam, rel=1e-12)
        assert q.P == pytest.approx(P, rel=1e-9, abs=1e-9)
        assert q.B == pytest.approx(B, rel=1e-9, abs=1e-9)

    def test_exact_image_lam_three(self):
        # P_tilde = -B/(2 lam^4), B_tilde = -2P/lam^4
        q = conjugate(FlowParams(3.0, -1.0, 2.0))
        assert q.lam == pytest.approx(1.0 / 3.0)
        assert q.P == pytest.approx(-1.0 / 81.0, rel=1e-14)
        assert q.B == pytest.approx(2.0 / 81.0, rel=1e-14)


class TestVectorField:
    def test_matches_hamiltonian_gradient(self):
        lam, B = 2.7, 1.3
        x, y = 0.51, 0.2
        dx, dy = phase_vector_field(PhaseState(x, y), lam, B)
        eps = 1e-6
        dH_dx = (pressure_hamiltonian(PhaseState(x + eps, y), lam, B)
                 - pressure_hamiltonian(PhaseState(x - eps, y), lam, B)) / (2 * eps)
        assert dx == y
        assert dy == pytest.approx(dH_dx, rel=1e-8)

    def test_axis_branch_lam_two(self):
        dx, dy = phase_vector_field(PhaseState(0.0, 1.0), 2.0, 6.0)
        assert (dx, dy) == (1.0, 3.0)

    def test_axis_branch_lam_above_two(self):
        dx, dy = phase_vector_field(PhaseState(0.0, -1.0), 3.0, 6.0)
        assert (dx, dy) == (-1.0, 0.0)

    def test_axis_rejected_below_two(self):
        with pytest.raises(DomainError):
            phase_vector_field(PhaseState(0.0, 1.0), 1.5, 1.0)

    def test_axis_ok_below_two_when_B_zero(self):
        dx, dy = phase_vector_field(PhaseState(0.0, 1.0), 1.5, 0.0)
        assert (dx, dy) == (1.0, 0.0)
