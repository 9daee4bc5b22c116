import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate as sci
from hypothesis import strategies as st

import lpheat as lh
from lpheat import lprime
from lpheat import (
    ApproximationError,
    DomainError,
    GaussianPower,
    Indicator,
    LprimeElement,
    MembershipError,
    StepCombo,
    TailLog,
    TruncatedSine,
)


def test_dirac_difference_basics():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    assert f.primitive == Indicator(0.0, 1.0)
    assert f.atoms == ((1.0, 0.0), (-1.0, 1.0))
    assert lh.lprime_norm(f) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        lh.dirac_difference(1.0, 0.0)


@given(p=st.floats(1.0, 8.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_dirac_difference_norm_formula(p):
    f = lh.dirac_difference(-1.0, 1.0, p=p)
    assert lh.lprime_norm(f) == pytest.approx(2.0 ** (1.0 / p), rel=1e-10)


def test_dirac_difference_norm_at_p1_is_length():
    f = lh.dirac_difference(-1.0, 1.0, p=1.0)
    assert lh.lprime_norm(f) == pytest.approx(2.0, rel=1e-12)


def test_lprime_norm_is_primitive_norm():
    # same code path by definition, so the values coincide exactly
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    assert lh.lprime_norm(f) == lh.lp_norm(f.primitive, f.p)


def test_kernel_derivative_element_norms():
    f1 = lh.from_primitive(GaussianPower(1.0, 1.0), 1.0)
    assert lh.lprime_norm(f1) == pytest.approx(1.0, rel=1e-10)
    f4 = lh.from_primitive(Indicator(-3.0, 1.0), 4.0)
    assert lh.lprime_norm(f4) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_element_validation():
    with pytest.raises(DomainError):
        LprimeElement(Indicator(0, 1), math.inf)
    with pytest.raises(DomainError):
        LprimeElement(Indicator(0, 1), 0.5)
    with pytest.raises(MembershipError):
        LprimeElement(TailLog(3.0), 2.0)
    indicator = {"type": "indicator", "a": 0.0, "b": 1.0}
    # JSON atoms inconsistent with the primitive's jumps
    with pytest.raises(DomainError, match="disagree with the primitive's jumps"):
        lh.element_from_json({"primitive": indicator, "p": 2.0, "atoms": [[2.0, 0.0], [-1.0, 1.0]]})
    # JSON atoms on a non-step primitive
    gaussian = {"type": "gaussian_power", "t": 1.0, "beta": 1.0}
    with pytest.raises(DomainError, match="step-type primitive"):
        lh.element_from_json({"primitive": gaussian, "p": 2.0, "atoms": [[1.0, 0.0]]})
    # matching atoms are accepted and dropped: the element is its primitive
    f = lh.element_from_json({"primitive": indicator, "p": 2.0, "atoms": [[-1.0, 1.0], [1.0, 0.0]]})
    assert f == LprimeElement(Indicator(0.0, 1.0), 2.0)
    assert f.atoms == ((1.0, 0.0), (-1.0, 1.0))


def test_from_primitive_attaches_atoms():
    f = lh.from_primitive(StepCombo(((1.0, 0.0, 1.0), (1.0, 1.0, 2.0))), 2.0)
    # interior jumps cancel: derivative is delta_0 - delta_2
    assert f.atoms == ((1.0, 0.0), (-1.0, 2.0))
    g = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    assert g.atoms is None


def test_step_approximation_idempotent_on_steps():
    f = lh.from_primitive(StepCombo(((1.0, 0.0, 1.0),)), 2.0)
    res = lh.step_approximation(f, 0.1)
    assert res.element is f
    assert res.achieved_error == 0.0


def test_step_approximation_of_kernel():
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    res = lh.step_approximation(f, 0.05)
    assert res.achieved_error < 0.05
    assert isinstance(res.element.primitive, StepCombo)
    assert res.element.atoms is not None
    # independent re-measurement of the distance
    remeasured = lh.combo_lp_norm(
        [(1.0, f.primitive), (-1.0, res.element.primitive)], 2.0
    )
    assert remeasured == pytest.approx(res.achieved_error, rel=1e-3, abs=1e-6)


def test_step_approximation_refines_monotonically():
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    errs = [lh.step_approximation(f, eps).achieved_error for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 0.05
    half = lh.step_approximation(f, 0.025).achieved_error
    assert half <= errs[-1] + 1e-12


def test_step_approximation_resource_cap(monkeypatch):
    monkeypatch.setattr(lprime, "_MAX_BINS", 64)
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    with pytest.raises(ApproximationError) as exc:
        lh.step_approximation(f, 1e-9)
    assert exc.value.best_error > 1e-9


def test_step_approximation_memory_at_the_bin_cap():
    # 65,536 bins: composite_gk15 evaluates the integrand in blocks of at
    # most 65,536 nodes, so the traced peak is the stored node values
    # (15 per panel) and not a block of temporaries per node; the steps are
    # built once, as the one tuple StepCombo makes (12.6 MB while it is
    # built), so the peak is composite_gk15's, measured at 16.82 MB
    f = LprimeElement(lh.TruncatedSine(1.0), 2.0)
    tracemalloc.start()
    try:
        res = lh.step_approximation(f, 0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.bins == 65536
    assert res.achieved_error == 0.020321279468955143  # the value before blocking
    assert peak < 18.5e6


def test_step_approximation_tail_log():
    f = lh.from_primitive(TailLog(2.0), 2.0)
    res = lh.step_approximation(f, 0.2)
    assert res.achieved_error < 0.2


def _atom_route(f, g):
    """sum of weight * G(location) over f's atoms, G(x) = int_0^x g by scipy's quad."""
    return sum(
        w * sci.quad(lambda u: float(g.values(u)), 0.0, loc, epsabs=0.0, epsrel=1e-13)[0] for w, loc in f.atoms
    )


def test_pairing_dirac_example():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    g = Indicator(0.0, 1.0)
    assert lh.pairing(f, g) == pytest.approx(-1.0, rel=1e-12)
    assert _atom_route(f, g) == pytest.approx(-1.0, rel=1e-12)


def test_pairing_zero_density():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    zero = StepCombo(((0.0, -1.0, 1.0),))
    assert lh.pairing(f, zero) == 0.0


def test_pairing_atom_consistency_with_gaussian_density():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    g = GaussianPower(1.0, 1.0)
    direct = lh.pairing(f, g)
    # -int_0^1 theta_1 = -erf(1/2)/2
    assert direct == pytest.approx(-0.2602499389065233, rel=1e-11)
    assert direct == pytest.approx(_atom_route(f, g), rel=1e-11)


def test_pairing_odd_symmetry():
    # density sampled from the kernel's derivative; F theta' integrates to zero
    xs = np.linspace(-8.0, 8.0, 1601)
    dvals = -xs / 2.0 * np.exp(-xs ** 2 / 4.0) / (2.0 * math.sqrt(math.pi))
    g = lh.sample(dvals, -8.0, 0.01)
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    assert abs(lh.pairing(f, g)) < 1e-6


def test_pairing_conjugacy_guard():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)  # conjugate exponent 2
    with pytest.raises(MembershipError):
        lh.pairing(f, TailLog(3.0))


def test_element_json_round_trip():
    # the descriptor format is defined by the reader; atoms are optional
    # and must agree with the primitive's jumps
    cases = [
        ({"primitive": {"type": "indicator", "a": -1.0, "b": 1.0}, "p": 2.0, "atoms": [[1.0, -1.0], [-1.0, 1.0]]},
         lh.dirac_difference(-1.0, 1.0, p=2.0)),
        ({"primitive": {"type": "step_combo", "steps": [[2.0, 0.0, 1.0], [-0.5, 0.5, 3.0]]}, "p": 1.0,
          "atoms": [[2.0, 0.0], [-0.5, 0.5], [-2.0, 1.0], [0.5, 3.0]]},
         lh.from_primitive(StepCombo(((2.0, 0.0, 1.0), (-0.5, 0.5, 3.0))), 1.0)),
        ({"primitive": {"type": "indicator", "a": 0, "b": 1}, "p": 3}, lh.dirac_difference(0.0, 1.0, p=3.0)),
        ({"primitive": {"type": "gaussian_power", "t": 1.0, "beta": 1.0}, "p": 2.0},
         lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)),
        ({"primitive": {"type": "tail_log", "p": 2.0}, "p": 3.0}, lh.from_primitive(TailLog(2.0), 3.0)),
        ({"primitive": {"type": "truncated_sine", "p": 2.0}, "p": 3.0}, lh.from_primitive(TruncatedSine(2.0), 3.0)),
        ({"primitive": {"type": "samples", "x0": -1.0, "dx": 0.5, "values": [0.0, 1.0, 0.0]}, "p": 2.0},
         lh.from_primitive(lh.sample([0.0, 1.0, 0.0], -1.0, 0.5), 2.0)),
    ]
    for descriptor, f in cases:
        assert lh.element_from_json(descriptor) == f
    with pytest.raises(DomainError):
        lh.element_from_json({"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0, "atoms": [[1.0, 0.0]]})
    with pytest.raises(DomainError):
        lh.element_from_json({"primitive": {"type": "tail_log", "p": 2.0}, "p": 3.0, "atoms": [[1.0, 0.0]]})
    with pytest.raises(DomainError):
        lh.element_from_json({"p": 2.0})
    with pytest.raises(DomainError):
        lh.element_from_json({"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0, "atoms": [[1.0]]})
