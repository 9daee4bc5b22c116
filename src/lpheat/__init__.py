"""Heat evolution on the real line for initial data that is the
distributional derivative of an L^p function, together with the sharp
constants controlling the evolution and a verification suite that
measures every bound against adaptive quadrature."""

from .constants import (
    ExponentTriple,
    K_const,
    L_const,
    M_const,
    beta_extremizer,
    c_const,
    conjugate,
    r_from,
    young_constant,
)
from .convolve import (
    convolve_point,
    convolution_lp_norm,
)
from .exceptions import (
    ApproximationError,
    DomainError,
    LpHeatError,
    MembershipError,
    QuadratureAccuracyError,
    SearchFailureError,
    UnsupportedOrderError,
)
from .heat_solver import (
    TestFunction,
    gaussian_test_function,
    ic_convergence,
    pde_residual,
    solution_primitive_norm,
    solve_values,
    weak_ic_check,
)
from .kernel import (
    MAX_DERIV_ORDER,
    alpha_coefficient,
    delta_coefficient,
    semigroup_residual,
    theta_deriv_norm_closed,
    theta_norm_closed,
)
from .lp_space import (
    GaussianPower,
    Indicator,
    PrimitiveFunction,
    Sampled,
    StepCombo,
    TailLog,
    TruncatedSine,
    combo_lp_norm,
    lp_norm,
    primitive_from_json,
    sample,
)
from .lprime import (
    LprimeElement,
    StepApproximation,
    dirac_difference,
    element_from_json,
    from_primitive,
    lprime_norm,
    pairing,
    step_approximation,
)
from .estimates import (
    EstimateReport,
    NonmembershipEvidence,
    continuity_bound,
    decay_bound_check,
    nonmembership_probe,
    rate_sharpness,
    run_suite,
    sign_change,
    variation_lower_bound,
    verify_lprime_bound,
    verify_lr_bound,
    young_equality_gap,
    zero_integral,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate

__version__ = "0.1.0"
