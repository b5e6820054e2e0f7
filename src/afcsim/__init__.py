"""Simulation toolkit for networked nonlinear control.

Subpackages cover dense LTI analysis with H-infinity certificates (lti),
the cart-pole plant and RK4 integration (plant), delay/loss network
channels (netchan), grid fuzzy approximators (fuzzy), the indirect adaptive
fuzzy controller with H-infinity auxiliary term (afhc), and the experiment
harness with its CLI (config, harness, cli).
"""
from .afhc import (
    ControllerConfig,
    SingularControlError,
    adapt_step,
    companion,
    control_law,
    filter_error,
    h_infinity_term,
    project_theta_g,
    solve_lyapunov,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    build_config,
    parse_config,
    preset_text,
)
from .fuzzy import FuzzyApproximator, MembershipGrid, grid_over_box, read_theta, write_theta
from .harness import (
    Metrics,
    SimulationTrace,
    compute_metrics,
    reference_derivatives,
    run_experiment,
    write_metrics,
    write_trace,
)
from .lti import (
    FrequencyAtPoleError,
    HinfConvergenceError,
    IllPosedLoopError,
    RobustnessCertificate,
    StateSpaceModel,
    UnstableSystemError,
    closed_loop_tzw,
    freq_response,
    hinf_norm,
    identity,
    is_stable,
    robustness_margin,
    series,
    siso,
    static_gain,
)
from .netchan import Channel, ChannelConfig
from .plant import (
    DynamicsOverflowError,
    PendulumParams,
    PlantModel,
    pendulum,
    pendulum_f,
    pendulum_g,
    rk4_step,
)

__version__ = "0.1.0"
