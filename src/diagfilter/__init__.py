"""Data-assisted residual generators for multi-area frequency control.

The package designs causal residual filters that flag falsified tie-line
telemetry in interconnected power-system models.  The model-based core
decouples the residual from every unknown physical signal; an optional
training phase shapes the remaining freedom against the measured mismatch
between a nonlinear plant and its linear abstraction.

Layers, bottom to top:

* :mod:`~diagfilter.shiftpoly`, :mod:`~diagfilter.lti` -- the filter's
  denominator polynomial, ZOH sampling, and the stacked difference-algebraic
  form;
* :mod:`~diagfilter.agc` -- the multi-area frequency-control model builder;
* :mod:`~diagfilter.config` -- the configuration's fields, each with one rule;
* :mod:`~diagfilter.simulate` -- linear and nonlinear plant simulation;
* :mod:`~diagfilter.solvers` -- certified LP/QP solves;
* :mod:`~diagfilter.design` -- filter synthesis (single and coordinated
  attack hypotheses) and its training statistics;
* :mod:`~diagfilter.runtime` -- residual evaluation over trajectories and detection;
* :mod:`~diagfilter.matio`, :mod:`~diagfilter.pipeline`,
  :mod:`~diagfilter.cli` -- artefact formats and experiment orchestration.
"""

from .agc import (
    AreaParams,
    AttackChannel,
    AttackTopology,
    GeneratorParams,
    assemble_multiarea,
    multivariate_topology,
    three_area_default,
    univariate_topology,
)
from .design import (
    AttackModel,
    FilterDesign,
    design_multivariate,
    design_univariate,
    gram_matrix,
    impulse_response,
    mismatch_signature,
    pretrain_multivariate,
    q_matrix,
    signature_energy,
    steady_state_margin,
    worst_case_alpha,
)
from .config import ExperimentConfig, default_config, multivariate_default_config
from .errors import (
    ConfigError,
    DetectorInfeasibleError,
    NoFilterError,
    SimulationBlowUp,
    SolverError,
)
from .lti import (
    DaeSystem,
    LinearModel,
    StackedSystem,
    assemble_dae,
    build_stacked,
    zoh_discretize,
)
from .pipeline import cmd_run_all
from .runtime import Detector, ResidualFilter, calibrate_threshold, residual_energy
from .shiftpoly import pole_polynomial
from .simulate import (
    AttackSpec,
    DisturbanceSpec,
    PlantConfig,
    RunBatch,
    simulate_linear,
    simulate_nonlinear,
)
from .solvers import QpProblem, Solution, solve_lp, solve_qp

__version__ = "0.1.0"

__all__ = [
    "AreaParams",
    "AttackChannel",
    "AttackModel",
    "AttackSpec",
    "AttackTopology",
    "ConfigError",
    "DaeSystem",
    "Detector",
    "DetectorInfeasibleError",
    "DisturbanceSpec",
    "ExperimentConfig",
    "FilterDesign",
    "GeneratorParams",
    "LinearModel",
    "NoFilterError",
    "PlantConfig",
    "QpProblem",
    "ResidualFilter",
    "RunBatch",
    "SimulationBlowUp",
    "Solution",
    "SolverError",
    "StackedSystem",
    "assemble_dae",
    "assemble_multiarea",
    "build_stacked",
    "calibrate_threshold",
    "cmd_run_all",
    "default_config",
    "design_multivariate",
    "design_univariate",
    "gram_matrix",
    "impulse_response",
    "mismatch_signature",
    "multivariate_default_config",
    "multivariate_topology",
    "pole_polynomial",
    "pretrain_multivariate",
    "q_matrix",
    "residual_energy",
    "signature_energy",
    "simulate_linear",
    "simulate_nonlinear",
    "solve_lp",
    "solve_qp",
    "steady_state_margin",
    "three_area_default",
    "univariate_topology",
    "worst_case_alpha",
    "zoh_discretize",
]
