"""lfsim: pseudospectral solver and linear-stability toolkit for the
generalized Navier-Stokes model of active (bacterial) turbulence."""

from .model import (ModelParams, StateKind, TransformedSystem,
                    make_disordered_system, make_ordered_system, untransform)
from .spectral import (SpectralField, SpectralGrid, forward, inverse,
                       l2_norm_sq, leray_project, read_snapshot,
                       write_snapshot)
from .lattice import dealiased_product, l4_norm_4
from .stability import (BandResult, Classification, StabilityReport,
                        classify_disordered, classify_ordered, growth_rate,
                        lattice_max_growth, phase_diagram, symbol_at,
                        unstable_band)
from .integrate import (BlowUpError, PressureFields, SolverConfig,
                        SolverState, Stepper, Trajectory, nonlinear_rhs,
                        random_solenoidal_field, recover_pressure, run,
                        single_mode_field, step)
from .diagnostics import (DecayBoundReport, EnergyBudget, GrowthFit,
                          budget_series, check_decay_bound, energy_budget,
                          fit_growth, integrated_identity_residual)
from .config import ExperimentConfig, ExperimentKind, load_config, parse_config
from .experiments import ExperimentReport, run_experiment

__version__ = "0.1.0"
