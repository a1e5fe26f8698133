"""Horizon geometry, Hamiltonian flows, complex absorption, quasinormal-mode
computations, and Mellin-transform asymptotics for de Sitter-type model
spacetimes."""

__version__ = "0.1.0"

from .spacetime import (SpacetimeParams, HorizonData, AdmissibilityReport,
                        NoHorizons, PolarSingularity, mu_tilde, horizon_roots,
                        admissibility, load_params)
from .symbols import (PhasePoint, CompactPhasePoint, kds_classical_symbol,
                      ds_symbol_polar)
from .dynamics import (Bicharacteristic, RadialSetReport, TrappedSetPoint,
                       LinearizationSpectrum, integrate_flow, classify_radial,
                       find_trapped_set, trapping_linearization)
from .absorption import (AbsorbingSpec, EllipticityReport, BranchCut, f_z,
                         q_semiclassical, extend_p, ellipticity_scan)
from .resonances import (DiscretizedOperator, Resonance, ResonanceList,
                         build_operator, solve_resonances, oracle_shooting,
                         resolvent_apply, gluing_check)
from .mellin import (TemporalSamples, ExpansionTerm, mellin_transform,
                     inverse_mellin, resonance_expand, fit_decay)
