"""Entanglement analysis for bipartite states over non-orthogonal components.

The state (mu, nu, x, y) embeds into a 4-dimensional product basis; from
there the package derives the Schmidt form, the CHSH value and its
deviation-from-maximality d, concurrence and entanglement entropy (each by
two independent routes), the feasibility case analysis over the overlap
pattern, and the neutral-kaon application.
"""

from .bell import analytic_bell, oracle_bell_max
from .errors import (DomainError, LinearDependence, NoCompatibleNu,
                     NonHermitianDrift, NonorthoError, NotNormalized,
                     PhaseUndefined, SingularNorm, ZeroState)
from .feasibility import (ClosedFormDeviation, FeasibilityVerdict, concurrence_scan,
                          deviation, deviation_closed_form, maximal_feasibility,
                          mu_squared_solutions, nn_case_floor, on_case_floor)
from .kaon import (KaonEvolution, kaon_deviation_closed_form, kaon_entangled_state,
                   kaon_overlap, kaon_overlap_mag_sq_alt, mass_eigenstates,
                   weak_decay_norm)
from .measures import (concurrence_det, concurrence_spin_flip,
                       entanglement_entropy, entropy_direct)
from .report import EntanglementReport, analyze_state, kaon_report
from .schmidt import (SchmidtForm, eigh_2x2, reconstruct, reduced_density,
                      schmidt_decompose, schmidt_eigenvalues)
from .state import (NonorthogonalState, embed, eta_phase, make_state,
                    state_from_magnitudes, wrap_angle)
from .verify import run_verify

__version__ = "0.1.0"
