"""Exact 1-Wasserstein distances on trees.

Highlights: an exact flow/potential solver on arbitrary finite trees, an
independent exact LP oracle with duality certificates, closed evaluations for
radially symmetric measures on regular trees (lazy random walks, spheres,
balls), their generating functions, and the rational coefficients of their
linear large-time asymptotics.
"""

from .errors import (DuplicateEdge, HasCycle, InexactDivision, InfeasiblePotential,
                     InvalidAlpha, InvalidParams, MassMismatch, NonSquareConstantTerm,
                     NonUnitDivisor, NotConnected, OrderExceeded, TooLarge, TreeOTError,
                     TruncationTooSmall)
from .rational import decimal_string, format_rational, parse_rational
from .tree import (Assignment, Flow, Measure, Potential, Tree, assignment_from, divergence,
                   flow_cost, good_potential, potential_value, unique_flow, validate_tree,
                   w1_tree)
from .lp import (DualityReport, FiniteGraph, TransportPlan, check_complementary_slackness,
                 verify_duality, w1_lp)
from .regular import (BasepointCoord, PairGeometry, RadialProfile, TruncatedRegularTree,
                      ball_profile, ball_size, build_truncated_tree,
                      flow_direction_check, point_mass_profile, profile_total_mass,
                      radial_measure, radial_potential, radial_potential_field,
                      sphere_profile, sphere_size, w1_radial_flow_formula,
                      w1_radial_formula)
from .series import Series
from .families import (GFBundle, GTable, ball_g_table, ball_gf, bundle_from_table,
                       check_functional_equation, sphere_g_table, sphere_gf, srw_closed_form,
                       srw_closed_form_rows, srw_g_table, srw_profile, srw_return_sequence,
                       w1_via_genfun)
from .asymptotics import (ChiValues, CurvatureValue, GammaAsymptotic, HValues,
                          InequalityReport, LinearAsymptotic, ball_AB, ball_d1_exact,
                          chi_tree, gamma_asymptotic, h_values, interval_contains,
                          interval_mid, kappa_curvature, sphere_AB, srw_AB, verify_inequalities)
from .instances import (demo_instance, dump_instance, instance_from_dict, instance_to_dict,
                        load_instance)

__version__ = "0.1.0"
