"""Exact-arithmetic toolkit for the positive-primitive calculus of modules
over finite-dimensional algebras: evaluation and duality of pp formulas,
Krull-Schmidt decomposition, one-point extension towers with a full
finitely-presented classification, ray-tube mesh calculus with a verified
tower realization, and a symbolic closure engine for the spectra of
indecomposable pure-injectives."""

__version__ = "0.1.0"

from .fields import GF, QQ, field_from_spec
from .linalg import (Matrix, Subspace, projected_kernel, subspace_leq,
                     subspace_meet, subspace_sum)
from .algebra import FDAlgebra, kronecker_algebra, truncated_dvr
from .modules import (Module, ModuleMap, Presentation, cokernel, direct_sum,
                      free_module, hom_space, identity_map, iso_test, k_dual,
                      module_generators, presentation_of, quotient_module,
                      regular_module, submodule, zero_map)
from .decompose import (Decomposition, RadicalCalculus, decompose,
                        radical_subspace)
from .ppformula import (FreeRealization, PpFormula, PpPair, annihilator,
                        bottom, divisibility, dual, pp_meet, pp_sum,
                        pp_type_generator, pp_type_generator_of_element,
                        tautology)
from .ppsyntax import format_formula, parse_formula
from .probes import (INCONCLUSIVE, NOT_SHORT_WITNESS, SHORT_WITHIN_BOUND,
                     ProbeReport, interval_probe, probe_embedding, theta_pool)
from .tower import (FpLabel, TowerRing, all_labels, build_tower, classify,
                    construct_label, f0, f0_map, f1, f1_map,
                    identify_indecomposable, label_module, left_projectives,
                    lift, natural_embedding, restrict, t_module,
                    verify_hom_bounds)
from .tube import (Arrow, NormalPath, TranslationQuiver, ZERO, build_ray_tube,
                   hom_dimension, normalize_path, parse_tube_descriptor)
from .realize import (RealizedTube, realize_in_tower, stage_bimodule,
                      verify_bimodule_idempotents, verify_pushout_pullback)
from .ziegler import (PointSet, ZieglerPoint, closure, is_closed,
                      parse_point, parse_point_set, point_closure, points)
from .errors import (HorizonExceeded, SquareFailed, UnclassifiedSummand,
                     Undecided)
