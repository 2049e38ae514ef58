"""Simulation and verification toolkit for isometric stochastic flows on the
unit sphere in R^8 and their transport onto a twisted-structure model surface.
"""

from .symplectic import (bullet_action, is_member, membership_residuals,
                         project_bullet, qconj, qmul, random_sp_matrix,
                         random_unit_quaternion, real_form, star_action)
from .frames import (CombinedField, FRAME_GENERATORS, frame_eval, frame_field,
                     generator_matrix, killing_residual, lie_derivative_metric,
                     plane_generator)
from .geometry import (geodesic_distance, random_sphere_point, sphere_volume,
                       to_cartesian, to_spherical, volume_element)
from .integrators import (EnsembleResult, NoisePath, SdeProblem,
                          brownian_problem, combination_problem,
                          exact_rotation_step, heun_stratonovich_step,
                          ito_euler_step, sample_brownian, simulate_ensemble,
                          single_frame_problem)
from .flows import IntegratedFlow, RotationFlow, isometry_check
from .density import (DensityEstimate, EntropyReport, GridSpec, entropy,
                      estimate_density, fokker_planck_residual,
                      generator_weak_check, max_entropy, uniform_density)
from .exotic import ExoticMap, circle_images, entropy_on_surface, pushforward_field

__version__ = "0.1.0"
