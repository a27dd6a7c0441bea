"""Chernoff shift-operator approximations of Feller semigroups on manifolds.

The package numerically realizes S(t/n)^n approximations of the semigroup
generated by L = 1/2 sum_k A_k A_k + A_0 + c on built-in Riemannian
manifolds, together with the associated random-walk constructions, and
validates them against closed-form heat kernels and a finite-difference
solver.
"""

from .chernoff import (
    ChernoffVariant,
    apply_S_batch,
    consistency_defect,
    iterate_grid,
    iterate_mc,
    iterate_tree,
)
from .fields import (
    GeneratorSpec,
    VectorField,
    apply_generator,
    check_dominance,
    constant_field,
    expression_field,
    field_from_string,
    frame_field,
    rotational_field,
    zero_field,
)
from .flows import (
    OdeSettings,
    monotone_distance_horizon,
    verify_distance_monotonicity,
)
from .grids import GridFunction
from .manifolds import (
    Manifold,
    Point,
    circle,
    euclidean,
    hyperbolic_h2,
    manifold_from_string,
    sphere2,
    torus2,
)
from .reference import FdSolverSettings, HeatKernelId, exact_semigroup, fd_solve
from .walks import (
    PathSample,
    WalkStats,
    estimate_expectation,
    ks_distance_to,
    modulus_of_continuity,
    sample_flow_interp,
    sample_geodesic_interp,
    sample_jump_path,
    sample_path,
)

__version__ = "0.1.0"
