"""Radial pseudospectral simulator and analysis toolkit for the 3D
Klein-Gordon-Zakharov system."""

from .radial import RadialGrid, analyze, kg_propagate, synthesize, wave_propagate
from .kgz import (
    BlowupError,
    SimConfig,
    Trajectory,
    energy,
    from_first_order,
    gaussian_data,
    run_simulation,
    to_first_order,
)
from .resonance import (
    InteractionTag,
    LemmaGridSpec,
    ResonanceParams,
    compute_params,
    decompose_bilinear,
    in_support,
    omega,
    omega_tilde,
    verify_lemma_bounds,
    verify_profile_bound,
)
from .normalform import (
    BilinearOperator,
    BilinearSymbol,
    duhamel_residual,
    estimate_sweep,
    normal_form_terms,
)
from .strichartz import (
    GuardError,
    ResolutionNorms,
    beta_exponent,
    measure_spacetime_norm,
    resolution_norm,
    resolution_norms,
    scattering_profile,
    sharpness_witness,
    strichartz_scan,
)

__version__ = "0.1.0"
