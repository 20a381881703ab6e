"""Geometry-based Monte Carlo simulator for multipath arrival angles.

Generates per-path arrival angles and powers from a delay profile, a
Tx-Rx distance, and a transmit antenna pattern; estimates the binned
angle-of-arrival distribution; and quantifies angular dispersion (rms
angle spread) as a function of antenna beamwidth.
"""

# Set before the imports: aoasim.writers reads it while the package loads.
__version__ = "0.6.0"

# The names the command line, the acceptance tests and the benchmark use;
# everything else is imported from its module.
from .angular import (
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    composite_aoa_pdf,
    delayed_aoa_pdf,
    ellipses_for_taps,
    sigma_from_hpbw,
)
from .estimation import estimate_pdf, lse, rms_angle_spread
from .geometry import aoa_jacobian, aoa_to_aod, aod_to_aoa
from .montecarlo import PathSet, generate_trial, sample_aod
from .scenario import ScenarioConfig, extract_taps, hpbw_sweep, run_simulation

__all__ = [
    "GaussianPattern",
    "LocalScattering",
    "OmniPattern",
    "PathSet",
    "ScenarioConfig",
    "TabulatedPattern",
    "Tap",
    "TapProfile",
    "aoa_jacobian",
    "aoa_to_aod",
    "aod_to_aoa",
    "composite_aoa_pdf",
    "delayed_aoa_pdf",
    "ellipses_for_taps",
    "estimate_pdf",
    "extract_taps",
    "generate_trial",
    "hpbw_sweep",
    "lse",
    "rms_angle_spread",
    "run_simulation",
    "sample_aod",
    "sigma_from_hpbw",
]
