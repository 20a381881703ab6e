"""Geometry-based Monte Carlo simulator for multipath arrival angles.

Generates per-path arrival angles and powers from a delay profile, a
Tx-Rx distance, and a transmit antenna pattern; estimates the binned
angle-of-arrival distribution; and quantifies angular dispersion (rms
angle spread) as a function of antenna beamwidth.
"""

from .angular import (
    AntennaPattern,
    GaussianPattern,
    LocalScattering,
    OmniPattern,
    TabulatedPattern,
    Tap,
    TapProfile,
    aod_pdf,
    composite_aoa_pdf,
    delayed_aoa_pdf,
    ellipses_for_taps,
    sigma_from_hpbw,
    von_mises_pdf,
)
from .estimation import (
    AngularSpectrum,
    estimate_pdf,
    lse,
    rms_angle_spread,
    rms_angle_spread_paths,
)
from .geometry import (
    SPEED_OF_LIGHT,
    EllipseGeometry,
    aoa_jacobian,
    aoa_to_aod,
    aod_to_aoa,
    ellipse_params,
    wrap_angle,
)
from .montecarlo import (
    PathSet,
    generate_trial,
    generate_trials,
    sample_aod,
    sample_local_aoa,
    sample_local_powers,
    sample_tap_powers,
)
from .scenario import (
    RunReport,
    ScenarioConfig,
    SweepPoint,
    extract_taps,
    hpbw_sweep,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern",
    "AngularSpectrum",
    "EllipseGeometry",
    "GaussianPattern",
    "LocalScattering",
    "OmniPattern",
    "PathSet",
    "RunReport",
    "ScenarioConfig",
    "SweepPoint",
    "SPEED_OF_LIGHT",
    "TabulatedPattern",
    "Tap",
    "TapProfile",
    "aoa_jacobian",
    "aoa_to_aod",
    "aod_pdf",
    "aod_to_aoa",
    "composite_aoa_pdf",
    "delayed_aoa_pdf",
    "ellipse_params",
    "ellipses_for_taps",
    "estimate_pdf",
    "extract_taps",
    "generate_trial",
    "generate_trials",
    "hpbw_sweep",
    "lse",
    "rms_angle_spread",
    "rms_angle_spread_paths",
    "run_simulation",
    "sample_aod",
    "sample_local_aoa",
    "sample_local_powers",
    "sample_tap_powers",
    "sigma_from_hpbw",
    "von_mises_pdf",
    "wrap_angle",
]
