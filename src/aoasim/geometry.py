"""Multi-elliptical scattering geometry.

Scatterers responsible for a given excess delay lie on an ellipse with
the transmitter and receiver at the foci; one ellipse per delay tap.
The ellipse eccentricity controls how strongly departure angles at the
transmitter compress into arrival angles at the receiver.

Angle convention used throughout the package: azimuth in radians,
wrapped to (-pi, pi], zero along the Tx-Rx line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inputs import _check_eccentricity, _check_nonnegative
from .kernels import _TWO_PI, _half_angle_map

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value


@dataclass(frozen=True)
class EllipseGeometry:
    """One delay tap's ellipse.

    major_axis is the full axis (focus-to-focus distance plus the
    excess path length), not the semi-axis.
    """

    major_axis: float
    eccentricity: float


def wrap_angle(phi):
    """Wrap angle(s) to (-pi, pi].  Accepts scalars or arrays.

    Values already inside the interval pass through bit-exactly, so
    wrapping never perturbs in-range angles; -pi moves to pi.
    """
    scalar = np.ndim(phi) == 0
    arr = np.asarray(phi, dtype=float)
    wrapped = np.mod(arr, _TWO_PI)
    wrapped = np.where(wrapped > np.pi, wrapped - _TWO_PI, wrapped)
    out = np.where((arr > -np.pi) & (arr <= np.pi), arr, wrapped)
    return float(out) if scalar else out


def _read_only(arr):
    """arr, marked read-only: for arrays computed once and then shared."""
    arr.flags.writeable = False
    return arr


def ellipse_params(distance, delay):
    """Build the ellipse for one excess-delay tap.

    distance: Tx-Rx separation in meters (focal distance of the ellipse).
    delay: excess delay in seconds; must be positive.  The zero-delay
        tap carries receiver-local scattering and never builds an ellipse.

    Returns an EllipseGeometry with major_axis = distance + c * delay
    and eccentricity = distance / major_axis (zero when distance is 0).
    """
    _check_nonnegative(distance, "distance")
    if not 0.0 < delay < np.inf:
        raise ValueError(f"delay must be positive and finite (zero delay is the "
                         f"local-scattering tap), got {delay}")
    major_axis = distance + SPEED_OF_LIGHT * delay
    return EllipseGeometry(major_axis=major_axis, eccentricity=distance / major_axis)


def _half_angle_ratio(eccentricity):
    # (1-e)/(1+e) of each eccentricity, checked: the ratio of aod_to_aoa,
    # which a scenario keeps per path column (ScenarioConfig.half_angle_ratios).
    ecc = _check_eccentricity(eccentricity)
    return (1.0 - ecc) / (1.0 + ecc)


def aod_to_aoa(phi_t, eccentricity):
    """Arrival angle at the receiver for a departure angle on one ellipse.

    The map satisfies
        cos(phi_r) = (2e + (1 + e^2) cos(phi_t)) / (1 + e^2 + 2e cos(phi_t))
    with the sign of phi_t preserved.  It is evaluated in the equivalent
    half-angle form tan(phi_r/2) = (1-e)/(1+e) * tan(phi_t/2), which is
    stable near the boresight and back-lobe fixed points for any e < 1.

    Odd, strictly increasing, and contracting: |phi_r| <= |phi_t|, with
    0 and pi as fixed points.  Accepts scalars or arrays, and one
    eccentricity or an array of them broadcast along the last axis of
    phi_t (one per column), each checked to lie in [0, 1).  A column
    with e = 0 comes back unchanged, bit for bit.
    """
    return _half_angle_map(wrap_angle(phi_t), _half_angle_ratio(eccentricity))


def aoa_to_aod(phi_r, eccentricity):
    """Departure angle that produces the given arrival angle (inverse map).

    Algebraic inverse of aod_to_aoa for the same eccentricity:
    tan(phi_t/2) = (1+e)/(1-e) * tan(phi_r/2).  Round-trips with
    aod_to_aoa to machine precision.  Accepts scalars or arrays.
    """
    ecc = _check_eccentricity(eccentricity)
    return _half_angle_map(wrap_angle(phi_r), (1.0 + ecc) / (1.0 - ecc))


def _jacobian(phi_t, ecc):
    # aoa_jacobian's formula, on angles and an eccentricity already checked.
    return (1.0 - ecc * ecc) / (1.0 + ecc * ecc + 2.0 * ecc * np.cos(phi_t))


def aoa_jacobian(phi_t, eccentricity):
    """Derivative |d phi_r / d phi_t| of the departure-to-arrival map.

    Closed form (1 - e^2) / (1 + e^2 + 2e cos(phi_t)), obtained from the
    identity sin(phi_r) = sin(phi_t) (1 - e^2) / (1 + e^2 + 2e cos(phi_t)).
    Strictly positive and continuous on the whole circle, including the
    phi_t in {0, +/-pi} limits.  Accepts scalars or arrays.
    """
    ecc = _check_eccentricity(eccentricity)
    value = _jacobian(np.asarray(wrap_angle(phi_t), dtype=float), ecc)
    return float(value) if np.ndim(phi_t) == 0 else value
