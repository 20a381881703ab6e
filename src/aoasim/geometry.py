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

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value

_TWO_PI = 2.0 * np.pi
_DEG = np.pi / 180.0  # radians per degree
_US = 1e-6  # seconds per microsecond


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
    wrapping never perturbs in-range angles.  Angles on [-pi, pi], as
    every quantile function returns them, take one pass: only -pi moves,
    to pi.  Anything else (out of range, infinite or NaN) goes through
    the modulo.
    """
    scalar = np.ndim(phi) == 0
    arr = np.asarray(phi, dtype=float)
    # min and max propagate NaN, which fails both comparisons.
    if arr.size and -np.pi <= arr.min() and arr.max() <= np.pi:
        out = np.where(arr == -np.pi, np.pi, arr)
    else:
        wrapped = np.mod(arr, _TWO_PI)
        wrapped = np.where(wrapped > np.pi, wrapped - _TWO_PI, wrapped)
        out = np.where((arr > -np.pi) & (arr <= np.pi), arr, wrapped)
    return float(out) if scalar else out


def _check_angles(phi):
    """phi as a float array, checked to be finite and in (-pi, pi]."""
    arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angles must be finite")
    if np.any(arr <= -np.pi) or np.any(arr > np.pi):
        raise ValueError("angles must lie in (-pi, pi]")
    return arr


def ellipse_params(distance, delay):
    """Build the ellipse for one excess-delay tap.

    distance: Tx-Rx separation in meters (focal distance of the ellipse).
    delay: excess delay in seconds; must be positive.  The zero-delay
        tap carries receiver-local scattering and never builds an ellipse.

    Returns an EllipseGeometry with major_axis = distance + c * delay
    and eccentricity = distance / major_axis (zero when distance is 0).
    """
    if distance < 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    if delay <= 0:
        raise ValueError(
            f"delay must be positive (zero delay is the local-scattering tap), got {delay}"
        )
    major_axis = distance + SPEED_OF_LIGHT * delay
    return EllipseGeometry(major_axis=major_axis, eccentricity=distance / major_axis)


def _check_eccentricity(eccentricity):
    # Reject rather than clip: e >= 1 would silently produce garbage angles.
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {eccentricity}")
    return float(eccentricity)


def _half_angle_map(phi, ratio):
    # tan(out/2) = ratio * tan(phi/2), with the +/-pi fixed point kept
    # exact; ratio 1 (a circle) is the identity.
    scalar = np.ndim(phi) == 0
    phi = np.asarray(wrap_angle(phi), dtype=float)
    if ratio == 1.0:
        mapped = phi
    else:
        mapped = 2.0 * np.arctan(ratio * np.tan(0.5 * phi))
        mapped = np.where(phi == np.pi, np.pi, mapped)
    return float(mapped) if scalar else mapped


def aod_to_aoa(phi_t, eccentricity):
    """Arrival angle at the receiver for a departure angle on one ellipse.

    The map satisfies
        cos(phi_r) = (2e + (1 + e^2) cos(phi_t)) / (1 + e^2 + 2e cos(phi_t))
    with the sign of phi_t preserved.  It is evaluated in the equivalent
    half-angle form tan(phi_r/2) = (1-e)/(1+e) * tan(phi_t/2), which is
    stable near the boresight and back-lobe fixed points for any e < 1.

    Odd, strictly increasing, and contracting: |phi_r| <= |phi_t|, with
    0 and pi as fixed points.  Accepts scalars or arrays.
    """
    ecc = _check_eccentricity(eccentricity)
    return _half_angle_map(phi_t, (1.0 - ecc) / (1.0 + ecc))


def aoa_to_aod(phi_r, eccentricity):
    """Departure angle that produces the given arrival angle (inverse map).

    Algebraic inverse of aod_to_aoa for the same eccentricity:
    tan(phi_t/2) = (1+e)/(1-e) * tan(phi_r/2).  Round-trips with
    aod_to_aoa to machine precision.  Accepts scalars or arrays.
    """
    ecc = _check_eccentricity(eccentricity)
    return _half_angle_map(phi_r, (1.0 + ecc) / (1.0 - ecc))


def aoa_jacobian(phi_t, eccentricity):
    """Derivative |d phi_r / d phi_t| of the departure-to-arrival map.

    Closed form (1 - e^2) / (1 + e^2 + 2e cos(phi_t)), obtained from the
    identity sin(phi_r) = sin(phi_t) (1 - e^2) / (1 + e^2 + 2e cos(phi_t)).
    Strictly positive and continuous on the whole circle, including the
    phi_t in {0, +/-pi} limits.  Accepts scalars or arrays.
    """
    ecc = _check_eccentricity(eccentricity)
    scalar = np.ndim(phi_t) == 0
    phi = np.asarray(wrap_angle(phi_t), dtype=float)
    value = (1.0 - ecc * ecc) / (1.0 + ecc * ecc + 2.0 * ecc * np.cos(phi))
    return float(value) if scalar else value
