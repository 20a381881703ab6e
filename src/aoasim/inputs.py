"""Input rules: the file readers (_read_text, json_*), one rule function per kind of
input record (_check_*), the range of each count and the file units (_DEG, _US).
Each rule is called at every boundary with its names and units.  Imports no other
aoasim module.
"""

import math

import numpy as np

_DEG = np.pi / 180.0  # radians per degree
_US = 1e-6  # seconds per microsecond

# Tolerance on sum(probabilities) + point_mass == 1 for a valid spectrum.
NORMALIZATION_TOL = 1e-9

# The range of each count of a ScenarioConfig, which the scenario reader and
# the command line also check under their own names for it (seed, --seed).
# Bins stop at the largest count the tests cover (_Bins.index is exact below 1e9).
_MAX_BINS = 2 ** 20
_COUNT_RANGES = {"trials": (1, None), "bins": (8, _MAX_BINS), "master_seed": (0, 2 ** 64 - 1)}


def _read_text(path, newline=None):
    """The text of the UTF-8 file at path, read with open's newline; bytes
    that are not UTF-8 are a ValueError that names the path."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _check_finite_angles(phi):
    """phi as a float array, checked to be finite (of any turn: the caller wraps it)."""
    arr = np.asarray(phi, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("angles must be finite")
    return arr


def _check_angles(phi):
    """phi as a float array, checked to be finite and in (-pi, pi]."""
    arr = np.asarray(phi, dtype=float)
    # One pass for both checks: NaN fails every comparison.
    if not ((arr > -np.pi) & (arr <= np.pi)).all():
        _check_finite_angles(arr)
        raise ValueError("angles must lie in (-pi, pi]")
    return arr


def _check_count(value, name, least=None, most=None):
    """value as an int, checked to be a Python or NumPy integer and not a bool,
    and to lie in [least, most] where they are given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least or most is not None and value > most:
        bounds = f"at least {least}" if most is None else f"from {least} to {most}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)


def _check_nonnegative(value, name):
    """value, checked to be finite and nonnegative (NaN fails); the error names name."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _check_eccentricity(eccentricity):
    # Reject rather than clip: e >= 1 would silently produce garbage angles.
    # One eccentricity, or one per column; the first bad one is reported.
    ecc = np.asarray(eccentricity, dtype=float)
    valid = (0.0 <= ecc) & (ecc < 1.0)
    if not valid.all():
        raise ValueError(f"eccentricity must lie in [0, 1), got {ecc.flat[np.argmin(valid)]}")
    return ecc


def _check_point_mass(point_mass):
    if not 0.0 <= point_mass <= 1.0 + NORMALIZATION_TOL:
        raise ValueError(f"point mass must be a probability, got {point_mass}")


def _check_normalized(defects):
    """Each of defects, |sum of a spectrum's probabilities or of a trial's path
    weights + point mass - 1|, within NORMALIZATION_TOL; the first that is not,
    NaN included, is named."""
    normalized = defects <= NORMALIZATION_TOL
    if not np.all(normalized):
        defect = np.ravel(defects)[np.argmin(normalized)]
        raise ValueError(f"spectrum is not normalized (defect {defect:.3e})")


def _check_hpbw(value, name, degrees=False):
    """value, a beamwidth in radians or, if degrees, in degrees, checked as it is
    kept, 0 < value * scale <= 2*pi radians; the error names name in its unit."""
    scale, span = (_DEG, "(0, 360] degrees") if degrees else (1.0, "(0, 2*pi]")
    if not 0.0 < value * scale <= 2.0 * np.pi:
        raise ValueError(f"{name} must lie in {span}, got {value}")
    return value


# Scenario-file fields are read through these checks, so a missing or
# unknown key, a bool or a string where a number belongs, or a fractional
# count is a ValueError naming the field by its JSON path, such as
# "trials", "taps[2].power" or "pattern.hpbw_deg".

def _json_path(path, key):
    return f"{path}.{key}" if path else key


def json_object(doc, keys, path=""):
    """doc, checked to be a JSON object whose keys all lie in keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or 'scenario'} must be a JSON object")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown key: {_json_path(path, key)}")
    return doc


def json_number(value, path, integer=False):
    """value as a float, or as an int when integer; bools are rejected."""
    if integer:
        return _check_count(value, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path} is out of range, got {value}") from None


def json_field(doc, key, default=None, integer=False, path=""):
    """doc[key] read by json_number; a missing key takes default if given."""
    if key not in doc:
        if default is None:
            raise ValueError(f"{_json_path(path, key)} is required")
        return default
    return json_number(doc[key], _json_path(path, key), integer)


def json_pairs(doc, key, path=""):
    """doc[key] as a list of (float, float) from a list of [x, y] pairs."""
    where = _json_path(path, key)
    rows = doc.get(key)
    if not isinstance(rows, list):
        raise ValueError(f"{where} must be a list of [x, y] pairs")
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise ValueError(f"{where}[{i}] must be an [x, y] pair")
        pairs.append(tuple(json_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return pairs


# One rule function per kind of input record, called at each boundary with
# its names and units: field(i, j) names column j of row i ("pdp[2][0]").  A
# value is checked as it is kept, times scale, and reported as written.

def _check_increasing(rows, field, scale=1.0):
    """Column 0 of rows checked to increase strictly once multiplied by scale."""
    for i in range(1, len(rows)):
        before, value = rows[i - 1][0], rows[i][0]
        if not value * scale > before * scale:
            converted = " (equal once converted)" if value > before else ""
            raise ValueError(f"{field(i, 0)} must be greater than {field(i - 1, 0)}, "
                             f"got {value} after {before}{converted}")


def _check_profile(rows, field, scale=1.0):
    """The rules of a PDP's (delay, power) rows and a tap list's (delay, power,
    paths): delays finite, the first 0 and the rest increasing; powers
    positive and finite; paths at least 1."""
    for i, (delay, power, *paths) in enumerate(rows):
        if not math.isfinite(delay):
            raise ValueError(f"{field(i, 0)} must be finite, got {delay}")
        if not 0.0 < power < math.inf:
            raise ValueError(f"{field(i, 1)} must be positive and finite, got {power}")
        for count in paths:
            _check_count(count, field(i, 2), 1)
    if rows and rows[0][0] != 0.0:
        raise ValueError(f"{field(0, 0)} must be 0 (the zero-delay tap), got {rows[0][0]}")
    _check_increasing(rows, field, scale)


def _check_taps(taps, names, scale=1.0):
    """The profile rules on each tap's (delay, power, path count), named taps[i].<names[j]>."""
    if not taps:
        raise ValueError("taps must hold at least the zero-delay tap")
    _check_profile(taps, lambda i, j: f"taps[{i}].{names[j]}", scale)


def _check_samples(samples, where, degrees=False):
    """The rules of a tabulated pattern's (angle, amplitude) rows, named where[i][j]: at
    least 8; angles in the turn, increasing; amplitudes finite, nonnegative, not all 0."""
    if len(samples) < 8:
        raise ValueError(f"{where} must hold at least 8 samples, got {len(samples)}")
    scale, turn = (_DEG, "(-180, 180] degrees") if degrees else (1.0, "(-pi, pi]")
    field = (where + "[{}][{}]").format
    for i, (angle, amplitude) in enumerate(samples):
        if not -np.pi < angle * scale <= np.pi:  # NaN fails it too
            raise ValueError(f"{field(i, 0)} must lie in {turn}, got {angle}")
        _check_nonnegative(amplitude, field(i, 1))
    _check_increasing(samples, field, scale)
    if not any(amplitude > 0.0 for _, amplitude in samples):
        raise ValueError(f"{where} must hold a positive amplitude, got all 0")
