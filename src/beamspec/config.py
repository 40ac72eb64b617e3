"""Problem instances: coefficient profiles for both spans plus the joint mass.

A system is two beam spans, (-1, 0) and (0, 1), each described by three
polynomials in x (ascending powers): density ``rho``, flexural rigidity
``sigma`` and axial force ``q``, together with a nonnegative point mass M
attached where the spans meet at x = 0.

JSON schema accepted by :func:`parse_system` / :func:`load_system`::

    {"M": 1.0,
     "left":  {"rho": [2, 1], "sigma": [1, 0, 1], "q": [1, 1]},
     "right": {"rho": [1, 0, 1], "sigma": [2, -1], "q": [1]}}

"q" may be omitted and defaults to [0].  Polynomial degree is capped at 8.
Admissibility is checked by sampling each polynomial on a 1001-point uniform
grid of the closed span: rho and sigma must stay >= 1e-8 and q >= -1e-12
(q values in the tiny-negative band are clamped to zero on evaluation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 1001
MIN_RHO_SIGMA = 1e-8
MIN_Q = -1e-12
MAX_DEGREE = 8

_INTERVALS = {"left": (-1.0, 0.0), "right": (0.0, 1.0)}


class ConfigError(ValueError):
    """The configuration document violates the schema."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConstraintError(ConfigError):
    """A coefficient polynomial breaks its positivity bound on the span."""


def horner(coeffs, x):
    """Evaluate a polynomial with ascending coefficients at scalar x."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_coeffs(name, raw):
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        raise ConfigError(f"'{name}' must be a non-empty array of numbers", key=name)
    if len(raw) > MAX_DEGREE + 1:
        raise ConfigError(f"'{name}' exceeds degree {MAX_DEGREE}", key=name)
    out = []
    for i, c in enumerate(raw):
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
            raise ConfigError(f"'{name}[{i}]' is not a finite number", key=name)
        out.append(float(c))
    return tuple(out)


@dataclass(frozen=True)
class CoefficientProfile:
    """Polynomial coefficients of one span; immutable and validated on build.

    side is "left" for the span (-1, 0) or "right" for (0, 1).
    """

    side: str
    rho: tuple
    sigma: tuple
    q: tuple = (0.0,)

    def __post_init__(self):
        if self.side not in _INTERVALS:
            raise ConfigError(f"side must be 'left' or 'right', got {self.side!r}", key="side")
        for name in ("rho", "sigma", "q"):
            object.__setattr__(self, name, _check_coeffs(name, getattr(self, name)))
        lo, hi = self.interval
        xs = np.linspace(lo, hi, GRID_POINTS)
        for name, floor, word in (
            ("rho", MIN_RHO_SIGMA, "nonpositive"),
            ("sigma", MIN_RHO_SIGMA, "nonpositive"),
            ("q", MIN_Q, "negative"),
        ):
            vals = np.polynomial.polynomial.polyval(xs, getattr(self, name))
            i = int(np.argmin(vals))
            if vals[i] < floor:
                raise ConstraintError(
                    f"{name} {word} at x={xs[i]:.6g} (value {vals[i]:.6g})", key=name
                )

    @property
    def interval(self):
        return _INTERVALS[self.side]


@dataclass(frozen=True)
class BeamSystem:
    """Two coefficient profiles plus the point mass at the joint."""

    left: CoefficientProfile
    right: CoefficientProfile
    mass: float

    def __post_init__(self):
        if self.left.side != "left" or self.right.side != "right":
            raise ConfigError("profiles must carry sides 'left' and 'right'")
        m = self.mass
        if isinstance(m, bool) or not isinstance(m, (int, float)) or not math.isfinite(m) or m < 0:
            raise ConfigError("'M' must be a finite number >= 0", key="M")
        object.__setattr__(self, "mass", float(m))


def eval_coeff(profile, which, x):
    """Horner evaluation of one named coefficient at x inside the closed span.

    x may be a scalar (a float is returned) or an array of points.
    q is clamped to zero from below (the accepted tiny-negative band).
    """
    if which not in ("rho", "sigma", "q"):
        raise ValueError(f"which must be 'rho', 'sigma' or 'q', got {which!r}")
    lo, hi = profile.interval
    xs = np.asarray(x, dtype=float)
    inside = (lo - 1e-12 <= xs) & (xs <= hi + 1e-12)
    if not np.all(inside):
        raise ValueError(f"x={xs[~inside][0]:g} outside span [{lo:g}, {hi:g}]")
    val = eval_stacked(getattr(profile, which), which, xs)
    return float(val) if val.ndim == 0 else val


def stack_coeffs(profiles, which):
    """One named coefficient of several profiles as columns.

    Returns an array (degree + 1, len(profiles)), ascending powers, each
    column zero-padded to the highest degree (the padding leaves Horner's
    values unchanged to the last bit).
    """
    columns = [getattr(p, which) for p in profiles]
    out = np.zeros((max(map(len, columns)), len(columns)))
    for j, c in enumerate(columns):
        out[:len(c), j] = c
    return out


def eval_stacked(coeffs, which, x):
    """Horner evaluation of ascending coefficients, one set or stacked columns.

    coeffs is a sequence of coefficients or an array (degree + 1, k) from
    stack_coeffs; x broadcasts against its columns, e.g. x of shape (..., k)
    evaluates column j at x[..., j].  No span check: callers keep x inside.
    q is clamped to zero from below (the accepted tiny-negative band).
    """
    val = horner(coeffs, x)
    if which == "q":
        val = np.maximum(val, 0.0)
    return val


def mirrored(profile):
    """The same span under x -> -x: the coefficients of p(-x), opposite side.

    Odd powers change sign.  A solution u of one span gives u(-x) on the
    mirror, with quasi-derivative state (u, -u', sigma*u'', -Tu).
    """
    def flip(coeffs):
        return tuple(-c if k % 2 else c for k, c in enumerate(coeffs))

    side = "left" if profile.side == "right" else "right"
    return CoefficientProfile(side, flip(profile.rho), flip(profile.sigma), flip(profile.q))


def _parse_side(doc, side):
    if side not in doc:
        raise ConfigError(f"missing key '{side}'", key=side)
    block = doc[side]
    if not isinstance(block, dict):
        raise ConfigError(f"'{side}' must be an object", key=side)
    extra = set(block) - {"rho", "sigma", "q"}
    if extra:
        key = f"{side}.{sorted(extra)[0]}"
        raise ConfigError(f"unknown key '{key}'", key=key)
    for req in ("rho", "sigma"):
        if req not in block:
            raise ConfigError(f"missing key '{side}.{req}'", key=f"{side}.{req}")
    return CoefficientProfile(
        side=side,
        rho=block["rho"],
        sigma=block["sigma"],
        q=block.get("q", [0.0]),
    )


def parse_system(text):
    """Parse and validate a JSON configuration document into a BeamSystem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level value must be an object")
    extra = set(doc) - {"M", "left", "right"}
    if extra:
        raise ConfigError(f"unknown key '{sorted(extra)[0]}'", key=sorted(extra)[0])
    if "M" not in doc:
        raise ConfigError("missing key 'M'", key="M")
    return BeamSystem(
        left=_parse_side(doc, "left"),
        right=_parse_side(doc, "right"),
        mass=doc["M"],
    )


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def serialize_system(system):
    """Inverse of parse_system on accepted documents (round-trip identity)."""
    doc = {
        "M": system.mass,
        "left": {
            "rho": list(system.left.rho),
            "sigma": list(system.left.sigma),
            "q": list(system.left.q),
        },
        "right": {
            "rho": list(system.right.rho),
            "sigma": list(system.right.sigma),
            "q": list(system.right.q),
        },
    }
    return json.dumps(doc, indent=2)


def uniform_system(mass=0.0):
    """rho = sigma = 1, q = 0 on both spans; closed-form spectrum for M = 0."""
    return BeamSystem(
        left=CoefficientProfile("left", (1.0,), (1.0,), (0.0,)),
        right=CoefficientProfile("right", (1.0,), (1.0,), (0.0,)),
        mass=mass,
    )


def variable_system(mass=1.0):
    """Smooth non-constant test coefficients, different on the two spans."""
    return BeamSystem(
        left=CoefficientProfile("left", rho=(2.0, 1.0), sigma=(1.0, 0.0, 1.0), q=(1.0, 1.0)),
        right=CoefficientProfile("right", rho=(1.0, 0.0, 1.0), sigma=(2.0, -1.0), q=(1.0,)),
        mass=mass,
    )
