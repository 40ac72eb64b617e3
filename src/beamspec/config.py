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
Admissibility is checked where each polynomial is least on the closed
span, at its critical_points: rho and sigma must stay >= 1e-8 and q >= -1e-12
(q values in the tiny-negative band are clamped to zero on evaluation).

The one coefficient evaluator, rho_sigma_q, clamps q; the one span rule,
in_span, accepts points within SPAN_SLACK of a span and names the first
point outside.  eval_coeff reads one named coefficient through both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MIN_RHO_SIGMA = 1e-8
MIN_Q = -1e-12
MAX_DEGREE = 8
SPAN_SLACK = 1e-12

_INTERVALS = {"left": (-1.0, 0.0), "right": (0.0, 1.0)}


class ConfigError(ValueError):
    """The configuration document violates the schema."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConstraintError(ConfigError):
    """A coefficient polynomial breaks its positivity bound on the span."""


def horner(coeffs, x):
    """Evaluate a polynomial with ascending coefficients at x (scalar or array)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def critical_points(coeffs, interval):
    """Where a polynomial (ascending coefficients) can be least or greatest
    on the closed span interval = (lo, hi): its ends, then the real parts
    of its derivative's roots inside."""
    lo, hi = interval
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    x = np.roots(slope[::-1]).real   # np.roots takes the highest power first
    return np.array([lo, hi, *x[(lo < x) & (x < hi)]])


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
        for name, floor, word in (
            ("rho", MIN_RHO_SIGMA, "nonpositive"),
            ("sigma", MIN_RHO_SIGMA, "nonpositive"),
            ("q", MIN_Q, "negative"),
        ):
            xs = critical_points(getattr(self, name), self.interval)
            vals = horner(getattr(self, name), xs)
            i = int(np.argmin(vals))
            if vals[i] < floor:
                raise ConstraintError(
                    f"{name} {word} at x={xs[i]:.6g} (value {vals[i]:.6g})", key=name
                )

    @property
    def interval(self):
        return _INTERVALS[self.side]

    @property
    def coeffs(self):
        return self.rho, self.sigma, self.q


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


def in_span(interval, x):
    """x (a point or an array) clipped onto the closed span interval = (lo, hi).

    Points within SPAN_SLACK of the span are accepted; a ValueError names
    the first point farther out.
    """
    lo, hi = interval
    xs = np.asarray(x, dtype=float)
    inside = (lo - SPAN_SLACK <= xs) & (xs <= hi + SPAN_SLACK)
    if not np.all(inside):
        raise ValueError(f"x={float(xs[~inside][0])!r} outside span [{lo:g}, {hi:g}]")
    return np.clip(xs, lo, hi)


def rho_sigma_q(coeffs, x):
    """Horner evaluation of the coefficients (rho, sigma, q) at x.

    coeffs is one profile's (CoefficientProfile.coeffs) or arrays
    (degree + 1, k) of columns stacked over k entries, each zero-padded to
    its highest degree (the padding leaves Horner's values unchanged to the
    last bit); x broadcasts against the columns, e.g. x of shape (..., k)
    evaluates column j at x[..., j].  No span check: callers keep x inside
    (see in_span).  q is clamped to zero from below (the accepted
    tiny-negative band), here and nowhere else.
    """
    rho, sigma, q = coeffs
    return horner(rho, x), horner(sigma, x), np.maximum(horner(q, x), 0.0)


def eval_coeff(profile, which, x):
    """One named coefficient of rho_sigma_q at x inside the closed span (a
    point within SPAN_SLACK of it is read at the span end).  x may be a
    scalar (a float is returned) or an array of points."""
    names = ("rho", "sigma", "q")
    if which not in names:
        raise ValueError(f"which must be 'rho', 'sigma' or 'q', got {which!r}")
    val = rho_sigma_q(profile.coeffs, in_span(profile.interval, x))[names.index(which)]
    return float(val) if val.ndim == 0 else val


# the quasi-derivative state (u, u', sigma*u'', Tu) of u(-x), as signs on
# the state of u: the map between a span and its mirror, either way
MIRROR = np.array([1.0, -1.0, 1.0, -1.0])


def mirrored(profile):
    """The same span under x -> -x: the coefficients of p(-x), opposite side.

    Odd powers change sign.  A solution u of one span gives u(-x) on the
    mirror, with quasi-derivative state MIRROR * (u, u', sigma*u'', Tu).
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: {exc}") from exc
    return parse_system(text)


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
