import json
from itertools import zip_longest

import numpy as np
import pytest

from beamspec.config import (
    BeamSystem,
    CoefficientProfile,
    ConfigError,
    ConstraintError,
    critical_points,
    eval_coeff,
    load_system,
    mirrored,
    parse_system,
    rho_sigma_q,
    serialize_system,
    uniform_system,
    variable_system,
)

UNIFORM_DOC = json.dumps({
    "M": 1,
    "left": {"rho": [1], "sigma": [1], "q": [0]},
    "right": {"rho": [1], "sigma": [1], "q": [0]},
})


def test_parse_uniform():
    system = parse_system(UNIFORM_DOC)
    assert system.mass == 1.0
    assert system.left.rho == (1.0,)
    assert system.right.sigma == (1.0,)
    assert system.left.interval == (-1.0, 0.0)
    assert system.right.interval == (0.0, 1.0)


def test_negative_sigma_rejected():
    doc = json.dumps({
        "M": 1,
        "left": {"rho": [1], "sigma": [-1], "q": [0]},
        "right": {"rho": [1], "sigma": [1], "q": [0]},
    })
    with pytest.raises(ConstraintError, match="sigma nonpositive at x=-1"):
        parse_system(doc)


# rho = 0.24950015 + 0.999x + x^2 dips to -1e-7 at x = -0.4995, between the
# points of a 1001-point grid of the span
DIP_DOC = json.dumps({
    "M": 0,
    "left": {"rho": [0.24950015, 0.999, 1.0], "sigma": [1]},
    "right": {"rho": [1], "sigma": [1]},
})


def test_minimum_between_grid_points_rejected():
    with pytest.raises(ConstraintError, match=r"^rho nonpositive at x=-0\.4995 \(value -1"):
        parse_system(DIP_DOC)


def test_critical_points():
    # a constant or a line: the span ends alone, as floats
    for coeffs in ((1.0,), (1.0, 0.5), (2.0, 0.0)):
        ends = critical_points(coeffs, (-1.0, 0.0))
        assert ends.dtype == np.float64 and ends.tolist() == [-1.0, 0.0]
    np.testing.assert_allclose(critical_points((0.24950015, 0.999, 1.0), (-1.0, 0.0)),
                               [-1.0, 0.0, -0.4995], rtol=1e-15)
    # a critical point on an end or outside the span is not repeated
    assert critical_points((0.0, 0.0, 1.0), (0.0, 1.0)).tolist() == [0.0, 1.0]
    assert critical_points((0.0, -2.0, 1.0), (-1.0, 0.0)).tolist() == [-1.0, 0.0]


def test_sloped_rho_accepted():
    # rho = 1 + 0.5x on (-1, 0): minimum 0.5 at x = -1
    profile = CoefficientProfile("left", rho=(1.0, 0.5), sigma=(1.0,))
    xs = np.linspace(-1.0, 0.0, 1001)
    vals = np.polynomial.polynomial.polyval(xs, profile.rho)
    assert vals.min() == pytest.approx(0.5)
    assert eval_coeff(profile, "rho", -1.0) == pytest.approx(0.5)


def test_eval_coeff():
    u = uniform_system()
    assert eval_coeff(u.left, "sigma", -0.3) == 1.0
    assert eval_coeff(u.left, "q", -0.7) == 0.0
    with pytest.raises(ValueError):
        eval_coeff(u.left, "sigma", 0.5)   # outside the left span
    with pytest.raises(ValueError):
        eval_coeff(u.left, "mass", 0.0)


def test_eval_coeff_clamps_tiny_negative_q():
    profile = CoefficientProfile("right", rho=(1.0,), sigma=(1.0,), q=(-1e-13,))
    assert eval_coeff(profile, "q", 0.5) == 0.0


def test_eval_coeff_on_array():
    profile = CoefficientProfile("right", rho=(1.0,), sigma=(1.0, 1.0), q=(-1e-13,))
    np.testing.assert_array_equal(eval_coeff(profile, "sigma", np.array([0.0, 0.5])),
                                  [1.0, 1.5])
    np.testing.assert_array_equal(eval_coeff(profile, "q", np.array([0.2, 0.8])), 0.0)
    with pytest.raises(ValueError):
        eval_coeff(profile, "rho", np.array([0.5, 1.5]))


def test_mirrored_profile_is_p_of_minus_x():
    # odd powers flip sign: the mirror evaluates to the same bits at -x
    profile = CoefficientProfile("right", rho=(1.0, 0.5, 0.25, -0.125), sigma=(2.0, -1.0),
                                 q=(1.0, 0.0, 3.0))
    mirror = mirrored(profile)
    assert mirror.side == "left" and mirrored(mirror) == profile
    xs = np.linspace(0.0, 1.0, 101)
    for name in ("rho", "sigma", "q"):
        np.testing.assert_array_equal(eval_coeff(mirror, name, -xs),
                                      eval_coeff(profile, name, xs))


def test_stacked_columns_match_eval_coeff():
    # columns of different degree, zero-padded as the integrator stacks
    # them, give one profile's bits; q keeps its clamp
    left, right = variable_system().left, variable_system().right
    tiny_q = CoefficientProfile("left", rho=(1.0,), sigma=(1.0,), q=(-1e-13,))
    profiles = (left, mirrored(right), tiny_q)
    stack = [np.array(list(zip_longest(*c, fillvalue=0.0)))
             for c in zip(*(p.coeffs for p in profiles))]
    xs = np.linspace(-1.0, 0.0, 33)
    vals = rho_sigma_q(stack, np.repeat(xs[:, None], 3, axis=1))
    for i, name in enumerate(("rho", "sigma", "q")):
        assert stack[i].shape == (max(len(getattr(p, name)) for p in profiles), 3)
        for j, p in enumerate(profiles):
            np.testing.assert_array_equal(vals[i][:, j], eval_coeff(p, name, xs))
            np.testing.assert_array_equal(vals[i][:, j], rho_sigma_q(p.coeffs, xs)[i])


def test_q_defaults_to_zero():
    doc = json.dumps({
        "M": 0,
        "left": {"rho": [1], "sigma": [1]},
        "right": {"rho": [1], "sigma": [1]},
    })
    system = parse_system(doc)
    assert system.left.q == (0.0,)


@pytest.mark.parametrize("doc,fragment", [
    ("{", "invalid JSON"),
    ("[]", "top-level"),
    ('{"left": {}, "right": {}}', "missing key 'M'"),
    ('{"M": 1, "right": {"rho": [1], "sigma": [1]}}', "missing key 'left'"),
    ('{"M": 1, "left": [1], "right": {"rho": [1], "sigma": [1]}}', "'left' must be an object"),
    ('{"M": 1, "left": {"rho": [1], "sigma": [1]}, "right": {"rho": [1], "sigma": [1]}, "bogus": 1}',
     "unknown key 'bogus'"),
    ('{"M": 1, "left": {"rho": [1], "sigma": [1], "nu": [1]}, "right": {"rho": [1], "sigma": [1]}}',
     "unknown key 'left.nu'"),
    ('{"M": 1, "left": {"sigma": [1]}, "right": {"rho": [1], "sigma": [1]}}',
     "missing key 'left.rho'"),
    ('{"M": -1, "left": {"rho": [1], "sigma": [1]}, "right": {"rho": [1], "sigma": [1]}}',
     "'M'"),
    ('{"M": 1, "left": {"rho": [], "sigma": [1]}, "right": {"rho": [1], "sigma": [1]}}',
     "'rho'"),
    ('{"M": 1, "left": {"rho": [1, "x"], "sigma": [1]}, "right": {"rho": [1], "sigma": [1]}}',
     "rho"),
])
def test_schema_violations(doc, fragment):
    with pytest.raises(ConfigError, match=fragment) as exc_info:
        parse_system(doc)
    assert not isinstance(exc_info.value, ConstraintError) or "nonpositive" in str(exc_info.value)


def test_sides_are_checked():
    with pytest.raises(ConfigError, match="side must be 'left' or 'right'"):
        CoefficientProfile("middle", rho=(1.0,), sigma=(1.0,))
    system = uniform_system()
    with pytest.raises(ConfigError, match="profiles must carry sides"):
        BeamSystem(system.right, system.left, 1.0)


def test_non_utf8_document_is_a_config_error(tmp_path):
    # UnicodeDecodeError is a ValueError, which the CLI reports as a solver failure
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_system(path)


def test_degree_bound():
    with pytest.raises(ConfigError, match="degree"):
        CoefficientProfile("left", rho=tuple([1.0] + [0.0] * 9), sigma=(1.0,))


def test_roundtrip_identity():
    for doc in (UNIFORM_DOC, serialize_system(variable_system(0.5))):
        system = parse_system(doc)
        again = parse_system(serialize_system(system))
        assert again == system


def test_mass_zero_allowed():
    assert uniform_system(0.0).mass == 0.0
    with pytest.raises(ConfigError):
        BeamSystem(uniform_system().left, uniform_system().right, float("nan"))


def test_builders_are_admissible():
    # construction itself validates; just confirm the documented coefficients
    v = variable_system()
    assert v.left.sigma == (1.0, 0.0, 1.0)
    assert v.left.rho == (2.0, 1.0)
    assert v.left.q == (1.0, 1.0)
    assert v.right.sigma == (2.0, -1.0)
    assert v.right.rho == (1.0, 0.0, 1.0)
    assert v.right.q == (1.0,)


def test_validation_floor_never_bypassed():
    # any accepted profile samples above the floor on the 1001-point grid
    rng = np.random.default_rng(3)
    accepted = 0
    for _ in range(100):
        coeffs = tuple(rng.uniform(-1.0, 2.0, size=3))
        try:
            p = CoefficientProfile("left", rho=coeffs, sigma=(1.0,))
        except ConstraintError:
            continue
        accepted += 1
        xs = np.linspace(-1.0, 0.0, 1001)
        assert np.polynomial.polynomial.polyval(xs, p.rho).min() >= 1e-8
    assert accepted > 0
