"""example1's gluing chain on whole batches against one-point references.

``build_example1``'s warp walks the gluing chain with masks, one level of
floor(x) at a time, and ``TwistedGluing`` and its bump functions are
elementwise numpy, one implementation for numbers and arrays.  The
references here are the one-point algorithms: the chain walked per point,
the Newton loop of h^-1 per value, and the bump functions written with
``math``, whose ``exp`` rounds differently from numpy's on some points.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from warpquot import cli
from warpquot import fixtures as fx

EPSILON = 0.25  # build_example1's default
GLUE = fx.TwistedGluing()


def ref_h_inverse(z):
    """The Newton loop for h(y) = z on one value, h and h' on one value."""
    y = z
    for _ in range(100):
        step = (GLUE.h(y) - z) / GLUE.h_prime(y)
        y -= step
        if abs(step) < 1e-15:
            break
    return y


def ref_lam(x, y):
    """The gluing chain of one point: k = floor(x) factors h'(y) while y moves
    to h(y) (k > 0), or -k moves to h^-1(y) each dividing by h' there
    (k < 0), then the seed h'(y)^sigma(x - k).  The last power is numpy's,
    as in a batch; the chain's steps are the ones under test."""
    k = math.floor(x)
    chain = 1.0
    for _ in range(max(k, 0)):
        chain *= GLUE.h_prime(y)
        y = GLUE.h(y)
    for _ in range(max(-k, 0)):
        y = ref_h_inverse(y)
        chain /= GLUE.h_prime(y)
    sigma = fx._smooth01(((x - k) - EPSILON) / (1.0 - 2.0 * EPSILON))
    return np.power(np.array([GLUE.h_prime(y)]), np.array([sigma]))[0] * chain


def _chain_points():
    # floor(x) in -2..3 at x = k + 1/2 (sigma = 1/2 exactly), at integer x
    # (sigma = 0) and at random x; y inside the bump (|y - 1| < 1), on its
    # edges and outside it
    rng = np.random.default_rng(11)
    ys = [-1.5, -0.3, 0.0, 0.4, 1.0, 1.7, 2.0, 2.6, 3.5]
    xs = [k + f for k in range(-2, 4) for f in (0.0, 0.5)]
    grid = [(x, y) for x in xs for y in ys]
    grid += list(zip(rng.uniform(-2.0, 4.0, 300), rng.uniform(-1.5, 3.5, 300)))
    return np.array(grid)


def test_lam_batch_equals_the_chain_per_point():
    pts = _chain_points()
    assert set(np.floor(pts[:, 0])) == set(range(-2, 4))
    got = fx.build_example1().dtp.lam2.value(pts)
    want = np.array([ref_lam(x, y) for x, y in pts.tolist()])
    np.testing.assert_array_max_ulp(got, want, maxulp=1)
    # and a batch of one is that point's row
    lam2 = fx.build_example1().dtp.lam2
    assert all(lam2.value(p) == v for p, v in zip(pts[::23], got[::23]))


def test_lam_at_integer_x_is_the_chain_alone():
    # sigma is 0 at integer x, so lam is the product of the chain's h' factors
    lam2 = fx.build_example1().dtp.lam2
    assert fx._smooth01(-EPSILON / (1.0 - 2.0 * EPSILON)) == 0.0
    assert fx._smooth01(0.5) == 0.5  # the seed at x = k + 1/2 is h'^(1/2)
    for y in (-0.3, 0.4, 1.3, 2.6):
        hy = GLUE.h(y)
        assert lam2.value([0.0, y]) == 1.0
        assert lam2.value([1.0, y]) == GLUE.h_prime(y)
        assert lam2.value([2.0, y]) == GLUE.h_prime(y) * GLUE.h_prime(hy)
        assert lam2.value([-1.0, y]) == 1.0 / GLUE.h_prime(GLUE.h_inverse(y))


def test_h_inverse_equals_the_newton_loop_per_value():
    zs = np.concatenate([np.linspace(-1.5, 3.5, 101),
                         np.random.default_rng(3).uniform(-0.2, 2.2, 200)])
    got = GLUE.h_inverse(zs)
    want = np.array([ref_h_inverse(z) for z in zs.tolist()])
    np.testing.assert_array_equal(got, want)
    # any shape, and a number gives a number
    shaped = zs[:300].reshape(3, -1, 1)
    np.testing.assert_array_equal(GLUE.h_inverse(shaped), want[:300].reshape(shaped.shape))
    assert np.ndim(GLUE.h_inverse(1.2)) == 0 and GLUE.h_inverse(1.2) == ref_h_inverse(1.2)
    np.testing.assert_allclose(GLUE.h(got), zs, rtol=0, atol=1e-15)


def _math_bump(u):
    return 0.0 if abs(u) >= 1.0 else math.exp(-1.0 / (1.0 - u * u))


def _math_bump_d1(u):
    if abs(u) >= 1.0:
        return 0.0
    w = 1.0 - u * u
    return _math_bump(u) * (-2.0 * u / w**2)


def _math_smooth01(t):
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a, b = math.exp(-1.0 / t), math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


# bounds: one ulp per exp (numpy's and libm's differ by one on some points),
# and one more where a quotient of two rounded terms enters
@pytest.mark.parametrize("fn,ref,maxulp", [
    (lambda u: fx._bump_and_d1(u)[0], _math_bump, 1),
    (lambda u: fx._bump_and_d1(u)[1], _math_bump_d1, 2),
    (fx._smooth01, _math_smooth01, 2)], ids=["bump", "bump_d1", "smooth01"])
def test_bump_functions_elementwise(fn, ref, maxulp):
    us = np.concatenate([[-1.0, -1.0 + 1e-12, 0.0, 1e-300, 0.5, 1.0 - 1e-12, 1.0, 2.0, -3.0],
                         np.random.default_rng(7).uniform(-1.2, 1.2, 500)])
    got = fn(us)
    want = np.array([ref(u) for u in us.tolist()])
    np.testing.assert_array_max_ulp(got, want, maxulp=maxulp)
    assert all(fn(u) == g for u, g in zip(us.tolist(), got))  # a number alone: its row
    assert fn(-1.0) == 0.0 and fn(2.0) == (1.0 if fn is fx._smooth01 else 0.0)


def test_check_monotone_is_the_grid_minimum():
    grid = np.linspace(GLUE.center - 1.5, GLUE.center + 1.5, 401)
    assert GLUE.check_monotone() == min(GLUE.h_prime(float(y)) for y in grid)


def test_seam_residual_equals_the_per_sample_loop():
    model = fx.build_example1()
    lam = model.dtp.lam2
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        x = 1.0 + rng.uniform(-0.2, 0.2)
        y = rng.uniform(-0.5, 2.5)
        rhs = lam.value([x - 1.0, GLUE.h(y)]) * GLUE.h_prime(y)
        worst = max(worst, abs(lam.value([x, y]) - rhs))
    assert fx.example1_seam_residual(model) == worst


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_example1_commands_raise_no_floating_point_warning(command, tmp_path):
    # masked-out branches (outside the bump, off the smooth step's transition,
    # frozen Newton elements) must not overflow or divide by zero either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["run", "example1-twisted", command, "--samples", "8",
                             "--out", str(tmp_path / "r.json")])
    assert "Warning" not in err.getvalue()
    # example1 declares no holonomy loops, and decompose and teodg refuse a
    # twisted product: those are input errors
    assert code == (2 if command in ("holonomy", "decompose", "teodg") else 0)
