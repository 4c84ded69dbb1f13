"""Shared fixture models: the built-in products and quotients.

The line x line products (flat, or warped by lam2 = f(x)) share ``_lines``;
their flat quotients share ``_flat_quotient``, which takes the factor
intervals and the fundamental box apart (the Moebius band's differ).

Every analytic fixture declares exact order 2: its one callback returns the
metric or warp with its exact partials, so the closed-form-vs-oracle
comparisons run at tight tolerances.

The example1-twisted row is the paper's explicit twisted construction
(``build_example1``), a quotient that is not globally a product: its warp
walks a gluing chain (``TwistedGluing``) and has no exact partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import productgeo as pg
from . import quotient as qt
from .chartkit import MetricField, ScalarField, Signature, _fold
from .errors import InvalidH, NumericsError


# ---------------------------------------------------------------------------
# scalar-field builders with exact derivatives
#
# All callbacks follow the one-callback contract of ``chartkit``: ``x`` is a
# batch (n, P), ``x[k]`` holds coordinate k of every point, outputs carry the
# point axis last, and ``eval(x, order)`` returns the value with its partials
# up to ``order``, each computed only when asked for.

def function_of_coordinate_warp(index: int, n: int, f, df, ddf, name: str = "") -> ScalarField:
    """lam(x) = f(x[index]) with exact first/second derivatives (f, df, ddf elementwise)."""

    def eval(x, order=0):
        val = f(x[index])
        if not order:
            return val
        grad = np.zeros(np.shape(x))
        grad[index] = df(x[index])
        if order == 1:
            return val, grad
        hess = np.zeros((n,) + np.shape(x))
        hess[index, index] = ddf(x[index])
        return val, grad, hess

    return ScalarField(eval, exact_order=2, name=name)


def trig_warp(amps, freqs, phases, name: str = "trig-warp") -> ScalarField:
    """lam(x) = exp(sum_j a_j sin(b_j . x + c_j)): positive, fully analytic;
    every sum is a ``_fold``."""
    amps = np.asarray(amps, dtype=float)[:, None]       # constants get the point axis
    freqs = np.asarray(freqs, dtype=float)[..., None]   # [j, k]: b_jk
    phases = np.asarray(phases, dtype=float)[:, None]
    pairs = freqs[:, :, None] * freqs[:, None]          # b_j b_j^T
    by_coord = freqs.swapaxes(0, 1)                     # [k, j]: b_jk

    def eval(x, order=0):
        a = _fold(by_coord * x[:, None]) + phases
        val = np.exp(_fold(amps * np.sin(a)))
        if not order:
            return val
        d = _fold(freqs * (amps * np.cos(a))[:, None])
        if order == 1:
            return val, val * d
        dds = -_fold(pairs * (amps * np.sin(a))[:, None, None])
        return val, val * d, val * (d[:, None] * d[None] + dds)

    return ScalarField(eval, exact_order=2, name=name)


def conformal_flat_metric(dim: int, amp: float, freq, phase: float, box) -> MetricField:
    """g = exp(2 phi) * I, phi = amp sin(freq . x + phase), freq . x a ``_fold``."""
    freq = np.asarray(freq, dtype=float)[:, None]  # constants get the point axis
    pairs = freq[:, None] * freq[None]
    eye = np.eye(dim)[..., None]

    def eval(x, order=0):
        a = _fold(freq * x) + phase
        scale = np.exp(2 * (amp * np.sin(a)))
        if not order:
            return eye * scale
        dp = amp * np.cos(a) * freq
        d1 = 2 * dp[:, None, None] * scale * eye
        if order == 1:
            return eye * scale, d1
        dd = 4 * dp[:, None] * dp[None] + 2 * (-amp * np.sin(a) * pairs)
        return eye * scale, d1, dd[:, :, None, None] * scale * eye

    return MetricField(dim, eval, Signature.riemannian(dim), exact_order=2,
                       domain_box=np.asarray(box, dtype=float))


# ---------------------------------------------------------------------------
# product fixtures

def _lines(x, y, lam2=None) -> pg.DoublyTwistedProduct:
    """Euclidean line x line with lam1 = 1 and lam2 (1 when None); ``x`` and
    ``y`` are each factor's (name, domain interval)."""
    f1, f2 = (pg.FactorManifold(name, MetricField.euclidean(1), [box]) for name, box in (x, y))
    one = ScalarField.constant(1.0)
    return pg.assemble(f1, f2, one, one if lam2 is None else lam2)


def _warped_lines(x, y, f, df, ddf, name: str) -> pg.DoublyTwistedProduct:
    """Line x line warped by lam2 = f(x), exact to second order."""
    return _lines(x, y, function_of_coordinate_warp(0, 2, f, df, ddf, name=name))


_CIRCLE = ("circle", [0.0, 6.2])


def polar_plane() -> pg.DoublyTwistedProduct:
    """dr^2 + r^2 dtheta^2: warped product of the half-line and the circle."""
    return _warped_lines(("halfline-r", [0.5, 3.0]), _CIRCLE,
                         lambda r: r, lambda r: 1.0, lambda r: 0.0, "r")


def sphere_polar() -> pg.DoublyTwistedProduct:
    """dr^2 + sin(r)^2 dtheta^2: the unit round sphere, K = +1."""
    return _warped_lines(("arc-r", [0.3, 2.8]), _CIRCLE,
                         np.sin, np.cos, lambda r: -np.sin(r), "sin r")


def hyperbolic_polar() -> pg.DoublyTwistedProduct:
    """dr^2 + sinh(r)^2 dtheta^2: hyperbolic plane, K = -1."""
    return _warped_lines(("ray-r", [0.3, 2.5]), _CIRCLE, np.sinh, np.cosh, np.sinh, "sinh r")


def lorentz_direct() -> pg.DoublyTwistedProduct:
    """Minkowski R^{1,1} x R: flat Lorentzian direct product."""
    mink = MetricField.constant(np.diag([-1.0, 1.0]))
    f1 = pg.FactorManifold("minkowski", mink, [[-2.0, 2.0], [-2.0, 2.0]])
    f2 = pg.FactorManifold("line", MetricField.euclidean(1), [[-2.0, 2.0]])
    one = ScalarField.constant(1.0)
    return pg.assemble(f1, f2, one, one)


def random_doubly_twisted(seed: int) -> pg.DoublyTwistedProduct:
    """Randomized doubly twisted product of two conformally flat, curved
    2-dimensional factors (both warps depend on both slots)."""
    rng = np.random.default_rng(seed)
    box = [[-1.0, 1.0]] * 2

    def factor(name):
        g = conformal_flat_metric(2, 0.2 + 0.1 * rng.random(), rng.uniform(0.3, 1.2, 2),
                                  rng.uniform(0, 2), box)
        return pg.FactorManifold(name, g, box)

    f1, f2 = factor("f1"), factor("f2")

    def rand_warp(tag):
        m = 2
        return trig_warp(rng.uniform(0.1, 0.3, m), rng.uniform(0.2, 1.2, (m, 4)),
                         rng.uniform(0, 2, m), name=f"warp-{tag}")

    return pg.assemble(f1, f2, rand_warp("1"), rand_warp("2"))


# ---------------------------------------------------------------------------
# quotient fixtures

def _deck(name: str, dx: float, dy=None) -> qt.DeckGenerator:
    """(x, y) -> (x + dx, y + dy), or (x + dx, -y) when dy is None."""
    psi = qt.FactorMap.affine([[-1.0]], [0.0]) if dy is None else qt.FactorMap.translation([dy])
    return qt.DeckGenerator(name, qt.FactorMap.translation([dx]), psi)


def _flat_quotient(x_box, y_box, gens, fundamental_box=None) -> qt.QuotientModel:
    """Euclidean line-x x line-y over the factor intervals x_box and y_box,
    quotiented by gens; the fundamental box is the factor boxes unless given."""
    box = [x_box, y_box] if fundamental_box is None else fundamental_box
    return qt.QuotientModel(_lines(("line-x", x_box), ("line-y", y_box)), gens,
                            fundamental_box=box)


def mobius_model() -> qt.QuotientModel:
    """Flat Moebius band: R^2 / <(x, y) -> (x + 1, -y)>.

    The central leaf (y = 0) closes with holonomy -1 on its normal line, so
    the quotient is obstructed even though the leaves meet exactly once.
    """
    big = 1e9  # only x is quotiented; the transversal is unbounded
    return _flat_quotient([0.0, 1.0], [-1.0, 1.0], [_deck("a", 1.0)],
                          fundamental_box=[[0.0, 1.0], [-big, big]])


def flat_torus_model() -> qt.QuotientModel:
    """Axis-aligned flat torus: R^2 / <(x+1, y), (x, y+1)>; splits globally."""
    return _flat_quotient([0.0, 1.0], [0.0, 1.0],
                          [_deck("a", 1.0, 0.0), _deck("b", 0.0, 1.0)])


def skewed_torus_model() -> qt.QuotientModel:
    """Skewed flat torus: R^2 / <(x+1, y), (x+1/2, y+1)>.

    Both foliations have trivial holonomy but the leaves through the origin
    intersect twice, obstructing a global product decomposition.
    """
    return _flat_quotient([0.0, 1.0], [0.0, 1.0],
                          [_deck("a", 1.0, 0.0), _deck("b", 0.5, 1.0)])


# loops (as generator words) documented per quotient fixture
HOLONOMY_LOOPS = {
    "mobius": {1: [(("a", 1),)], 2: []},
    "flat-torus": {1: [(("a", 1),)], 2: [(("b", 1),)]},
    "skewed-torus": {1: [(("a", 1),)], 2: [(("a", -1), ("b", 1), ("b", 1))]},
}


# ---------------------------------------------------------------------------
# explicit twisted construction (quotient that is not globally a product)

# Levels of floor(x) that example1's warp walks at most: each costs one h (or
# one Newton solve of h^-1) per point.  The commands read lam on the box, on
# FD stencils around it and on one generator's images, at most 3 levels out;
# deck words move points by the generator's maps, not through lam.  At 64
# levels one point costs 1.5 ms (h) or 8 ms (h^-1) on a 2-vCPU machine.
GLUING_LEVELS = 64


def _bump_and_d1(u):
    """(b, b') elementwise (a number or an array) for the bump
    b(u) = exp(-1 / (1 - u^2)) on |u| < 1, 0 elsewhere."""
    u = np.asarray(u, dtype=float)
    w = 1.0 - u * u
    inside = w > 0.0  # |u| < 1: u * u rounds to 1 or more exactly when |u| >= 1
    w = np.where(inside, w, 1.0)  # 1 outside, so the masked branch stays finite
    b = np.exp(-1.0 / w) * inside
    return b[()], (b * (-2.0 * u / w**2))[()]


def _smooth01(t):
    """C-infinity step, elementwise: exactly 0 for t <= 0 and 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    mid = (t > 0.0) & (t < 1.0)
    tm = np.where(mid, t, 0.5)  # keeps both exponents finite off the transition
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    return np.where(mid, a / (a + b), t >= 1.0)[()]  # off it: 1.0 above, 0.0 below


@dataclass
class TwistedGluing:
    """Gluing data: h = id near 0, h' > 0, with bump amplitude and inverse.
    Every method is elementwise: it takes a number or an array."""

    amplitude: float = 0.3
    center: float = 1.0

    def h(self, y):
        """h(y) = y + amplitude * bump(y - center).  Work cap: elementwise, no iteration."""
        return self._h_and_prime(y)[0]

    def h_prime(self, y):
        """h'(y).  Work cap: elementwise, no iteration."""
        return self._h_and_prime(y)[1]

    def _h_and_prime(self, y):
        b, d1 = _bump_and_d1(y - self.center)
        return y + self.amplitude * b, 1.0 + self.amplitude * d1

    def h_inverse(self, z):
        """Newton's method for h(y) = z from y = z, per element: an element
        stops once its step is below 1e-15.  Work cap: 100 steps per element."""
        z = np.asarray(z, dtype=float)
        y = z.flatten()
        todo, yt, zt = np.arange(y.size), y.copy(), y.copy()  # the elements still moving
        for _ in range(100):
            if not todo.size:
                break
            h, h_prime = self._h_and_prime(yt)
            step = (h - zt) / h_prime
            yt = yt - step
            stop = np.abs(step) < 1e-15
            if np.count_nonzero(stop):
                y[todo[stop]] = yt[stop]
                todo, yt, zt = todo[~stop], yt[~stop], zt[~stop]
        y[todo] = yt
        return y.reshape(z.shape)[()]

    def check_monotone(self):
        """min h' on 401 points across the bump (its work cap); raises InvalidH
        unless positive."""
        grid = np.linspace(self.center - 1.5, self.center + 1.5, 401)
        worst = float(np.min(self.h_prime(grid)))
        if worst <= 0.0:
            raise InvalidH(f"h' reaches {worst} <= 0; reduce the bump amplitude")
        return worst


def build_example1(epsilon: float = 0.25,
                   gluing: Optional[TwistedGluing] = None) -> qt.QuotientModel:
    """Twisted metric dx^2 + lam(x, y)^2 dy^2 on R^2, quotiented by
    (x, y) -> (x + 1, h^{-1}(y)).

    lam is seeded on the strip 0 <= x < 1 as h'(y)^{sigma(x)} with sigma a
    smooth step (identically 0 near x = 0 and 1 near x = 1, transition width
    set by epsilon < 1/2) and extended to all x through the gluing relation
    lam(x, y) = lam(x - 1, h(y)) h'(y), which makes the generator an isometry.
    The leaf of the first foliation through y = 0 closes; leaves in the bump
    region drift monotonically and never close.  The y factor's box is
    [-1, 3].  Work cap: the warp walks at most GLUING_LEVELS levels of
    floor(x) per point (farther points are refused), each level one h or one
    ``TwistedGluing.h_inverse``.
    """
    if not (0.0 < epsilon < 0.5):
        raise InvalidH(f"epsilon must lie in (0, 1/2), got {epsilon}")
    glue = gluing if gluing is not None else TwistedGluing()
    glue.check_monotone()

    def lam(c):
        # the gluing chain, one level of floor(x) at a time: the points with
        # k = floor(x) >= j take the j-th factor h'(y) and move y to h(y),
        # those with k <= -j move y to h^-1(y) and divide by h' there
        x, y = c[0], c[1].copy()
        k = np.floor(x)
        far = np.abs(k) > GLUING_LEVELS
        if far.any():
            p = int(np.argmax(far))
            raise NumericsError(f"twisted-lam at {c[:, p]}: {abs(k[p]):g} gluing levels from "
                                f"the strip 0 <= x < 1, beyond GLUING_LEVELS = {GLUING_LEVELS}")
        chain = np.ones_like(y)
        for j in range(1, int(k.max(initial=0.0)) + 1):
            m = k >= j
            y[m], h_prime = glue._h_and_prime(y[m])
            chain[m] *= h_prime
        for j in range(1, int(-k.min(initial=0.0)) + 1):
            m = k <= -j
            y[m] = glue.h_inverse(y[m])
            chain[m] /= glue.h_prime(y[m])
        return glue.h_prime(y) ** _smooth01((x - k - epsilon) / (1.0 - 2.0 * epsilon)) * chain

    lam_field = ScalarField(lam, name="twisted-lam")
    f1 = pg.FactorManifold("line-x", MetricField.euclidean(1), [[0.0, 1.0]])
    f2 = pg.FactorManifold("line-y", MetricField.euclidean(1), [[-1.0, 3.0]])
    dtp = pg.assemble(f1, f2, ScalarField.constant(1.0), lam_field)

    psi = qt.FactorMap(apply=glue.h_inverse, inverse=glue.h,
                       jacobian=lambda y: (1.0 / glue.h_prime(glue.h_inverse(y)))[None])
    gen = qt.DeckGenerator("a", qt.FactorMap.translation([1.0]), psi, homothety=False)
    model = qt.QuotientModel(dtp, [gen], fundamental_box=[[0.0, 1.0], [-1e9, 1e9]])
    model.gluing = glue
    return model


def example1_seam_residual(model: qt.QuotientModel) -> float:
    """max |lam(x, y) - lam(x - 1, h(y)) h'(y)| across the x = 1 seam at 25
    samples (its work cap)."""
    glue = model.gluing
    rng = np.random.default_rng(2024)
    # the draws alternate x, y per sample
    x, y = rng.uniform([-0.2, -0.5], [0.2, 2.5], (25, 2)).T
    x = 1.0 + x
    h, h_prime = glue._h_and_prime(y)
    lhs = model.dtp.lam2.value(np.stack([x, y], axis=1))
    rhs = model.dtp.lam2.value(np.stack([x - 1.0, h], axis=1)) * h_prime
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


