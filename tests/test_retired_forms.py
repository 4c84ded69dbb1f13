"""Each job done once: the one form against the second form it replaced.

Each second form is kept here as a reference, and the form that remains
must give its bits (``same_bits``):

* the level-path ``word_jacobian``, the block diagonal of two
  ``QuotientModel._factor_jacobian`` chains, against the full n x n chain of
  the letters' block-diagonal differentials;
* ``apply_gen`` and ``gen_jacobian`` against ``apply_word`` and
  ``word_jacobian`` of the one-letter word, on the affine and the level path;
* ``chartkit._bracket`` of d2 g against the explicit ``...mijl->...mlij``
  einsums of the exact route of ``_christoffel_and_riemann``;
* ``mean_curvature_form`` against -(d lam_i / lam_i) off factor i's slots,
  read from the warp's full gradient.
"""

import numpy as np
import pytest

from warpquot import chartkit as ck
from warpquot import fixtures as fx
from warpquot import productgeo as pg
from warpquot import quotient as qt
from warpquot.scenario import parse_scenario

from fixture_models import random_doubly_warped
from random_products import random_twisted
from test_reach import FORMULA_FILE


def same_bits(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def full_chain(model: qt.QuotientModel, word, x) -> np.ndarray:
    """The retired level-path ``word_jacobian``: the chain rule along the
    word on n x n matrices, each letter's differential block diagonal from
    phi's and psi's ``jac`` where the letters before it moved x."""
    x = np.asarray(x, dtype=float)
    n, s1, s2 = model.dtp.n, model.dtp.slot1, model.dtp.slot2
    J = np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()
    for i, (name, sign) in enumerate(word):
        gen = model.by_name[name]
        letter = np.zeros(x.shape[:-1] + (n, n))
        letter[..., s1, s1] = gen.phi.jac(x[..., s1], sign)
        letter[..., s2, s2] = gen.psi.jac(x[..., s2], sign)
        J = letter @ J
        if i + 1 < len(word):
            x = np.concatenate([gen.phi(x[..., s1], sign), gen.psi(x[..., s2], sign)], axis=-1)
    return J


def _plane_by_line() -> qt.QuotientModel:
    """A 2 + 1 quotient with a non-affine map of the plane factor: phi(x, y) =
    (x + 1, y + 0.1 sin x) with its exact Jacobian, psi(z) = z + 0.2 sin z + 1
    differenced (no ``jacobian``).  Only the derivatives are read here, so
    the action is never validated."""
    phi = qt.FactorMap(
        apply=lambda c: np.stack([c[0] + 1.0, c[1] + 0.1 * np.sin(c[0])]),
        inverse=lambda c: np.stack([c[0] - 1.0, c[1] - 0.1 * np.sin(c[0] - 1.0)]),
        jacobian=lambda c: np.array([[np.ones_like(c[0]), np.zeros_like(c[0])],
                                     [0.1 * np.cos(c[0]), np.ones_like(c[0])]]))

    def psi_inverse(c):
        z = c[0] - 1.0
        for _ in range(60):  # z = y - 1 - 0.2 sin z, a contraction
            z = c[0] - 1.0 - 0.2 * np.sin(z)
        return z[None]

    psi = qt.FactorMap(apply=lambda c: c + 0.2 * np.sin(c) + 1.0, inverse=psi_inverse)
    b = qt.DeckGenerator("b", qt.FactorMap.translation([0.0, 1.0]),
                         qt.FactorMap.affine([[-1.0]], [0.0]))
    return qt.QuotientModel(random_twisted(0, 2, 1), [qt.DeckGenerator("a", phi, psi), b],
                            [[-1.0, 1.0]] * 3)


LEVEL_MODELS = {
    "example1": fx.build_example1,
    "reach-file": lambda: parse_scenario(FORMULA_FILE).model,
    "plane-by-line": _plane_by_line,
}
WORDS = {
    "example1": [(("a", 1),), (("a", -1),), (("a", 1), ("a", 1)), (("a", -1),) * 3],
    "reach-file": [(("b", 1),), (("a", 1), ("b", -1)), (("b", 1), ("a", -1), ("b", 1))],
    "plane-by-line": [(("a", 1),), (("a", -1), ("b", 1)), (("a", 1), ("b", -1), ("a", 1)),
                      (("b", 1), ("a", -1), ("a", -1))],
}


def _points(box, count=5):
    return np.random.default_rng(3).uniform(box[:, 0], box[:, 1], (count, len(box)))


@pytest.mark.parametrize("name", LEVEL_MODELS)
def test_the_level_path_word_jacobian_is_the_full_chain(name):
    model = LEVEL_MODELS[name]()
    assert model._letters is None  # the level path
    pts = _points(model.dtp.domain_box)
    for word in [()] + WORDS[name]:
        for x in (pts[0], pts):
            same_bits(model.word_jacobian(word, x), full_chain(model, word, x))


AFFINE_MODELS = {"flat-torus": fx.flat_torus_model, "mobius": fx.mobius_model,
                 "skewed-torus": fx.skewed_torus_model}


@pytest.mark.parametrize("name", [*LEVEL_MODELS, *AFFINE_MODELS])
def test_a_generator_is_a_one_letter_word(name):
    model = {**LEVEL_MODELS, **AFFINE_MODELS}[name]()
    assert (model._letters is None) == (name in LEVEL_MODELS)
    pts = _points(model.dtp.domain_box)
    s1, s2 = model.dtp.slot1, model.dtp.slot2
    for gen in model.generators:
        for sign in (1, -1):
            for x in (pts[0], pts):
                letter = ((gen.name, sign),)
                moved, jac = model.apply_gen(gen, sign, x), model.gen_jacobian(gen, sign, x)
                same_bits(moved, model.apply_word(letter, x))
                same_bits(jac, model.word_jacobian(letter, x))
                if model._letters is None:  # the retired level-path forms
                    same_bits(moved, np.concatenate([gen.phi(x[..., s1], sign),
                                                     gen.psi(x[..., s2], sign)], axis=-1))
                    same_bits(jac, full_chain(model, letter, x))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_bracket_serves_gamma_and_its_derivative(seed):
    dtp = fx.random_doubly_twisted(seed)
    _, dg, d2 = ck._call_batch(dtp.assembled._jet, _points(dtp.domain_box), 2)
    same_bits(ck._bracket(d2),
              np.einsum("...mijl->...mlij", d2) + np.einsum("...mjil->...mlij", d2) - d2)
    same_bits(ck._bracket(dg),
              np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)


@pytest.mark.parametrize("build", [lambda: fx.random_doubly_twisted(0),
                                   lambda: random_doubly_warped(1), fx.polar_plane,
                                   lambda: fx.build_example1().dtp],
                         ids=["random-dtp", "doubly-warped", "polar-plane", "example1"])
def test_mean_curvature_form_is_minus_d_log_lam_off_its_factor(build):
    dtp = build()
    pts = _points(dtp.domain_box)
    for i in (1, 2):
        val, grad = ck._call_batch(dtp.warp(i)._jet, pts, 1)
        want = -(grad / val[:, None])
        want[:, dtp.slot(i)] = 0.0
        same_bits(pg.mean_curvature_form(dtp, pts, i), want)
        same_bits(pg.mean_curvature_form(dtp, pts[0], i), want[0])
