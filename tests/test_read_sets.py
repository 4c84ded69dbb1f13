"""Read sets: the structure a warp formula proves without sampling.

``expr``'s one checked walk records the variables a formula reads, and the
scenario reader hands that set to each formula warp as
``ScalarField.reads``.  A partial along an axis outside it is exactly 0 on
the FD route: the stencil points differ only in a coordinate the closure
never reads, and a point rounds alike in any batch.  So ``classify``
supplies those partials as zeros without evaluating their stencils, and the
reader proves a declared ``lamK_dependency`` whose excluded coordinates the
formula does not read, without its lattice.  The formulas below are drawn
with ``test_scenario_fuzz``'s expression strategy over the coordinates of
the 2+2 formula products of ``test_fd_golden``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from warpquot import expr
from warpquot import productgeo as pg
from warpquot import scenario as sc
from warpquot.chartkit import ScalarField
from warpquot.errors import NumericsError, ScenarioError

from test_fd_golden import _product
from test_scenario_fuzz import _expression

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

COORDS = ["x1", "x2", "y1", "y2"]  # the formula products' coordinates, factor 1 first


@pytest.mark.parametrize("src, reads", [
    ("x1 - x1 + y1", (0, 2)),  # syntactic: x1 is read, although it cancels
    ("2 + sin(y2)", (3,)),
    ("pi * exp(1) + 2", ()),
    ("0*x2", (1,)),
    ("min(y1, x1, 0.5) ** 2", (0, 2)),
])
def test_a_warp_knows_the_variables_its_formula_reads(src, reads):
    read = set()
    expr.compile_expr(src, COORDS, read)
    assert tuple(sorted(read)) == reads
    ctx = sc.parse_scenario(_product("reads", src, "0.5", {}, "doubly-twisted"))
    assert ctx.dtp.lam1.reads == reads and ctx.dtp.lam2.reads == ()


def _drawn(src: str) -> tuple:
    """The index set ``src`` reads over COORDS, or a rejected example when
    the grammar refuses it."""
    read = set()
    try:
        expr.compile_expr(src, COORDS, read)
    except ScenarioError:
        reject()
    return tuple(sorted(read))


@PROFILE
@given(_expression(COORDS), st.integers(0, 2**32 - 1))
def test_every_fd_partial_along_an_unread_axis_is_exactly_zero(src, seed):
    reads = _drawn(src)
    field = ScalarField(expr.compile_expr(src, COORDS), name=src)  # reads unknown: every stencil
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, (5, len(COORDS)))
    try:
        grad = field.grad_coords(x)
    except NumericsError:  # a non-finite value: no partial to compare
        reject()
    unread = [k for k in range(len(COORDS)) if k not in reads]
    assert grad[:, unread].tobytes() == np.zeros((len(x), len(unread))).tobytes()


def _classified(dtp):
    try:
        cls = pg.classify(dtp)
    except NumericsError as exc:
        return str(exc)
    return cls.tag, cls.max_n1, cls.max_n2


@PROFILE
@given(_expression(COORDS), _expression(COORDS))
def test_classify_reads_the_same_tag_and_n_evidence_without_the_read_sets(src1, src2):
    _drawn(src1), _drawn(src2)  # rejects a formula the grammar refuses
    # exp(0.3 sin(.)) is positive wherever the drawn formula is finite
    data = _product("drawn", f"0.3*sin({src1})", f"0.3*sin({src2})", {}, "doubly-twisted")
    try:
        dtp = sc.parse_scenario(data).dtp
    except (ScenarioError, NumericsError):
        reject()
    unknown = pg.DoublyTwistedProduct(dtp.f1, dtp.f2, dataclasses.replace(dtp.lam1, reads=None),
                                      dataclasses.replace(dtp.lam2, reads=None), dtp.assembled)
    assert _classified(dtp) == _classified(unknown)


# ---------------------------------------------------------------------------
# a declared dependency: proved from the formula, else differenced


def _dependency_checks(monkeypatch, lam1: str, dependency: str) -> list:
    """The warps ``parse_scenario`` differences on the dependency lattice
    for a formula product with ``lam1`` (as exp(lam1)) declared so."""
    checked = []
    check = sc._check_dependency

    def counted(dtp, i, *args):
        checked.append(i)
        return check(dtp, i, *args)

    monkeypatch.setattr(sc, "_check_dependency", counted)
    sc.parse_scenario(_product("dep", lam1, "0.2*x2", {"lam1_dependency": dependency},
                               "doubly-twisted"))
    return checked


@pytest.mark.parametrize("lam1, dependency", [
    ("0.3*y1 + sin(y2)", "on-factor2-only"), ("0.5", "constant"), ("x1 + y2", "on-product")])
def test_a_dependency_the_formula_proves_skips_the_lattice(monkeypatch, lam1, dependency):
    assert _dependency_checks(monkeypatch, lam1, dependency) == []


def test_a_formula_that_reads_an_excluded_variable_is_differenced(monkeypatch):
    # negative control: x1 cancels, but the formula reads it, so the lattice
    # decides, and finds the declaration holds
    assert _dependency_checks(monkeypatch, "x1 - x1 + y1", "on-factor2-only") == [1]


def test_a_dependency_the_formula_breaks_is_still_refused(monkeypatch):
    with pytest.raises(ScenarioError) as exc:
        _dependency_checks(monkeypatch, "0.1*x1 + y1", "on-factor2-only")
    assert str(exc.value) == ("warps.lam1_dependency: declared 'on-factor2-only', but "
                              "d lam1/d x1 = 3.716e-02 at [-0.9 -0.9 -0.9 -0.9]")
