"""Coordinate-chart tensor kernel.

Metric evaluation, finite-difference Christoffel/Riemann oracles, gradients,
covariant hessians and exterior derivatives.  Everything here is a pure
function of its inputs; exact derivatives, up to the order a field declares,
always win over finite differences.

Index conventions
-----------------
* ``christoffel_numeric(g, x)[k, i, j]`` is ``Gamma^k_ij``.
* ``riemann_numeric(g, x)[l, i, j, k]`` is the ``l`` component of
  ``R(e_i, e_j) e_k`` with ``R(X, Y)Z = [nabla_X, nabla_Y] Z - nabla_[X,Y] Z``.
  The sign is pinned by the acceptance test "unit round sphere has K = +1".

Points, vectors and frames
--------------------------
A point is its coordinates, an array ``(n,)``; a tangent vector is its
components in the coordinate basis, ``(n,)``; a frame is ``(n, k)``, one
column per vector (the layout of ``transport.TransportResult.components``,
``(S, n, k)``).  A vector does not carry its base point: a function that
needs one takes the point once, as its argument ``x``
(``inner_product(g, x, u, v)``), as the batch kernels do.  Each public
entry point checks what its caller passes once, for its length or shape
and finite entries (``_as_array``, ``_points``, ``_frame``: ``ValueError``,
``NumericsError``); internal callers pass arrays they built, unchecked.

Batches and the callback contract
---------------------------------
``MetricField.mat/inv/d1/d2`` and ``ScalarField.value/grad_coords/hess_coords``
take one point, shape ``(dim,)``, or a batch of points, shape ``(P, dim)``
with one point per row, and return one value or a stack of ``P`` values.
Every check (finite coordinates and outputs, output shape, symmetry,
``|det g| >= DET_TOL``) runs on every point of a batch, vectorised once.

Coordinates are checked once per public call, by ``_points``, and handed
read-only to the field's one kernel, ``_jet(cols, order)``: the value and
its partials up to ``order``, with the callback's output checks; internal
evaluations (factor fields, FD stencils, Christoffel symbols) call kernels
directly.  Each output check screens the batch with one test (all entries
finite; g bit-equal to g^T, skipped at dim 1) and runs its per-point rule
only if that trips.

A field has one callback, ``eval``.  ``eval(x)`` returns the value.  A field
that declares ``exact_order`` k >= 1 also answers ``eval(x, order)`` for
1 <= order <= k with the tuple ``(value, d1, ..., d_order)`` from one
routine, so the exact route reads a value and its partials from one call;
``productgeo.assemble``'s metric is such a field, one pass over its factor
fields per call.  The value of ``eval(x, order)`` must equal ``eval(x)`` bit
for bit, and so must each shorter prefix of a longer tuple.  Partials above
``exact_order`` come from central differences of the value, all stencil
points in one call; with no exact partial the value is read from the centre
row of the highest order's stencil, and no other stencil holds the centre.
The value always passes the value checks, with their messages.  A caller
that reads only a block of the partials (first partials along some axes,
second partials on a rows x cols set of axes) asks ``_jet`` for that
block: the exact route slices its one call, and
``central_diff`` evaluates only the stencil points of the block's entries,
each entry bit for bit the one of the full stencil.

Callbacks (``eval`` and the one-form callback of
``exterior_derivative_numeric``) receive one shape only, a
*coordinate-major* batch ``x`` of shape ``(n, P)``:
``x[k]`` holds coordinate ``k`` of every point.  One point goes in as a batch
of one, ``(n, 1)``, and ``_call_batch``, the one place that converts, drops
the point axis again; so a point alone gets the same bits as in any batch of
elementwise arithmetic.  The output carries the value's own axes first and
the point axis last: ``(P,)`` for a scalar, ``(n, P)`` for a vector,
``(n, n, P)`` for a matrix, ``(n, n, n, P)`` for ``d_k g_ij``.  A constant
entry must still be broadcast to the point axis (``np.zeros((2, 2) +
np.shape(x)[1:])`` gives a correctly shaped container).  An output of the
wrong shape raises ``NumericsError``; a per-point-only formula that calls
``float(...)`` or ``math.*`` on a coordinate raises ``TypeError`` (or, where
numpy still converts a one-element array, its scalar output fails the shape
check), at one point as on a batch.  Neither gives a silently wrong result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateMetric, DegeneratePlane, NumericsError

# Degeneracy thresholds and finite-difference steps (see module notes: steps
# balance truncation against cancellation at double precision).
DET_TOL = 1e-12
PLANE_TOL = 1e-12
FD_STEP_1 = 1e-5   # first derivatives, scaled per coordinate
FD_STEP_2 = 1e-4   # nested second derivatives
SYMMETRY_TOL = 1e-12
LIGHTLIKE_TOL = 1e-10  # |g(w, w)| below this: a lightlike direction, no unit vector


def _as_array(values, n: Optional[int] = None) -> np.ndarray:
    """One point or vector (n,), checked for its length and finite."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat coordinate/component vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite entries in {arr}")
    return arr


def _frame(frame, n: int) -> np.ndarray:
    """A frame (n, k), one column per vector, checked for its shape and finite."""
    arr = np.asarray(frame, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"expected a frame ({n}, k), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite entries in frame {arr.tolist()}")
    return arr


def _points(x, n: Optional[int] = None) -> np.ndarray:
    """One point ``(n,)`` or a batch ``(P, n)``, checked for its width and finite."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or (n is not None and arr.shape[-1] != n):
        raise ValueError(f"expected a point ({n},) or a batch (P, {n}), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        _fail_at(arr, ~np.isfinite(arr).all(-1), "non-finite coordinates in")
    return arr


def _fail_at(pts: np.ndarray, bad, msg: str) -> None:
    """NumericsError naming the point (n,), or the first row of (P, n) flagged by ``bad``."""
    if np.any(bad):
        raise NumericsError(f"{msg} {pts if pts.ndim == 1 else pts[int(np.argmax(bad))]}")


def _checked_inv(g: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """g^-1 of one metric matrix or a stack; DegenerateMetric where |det g| < DET_TOL."""
    det = np.abs(np.linalg.det(g))
    bad = det < DET_TOL
    if bad.any():
        raise DegenerateMetric(f"|det g| = {float(det.flat[np.argmax(bad)]):.3e} "
                               f"at {pts if pts.ndim == 1 else pts[int(np.argmax(bad))]}")
    return np.linalg.inv(g)


def _call_batch(kernel: Callable, pts: np.ndarray, *args):
    """``kernel(cols, *args)`` at a point (n,) or each row of a batch (P, n),
    as the read-only batch cols (n, 1) or (n, P) that every callback shares;
    point axis dropped or first, in each array of a tuple output.  The column
    is a reshape, not ``pts[:, None]``: that view has stride 0 along the point
    axis, numpy's loops read a stride-0 operand as a scalar, and ``np.power``
    squares a scalar exponent 2.0 where a batch calls pow."""
    cols = pts.reshape(-1, 1) if pts.ndim == 1 else np.ascontiguousarray(pts.T)
    cols.flags.writeable = False

    def point_first(out):
        return out[..., 0] if pts.ndim == 1 else out.transpose((out.ndim - 1, *range(out.ndim - 1)))

    out = kernel(cols, *args)
    return tuple(map(point_first, out)) if isinstance(out, tuple) else point_first(out)


def _call(cols: np.ndarray, eval: Callable, shape: tuple, what: str, order: int = 0):
    """The callback ``eval`` at the batch cols (n, P), checked to give (*shape, P);
    at ``order`` k >= 1 the tuple ``eval(cols, k)`` of that value and k partials."""
    if not order:
        return _shaped(eval(cols), cols, shape, what)
    out = eval(cols, order)
    if not isinstance(out, tuple) or len(out) != order + 1:
        raise NumericsError(f"{what} at order {order} returned {type(out).__name__}, "
                            f"expected a tuple of {order + 1} arrays")
    return (_shaped(out[0], cols, shape, what), *out[1:])


def _shaped(out, cols: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """A callback's output at the batch cols (n, P), checked to be (*shape, P)."""
    out = np.asarray(out, dtype=float)
    want = shape + cols.shape[1:]
    if out.shape != want:
        raise NumericsError(f"{what} returned shape {out.shape} for {cols.shape[1]} points, "
                            f"expected {want} (point axis last)")
    return out


def _fold(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... along the first axis, left to right (a running
    sum).  Unlike a BLAS product or ``np.sum``, the order does not depend on the
    batch size, so a point rounds alike on its own and in any batch."""
    return np.add.accumulate(terms)[-1]


@dataclass(frozen=True)
class Signature:
    """Metric signature as a vector of +/-1; index = number of -1 entries."""

    signs: np.ndarray

    def __init__(self, signs):
        arr = np.asarray(signs, dtype=int)
        if not np.all(np.abs(arr) == 1):
            raise ValueError(f"signature entries must be +1 or -1, got {arr}")
        object.__setattr__(self, "signs", arr)

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    @property
    def index(self) -> int:
        return int(np.sum(self.signs < 0))

    @staticmethod
    def riemannian(n: int) -> "Signature":
        return Signature(np.ones(n, dtype=int))


@dataclass
class MetricField:
    """Symmetric-matrix-valued field with signature metadata.

    ``eval(x)`` maps coordinates to the metric matrix under the module's
    coordinate-major contract: ``x`` of shape ``(dim, P)`` gives
    ``(dim, dim, P)``.  A field of ``exact_order`` k >= 1 also answers
    ``eval(x, order)`` for 1 <= order <= k with the tuple ``(g, d g)`` or
    ``(g, d g, d d g)``, ``d g[k] = d_k g`` of shape ``(dim,) * 3 + (P,)`` and
    ``d d g[k, l] = d_k d_l g`` of shape ``(dim,) * 4 + (P,)``.  ``mat``,
    ``inv``, ``d1`` and ``d2`` accept one point or a ``(P, dim)`` batch.
    """

    dim: int
    eval: Callable[..., np.ndarray]
    signature: Signature
    exact_order: int = 0
    domain_box: Optional[np.ndarray] = None  # (dim, 2) coordinate bounds

    def __post_init__(self):
        if self.signature.n != self.dim:
            raise ValueError("signature length must equal metric dimension")
        _check_order(self.exact_order)
        if self.domain_box is not None:
            box = np.asarray(self.domain_box, dtype=float)
            if box.shape != (self.dim, 2):
                raise ValueError(f"domain_box must be ({self.dim}, 2), got {box.shape}")
            self.domain_box = box

    def _mat(self, cols: np.ndarray) -> np.ndarray:
        """The value kernel: g (dim, dim, P) at checked cols (dim, P), finite and symmetric."""
        return self._checked(cols, _call(cols, self.eval, (self.dim, self.dim), "metric eval"))

    def _checked(self, cols: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g (dim, dim, P) at cols, refused where not finite or not symmetric."""
        if not np.isfinite(g).all():  # a screen of the whole batch, then the per-point rule
            _fail_at(cols.T, ~np.isfinite(g).all(axis=(0, 1)), "non-finite metric entries at")
        if self.dim > 1 and g.tobytes() != g.swapaxes(0, 1).tobytes():  # screen: exactly g = g^T
            scale = np.maximum(1.0, np.abs(g).max(axis=(0, 1)))  # relative to each point's scale
            _fail_at(cols.T, np.abs(g - g.swapaxes(0, 1)).max(axis=(0, 1)) > SYMMETRY_TOL * scale,
                     "metric not symmetric at")
        return g

    def _jet(self, cols: np.ndarray, order: int) -> tuple:
        """The kernel: g and its partials up to ``order`` at checked cols, point axis last."""
        return _jet(self, self._mat, cols, order, (self.dim, self.dim), "metric eval",
                    "metric d{}")

    def mat(self, x) -> np.ndarray:
        """g at one point, (dim, dim), or at each row of a batch, (P, dim, dim)."""
        return _call_batch(self._jet, _points(x, self.dim), 0)[0]

    def inv(self, x) -> np.ndarray:
        return self.mat_and_inv(x)[1]

    def mat_and_inv(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(g, g^-1) from one evaluation; DegenerateMetric where |det g| < DET_TOL."""
        pts = _points(x, self.dim)
        g = _call_batch(self._jet, pts, 0)[0]
        return g, _checked_inv(g, pts)

    def d1(self, x) -> np.ndarray:
        """d1[..., k, i, j] = d_k g_ij, exact up to ``exact_order``, else central FD."""
        return _call_batch(self._jet, _points(x, self.dim), 1)[1]

    def d2(self, x) -> np.ndarray:
        """d2[..., k, l, i, j] = d_k d_l g_ij, exact at ``exact_order`` 2, else central FD."""
        return _call_batch(self._jet, _points(x, self.dim), 2)[2]

    def check_at(self, x) -> None:
        """Nondegeneracy check at one point or at each row of a batch: the
        eigenvalue sign pattern must match the signature."""
        pts = _points(x, self.dim)
        eigs = np.linalg.eigvalsh(_call_batch(self._mat, pts)).reshape(-1, self.dim)
        rows = pts.reshape(-1, self.dim)
        zero = (np.abs(eigs) <= DET_TOL).any(axis=1)
        if zero.any():
            k = int(np.argmax(zero))
            raise DegenerateMetric(f"near-zero eigenvalue at {rows[k]}: {eigs[k]}")
        neg = (eigs < -DET_TOL).sum(axis=1)
        bad = neg != self.signature.index
        if bad.any():
            k = int(np.argmax(bad))
            raise NumericsError(f"eigenvalue signs at {rows[k]} ({neg[k]} negative) do not "
                                f"match signature index {self.signature.index}")

    @staticmethod
    def constant(matrix, domain_box=None) -> "MetricField":
        m = np.asarray(matrix, dtype=float)
        n = m.shape[0]
        eigs = np.linalg.eigvalsh(m)
        signs = np.where(np.sort(eigs) < 0, -1, 1)

        def eval(x, order=0, _m=m[..., None]):
            g = np.repeat(_m, np.shape(x)[1], axis=-1)
            if not order:
                return g
            return (g, *(np.zeros((n,) * (k + 2) + np.shape(x)[1:]) for k in range(1, order + 1)))

        return MetricField(n, eval, Signature(np.sort(signs)), exact_order=2,
                           domain_box=domain_box)

    @staticmethod
    def euclidean(n: int, domain_box=None) -> "MetricField":
        return MetricField.constant(np.eye(n), domain_box=domain_box)


@dataclass
class ScalarField:
    """Scalar function of chart coordinates.

    ``eval(x)`` follows the module's coordinate-major contract: for ``x`` of
    shape ``(n, P)`` it returns ``(P,)``.  A field of ``exact_order`` k >= 1
    also answers ``eval(x, order)`` for 1 <= order <= k with the tuple
    ``(f, grad)`` or ``(f, grad, hess)``, of shapes ``(P,)``, ``(n, P)`` and
    ``(n, n, P)``.  ``value``, ``grad_coords`` and ``hess_coords`` accept one
    point or a ``(P, n)`` batch.

    ``reads``, when known, is the sorted tuple of the coordinate axes that
    ``eval`` reads (a scenario formula's variables, ``expr.compile_expr``):
    points that differ only along the other axes get the same value, so each
    partial along one of them is exactly 0 and a caller may supply it without
    differencing (``productgeo.classify``).  None (the default) is unknown.
    """

    eval: Callable[..., np.ndarray]
    exact_order: int = 0
    name: str = ""
    reads: Optional[tuple] = None

    def __post_init__(self):
        _check_order(self.exact_order)

    def _value(self, cols: np.ndarray) -> np.ndarray:
        """The value kernel: f at the coordinate-major batch cols (n, P), (P,), checked finite."""
        return self._checked(cols, _call(cols, self.eval, (), f"scalar field {self.name!r}"))

    def _checked(self, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
        if not np.isfinite(vals).all():
            _fail_at(cols.T, ~np.isfinite(vals), f"scalar field {self.name!r} non-finite at")
        return vals

    def _jet(self, cols: np.ndarray, order: int, block: Optional[tuple] = None) -> tuple:
        """The kernel: f and its partials up to ``order`` at checked cols, point
        axis last; with a ``block``, only the partials of order ``order`` on it."""
        return _jet(self, self._value, cols, order, (), f"scalar field {self.name!r}",
                    f"derivative of {self.name!r}", block)

    def value(self, x):
        """f at one point (a float) or at each row of a batch, (P,)."""
        pts = _points(x)
        vals = _call_batch(self._jet, pts, 0)[0]
        return float(vals) if pts.ndim == 1 else vals

    def grad_coords(self, x) -> np.ndarray:
        """Coordinate partials (d_i f); (P, n) for a batch."""
        return _call_batch(self._jet, _points(x), 1)[1]

    def hess_coords(self, x) -> np.ndarray:
        """Coordinate second partials (d_i d_j f); (P, n, n) for a batch."""
        return _call_batch(self._jet, _points(x), 2)[2]

    @staticmethod
    def constant(c: float) -> "ScalarField":
        def eval(x, order=0, _c=float(c)):
            f = np.full(np.shape(x)[1:], _c)
            if not order:
                return f
            return (f, np.zeros(np.shape(x)), np.zeros(np.shape(x)[:1] + np.shape(x)))[:order + 1]

        return ScalarField(eval, exact_order=2, name=f"const({c})")


def _check_order(order) -> None:
    if order not in (0, 1, 2):
        raise ValueError(f"exact_order must be 0, 1 or 2, got {order!r}")


def _jet(field, kernel: Callable, cols: np.ndarray, order: int, shape: tuple, what: str,
         what_d: str, block: Optional[tuple] = None) -> tuple:
    """The value of a ``shape``-valued field and its partials up to ``order``
    at checked cols (n, P), point axis last (see the module notes on the
    exact route): up to k = min(order, ``field.exact_order``) from one call
    ``field.eval(cols, k)``, the value through ``field._checked``; each order
    above k by central differences of the value ``kernel`` in one call (step
    ``FD_STEP_1`` or ``FD_STEP_2``).  When k = 0 the value is the centre row
    of the highest order's stencil, the only stencil that holds the centre.

    With a ``block`` (the ``axes`` of ``central_diff``) only the partials of
    order ``order`` on it are formed: ``(value, d)`` at order 1, ``(d,)`` at
    order 2.  The exact route slices its one call; central differences
    evaluate only the block's stencil points (at order 1 with the centre,
    which gives the value)."""
    if not order:
        return (kernel(cols),)
    k, out = min(order, field.exact_order), []
    pts = np.ascontiguousarray(cols.T)  # C order: the stencil reshapes without a copy
    diff = functools.partial(_call_batch, kernel)
    if block is not None and k < order:
        d = central_diff(diff, pts, fd_step(pts, (FD_STEP_1, FD_STEP_2)[order - 1]),
                         order=order, centre=order == 1, axes=block)
        d, val = d if order == 1 else (d, None)
        d = np.moveaxis(d, 0, -1)
        return (np.moveaxis(val, 0, -1), d) if order == 1 else (d,)
    if k:
        val, *ds = _call(cols, field.eval, shape, what, k)
        out = [field._checked(cols, val)]
        out += [_shaped(d, cols, (len(cols),) * m + shape, what_d.format(m))
                for m, d in enumerate(ds, 1)]
        if block is not None:  # k = order: the exact partial, sliced to the block
            d = out[-1][np.ix_(*block)]
            return (out[0], d) if order == 1 else (d,)
    for m in range(k + 1, order + 1):
        last = not k and m == order  # its centre row gives the value: one row per point
        d = central_diff(diff, pts, fd_step(pts, (FD_STEP_1, FD_STEP_2)[m - 1]),
                         order=m, centre=last)
        if last:
            d, at = d
            out.insert(0, np.moveaxis(at, 0, -1))
        out.append(np.moveaxis(d, 0, -1))
    return tuple(out)


def fd_step(xi, base: float = FD_STEP_1):
    """Central-difference step: max(base, base * |x_i|), elementwise."""
    return np.maximum(base, base * np.abs(xi))


@functools.lru_cache(maxsize=None)
def _stencil(n: int, order: int, centre: bool, axes: Optional[tuple]) -> tuple:
    """The unit stencil of the block ``axes`` of ``central_diff`` (None: every
    axis) and where its entries read it.

    Offsets, in order: the centre (with ``centre`` or for a diagonal entry),
    +e_k and then -e_k for each k of ``line``, and at order 2 the (++, +-,
    -+, --) corners of each pair i < j of (iu, ju), pairs in row-major order.
    ``line`` holds the axes of order 1, or at order 2 those in both rows and
    cols (the diagonal entries), as an index: a slice where they run
    consecutively; m is their count.  ``place[r, c]`` picks entry (r, c)
    from the diagonal entries followed by the pair entries.
    """
    eye = np.eye(n)
    axes = (tuple(range(n)),) * order if axes is None else axes
    if order == 1:
        (line,), pairs, place = axes, [], None
    else:
        rows, cols = axes
        line = tuple(k for k in range(n) if k in rows and k in cols)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if (i in rows and j in cols) or (j in rows and i in cols)]
        place = np.array([[line.index(r) if r == c
                           else len(line) + pairs.index((min(r, c), max(r, c))) for c in cols]
                          for r in rows], dtype=int)
    m = len(line)
    line = (slice(line[0], line[0] + m) if m and line == tuple(range(line[0], line[0] + m))
            else np.array(line, dtype=int))
    iu, ju = np.array(pairs, dtype=int).reshape(-1, 2).T
    offsets = [np.zeros((1, n))] if centre or (order == 2 and m) else []
    offsets += [eye[line], -eye[line]]
    offsets += [eye[iu] * si + eye[ju] * sj for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.concatenate(offsets), line, m, iu, ju, place


def central_diff(f: Callable[[np.ndarray], np.ndarray], x, steps, order: int = 1,
                 centre: bool = False, axes: Optional[Sequence[Sequence[int]]] = None):
    """Central differences of ``f`` along the coordinates, from one call of ``f``.

    ``x`` is one point ``(n,)`` or a batch ``(P, n)``, and ``steps`` holds the
    per-coordinate steps in the same shape.  ``f`` maps a ``(Q, n)`` array of
    points to ``(Q, ...)`` values; all stencil points of all of ``x`` go to it
    at once.  ``order=1`` gives
    ``d[..., k, ...] = (f(x + h_k e_k) - f(x - h_k e_k)) / 2h_k``; ``order=2``
    gives second partials, ``(f(x + h_i e_i) - 2 f(x) + f(x - h_i e_i)) / h_i^2``
    on the diagonal and ``(f(++) - f(+-) - f(-+) + f(--)) / 4 h_i h_j`` off it,
    i < j, for both (i, j) and (j, i).  The result has shape
    ``x.shape[:-1] + (n,) * order + value shape``.  With ``centre`` the pair
    ``(result, f(x))`` is returned, f(x) read from the same call of ``f``.

    ``axes`` asks for a block: the axes of each partial index, ``(ks,)`` at
    order 1 or ``(rows, cols)`` at order 2, in the order given (default: every
    axis).  Only the stencil points of those entries go to ``f``, and each
    entry is formed as above, bit for bit the same entry of the full result.
    """
    x = np.asarray(x, dtype=float)
    lead, n = x.shape[:-1], x.shape[-1]
    offsets, line, m, iu, ju, place = _stencil(n, order, centre,
                                               None if axes is None else tuple(map(tuple, axes)))
    stencil = x[..., None, :] + offsets * steps[..., None, :]
    vals = np.asarray(f(stencil.reshape(-1, n)), dtype=float)
    vals = vals.reshape(lead + (len(offsets),) + vals.shape[1:])
    h = steps.reshape(lead + (n,) + (1,) * (vals.ndim - len(lead) - 1))
    at = (slice(None),) * len(lead)  # index the stencil axis, after the batch axis
    q = len(iu)
    c = len(offsets) - 2 * m - 4 * q  # rows before +e: the centre, if any

    def part(start, count):
        return vals[at + (slice(start, start + count),)]

    if order == 1:
        out = (part(c, m) - part(c + m, m)) / (2.0 * h[at + (line,)])
    else:
        diag = ((part(1, m) - 2.0 * part(0, 1) + part(1 + m, m)) / h[at + (line,)]**2 if m
                else part(0, 0))  # no diagonal entry: no centre row either
        pp, pm, mp, mm = (part(c + 2 * m + k * q, q) for k in range(4))
        off = (pp - pm - mp + mm) / (4.0 * h[at + (iu,)] * h[at + (ju,)])
        out = np.concatenate([diag, off], axis=len(lead))[at + (place,)]
    return (out, vals[at + (0,)]) if centre else out


def _bilinear(u: np.ndarray, gm: np.ndarray, v: np.ndarray):
    """u gm v on C-contiguous operands, a float for vectors: BLAS picks its
    kernel by memory layout, so a strided view and a copy of the same values
    could otherwise round differently."""
    out = np.ascontiguousarray(u) @ np.ascontiguousarray(gm) @ np.ascontiguousarray(v)
    return float(out) if out.ndim == 0 else out


def inner_product(g: MetricField, x, u, v):
    """g(u, v) at the point x (n,), from one evaluation of g: a float for
    vectors u, v (n,), the matrix of g(u_a, v_b) (k, l) for frames (n, k) and
    (n, l).  Depends on the component values only, not on their memory layout."""
    x = _as_array(x, g.dim)
    u, v = (_frame(w, g.dim) if np.ndim(w) == 2 else _as_array(w, g.dim) for w in (u, v))
    return _bilinear(u.T, _call_batch(g._mat, x), v)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) from g^-1 and dg."""
    # bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)


def christoffel_numeric(g: MetricField, x) -> np.ndarray:
    """Gamma[k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    g and dg come from one ``MetricField._jet`` call: exact when the field
    has exact first derivatives, else central differences (the stencil of
    ``MetricField.d1``), with g at the centre read from the same batched
    metric evaluation.  A batch ``(P, n)`` gives ``(P, n, n, n)``.
    """
    return _christoffel_at(g, _points(x, g.dim))


def _christoffel_at(g: MetricField, pts: np.ndarray) -> np.ndarray:
    """``christoffel_numeric`` at checked points pts, (n,) or (P, n)."""
    gm, dg = _call_batch(g._jet, pts, 1)
    return _christoffel(_checked_inv(gm, pts), dg)


def _christoffel_and_d1(g: MetricField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, dGamma) at checked points, one point (n,) or each row of a
    batch (P, n), from one metric evaluation.

    Exact when the metric has exact second derivatives (g, dg and d2g from
    one ``MetricField._jet`` call; g^-1 and dg shared by both); else central
    differences of ``christoffel_numeric`` with the second-derivative step,
    all stencil points of all rows in one batch, Gamma at the points read
    from the centre rows.
    """
    if g.exact_order == 2:
        gm, dg, d2 = _call_batch(g._jet, pts, 2)
        ginv = _checked_inv(gm, pts)
        dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
        bracket = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
        dbracket = (np.einsum("...mijl->...mlij", d2) + np.einsum("...mjil->...mlij", d2)
                    - d2)
        return (_christoffel(ginv, dg),
                0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, bracket)
                       + np.einsum("...kl,...mlij->...mkij", ginv, dbracket)))
    dgamma, gamma = central_diff(functools.partial(_christoffel_at, g), pts,
                                 fd_step(pts, FD_STEP_2), centre=True)
    return gamma, dgamma


def riemann_numeric(g: MetricField, x) -> np.ndarray:
    """riem[l, i, j, k]: the l component of R(e_i, e_j) e_k.

    R^l_(k;ij) = d_i Gamma^l_jk - d_j Gamma^l_ik
                 + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik,
    with Gamma and dGamma from one metric evaluation.  A batch ``(P, n)``
    gives ``(P, n, n, n, n)``, still from one evaluation.
    """
    gamma, dgamma = _christoffel_and_d1(g, _points(x, g.dim))
    term = (np.einsum("...iljk->...lijk", dgamma)
            + np.einsum("...lim,...mjk->...lijk", gamma, gamma))
    return term - np.einsum("...lijk->...ljik", term)


def _sectional_curvature(gm: np.ndarray, riem: np.ndarray, U: np.ndarray, V: np.ndarray,
                         pts: np.ndarray) -> np.ndarray:
    """K(span(U[p], V[p])) = g(R(u, v) v, u) / (g(u,u) g(v,v) - g(u,v)^2) for
    each row p, from g (P, n, n) and ``riemann_numeric`` (P, n, n, n, n) at
    the points pts (P, n); DegeneratePlane where |Gram det| < PLANE_TOL."""
    gu, gv = np.einsum("pij,pj->pi", gm, U), np.einsum("pij,pj->pi", gm, V)
    q = (np.einsum("pi,pi->p", U, gu) * np.einsum("pi,pi->p", V, gv)
         - np.einsum("pi,pi->p", U, gv) ** 2)
    bad = np.abs(q) < PLANE_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise DegeneratePlane(f"plane Gram determinant {q[k]:.3e} at {pts[k]}")
    ruvv = np.einsum("plijk,pi,pj,pk->pl", riem, U, V, V)
    return np.einsum("pl,pl->p", gu, ruvv) / q


def sectional_curvature_numeric(g: MetricField, x, u, v) -> float:
    """K(span(u, v)) = g(R(u, v) v, u) / (g(u,u) g(v,v) - g(u,v)^2) for the
    vectors u, v (n,) at the point x (n,)."""
    pts = _as_array(x, g.dim)[None]
    return float(_sectional_curvature(_call_batch(g._mat, pts), riemann_numeric(g, pts),
                                      _as_array(u, g.dim)[None], _as_array(v, g.dim)[None],
                                      pts)[0])


def gradient(f: ScalarField, g: MetricField, x) -> np.ndarray:
    """Metric gradient at the point x (n,): its components g^{-1} df, (n,)."""
    x = _as_array(x, g.dim)
    df = _call_batch(f._jet, x, 1)[1]
    # an exact partial is not screened on its way in, so the result is
    return _as_array(_checked_inv(_call_batch(g._mat, x), x) @ df)


def hessian_matrix(f: ScalarField, g: MetricField, x) -> np.ndarray:
    """Covariant hessian Hess_ij = d_i d_j f - Gamma^k_ij d_k f at the point x (n,)."""
    x = _as_array(x, g.dim)
    _, df, ddf = _call_batch(f._jet, x, 2)
    gamma = _christoffel_at(g, x)
    return ddf - np.einsum("kij,k->ij", gamma, df)


def _component_field(field: Callable, n: int, what: str) -> Callable:
    """Batch form of a coordinate-major ``(n,)``-valued callback, checked finite."""

    def comps(pts):
        w = _call_batch(_call, pts, field, (n,), what)
        _fail_at(pts, ~np.isfinite(w).all(axis=-1), f"non-finite {what} sample at")
        return w

    return comps


def exterior_derivative_numeric(omega_field: Callable[[np.ndarray], np.ndarray], x,
                                n: Optional[int] = None,
                                step: Optional[float] = None) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i by central differences.

    ``omega_field`` maps coordinates to one-form components under the
    coordinate-major contract (``(n, Q)`` points give ``(n, Q)``
    components); all 2n stencil points go to it in one call.  Pass a larger
    ``step`` when the one-form samples are themselves finite-difference
    results.
    """
    x = _as_array(x, n)
    n = x.shape[0]
    comps = _component_field(omega_field, n, "one-form")
    domega = central_diff(comps, x, fd_step(x, FD_STEP_1 if step is None else step))
    return domega - domega.T


def gram_schmidt(g: MetricField, x, frame) -> np.ndarray:
    """Orthonormalize the columns of a frame (n, k) at the point x (n,)
    w.r.t. g, in order (signs allowed): the frame (n, k) returned has
    g(e_i, e_j) = +/- delta_ij.

    Raises DegeneratePlane when an intermediate vector is (numerically)
    lightlike, |g(w, w)| < LIGHTLIKE_TOL, since the span then has no
    pseudo-orthonormal basis.
    """
    x = _as_array(x, g.dim)
    gm = _call_batch(g._mat, x)
    frame = _frame(frame, g.dim)
    out = np.empty(frame.shape)
    for j in range(frame.shape[1]):
        w = frame[:, j].copy()
        for e in out[:, :j].T:
            q = _bilinear(e, gm, e)  # +/-1 after normalization
            w -= (_bilinear(e, gm, w) / q) * e
        nrm2 = _bilinear(w, gm, w)
        if abs(nrm2) < LIGHTLIKE_TOL:
            raise DegeneratePlane("lightlike direction encountered in Gram-Schmidt")
        out[:, j] = w / np.sqrt(abs(nrm2))
    return out
