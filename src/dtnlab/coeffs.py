"""Coefficient sets of the operator L_a, their ellipticity
certification, and diffeomorphism pullbacks for gauge experiments.

    L_a u = sum d_k(a_kj d_j u) + sum a_k d_k u - sum d_k(abar_k u) + a_0 u

A CoefficientSet holds the real fields a (a_kj), drift (a_k) and a0
(a_0), and the density rho of the mass form (1 except on a pulled-back
set).  The codrift abar_k is fixed by the drift, and for real fields it
is the drift: codrift is a read-only view of it.  Certification works
on the field samples at the triangle quadrature nodes of a mesh: it
returns the worst-case smallest eigenvalue of the symmetrized matrix
part (eta) and a symmetry flag, true when a_kj = a_jk at every node.
assemble() certifies the samples it assembles from, so a certificate
always belongs to the mesh it was computed on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import exprlang
from .errors import (
    EvalDomainError,
    NonEllipticError,
    QuadratureError,
    SingularJacobianError,
)

__all__ = [
    "ScalarField",
    "CoefficientSet",
    "Diffeo",
    "certify",
    "pullback",
    "quadrature_points",
    "bump_diffeo",
    "twist_diffeo",
]

# validate_diffeo's finite-difference step and relative tolerance
FD_STEP = 1e-6
FD_RTOL = 1e-4

# triangles per block of certify's samples; bounds its working memory
_CERTIFY_BLOCK = 8192


class ScalarField:
    """A point-evaluable real field on the plane.

    Wraps a constant, an expression string/tree, or a numpy array
    function f(xs, ys) as one array function that eval_batch calls; an
    expression is compiled once, here (exprlang.compile_expr).  _kind
    ("const", "expr" or "vfn") records which of the three it was.
    """

    def __init__(self, spec):
        if isinstance(spec, ScalarField):
            self._kind, self._batch = spec._kind, spec._batch
        elif isinstance(spec, (int, float)) and not isinstance(spec, bool):
            value = float(spec)
            self._kind = "const"
            self._batch = lambda xs, ys: np.full(xs.shape, value)
        elif isinstance(spec, (str, exprlang.Expr)):
            self._kind = "expr"
            self._batch = exprlang.compile_expr(
                exprlang.parse_expr(spec) if isinstance(spec, str) else spec)
        elif callable(spec):
            self._kind, self._batch = "vfn", spec
        else:
            raise TypeError(f"cannot build a scalar field from {spec!r}")

    def eval_batch(self, xs, ys):
        """Evaluate at arrays of points; returns a float array."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.asarray(self._batch(xs, ys), dtype=float)


def _field_grid(spec, shape):
    """Nested specs as nested tuples of ScalarField of shape (2, 2), (2,)
    or () (one field); ValueError when a list has the wrong length."""
    if not shape:
        return ScalarField(spec)
    if not isinstance(spec, (list, tuple)) or len(spec) != shape[0]:
        raise ValueError(f"expected a list of {shape[0]}, got {spec!r}")
    return tuple(_field_grid(s, shape[1:]) for s in spec)


@dataclass(frozen=True)
class CoefficientSet:
    """Matrix, drift and potential fields, and the mass density.

    The set is immutable and mesh independent: it carries no
    certificate.  Ellipticity is certified per mesh, from samples
    (certify, assemble), of every field but rho.  rho is 1 unless
    pullback sets it; make never does, shifted keeps it.
    """

    a: tuple                      # 2x2 of ScalarField
    drift: tuple                  # 2 of ScalarField
    a0: ScalarField
    rho: ScalarField = ScalarField(1.0)

    @property
    def codrift(self):
        """The codrift abar_k of L_a: the drift itself."""
        return self.drift

    @classmethod
    def make(cls, a=((1.0, 0.0), (0.0, 1.0)), drift=(0.0, 0.0), a0=0.0):
        """Build a set from constants, expressions, callables or fields."""
        return cls(a=_field_grid(a, (2, 2)), drift=_field_grid(drift, (2,)),
                   a0=ScalarField(a0))

    def shifted(self, delta: float) -> "CoefficientSet":
        """Same set with the potential shifted by a constant."""
        base = self.a0
        return replace(self, a0=ScalarField(
            lambda xs, ys: base.eval_batch(xs, ys) + delta))


def quadrature_points(mesh):
    """Edge-midpoint quadrature nodes per triangle, shape (nt, 3, 2).

    With weights area/3 each the rule is exact for quadratics (order 2).
    """
    return _edge_midpoints(mesh.vertices, mesh.triangles)


def _edge_midpoints(vertices, triangles):
    v = vertices[triangles]                    # (nt, 3, 2)
    return 0.5 * (v + np.roll(v, -1, axis=1))  # midpoints of edges 01,12,20


def _sample_fields(c: CoefficientSet, xs, ys):
    try:
        a = np.stack([
            np.stack([c.a[i][j].eval_batch(xs, ys) for j in range(2)])
            for i in range(2)
        ])                                  # (2, 2, ...)
        drift = np.stack([c.drift[k].eval_batch(xs, ys) for k in range(2)])
        a0 = c.a0.eval_batch(xs, ys)
    except EvalDomainError as exc:
        raise QuadratureError(f"coefficient evaluation failed: {exc}") from exc
    return a, drift, a0


def _certificate(blocks):
    """(eta, symmetric) of sampled fields; NonEllipticError when eta <= 0.

    blocks is an iterable of (a, drift, a0) tuples of _sample_fields,
    each over a part of the quadrature nodes.  Each block is reduced to
    its smallest eigenvalue, largest |a|, largest |a_kj - a_jk|, largest
    |drift| and largest |a0|; eta is the minimum over all blocks, and
    the symmetry tolerance is relative to the largest |a| over all
    blocks, so every split of the nodes gives the bits of a single block.
    A non-finite sample makes one of the largest values non-finite, and
    raises QuadratureError.
    """
    etas, a_asym, largest = [], [], []
    for a, drift, a0 in blocks:
        s11 = a[0, 0]
        s22 = a[1, 1]
        s12 = 0.5 * (a[0, 1] + a[1, 0])
        half_tr = 0.5 * (s11 + s22)
        radius = np.sqrt((0.5 * (s11 - s22)) ** 2 + s12 ** 2)
        etas.append(np.min(half_tr - radius))
        a_asym.append(np.max(np.abs(a[0, 1] - a[1, 0])))
        largest.append([np.max(np.abs(f)) for f in (a, drift, a0)])
    largest = np.max(largest, axis=0)       # of |a|, |drift|, |a0|
    for name, value in zip(("a", "drift", "a0"), largest):
        if not np.isfinite(value):
            raise QuadratureError(
                f"coefficient {name} has a non-finite quadrature sample")
    eta = float(np.min(etas))
    scale = 1.0 + float(largest[0])
    sym = float(np.max(a_asym)) <= 1e-12 * scale
    if eta <= 0.0:
        raise NonEllipticError(
            f"symmetrized matrix coefficient has smallest eigenvalue "
            f"{eta:.6e} <= 0 at a quadrature sample"
        )
    return eta, bool(sym)


def certify(c: CoefficientSet, mesh):
    """Certify ellipticity on the mesh quadrature nodes.

    Returns (eta, symmetric_flag) and leaves c unchanged.  eta is the
    minimum over samples of the smallest eigenvalue of the symmetrized
    matrix part; raises NonEllipticError when eta <= 0.  The fields are
    sampled over blocks of _CERTIFY_BLOCK triangles, so only one block
    of samples is held at a time.  The result is bit-identical to
    sampling every node at once, and so is the QuadratureError of a
    field that fails; when several fields fail, the one failing in the
    earliest block is reported.
    """
    tri = mesh.triangles
    nodes = (_edge_midpoints(mesh.vertices, tri[lo:lo + _CERTIFY_BLOCK])
             for lo in range(0, len(tri), _CERTIFY_BLOCK))
    return _certificate(_sample_fields(c, pts[..., 0], pts[..., 1])
                        for pts in nodes)


@dataclass
class Diffeo:
    """A planar map with an explicitly supplied Jacobian.

    forward(xs, ys) returns the mapped coordinates (xs', ys'), and
    jacobian(xs, ys) the Jacobian matrices, shape (..., 2, 2), whose
    entry [..., i, j] is the derivative of component i with respect to
    variable j; both take float arrays of one shape.  The map must be
    the identity on the boundary of the domain it is used on;
    validate_diffeo checks that, and the Jacobian, on a mesh.
    """

    forward: Callable
    jacobian: Callable

    def jacobian_batch(self, xs, ys):
        """Jacobian matrices and determinants at arrays of points.

        Returns (J, det) with shapes (..., 2, 2) and (...).  Raises
        SingularJacobianError unless every determinant is finite, > 0.
        """
        J = self.jacobian(np.asarray(xs, dtype=float),
                          np.asarray(ys, dtype=float))
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if not np.all(det > 0):
            low = float(np.min(det))           # NaN when any det is NaN
            raise SingularJacobianError(
                f"Jacobian determinant min {low:.6e} <= 0" if np.isfinite(low)
                else "Jacobian determinant is not finite")
        return J, det


def bump_diffeo(alpha=0.12, c1=1.0, c2=-0.7) -> Diffeo:
    """Area-distorting diffeomorphism of the unit square fixing its boundary.

    Phi(x, y) = (x, y) + alpha*sin(pi x)*sin(pi y)*(c1, c2).  Smooth,
    orientation preserving for alpha*pi*(|c1|+|c2|) < 1, and det != 1
    so areas are genuinely distorted.
    """
    if alpha * np.pi * (abs(c1) + abs(c2)) >= 1.0:
        raise ValueError("bump too strong; the map would fold")
    pi = np.pi
    a1, a2 = alpha * c1, alpha * c2

    def forward(x, y):
        sx, sy = np.sin(pi * x), np.sin(pi * y)
        return x + a1 * sx * sy, y + a2 * sx * sy

    # DPhi[i, j] = delta_ij + alpha c_i pi f_j(x) h_j(y), with
    # f = (cos, sin)(pi x) and h = (sin, cos)(pi y)
    def jacobian(x, y):
        f = np.stack([np.cos(pi * x), np.sin(pi * x)], axis=-1)
        h = np.stack([np.sin(pi * y), np.cos(pi * y)], axis=-1)
        k = np.array([[a1 * pi], [a2 * pi]])
        J = k * f[..., None, :] * h[..., None, :]
        J[..., 0, 0] += 1.0
        J[..., 1, 1] += 1.0
        return J

    return Diffeo(forward, jacobian)


def radial_bump_diffeo(alpha=0.35, radius=0.45, center=(0.5, 0.5)) -> Diffeo:
    """Area-distorting inflation supported inside a disk.

    Phi(p) = p + alpha*w(|u|^2)*u with u = p - center and
    w(s) = (1 - s/R^2)^2 inside the disk, 0 outside (C^1 across).  The
    map is the identity near the boundary, orientation preserving for
    alpha < 1, and has nonconstant Jacobian determinant, so it
    genuinely redistributes area.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1) to keep the map injective")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    cx, cy = center
    R2 = radius * radius

    def parts(x, y):
        """u = p - center, s = |u|^2, t = max(1 - s/R^2, 0), alpha*w(s)."""
        u = np.stack([np.asarray(x, float) - cx, np.asarray(y, float) - cy],
                     axis=-1)
        s = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
        t = np.clip(1.0 - s / R2, 0.0, None)
        return u, s, t, alpha * (t * t)

    def forward(x, y):
        u, _s, _t, aw = parts(x, y)
        return x + aw * u[..., 0], y + aw * u[..., 1]

    # DPhi = (1 + alpha*w) I + 2*alpha*w'(s) u u^T
    def jacobian(x, y):
        u, s, t, aw = parts(x, y)
        g = 2.0 * alpha * np.where(s < R2, -2.0 * t / R2, 0.0)
        return ((1.0 + aw)[..., None, None] * np.eye(2)
                + g[..., None, None] * u[..., :, None] * u[..., None, :])

    return Diffeo(forward, jacobian)


def twist_diffeo(alpha=0.8, radius=0.45, center=(0.5, 0.5)) -> Diffeo:
    """Area-preserving twist inside a disk, identity outside.

    Rotates each circle of radius r < radius about the center by the
    angle alpha*(1 - (r/radius)^2)^2; det of the Jacobian is exactly 1.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    cx, cy = center
    R2 = radius * radius

    def parts(x, y):
        """u, s = |u|^2, t = max(1 - s/R^2, 0), cos and sin of theta."""
        u = np.stack([np.asarray(x, float) - cx, np.asarray(y, float) - cy],
                     axis=-1)
        s = u[..., 0] ** 2 + u[..., 1] ** 2
        t = np.clip(1.0 - s / R2, 0.0, None)
        theta = alpha * t * t
        return u, s, t, np.cos(theta), np.sin(theta)

    def forward(x, y):
        u, _s, _t, c, sn = parts(x, y)
        return (cx + c * u[..., 0] - sn * u[..., 1],
                cy + sn * u[..., 0] + c * u[..., 1])

    # DPhi = R(theta) + theta'(s) * (J R u) (2 u)^T, with J the quarter turn
    def jacobian(x, y):
        u, s, t, c, sn = parts(x, y)
        dtheta = np.where(s < R2, -2.0 * alpha * t / R2, 0.0)
        R = np.stack([np.stack([c, -sn], axis=-1),
                      np.stack([sn, c], axis=-1)], axis=-2)
        JRu = np.stack([-(sn * u[..., 0] + c * u[..., 1]),
                        c * u[..., 0] - sn * u[..., 1]], axis=-1)
        return R + ((2.0 * dtheta)[..., None, None] * JRu[..., :, None]
                    * u[..., None, :])

    return Diffeo(forward, jacobian)


def validate_diffeo(phi: Diffeo, mesh):
    """Check a diffeomorphism against a mesh; returns the smallest det.

    Verifies det > 0 at the quadrature nodes, that phi.forward fixes the
    boundary vertices and edge midpoints, and phi.jacobian against
    central finite differences of phi.forward (step FD_STEP, relative
    tolerance FD_RTOL) at a sample of nodes.  Raises
    SingularJacobianError at the first check that fails.
    """
    pts = quadrature_points(mesh)
    xs, ys = pts[..., 0], pts[..., 1]
    J, det = phi.jacobian_batch(xs, ys)
    v = mesh.vertices
    mids = 0.5 * (v[mesh.boundary_edges[:, 0]] + v[mesh.boundary_edges[:, 1]])
    for p in (v[mesh.boundary_vertices()], mids):
        moved = np.column_stack(phi.forward(p[:, 0], p[:, 1]))
        shift = float(np.max(np.abs(moved - p)))
        if not shift <= 1e-10:
            raise SingularJacobianError(
                f"map must fix the boundary but moves it by {shift:.3e}")
    # spot-check the Jacobian on a thinned sample
    sel = slice(0, xs.size, max(1, xs.size // 64))
    sx = xs.ravel()[sel]
    sy = ys.ravel()[sel]
    h = FD_STEP

    def forward(px, py):
        return np.column_stack(phi.forward(px, py))

    fd = np.stack([forward(sx + h, sy) - forward(sx - h, sy),
                   forward(sx, sy + h) - forward(sx, sy - h)],
                  axis=-1) / (2 * h)
    err = float(np.max(np.abs(fd - phi.jacobian(sx, sy))))
    if err > FD_RTOL * (1.0 + float(np.max(np.abs(J)))):
        raise SingularJacobianError(
            f"declared Jacobian disagrees with finite differences "
            f"(max error {err:.3e})"
        )
    return float(np.min(det))


def pullback(c: CoefficientSet, phi: Diffeo) -> CoefficientSet:
    """Coefficient set transported by a boundary-fixed diffeomorphism.

    The returned fields are the transported values as functions of the
    reference coordinate (no inverse map is ever formed):

        matrix    (DPhi a DPhi^T) / det
        drift     (DPhi drift) / det
        potential a0 / det
        density   rho / det

    The density keeps the volume pairing, and with it the whole
    spectral-parameter family, equal to the untransported one.

    The eight fields are slots of one function of the points: it calls
    phi.jacobian_batch once and samples each field of c once, computes
    all eight values, and keeps them with copies of the points of its
    latest call.  A field evaluated at points equal in value to those
    reads its slot, so sampling the whole set costs one transport.

    Sampling these at reference quadrature nodes while assembling on
    the transported mesh (mesh.map_vertices(mesh, phi.forward)) realizes
    the transported problem; the associated weak forms coincide with the
    original ones up to quadrature error, which is what makes the two
    discrete operators comparable in gauge experiments.
    """
    memo = []    # [(xs, ys, values)] of the latest points

    def transported(xs, ys):
        if memo and np.array_equal(memo[0][0], xs) \
                and np.array_equal(memo[0][1], ys):
            return memo[0][2]
        J, det = phi.jacobian_batch(xs, ys)
        a, drift, a0 = _sample_fields(c, xs, ys)
        rho = c.rho.eval_batch(xs, ys)
        g = J @ np.moveaxis(a, (0, 1), (-2, -1)) @ np.swapaxes(J, -1, -2)
        Jv = J @ np.moveaxis(drift, 0, -1)[..., None]
        values = [g[..., i, j] / det for i in range(2) for j in range(2)]
        values += [Jv[..., i, 0] / det for i in range(2)]
        values += [a0 / det, rho / det]
        memo[:] = [(xs.copy(), ys.copy(), values)]
        return values

    f = [ScalarField(lambda xs, ys, k=k: transported(xs, ys)[k].copy())
         for k in range(8)]
    return CoefficientSet(a=((f[0], f[1]), (f[2], f[3])), drift=(f[4], f[5]),
                          a0=f[6], rho=f[7])
