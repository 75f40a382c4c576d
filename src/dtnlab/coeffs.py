"""Coefficient sets for symmetric second-order operators, their
ellipticity certification, and diffeomorphism pullbacks for gauge
experiments.

A coefficient set holds a 2x2 matrix field a, a drift vector field, a
codrift vector field and a scalar potential.  All fields are real
valued, and a set carries no state beyond them.  Certification works
on the field samples at the triangle quadrature nodes of a mesh: it
returns the worst-case smallest eigenvalue of the symmetrized matrix
part (eta) together with a symmetry flag.  assemble() certifies the
samples it assembles from, so a certificate always belongs to the mesh
it was computed on.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "transport_mesh",
    "quadrature_points",
    "bump_diffeo",
    "twist_diffeo",
    "identity_diffeo",
]

# validate_diffeo's finite-difference step and relative tolerance
FD_STEP = 1e-6
FD_RTOL = 1e-4


class ScalarField:
    """A point-evaluable real field on the plane.

    Wraps a constant, an expression string/tree, or a numpy array
    function f(xs, ys).  An expression is compiled once, here, into a
    numpy closure (exprlang.compile_expr) that eval_batch calls;
    __call__ evaluates one point with the scalar reference eval_expr.
    """

    def __init__(self, spec):
        if isinstance(spec, ScalarField):
            self._kind = spec._kind
            self._payload = spec._payload
            self._batch = spec._batch
            return
        if isinstance(spec, (int, float)):
            self._kind = "const"
            self._payload = float(spec)
            self._batch = None
        elif isinstance(spec, (str, exprlang.Num, exprlang.Var, exprlang.Neg,
                               exprlang.BinOp, exprlang.Call)):
            self._kind = "expr"
            self._payload = (exprlang.parse_expr(spec) if isinstance(spec, str)
                             else spec)
            self._batch = exprlang.compile_expr(self._payload)
        elif callable(spec):
            self._kind = "vfn"
            self._payload = self._batch = spec
        else:
            raise TypeError(f"cannot build a scalar field from {spec!r}")

    @property
    def is_constant(self):
        return self._kind == "const"

    @property
    def constant_value(self):
        if self._kind != "const":
            raise ValueError("field is not constant")
        return self._payload

    def __call__(self, x, y):
        if self._kind == "const":
            return self._payload
        if self._kind == "expr":
            return exprlang.eval_expr(self._payload, x, y)
        return float(self._payload(x, y))

    def eval_batch(self, xs, ys):
        """Evaluate at arrays of points; returns a float array."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self._kind == "const":
            return np.full(xs.shape, self._payload)
        return np.asarray(self._batch(xs, ys), dtype=float)


def _field_grid(spec, shape):
    """Coerce nested field specs into a tuple-of-tuples of ScalarField."""
    if shape == (2, 2):
        return tuple(tuple(ScalarField(spec[i][j]) for j in range(2))
                     for i in range(2))
    return tuple(ScalarField(spec[i]) for i in range(2))


@dataclass(frozen=True)
class CoefficientSet:
    """Matrix, drift, codrift and potential fields.

    The set is immutable and mesh independent: it carries no
    certificate.  Ellipticity is certified per mesh, from samples
    (certify, assemble).
    """

    a: tuple                      # 2x2 of ScalarField
    drift: tuple                  # 2 of ScalarField
    codrift: tuple                # 2 of ScalarField
    a0: ScalarField

    @classmethod
    def make(cls, a=((1.0, 0.0), (0.0, 1.0)), drift=(0.0, 0.0),
             codrift=None, a0=0.0):
        """Build a set from constants, expression strings or callables.

        codrift defaults to drift (the symmetric realization).
        """
        drift_fields = _field_grid(drift, (2,))
        return cls(
            a=_field_grid(a, (2, 2)),
            drift=drift_fields,
            codrift=drift_fields if codrift is None else _field_grid(codrift, (2,)),
            a0=ScalarField(a0),
        )

    @classmethod
    def identity(cls):
        return cls.make()

    @classmethod
    def from_config(cls, block: dict):
        """Parse the JSON coefficient block.

        Keys: "a" (2x2 of expressions), "drift" (2 of expressions),
        "a0" (expression).  Omitted keys default to the identity matrix
        and zero; codrift is set equal to drift.
        """
        a = block.get("a", [["1", "0"], ["0", "1"]])
        drift = block.get("drift", ["0", "0"])
        a0 = block.get("a0", "0")
        return cls.make(a=a, drift=drift, a0=a0)

    def shifted(self, delta: float) -> "CoefficientSet":
        """Same set with the potential shifted by a constant."""
        if self.a0.is_constant:
            a0 = ScalarField(self.a0.constant_value + delta)
        else:
            base = self.a0
            a0 = ScalarField(
                lambda xs, ys, _b=base, _d=delta: _b.eval_batch(xs, ys) + _d)
        return CoefficientSet(a=self.a, drift=self.drift,
                              codrift=self.codrift, a0=a0)


def quadrature_points(mesh):
    """Edge-midpoint quadrature nodes per triangle, shape (nt, 3, 2).

    With weights area/3 each the rule is exact for quadratics (order 2).
    """
    v = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    return 0.5 * (v + np.roll(v, -1, axis=1))  # midpoints of edges 01,12,20


def _sample_fields(c: CoefficientSet, xs, ys):
    try:
        a = np.stack([
            np.stack([c.a[i][j].eval_batch(xs, ys) for j in range(2)])
            for i in range(2)
        ])                                  # (2, 2, ...)
        drift = np.stack([c.drift[k].eval_batch(xs, ys) for k in range(2)])
        codrift = np.stack([c.codrift[k].eval_batch(xs, ys) for k in range(2)])
        a0 = c.a0.eval_batch(xs, ys)
    except EvalDomainError as exc:
        raise QuadratureError(f"coefficient evaluation failed: {exc}") from exc
    return a, drift, codrift, a0


def _certificate(samples):
    """(eta, symmetric) of sampled fields; NonEllipticError when eta <= 0.

    samples is the (a, drift, codrift, a0) tuple of _sample_fields.
    """
    a, drift, codrift, _a0 = samples
    s11 = a[0, 0]
    s22 = a[1, 1]
    s12 = 0.5 * (a[0, 1] + a[1, 0])
    half_tr = 0.5 * (s11 + s22)
    radius = np.sqrt((0.5 * (s11 - s22)) ** 2 + s12 ** 2)
    eta = float(np.min(half_tr - radius))
    scale = 1.0 + float(np.max(np.abs(a)))
    sym = (float(np.max(np.abs(a[0, 1] - a[1, 0]))) <= 1e-12 * scale
           and float(np.max(np.abs(drift - codrift))) <= 1e-12 * scale)
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
    matrix part; raises NonEllipticError when eta <= 0.
    """
    pts = quadrature_points(mesh)
    return _certificate(_sample_fields(c, pts[..., 0], pts[..., 1]))


@dataclass
class Diffeo:
    """A planar map with an explicitly supplied Jacobian.

    forward: pair of ScalarField, jacobian: 2x2 of ScalarField (entry
    [i][j] is the derivative of component i with respect to variable j).
    The map must be the identity on the boundary of the domain it is
    used on; validate_diffeo checks that on a mesh.
    """

    forward: tuple
    jacobian: tuple

    def map_point(self, x, y):
        return self.forward[0](x, y), self.forward[1](x, y)

    def jacobian_batch(self, xs, ys):
        """Jacobian matrices and determinants at arrays of points.

        Returns (J, det) with shapes (..., 2, 2) and (...).  Raises
        SingularJacobianError if any determinant is <= 0.
        """
        J = np.stack([
            np.stack([self.jacobian[i][j].eval_batch(xs, ys)
                      for j in range(2)], axis=-1)
            for i in range(2)
        ], axis=-2)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if np.any(det <= 0):
            raise SingularJacobianError(
                f"Jacobian determinant min {float(np.min(det)):.6e} <= 0"
            )
        return J, det


def identity_diffeo() -> Diffeo:
    return Diffeo(
        forward=(ScalarField("x"), ScalarField("y")),
        jacobian=((ScalarField(1.0), ScalarField(0.0)),
                  (ScalarField(0.0), ScalarField(1.0))),
    )


def bump_diffeo(alpha=0.12, c1=1.0, c2=-0.7) -> Diffeo:
    """Area-distorting diffeomorphism of the unit square fixing its boundary.

    Phi(x, y) = (x, y) + alpha*sin(pi x)*sin(pi y)*(c1, c2).  Smooth,
    orientation preserving for alpha*pi*(|c1|+|c2|) < 1, and det != 1
    so areas are genuinely distorted.
    """
    if alpha * np.pi * (abs(c1) + abs(c2)) >= 1.0:
        raise ValueError("bump too strong; the map would fold")
    pi = np.pi

    def fwd_x(x, y):
        return x + alpha * c1 * np.sin(pi * x) * np.sin(pi * y)

    def fwd_y(x, y):
        return y + alpha * c2 * np.sin(pi * x) * np.sin(pi * y)

    def j11(x, y):
        return 1.0 + alpha * c1 * pi * np.cos(pi * x) * np.sin(pi * y)

    def j12(x, y):
        return alpha * c1 * pi * np.sin(pi * x) * np.cos(pi * y)

    def j21(x, y):
        return alpha * c2 * pi * np.cos(pi * x) * np.sin(pi * y)

    def j22(x, y):
        return 1.0 + alpha * c2 * pi * np.sin(pi * x) * np.cos(pi * y)

    return Diffeo(
        forward=(ScalarField(fwd_x), ScalarField(fwd_y)),
        jacobian=((ScalarField(j11), ScalarField(j12)),
                  (ScalarField(j21), ScalarField(j22))),
    )


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
    cx, cy = center
    R2 = radius * radius

    def w(s):
        t = np.clip(1.0 - s / R2, 0.0, None)
        return t * t

    def dw(s):
        t = np.clip(1.0 - s / R2, 0.0, None)
        return -2.0 * t / R2

    def parts(x, y):
        u0 = np.asarray(x, float) - cx
        u1 = np.asarray(y, float) - cy
        s = u0 * u0 + u1 * u1
        return u0, u1, s

    def fwd_x(x, y):
        u0, _u1, s = parts(x, y)
        return x + alpha * w(s) * u0

    def fwd_y(x, y):
        _u0, u1, s = parts(x, y)
        return y + alpha * w(s) * u1

    # DPhi = (1 + alpha*w) I + 2*alpha*dw * u u^T
    def jac(i, j):
        def entry(x, y):
            u0, u1, s = parts(x, y)
            u = (u0, u1)
            base = (1.0 + alpha * w(s)) if i == j else 0.0
            inside = s < R2
            dws = np.where(inside, dw(np.where(inside, s, R2)), 0.0)
            return base + 2.0 * alpha * dws * u[i] * u[j]
        return ScalarField(entry)

    return Diffeo(
        forward=(ScalarField(fwd_x), ScalarField(fwd_y)),
        jacobian=((jac(0, 0), jac(0, 1)), (jac(1, 0), jac(1, 1))),
    )


def twist_diffeo(alpha=0.8, radius=0.45, center=(0.5, 0.5)) -> Diffeo:
    """Area-preserving twist inside a disk, identity outside.

    Rotates each circle of radius r < radius about the center by the
    angle alpha*(1 - (r/radius)^2)^2; det of the Jacobian is exactly 1.
    """
    cx, cy = center
    R2 = radius * radius

    def theta(s):                      # s = r^2
        t = np.clip(1.0 - s / R2, 0.0, None)
        return alpha * t * t

    def dtheta(s):
        t = np.clip(1.0 - s / R2, 0.0, None)
        return -2.0 * alpha * t / R2

    def parts(x, y):
        u = np.stack([np.asarray(x, float) - cx, np.asarray(y, float) - cy])
        s = u[0] ** 2 + u[1] ** 2
        th = theta(s)
        c, sn = np.cos(th), np.sin(th)
        return u, s, th, c, sn

    def fwd_x(x, y):
        u, _s, _th, c, sn = parts(x, y)
        return cx + c * u[0] - sn * u[1]

    def fwd_y(x, y):
        u, _s, _th, c, sn = parts(x, y)
        return cy + sn * u[0] + c * u[1]

    # DPhi = R(theta) + dtheta/ds * (J R u) (2 u)^T, with J the quarter turn
    def jac(i, j):
        def entry(x, y):
            u, s, _th, c, sn = parts(x, y)
            inside = s < R2
            dth = np.where(inside, dtheta(np.where(inside, s, R2)), 0.0)
            R = np.stack([np.stack([c, -sn]), np.stack([sn, c])])
            JRu = np.stack([-(sn * u[0] + c * u[1]), c * u[0] - sn * u[1]])
            return R[i, j] + 2.0 * dth * JRu[i] * u[j]
        return ScalarField(entry)

    return Diffeo(
        forward=(ScalarField(fwd_x), ScalarField(fwd_y)),
        jacobian=((jac(0, 0), jac(0, 1)), (jac(1, 0), jac(1, 1))),
    )


def validate_diffeo(phi: Diffeo, mesh):
    """Check a diffeomorphism against a mesh.

    Verifies det > 0 at quadrature nodes, that the map fixes the
    boundary vertices and edge midpoints, and the declared Jacobian
    against central finite differences (step FD_STEP, relative
    tolerance FD_RTOL) at a sample of nodes.
    """
    pts = quadrature_points(mesh)
    xs, ys = pts[..., 0], pts[..., 1]
    J, det = phi.jacobian_batch(xs, ys)
    bv = mesh.boundary_vertices()
    bx = mesh.vertices[bv, 0]
    by = mesh.vertices[bv, 1]
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                  + mesh.vertices[mesh.boundary_edges[:, 1]])
    for px, py in [(bx, by), (mids[:, 0], mids[:, 1])]:
        fx = phi.forward[0].eval_batch(px, py)
        fy = phi.forward[1].eval_batch(px, py)
        shift = max(float(np.max(np.abs(fx - px))),
                    float(np.max(np.abs(fy - py))))
        if shift > 1e-10:
            raise SingularJacobianError(
                f"map must fix the boundary but moves it by {shift:.3e}")
    # spot-check the Jacobian on a thinned sample
    sel = slice(0, xs.size, max(1, xs.size // 64))
    sx = xs.ravel()[sel]
    sy = ys.ravel()[sel]
    h = FD_STEP
    for i in range(2):
        f = phi.forward[i]
        dfdx = (f.eval_batch(sx + h, sy) - f.eval_batch(sx - h, sy)) / (2 * h)
        dfdy = (f.eval_batch(sx, sy + h) - f.eval_batch(sx, sy - h)) / (2 * h)
        declared_x = phi.jacobian[i][0].eval_batch(sx, sy)
        declared_y = phi.jacobian[i][1].eval_batch(sx, sy)
        err = max(float(np.max(np.abs(dfdx - declared_x))),
                  float(np.max(np.abs(dfdy - declared_y))))
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
        codrift   (DPhi codrift) / det
        potential a0 / det

    Sampling these at reference quadrature nodes while assembling on
    the transported mesh (transport_mesh) realizes the transported
    problem; the associated weak forms coincide with the original ones
    up to quadrature error, which is what makes the two discrete
    operators comparable in gauge experiments.
    """
    def matrix_entry(i, j):
        def entry(xs, ys):
            J, det = phi.jacobian_batch(xs, ys)
            a = np.stack([
                np.stack([c.a[r][s].eval_batch(xs, ys) for s in range(2)],
                         axis=-1)
                for r in range(2)
            ], axis=-2)
            g = J @ a @ np.swapaxes(J, -1, -2)
            return g[..., i, j] / det
        return ScalarField(entry)

    def vector_entry(fields, i):
        def entry(xs, ys):
            J, det = phi.jacobian_batch(xs, ys)
            v = np.stack([fields[k].eval_batch(xs, ys) for k in range(2)],
                         axis=-1)
            return (J @ v[..., None])[..., i, 0] / det
        return ScalarField(entry)

    def potential(xs, ys):
        _, det = phi.jacobian_batch(xs, ys)
        return c.a0.eval_batch(xs, ys) / det

    return CoefficientSet(
        a=tuple(tuple(matrix_entry(i, j) for j in range(2)) for i in range(2)),
        drift=tuple(vector_entry(c.drift, i) for i in range(2)),
        codrift=tuple(vector_entry(c.codrift, i) for i in range(2)),
        a0=ScalarField(potential),
    )


def transport_mesh(mesh, phi: Diffeo):
    """Move mesh vertices through the map (topology and labels kept)."""
    from .mesh import map_vertices

    return map_vertices(mesh, lambda x, y: phi.map_point(x, y))


def mass_weight(phi: Diffeo) -> ScalarField:
    """Reciprocal Jacobian determinant as a field on reference points.

    Weighting the mass form of a transported assembly by this field
    keeps the volume pairing equal to the untransported one, so the
    whole spectral-parameter family of the transported system matches.
    """

    def rho(xs, ys):
        _, det = phi.jacobian_batch(xs, ys)
        return 1.0 / det

    return ScalarField(rho)
