"""Shared fixtures-in-spirit: small systems used across test modules,
and the oracles the tests check the package against."""

import math
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from dtnlab.assemble import (
    _HATS_AT_MIDPOINTS,
    AssembledSystem,
    _free_dof_map,
    _triangle_geometry,
    assemble,
)
from dtnlab.coeffs import (
    CoefficientSet,
    Diffeo,
    _sample_fields,
    certify,
    pullback,
    quadrature_points,
)
from dtnlab.dtn import DtnMatrix, harmonic_extension
from dtnlab.exprlang import BinOp, Call, Expr, Neg, Num, Var
from dtnlab.mesh import (
    build_structured_square,
    partition_boundary,
    square_side_selector,
)
from dtnlab.spectral import sym_geneig

def traced_peak(fn, *args, **kwargs):
    """tracemalloc peak, in bytes, of one call fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_mesh_fault(mesh):
    """The message check_mesh should raise for mesh, or None if it is valid.

    A set-based restatement of the checks, in check_mesh's order, that
    walks the edges in Python.  The message names the failing branch
    and, for a misfiled edge, the first one among all 01 edges of the
    triangles, then all 12, then all 20.
    """
    nv = len(mesh.vertices)
    tris = mesh.triangles.tolist()
    listed = [tuple(e) for e in mesh.boundary_edges.tolist()]
    for name, index in (("triangles", [v for t in tris for v in t]),
                        ("boundary edges", [v for e in listed for v in e])):
        if any(not 0 <= v < nv for v in index):
            return f"{name} refer to vertices outside 0..{nv - 1}"
    unused = sorted(set(range(nv)) - {v for t in tris for v in t})
    if unused:
        return f"vertex {unused[0]} is in no triangle"
    xy = mesh.vertices.tolist()
    areas = [0.5 * ((xy[b][0] - xy[a][0]) * (xy[c][1] - xy[a][1])
                    - (xy[b][1] - xy[a][1]) * (xy[c][0] - xy[a][0]))
             for a, b, c in tris]
    nan = [k for k, area in enumerate(areas) if math.isnan(area)]
    if nan:
        return f"triangle {nan[0]} has a signed area that is not finite"
    if any(area <= 0 for area in areas):
        bad = areas.index(min(areas))
        if math.isinf(areas[bad]):
            return f"triangle {bad} has a signed area that is not finite"
        return f"triangle {bad} has nonpositive signed area {areas[bad]:.3e}"
    directed = [(t[i], t[j]) for i, j in ((0, 1), (1, 2), (2, 0))
                for t in tris]
    edges = set(directed)
    if len(edges) < len(directed):
        return "duplicate directed edge (orientation defect)"
    boundary = [e for e in directed if (e[1], e[0]) not in edges]
    for e in directed:
        if (e[1], e[0]) in edges and e in listed:
            return f"interior edge {e} labeled boundary"
    for e in boundary:
        if e not in listed:
            return f"boundary edge {e} missing from list"
    tails = Counter(a for a, _ in listed)
    heads = Counter(b for _, b in listed)
    if max(tails.values(), default=0) > 1 \
            or max(heads.values(), default=0) > 1 or set(tails) != set(heads):
        return "boundary edges do not form closed loops"
    if len(listed) > len(boundary):
        return "boundary list holds an edge of no triangle"
    return None


# one printed Check: verdict, name, value, bound
CHECK_LINE = re.compile(r"^(PASS|WARN|FAIL): (.*) \(value (\S+), "
                        r"bound (\S+)\)$")

# a tiny square for CLI runs
FAST_CONFIG = {
    "name": "tiny",
    "domain": {"type": "square", "n": 6},
    "gamma0": {"type": "sides", "sides": ["left"]},
    "lambda_grid": {"gaps": 2},
    "mu_grid": {"min": -5.0, "max": 5.0, "steps": 11},
    "k": 3,
    "trials": 5,
    "seed": 0,
}


def square_system(n=8, gamma0_sides=("left",), coeffs=None, lumped=False):
    mesh = build_structured_square(n)
    if gamma0_sides:
        selector = square_side_selector(gamma0_sides)
    else:
        selector = lambda x, y: False
    part = partition_boundary(mesh, selector)
    c = coeffs if coeffs is not None else CoefficientSet.make()
    certify(c, mesh)
    return assemble(mesh, part, c, lump_boundary_mass=lumped)


def variable_coeffs():
    """A symmetric, uniformly elliptic variable coefficient set on [0,2]^2."""
    return CoefficientSet.make(
        a=(("1.5 + 0.25*sin(pi*x)", "0.1*x*y"),
           ("0.1*x*y", "1 + 0.2*cos(pi*y)")),
        drift=("0.2", "0.1"),
        a0="0.5 + 0.25*x",
    )


def coo_assembly(mesh, part, c: CoefficientSet, sample_mesh=None):
    """Reference (A, M) built from COO triplets.

    The element formulas of assemble, with every entry that has a
    constrained end dropped and the duplicates summed by scipy's COO to
    CSR conversion, so the pattern is scipy's, not assemble's.
    """
    dof_map, free = _free_dof_map(mesh, part)
    n = len(free)
    pts = quadrature_points(mesh if sample_mesh is None else sample_mesh)
    a_q, drift_q, a0_q = _sample_fields(c, pts[..., 0], pts[..., 1])
    rho = c.rho.eval_batch(pts[..., 0], pts[..., 1])
    _, area, grads = _triangle_geometry(mesh)
    w = area[:, None] / 3.0
    P = _HATS_AT_MIDPOINTS

    abar = np.einsum("q,klTq->Tkl", np.ones(3), a_q) * (area[:, None, None] / 3.0)
    K_el = np.einsum("Tjk,Tkl,Til->Tij", grads, abar, grads)
    drift_dot = np.einsum("kTq,Tjk->Tjq", drift_q, grads)
    D_el = np.einsum("Tq,Tjq,iq->Tij", w, drift_dot, P)
    # the codrift term (trial, a_k d_k test), from the drift samples
    codrift_dot = np.einsum("kTq,Tik->Tiq", drift_q, grads)
    C_el = np.einsum("Tq,Tiq,jq->Tij", w, codrift_dot, P)
    V_el = np.einsum("Tq,iq,jq->Tij", w * a0_q, P, P)
    M_el = np.einsum("Tq,iq,jq->Tij", w * rho, P, P)
    A_el = K_el + D_el + C_el + V_el

    tri_dofs = dof_map[mesh.triangles]
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    ij = (rows[keep], cols[keep])
    A = sp.coo_matrix((A_el.ravel()[keep], ij), shape=(n, n)).tocsr()
    M = sp.coo_matrix((M_el.ravel()[keep], ij), shape=(n, n)).tocsr()
    return A, M


def identity_diffeo() -> Diffeo:
    return Diffeo(
        forward=lambda xs, ys: (xs, ys),
        jacobian=lambda xs, ys: np.broadcast_to(np.eye(2), xs.shape + (2, 2)),
    )


def transported_form_value(mesh, part, c: CoefficientSet, phi, u, v,
                           lam: float = 0.0) -> float:
    """Quadrature value of the transported energy form at P1 functions.

    Computes, for the coefficient set transported by phi (pullback
    fields sampled at reference nodes, gradients mapped by the inverse
    transposed Jacobian, measure weighted by det), the value of the
    transported form at (u composed with the inverse map, same for v),
    minus lam times the transported mass term.  By the change of
    variables identity this equals the plain form value of (u, v) for
    the original coefficients up to roundoff, which is what the
    pullback tests verify.  u and v are free-dof vectors.
    """
    b = pullback(c, phi)
    nv = mesh.num_vertices
    _, free = _free_dof_map(mesh, part)

    u_vert = np.zeros(nv)
    v_vert = np.zeros(nv)
    u_vert[free] = u
    v_vert[free] = v

    pts = quadrature_points(mesh)
    xs, ys = pts[..., 0], pts[..., 1]
    J, det = phi.jacobian_batch(xs, ys)
    g_q, bdrift_q, b0_q = _sample_fields(b, xs, ys)

    _, area, grads = _triangle_geometry(mesh)
    w = area[:, None] / 3.0
    P = _HATS_AT_MIDPOINTS

    tri = mesh.triangles
    gu = np.einsum("Ti,Tik->Tk", u_vert[tri], grads)   # constant per triangle
    gv = np.einsum("Ti,Tik->Tk", v_vert[tri], grads)
    uq = np.einsum("Ti,iq->Tq", u_vert[tri], P)
    vq = np.einsum("Ti,iq->Tq", v_vert[tri], P)

    Jinv = np.linalg.inv(J)                             # (nt, 3, 2, 2)
    Gu = np.einsum("Tqlk,Tl->Tqk", Jinv, gu)            # J^{-T} grad u
    Gv = np.einsum("Tqlk,Tl->Tqk", Jinv, gv)

    gmat = np.moveaxis(g_q, (0, 1), (-2, -1))           # (nt, 3, 2, 2)
    principal = np.einsum("Tqk,Tqkl,Tql->Tq", Gu, gmat, Gv)
    drift_term = np.einsum("kTq,Tqk->Tq", bdrift_q, Gu) * vq
    codrift_term = np.einsum("kTq,Tqk->Tq", bdrift_q, Gv) * uq
    potential = (b0_q - lam / det) * uq * vq

    integrand = det * (principal + drift_term + codrift_term + potential)
    return float(np.sum(w * integrand))


@dataclass(frozen=True)
class CoercivityReport:
    w: float
    delta: float
    m: float


def decompose(d: DtnMatrix, u):
    """Split a free-dof vector into interior part plus harmonic extension.

    Returns (u0, ext) where u0 lives on the interior dofs and ext is
    the harmonic extension (at the lambda of d) of the boundary trace of
    u; the identity u = embed(u0) + ext holds exactly on the boundary
    dofs and to roundoff elsewhere.
    """
    sys = d.sys
    u = np.asarray(u, dtype=float)
    ext = harmonic_extension(d, u[sys.boundary_dofs])
    u0 = (u - ext)[sys.interior_dofs]
    return u0, ext


def embed_interior(sys: AssembledSystem, u0):
    """Zero-pad an interior vector to the free-dof space."""
    out = np.zeros(sys.n_free)
    out[sys.interior_dofs] = u0
    return out


def coercivity_report(d: DtnMatrix) -> CoercivityReport:
    """Exact boundary-form coercivity and continuity constants.

    With nu the eigenvalues of (S, Bb), the shift is
    w = 1.1*max(0, -nu_min) + 1e-6*||S||_1/||Bb||_1, so that S + w*Bb is
    positive definite.  delta is the largest constant with
    phi^T (S + w Bb) phi >= delta * ||u_phi||_H1^2, where u_phi is the
    harmonic extension and the discrete H1 norm is u^T (K + M) u with K
    the unit-coefficient stiffness: the smallest eigenvalue of
    (S + w Bb, Q), Q = E^T (K + M) E with E the extension of the identity.
    m is the smallest constant with |psi^T S phi| <= m ||phi|| ||psi|| in
    the norm ||phi||^2 = phi^T (S + w Bb) phi: the largest |eigenvalue|
    of (S, S + w Bb), which are nu/(nu + w) with the eigenvectors of
    (S, Bb).
    """
    sys = d.sys
    b = d.S.shape[0]
    nu = sym_geneig(d.S, d.Bb, b).eigenvalues
    w = (1.1 * max(0.0, -float(nu[0]))
         + 1e-6 * np.linalg.norm(d.S, 1) / np.linalg.norm(d.Bb, 1))
    SW = d.S + w * d.Bb
    E = harmonic_extension(d, np.eye(b))
    H = assemble(sys.mesh, sys.part, CoefficientSet.make()).A + sys.M
    delta = float(sym_geneig(SW, E.T @ (H @ E), 1).eigenvalues[0])
    m = float(np.max(np.abs(nu / (nu + w))))
    return CoercivityReport(w=float(w), delta=delta, m=m)


def format_expr(e: Expr) -> str:
    """Render a tree back to source text.

    The output uses the minimal parenthesization that reparses to a
    structurally equal tree under the fixed grammar.
    """
    if isinstance(e, Num):
        if e.value == math.pi:
            return "pi"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # the operand must be printable as a unary
        inner = format_expr(e.operand)
        if isinstance(e.operand, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, BinOp):
        left = format_expr(e.left)
        right = format_expr(e.right)
        if e.op == "^":
            # left slot is a unary, right slot is a factor
            if isinstance(e.left, BinOp):
                left = f"({left})"
            if isinstance(e.right, BinOp) and e.right.op != "^":
                right = f"({right})"
        elif e.op in "*/":
            if isinstance(e.left, BinOp) and e.left.op in "+-":
                left = f"({left})"
            if isinstance(e.right, BinOp) and e.right.op in "+-*/":
                right = f"({right})"
        else:  # '+' or '-'
            if isinstance(e.right, BinOp) and e.right.op in "+-":
                right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")
