"""In-memory span tracer installed on dtnlab from outside the package.

``install()`` replaces each traced function by a wrapper at every dtnlab
module that binds it (``cli``, ``spectral``, ``dtn`` and ``semigroup``
import names directly), records one span per call (name, start, end,
parent, thread) plus counts, and keeps everything in memory until
``Tracer.dump``.  ``scipy.linalg.eigh`` and ``scipy.sparse.linalg.splu``
are traced only when the caller is a dtnlab module.

Worker threads of ``util.parallel_map`` adopt the ``parallel_map`` span
as their parent, so ``layer_times`` can split every instant of wall time
once among the innermost spans running at that instant.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

# (module, attribute, span name).  A "Class.method" attribute is patched on
# the class; any other is replaced wherever a dtnlab module binds it.
TRACED = [
    ("dtnlab.cli", "run", "cli.run"),
    ("dtnlab.cli", "Reporter.csv", "cli.csv"),
    ("dtnlab.mesh", "build_structured_square", "mesh.build"),
    ("dtnlab.mesh", "build_polygon_mesh", "mesh.build"),
    ("dtnlab.mesh", "map_vertices", "mesh.build"),
    ("dtnlab.mesh", "refine", "mesh.refine"),
    ("dtnlab.mesh", "partition_boundary", "mesh.partition"),
    ("dtnlab.mesh", "refine_partition", "mesh.partition"),
    ("dtnlab.coeffs", "certify", "coeffs.certify"),
    ("dtnlab.coeffs", "pullback", "coeffs.pullback"),
    ("dtnlab.coeffs", "ScalarField.eval_batch", "coeffs.eval_batch"),
    ("dtnlab.assemble", "assemble", "assemble.assemble"),
    ("dtnlab.dtn", "dtn_matrix", "dtn.dtn_matrix"),
    ("dtnlab.dtn", "harmonic_extension", "dtn.harmonic_extension"),
    ("scipy.sparse.linalg", "splu", "dtn.splu"),
    ("dtnlab.spectral", "sym_geneig", "spectral.sym_geneig"),
    ("scipy.linalg", "eigh", "spectral.eigh"),
    ("dtnlab.spectral", "duality_check", "spectral.duality_check"),
    ("dtnlab.spectral", "match_and_unitary", "spectral.match_and_unitary"),
    ("dtnlab.semigroup", "build_semigroup", "semigroup.build_semigroup"),
    ("dtnlab.semigroup", "evolve", "semigroup.evolve"),
    ("dtnlab.semigroup", "check_order_hypotheses",
     "semigroup.check_order_hypotheses"),
    ("dtnlab.semigroup", "positivity_report", "semigroup.reports"),
    ("dtnlab.semigroup", "submarkov_report", "semigroup.reports"),
    ("dtnlab.semigroup", "domination_report", "semigroup.reports"),
    ("dtnlab.semigroup", "potential_monotonicity_report", "semigroup.reports"),
    ("dtnlab.semigroup", "lp_contraction_report", "semigroup.reports"),
    ("dtnlab.util", "parallel_map", "util.parallel_map"),
]

# Wrapped outside dtnlab, so only calls made from dtnlab code are traced.
FOREIGN = {"scipy.linalg", "scipy.sparse.linalg"}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, thread]
        self.counts = Counter()
        self.maxima = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pullback_fields = {}     # id -> field, kept alive

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name):
        stack = self._stack()
        record = [name, 0.0, None, stack[-1] if stack else None,
                  threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        stack.append(sid)
        record[1] = time.perf_counter()
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def maximum(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, fn, name, foreign=False):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if foreign and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("dtnlab"):
                return fn(*args, **kwargs)
            span = name
            if name == "coeffs.eval_batch" and id(args[0]) in \
                    self._pullback_fields:
                span = "coeffs.pullback"
            sid = self._open(span)
            try:
                if name == "util.parallel_map":
                    args = (self._adopting(args[0], sid),) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.count(span + "_calls")
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _adopting(self, fn, parent):
        """parallel_map's task, parenting worker spans to the map's span."""

        def task(item):
            stack = self._stack()
            if stack:
                return fn(item)
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return task

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "maxima": self.maxima}, f)


def _parallel_map_hook(tr, args, kwargs, result):
    tr.count("util.parallel_map_items", len(result))


def _mesh_hook(tr, args, kwargs, result):
    tr.count("mesh.triangles_out", int(result.num_triangles))


def _pullback_hook(tr, args, kwargs, result):
    fields = [f for row in result.a for f in row]
    fields += [*result.drift, *result.codrift, result.a0]
    with tr._lock:
        tr._pullback_fields.update((id(f), f) for f in fields)


def _eval_batch_hook(tr, args, kwargs, result):
    # per-point expression evaluations: the exprlang work count
    if getattr(args[0], "_kind", "expr") == "expr":
        tr.count("coeffs.points_evaluated", int(result.size))


def _assemble_hook(tr, args, kwargs, result):
    tr.count("assemble.dofs", int(result.n_free))
    tr.count("assemble.nnz", int(result.A.nnz))


def _dtn_hook(tr, args, kwargs, result):
    sys_ = args[0]
    tr.maximum("dtn.cond_interior_max", float(result.cond_interior))
    # dense C_IB block (n_int x n_b float64) the Schur complement forms
    tr.maximum("dtn.schur_dense_bytes",
               8 * len(sys_.interior_dofs) * len(sys_.boundary_dofs))


def _sym_geneig_hook(tr, args, kwargs, result):
    tr.maximum("spectral.sym_geneig_max_n", int(args[0].shape[0]))
    tr.maximum("spectral.residual_max", float(result.residual_max))


def _eigh_hook(tr, args, kwargs, result):
    n = int(args[0].shape[0])
    pencil = len(args) > 1 or kwargs.get("b") is not None
    tr.count("spectral.eigh_n3_sum", n ** 3)
    tr.count("spectral.dense_bytes", 8 * n * n * (2 if pencil else 1))


def _csv_hook(tr, args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    tr.count("cli.rows_written", len(rows))


_HOOKS = {
    "util.parallel_map": _parallel_map_hook,
    "mesh.build": _mesh_hook,
    "mesh.refine": _mesh_hook,
    "coeffs.pullback": _pullback_hook,
    "coeffs.eval_batch": _eval_batch_hook,
    "assemble.assemble": _assemble_hook,
    "dtn.dtn_matrix": _dtn_hook,
    "spectral.sym_geneig": _sym_geneig_hook,
    "spectral.eigh": _eigh_hook,
    "cli.csv": _csv_hook,
}


def install(tracer):
    """Patch every traced function; dtnlab.cli must already be imported."""
    dtn_modules = [m for name, m in list(sys.modules.items())
                   if name == "dtnlab" or name.startswith("dtnlab.")]
    for modname, attr, name in TRACED:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), name))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, name, foreign=modname in FOREIGN)
        setattr(module, attr, wrapped)
        for m in dtn_modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)


def layer_times(spans):
    """Wall time per span name, each instant counted once.

    Between consecutive span boundaries, the interval goes in equal shares
    to the innermost spans running then (those with no running child).
    For one thread this is each span minus the union of its child spans;
    concurrent worker spans under ``parallel_map`` share their overlap.
    Returns (seconds per name, seconds covered by any span).
    """
    events = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    running_children = Counter()
    active = set()
    leaves = set()
    out = Counter()
    covered = 0.0
    last = None
    for t, opening, sid in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[spans[leaf][0]] += share
            covered += t - last
        last = t
        parent = spans[sid][3]
        if opening:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    leaves.add(parent)
    return dict(out), covered
