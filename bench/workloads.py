"""The benchmark's workloads: dtnlab configs, the subcommands run on each,
and which layers each one is meant to move.

Every workload is a fixed config; the benchmark seed reaches the program
only as the config ``seed`` (it drives the random trial vectors of the
semigroup order checks).  ``moves`` names the layers a workload is built
to stress; ``flat`` names layers that barely run there, so a change to
one of them should leave that workload unchanged.  With
``single_thread_baseline`` the traced run also measures the workload with
one dtnlab thread and one BLAS thread.

Which end-to-end numbers each layer's per-layer metrics should move
(``<command>_s`` is the median time of one subcommand, printed by run.py):

- mesh: ``validate_s`` and ``gauge_s`` on refine-gauge, nothing elsewhere.
- coeffs: ``wall_s`` on semigroup-varcoef and ``validate_s`` on
  refine-gauge; about 0 on spectra-square.  exprlang is not traced (millions
  of calls): its cost is ``coeffs.eval_batch_s`` and its work count
  ``coeffs.points_evaluated``.
- assemble: ``wall_s`` on semigroup-varcoef and ``gauge_s``.
- dtn: ``duality_s``, ``gauge_s`` and ``peak_rss_mb``.
- spectral: ``curves_s``, ``duality_s`` and ``wall_s`` on spectra-square,
  and ``gauge_s``.
- semigroup: ``wall_s`` on semigroup-varcoef only.
- util: ``curves_s`` and ``gauge_s``.
- cli: near zero; ``cli.unaccounted_s`` is traced time outside every layer.
"""

VARIABLE_A = "1 + 0.5*sin(3*x)*cos(2*y)"
VARIABLE_COEFFICIENTS = {
    "a": [[VARIABLE_A, "0"], ["0", VARIABLE_A]],
    "drift": ["0", "0"],
    "a0": "1 + x*y",
}

WORKLOADS = {
    "spectra-square": {
        "why": "dense generalized eigh on sparse FEM pencils takes over 90% "
               "of the time (149 calls, 101 in curves, 37 in duality); mesh, "
               "coefficient sampling and assembly are near zero",
        "moves": ["spectral", "util", "dtn"],
        "flat": ["mesh", "coeffs", "assemble", "semigroup"],
        "commands": ["spectrum", "curves", "duality", "limit"],
        "single_thread_baseline": True,
        "config": {
            "name": "bench-spectra-square",
            "domain": {"type": "square", "n": 24},
            "gamma0": {"type": "sides", "sides": ["left"]},
            "coefficients": {"a": [["1", "0"], ["0", "1"]],
                             "drift": ["0", "0"], "a0": "0"},
            "k": 6,
        },
    },
    "semigroup-varcoef": {
        "why": "per-point coefficient sampling is about half the time; the "
               "rest is assembly, Schur complements and dense eigh of the "
               "genuinely dense boundary pencils (S, Bb)",
        "moves": ["coeffs", "assemble", "dtn", "semigroup"],
        "flat": ["mesh", "util"],
        "commands": ["semigroup"],
        "config": {
            "name": "bench-semigroup-varcoef",
            "domain": {"type": "square", "n": 40},
            "gamma0": {"type": "sides", "sides": ["left"]},
            "coefficients": VARIABLE_COEFFICIENTS,
            "t_grid": [0.1, 1.0, 10.0],
            "trials": 20,
        },
    },
    "refine-gauge": {
        "why": "mesh build and refine (about 65k triangles), certification "
               "with no solve, then gauge: refine, pullback closures, "
               "transported assembly and Robin eigh at 1,089 dofs",
        "moves": ["mesh", "coeffs", "assemble", "dtn", "spectral", "util"],
        "flat": ["semigroup"],
        "commands": ["validate", "gauge"],
        "config": {
            "name": "bench-refine-gauge",
            "domain": {"type": "regular_polygon", "sides": 64,
                       "radius": 1.0, "h": 0.02},
            "gamma0": {"type": "polygon_edges", "edges": list(range(8))},
            "coefficients": VARIABLE_COEFFICIENTS,
            "gauge": {"base_n": 8, "refinements": 2, "k": 6,
                      "diffeo": {"type": "radial_bump", "alpha": 0.35,
                                 "radius": 0.45}},
        },
    },
}
