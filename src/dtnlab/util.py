"""Small shared helpers: Check, the defect-loop map and config hashing.

parallel_map is a plain in-order map.  It stays a named function so that
the benchmark tracer can time the gauge study's Schur-complement defect
loop (spectral.dtn_equality_check) and count its items.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

__all__ = ["Check", "verdict", "parallel_map", "config_hash"]


@dataclass(frozen=True)
class Check:
    """A measured value, the bound it is judged against and the verdict,
    built by the function that computes the value (cli module docstring)."""

    name: str
    value: float
    bound: float
    verdict: str


def verdict(ok, strict=True) -> str:
    """PASS when ok, else FAIL, or WARN when not strict."""
    return "PASS" if ok else ("FAIL" if strict else "WARN")


def parallel_map(fn, items):
    """[fn(x) for x in items], in input order, in the calling thread."""
    return [fn(x) for x in items]


def config_hash(config: dict) -> str:
    """Stable short hash of a fully-resolved configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
