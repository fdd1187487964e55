"""Bound formulas, the regularity identity, and the assembled report.

Every upper bound is evaluated and reported even when it is far above the
ground truth; the point of the report is side-by-side comparison.  Each bound
name is tagged with the quantity it bounds (the k-normality threshold k_P or
the regularity), and the certified ones are re-checked against the computed
ground truth at report time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from . import invariants as inv
from . import semigroup as sg
from .polytope import Polytope

# Which quantity each reported bound is an upper bound for.  The two *_table
# variants reproduce published comparison-table entries verbatim:
# mumford_table is the general Mumford regularity bound shifted down by one
# (a k_P bound), and sturmfels_table doubles the Sturmfels regularity form,
# matching the tabulated value for the Bruns-Gubeladze family; neither table
# variant is asserted against ground truth.
BOUND_TARGETS = {
    "theorem": "k_P",
    "refined": "k_P",
    "smooth_corner": "k_P",
    "smooth_volume": "k_P",
    "smooth_min": "k_P",
    "mumford_general": "reg",
    "mumford_table": "k_P",
    "sturmfels": "reg",
    "sturmfels_kp": "k_P",
    "sturmfels_table": "reg",
}

# Bounds that are theorems for every very ample lattice polytope (or every
# smooth one, for the smooth_* entries); a violation is an implementation bug.
CERTIFIED_KP_BOUNDS = ("theorem", "refined", "smooth_corner", "smooth_volume",
                       "smooth_min", "sturmfels_kp")
CERTIFIED_REG_BOUNDS = ("sturmfels",)


class PipelineError(RuntimeError):
    """Failure of one stage of the full analysis pipeline."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.__cause__ = cause


def theorem_bound(m_P: int, d_P: int, n: int) -> int:
    """Upper bound (m_P - d_P)*n + 1 for k_P of a very ample polytope;
    attained exactly when the polytope is normal."""
    return (m_P - d_P) * n + 1


def refined_bound(m_P: int, d_P: int, nu_P: int, n: int) -> int:
    """Sharper bound (m_P - d_P - 1)*n + nu_P + 1 for k_P, valid when the
    polytope is not normal."""
    return (m_P - d_P - 1) * n + nu_P + 1


def smooth_bounds(d: int, d_P: int, gamma: int, vol: int, n: int):
    """Both smooth-case k_P bounds and their minimum.

    The corner branch comes from m_P <= d_P*gamma, the volume branch from
    m_P <= d*d_P^d*Vol; each is fed through the (m_P - d_P)*n + 1 bound.
    """
    corner = d_P * (gamma - 1) * n + 1
    volume = (d * d_P ** d * vol - d_P) * n + 1
    return min(corner, volume), (corner, volume)


def regularity(k_P: int | None, deg: int) -> int:
    """Castelnuovo-Mumford regularity of the embedded toric variety:
    max(k_P, deg) + 1."""
    if k_P is None:
        raise inv.InvariantError("regularity undefined: k_P undefined (not very ample)")
    return max(k_P, deg) + 1


def classical_bounds(d: int, vol: int, lattice_points: int) -> dict:
    """Mumford and Sturmfels style bounds from (d, Vol, |P∩M|).

    deg(X) = Vol and codim(X) = |P∩M| - d - 1 for the toric embedding.
    Codimension <= 0 means the embedding is degenerate (no defining
    equations) and every bound of this family is flagged None.  The Mumford
    forms carry a smoothness hypothesis; they are reported for any input but
    certified only for smooth polytopes.
    """
    codim = lattice_points - d - 1
    out = dict.fromkeys(("mumford_general", "mumford_table", "sturmfels",
                         "sturmfels_kp", "sturmfels_table"))
    if codim > 0:
        out["mumford_general"] = (d + 1) * (vol - 2) + 2
        out["mumford_table"] = (d + 1) * (vol - 2) + 1
        out["sturmfels"] = d * vol * codim
        out["sturmfels_kp"] = lattice_points * vol * codim - 1
        out["sturmfels_table"] = 2 * d * vol * codim
    return out


def eg_check(k_P: int | None, vol: int, lattice_points: int, d: int):
    """Truth of the combinatorial Eisenbud-Goto inequality
    k_P <= Vol - |P∩M| + d + 1, together with both sides."""
    rhs = vol - lattice_points + d + 1
    if k_P is None:
        return None, rhs
    return k_P <= rhs, rhs


@dataclass(frozen=True)
class InvariantReport:
    """Every computed invariant, flag, bound, and witness for one polytope.

    The field order is the report's key order in every output format.
    """

    name: str | None
    dim: int
    num_vertices: int
    num_lattice_points: int
    volume_normalized: int
    degree: int
    d_P: int
    nu_P: int
    m_P: int | None
    k_P: int | None
    very_ample: bool
    smooth: bool
    normal: bool
    gamma: int | None
    m_prime: int | None
    regularity: int | None
    bounds: dict
    eg_rhs: int | None
    eg_holds: bool | None
    witnesses: dict

    def __post_init__(self):
        if self.k_P is not None and self.normal != (self.k_P == 1):
            raise AssertionError("normal flag disagrees with k_P (bug)")
        if self.k_P is not None:
            if self.regularity != max(self.k_P, self.degree) + 1:
                raise AssertionError("regularity disagrees with max(k_P, deg) + 1 (bug)")
            for key in CERTIFIED_KP_BOUNDS:
                value = self.bounds.get(key)
                if value is not None and value < self.k_P:
                    raise AssertionError(f"certified bound {key}={value} < k_P (bug)")
            for key in CERTIFIED_REG_BOUNDS:
                value = self.bounds.get(key)
                if value is not None and value < self.regularity:
                    raise AssertionError(f"certified bound {key}={value} < regularity (bug)")


def full_report(p: Polytope, max_k: int | None = None) -> InvariantReport:
    """Run the whole pipeline on one polytope and assemble the report.

    Stages: geometry -> d_P/nu_P -> m_P/very-ampleness -> k_P -> degree and
    volume -> smoothness -> bounds and regularity.  Output is deterministic
    for a given input.
    """
    def stage(tag, fn):
        try:
            return fn()
        except inv.SearchCapExceeded:
            raise
        except Exception as e:
            raise PipelineError(tag, e) from e

    num_points = stage("geometry", lambda: len(p.lattice_points(1)))
    d_P, nu_P = stage("decomposition-thresholds", lambda: inv.decomposition_thresholds(p))
    mres = stage("semigroup", lambda: sg.compute_m_P(p, d_P, max_k=max_k))
    k_P = None
    holes_witness = None
    if mres.very_ample:
        k_P = stage("k-normality",
                    lambda: inv.compute_k_P(p, mres.m_P, d_P, max_k=max_k))
        if k_P > 1:
            # level k_P - 1 is the last failing one, so it has a hole
            hole = stage("k-normality", lambda: next(inv.iter_holes(p, k_P - 1)))
            holes_witness = {"k": k_P - 1, "point": list(hole)}
    vol = stage("volume", lambda: inv.volume_ehrhart(p))
    vol_tri = stage("volume", lambda: inv.volume_triangulation(p))
    if vol != vol_tri:
        raise PipelineError("volume", AssertionError(
            f"volume oracles disagree: interpolation {vol} vs triangulation {vol_tri}"))
    deg = stage("volume", lambda: inv.degree(p))
    sdata = stage("smoothness", lambda: inv.smooth_data(p))

    def build_bounds():
        bounds = dict.fromkeys(BOUND_TARGETS)
        bounds.update(classical_bounds(p.dim, vol, num_points))
        if mres.very_ample:
            bounds["theorem"] = theorem_bound(mres.m_P, d_P, p.num_vertices)
            if k_P != 1:
                bounds["refined"] = refined_bound(mres.m_P, d_P, nu_P, p.num_vertices)
            if sdata.is_smooth:
                smin, (corner, volume_branch) = smooth_bounds(
                    p.dim, d_P, sdata.gamma, vol, p.num_vertices)
                bounds["smooth_corner"] = corner
                bounds["smooth_volume"] = volume_branch
                bounds["smooth_min"] = smin
        return bounds

    bounds = stage("bounds", build_bounds)
    eg_holds, eg_rhs_val = stage("bounds", lambda: eg_check(k_P, vol, num_points, p.dim))
    reg = regularity(k_P, deg) if k_P is not None else None

    witnesses = {
        "hole": holes_witness,
        "sigma_max": None,
        "non_saturation": None,
    }
    if mres.witness is not None:
        witnesses["sigma_max"] = {
            "x": list(mres.witness.x),
            "vertex": list(mres.witness.vertex),
            "parts": [list(g) for g in mres.witness.certificate.parts],
            "length": mres.witness.certificate.length,
        }
    if mres.failure is not None:
        x, v = mres.failure
        witnesses["non_saturation"] = {"x": list(x), "vertex": list(v)}

    # the report checks itself against the certified bounds, so a failure
    # there is a failure of this stage
    return stage("bounds", lambda: InvariantReport(
        name=p.name,
        dim=p.dim,
        num_vertices=p.num_vertices,
        num_lattice_points=num_points,
        volume_normalized=vol,
        degree=deg,
        d_P=d_P,
        nu_P=nu_P,
        m_P=mres.m_P,
        k_P=k_P,
        very_ample=mres.very_ample,
        smooth=sdata.is_smooth,
        normal=(k_P == 1),
        gamma=sdata.gamma,
        m_prime=sdata.m_prime,
        regularity=reg,
        bounds=bounds,
        eg_rhs=eg_rhs_val,
        eg_holds=eg_holds,
        witnesses=witnesses,
    ))


# -- serialization ----------------------------------------------------------------

_SAFE_INT = (1 << 53) - 1


def _jsonable(value):
    """Recursively convert values; integers beyond the 53-bit safe range
    become decimal strings so JSON consumers cannot silently lose digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE_INT else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


# The serialized report's keys: the fields of InvariantReport in order, with
# bound_targets right after bounds.  This order is the output contract: the
# table lines and the CSV columns follow it.
REPORT_KEYS = tuple(key for field in fields(InvariantReport)
                    for key in ((field.name, "bound_targets")
                                if field.name == "bounds" else (field.name,)))


def report_to_dict(report: InvariantReport) -> dict:
    """Serializable dict with the keys REPORT_KEYS, in that order."""
    raw = {}
    for key in REPORT_KEYS:
        if key == "bounds":
            raw[key] = {k: report.bounds.get(k) for k in BOUND_TARGETS}
        elif key == "bound_targets":
            raw[key] = dict(BOUND_TARGETS)
        else:
            raw[key] = getattr(report, key)
    return _jsonable(raw)


def dict_json_bytes(data: dict) -> bytes:
    """Canonical JSON encoding of a serialized report: two-space indent, key
    order kept, one trailing newline."""
    return json.dumps(data, indent=2, sort_keys=False).encode() + b"\n"

