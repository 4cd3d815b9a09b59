"""Multiscale cone energies over discrete measures, in closed form.

For an atomic measure the cone mass r -> mu(K(x, V, alpha, r)) is a step
function jumping at the sorted distances of in-cone atoms, so the Dini-type
integral

    E_p(x, V, alpha, R) = int_0^R (mu(K(x, V, alpha, r)) / r^n)^p dr / r

reduces to an exact sum of power integrals over constancy intervals.  All
energies here use that closed form; numeric quadrature appears only as a
test oracle.

For p = 1 the layer-cake identity turns the integral into a sum over the
in-cone atoms, n^{-1} sum_{|y-x| < R} w_y (|y-x|^{-n} - R^{-n}), so the
whole-cloud sweep ``pointwise_energies`` needs no sort.  The cone relation is
symmetric bit for bit (see ``geometry``), and the term |y-x|^{-n} - R^{-n} is
the same from both ends, so the sweep tests each unordered pair once
(``cone_pairs``) and credits w_y times the term to x and w_x times it to y.
An atom's sum then adds its lower-indexed partners' terms one at a time
before its own row's numpy sum; that order differs from one sum per atom in
the last bits only, within 1e-13 relative of an exactly rounded sum.

A window energy int_lo^hi only reads the profile below hi, so
``window_energies`` builds each vertex's profile once and reads every window
off it.  A corona run does this once per atom for all lattice levels, whose
windows (eta r(Q), r(Q)/eta) depend only on the level.

Scans over many directions (``bpbe_scan``, ``bme_check``) go through
``_direction_energies``: each vertex sorts the atoms within the radius once,
and each direction only masks that sorted list with ``cone_dist``'s
arithmetic.  The directions' cumulative masses are cumsums of the weights
with out-of-cone atoms set to 0.0, which is exact, so every in-cone position
holds the single-direction value.  Each entry is then the sum of that
direction's compressed run-end terms alone: numpy sums pairwise, grouping
terms by position, so summing the zero-padded row would change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyCube, InvalidParams, MissingDirection
from .geometry import (Plane, _row_norms, cone_dist, cone_mask, cone_pairs,
                       plane_metric, sample_grassmannian)
from .measure import DiscreteMeasure, sorted_mass

# (direction, atom) pairs per chunk of ``_direction_energies``' mask tables.
_DIRECTION_BLOCK = 2 ** 16


@dataclass(frozen=True)
class EnergySpec:
    """Direction, aperture, exponent and scale window of a cone energy."""

    direction: Plane
    aperture: float
    exponent: float = 1.0
    outer_scale: float = np.inf
    inner_eta: float = 0.1

    def __post_init__(self):
        if not 0 < self.aperture < 1:
            raise InvalidParams("aperture must lie in (0, 1)")
        if not self.exponent >= 1:
            raise InvalidParams("exponent p must be >= 1")
        if not self.outer_scale > 0:
            raise InvalidParams("outer scale R must be positive")
        if not 0 < self.inner_eta < 1:
            raise InvalidParams("eta must lie in (0, 1)")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Jump structure of one pointwise energy evaluation."""

    jump_radii: np.ndarray      # sorted distinct distances of in-cone atoms
    cumulative_mass: np.ndarray
    contributions: np.ndarray   # per constancy interval, clipped to the window
    total: float
    in_cone_count: int


def _in_cone_jumps(points: np.ndarray, weights: np.ndarray, x, direction: Plane,
                   aperture: float, hi: float = np.inf):
    """Sorted distinct distances of the in-cone atoms closer than ``hi``, the
    cumulative mass through each, and the number of such atoms."""
    x = np.asarray(x, dtype=float)
    if x.shape != points.shape[1:]:
        raise DimensionMismatch(f"vertex must live in R^{points.shape[1]}")
    mask, dist = cone_dist(points, x, direction, aperture, outer_radius=hi)
    if not mask.any():
        return np.empty(0), np.empty(0), 0
    d, cum = sorted_mass(dist[mask], weights[mask])
    # last position of each run of equal distances
    ends = np.append(d[1:] > d[:-1], True)
    return d[ends], cum[ends], len(d)


def _step_energy(radii: np.ndarray, cum: np.ndarray, n: int, p: float,
                 lo: float, hi: float):
    """Integrate (mass(r) / r^n)^p dr/r over (lo, hi] for the step function
    mass(r) = cum[i] on (radii[i], radii[i+1]]."""
    if len(radii) == 0 or hi <= radii[0]:
        return np.empty(0), 0.0
    a = np.maximum(radii, lo)
    b = np.append(radii[1:], np.inf)
    b = np.minimum(b, hi)
    np_exp = n * p
    with np.errstate(divide="ignore"):
        lower = np.where(a > 0, a ** -np_exp, np.inf)
        upper = np.where(np.isinf(b), 0.0, b ** -np_exp)
    contrib = np.where(b > a, cum ** p * (lower - upper) / np_exp, 0.0)
    return contrib, float(np.sum(contrib))


def pointwise_energy(m: DiscreteMeasure, x, spec: EnergySpec) -> EnergyBreakdown:
    """Exact E_p(x, V, alpha, R) with its interval breakdown.

    ``in_cone_count`` counts every in-cone atom, also those beyond R.
    """
    radii, cum, count = _in_cone_jumps(m.points, m.weights, x, spec.direction,
                                       spec.aperture)
    contrib, total = _step_energy(radii, cum, m.dim_param, spec.exponent,
                                  0.0, spec.outer_scale)
    return EnergyBreakdown(radii, cum, contrib, total, count)


def pointwise_energies(m: DiscreteMeasure, spec: EnergySpec) -> tuple[np.ndarray, np.ndarray]:
    """E_p(x, V, alpha, R) and the in-cone atom count at every atom x.

    For p = 1 each value is the layer-cake sum
    n^{-1} sum_{y in K, |y-x| < R} w_y (|y-x|^{-n} - R^{-n}), with no sort,
    over one ``cone_pairs`` sweep (see the module docstring); other exponents
    take ``pointwise_energy``'s step integral.  Counts include in-cone atoms
    beyond R, as in ``pointwise_energy``.
    """
    energies = np.zeros(m.size)
    counts = np.zeros(m.size, dtype=int)
    if spec.exponent != 1:
        for i in range(m.size):
            bd = pointwise_energy(m, m.points[i], spec)
            energies[i], counts[i] = bd.total, bd.in_cone_count
        return energies, counts
    n, R, w = m.dim_param, spec.outer_scale, m.weights
    tail = 0.0 if np.isinf(R) else R ** -n
    for i, mask, dist in cone_pairs(m.points, spec.direction, spec.aperture):
        counts[i] += np.count_nonzero(mask)
        counts[i + 1:] += mask
        near = np.flatnonzero(mask & (dist < R))
        if len(near) == 0:
            continue
        term = dist[near] ** -n - tail
        near += i + 1
        energies[i] += float(np.sum(w[near] * term))
        energies[near] += w[i] * term
    return energies / n, counts


def riesz_cone_sum(m: DiscreteMeasure, x, direction: Plane, aperture: float) -> float:
    """n^{-1} sum over in-cone atoms of w / |x - y|^n.

    Equals the p = 1, R = infinity energy by the layer-cake identity, but is
    computed by the direct sum so the two paths cross-check each other.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (m.ambient_dim,):
        raise DimensionMismatch(f"vertex must live in R^{m.ambient_dim}")
    mask = cone_mask(m.points, x, direction, aperture)
    if not np.any(mask):
        return 0.0
    d = np.linalg.norm(m.points[mask] - x[None, :], axis=1)
    n = m.dim_param
    return float(np.sum(m.weights[mask] * d ** (-n)) / n)


def ball_energy(m: DiscreteMeasure, center, radius: float, spec: EnergySpec) -> float:
    """Energy of the ball: sum over atoms x in B of w(x) E_p(x, ..., r(B)).

    The spec's outer scale is overridden by the ball radius.
    """
    if not radius > 0:
        raise InvalidParams("ball radius must be positive")
    idx = m.ball_indices(center, radius)
    return weighted_sum(m.weights[idx], window_energies(m, idx, spec, [(0.0, radius)])[:, 0])


def total_energy(m: DiscreteMeasure, spec: EnergySpec) -> float:
    """Whole-space energy: sum over all atoms of w(x) E_p(x, V, alpha, R)."""
    idx = np.arange(m.size)
    return weighted_sum(m.weights, window_energies(m, idx, spec, [(0.0, spec.outer_scale)])[:, 0])


def window_energies(m: DiscreteMeasure, vertex_idx, spec: EnergySpec,
                    windows) -> np.ndarray:
    """int_lo^hi (mass(K(x, r)) / r^n)^p dr/r, exact, with one row per vertex
    x = m.points[i], i in ``vertex_idx``, and one column per (lo, hi).

    Each vertex's in-cone profile is built once, out to the largest hi; its
    strict ``< hi`` prefix is exactly the profile that hi alone would give,
    so every entry equals its single-window value bit for bit.
    """
    out = np.zeros((len(vertex_idx), len(windows)))
    top = max(hi for _, hi in windows)
    n, p = m.dim_param, spec.exponent
    for row, i in enumerate(vertex_idx):
        radii, cum, _ = _in_cone_jumps(m.points, m.weights, m.points[i],
                                       spec.direction, spec.aperture, top)
        if len(radii) == 0:
            continue
        for col, (lo, hi) in enumerate(windows):
            c = np.searchsorted(radii, hi, side="left")
            out[row, col] = _step_energy(radii[:c], cum[:c], n, p, lo, hi)[1]
    return out


def _direction_energies(m: DiscreteMeasure, vertex_idx, directions: list[Plane],
                        aperture: float, exponent: float, radius: float) -> np.ndarray:
    """int_0^radius (mass(K(x, V, r)) / r^n)^p dr/r, exact, with one row per
    vertex x = m.points[i], i in ``vertex_idx``, and one column per V.

    Each vertex sorts its atoms in 0 < |y - x| < radius once; every direction
    then only masks that sorted list, with ``cone_dist``'s arithmetic, and the
    directions' step integrals are evaluated together, ``_DIRECTION_BLOCK``
    (direction, atom) pairs at a time.  Every entry equals the single-direction
    ``_step_energy`` value bit for bit (see the module docstring).
    """
    out = np.zeros((len(vertex_idx), len(directions)))
    n, p = m.dim_param, exponent
    np_exp = n * p
    for row, i in enumerate(vertex_idx):
        diff = m.points - m.points[i]
        dist = _row_norms(diff)
        near = np.flatnonzero((dist > 0) & (dist < radius))
        k = len(near)
        if k == 0:
            continue
        near = near[np.argsort(dist[near], kind="stable")]
        diff, d, w = diff[near], dist[near], m.weights[near]
        # a one-row product would take another BLAS path than cone_dist's
        operand = diff if k > 1 else np.vstack((diff, diff))
        ext = np.append(d, radius)
        power = ext ** -np_exp
        step = max(1, _DIRECTION_BLOCK // k)
        for lo in range(0, len(directions), step):
            chunk = directions[lo:lo + step]
            par = np.empty((len(chunk), k, m.ambient_dim))
            for j, v in enumerate(chunk):
                par[j] = ((operand @ v.basis.T) @ v.basis)[:k]
            perp = _row_norms((diff - par).reshape(-1, m.ambient_dim))
            mask = perp.reshape(len(chunk), k) < aperture * d
            # cumulative in-cone mass; adding the 0.0 of an out-of-cone atom
            # is exact, so in-cone positions match the compressed cumsum
            cum = np.cumsum(np.where(mask, w, 0.0), axis=1)
            # next in-cone position after each one, k (the radius) if none
            pos = np.where(mask, np.arange(k), k)
            nxt = np.full_like(pos, k)
            nxt[:, :-1] = np.minimum.accumulate(pos[:, :0:-1], axis=1)[:, ::-1]
            end = mask & (ext[nxt] > d)
            contrib = cum ** p * (power[:k] - power[nxt]) / np_exp
            for j in range(len(chunk)):
                # numpy's pairwise sum of the compressed row, as _step_energy
                out[row, lo + j] = float(contrib[j][end[j]].sum())
    return out


def weighted_sum(weights: np.ndarray, energies: np.ndarray) -> float:
    """sum_j w_j e_j, accumulated left to right so that the value does not
    depend on how the energies were batched."""
    total = 0.0
    for w, e in zip(weights.tolist(), energies.tolist()):
        total += w * e
    return total


def cube_ball(lattice, cube) -> tuple[np.ndarray, float]:
    """Indices of the atoms in 2B_Q, and mu(Q) > 0.  The lattice runs on the
    input cloud, so the ball's radius is in input units."""
    m = lattice.measure
    mass_q = float(np.sum(m.weights[cube.members]))
    if mass_q <= 0:
        raise EmptyCube(f"cube {cube.id} carries no mass")
    return m.ball_indices(cube.center, 2.0 * cube.ball_radius), mass_q


def cube_energy(lattice, cube, spec: EnergySpec) -> float:
    """Window energy of a lattice cube, averaged by the cube's own mass:

        (1 / mu(Q)) sum_{x in 2B_Q} w(x) int_{eta r(Q)}^{r(Q)/eta} (...)
    """
    cube = lattice.resolve(cube)
    idx, mass_q = cube_ball(lattice, cube)
    eta = spec.inner_eta
    e = window_energies(lattice.measure, idx, spec,
                        [(eta * cube.radius, cube.radius / eta)])
    return weighted_sum(lattice.measure.weights[idx], e[:, 0]) / mass_q


def bpbe_scan(m: DiscreteMeasure, balls, aperture: float, exponent: float,
              energy_bound: float, mass_fraction: float,
              direction_samples: int, seed: int,
              pinned_directions: list[Plane] | None = None) -> dict:
    """Search each ball for a direction in which most mass has small energy.

    For every ball and candidate direction (sampled from G(d, d-n) plus any
    user-pinned planes) this computes the mass fraction of in-ball atoms
    whose pointwise energy up to r(B) stays below ``energy_bound``, and keeps
    the best direction.  The ball family is finite and reported as such: no
    claim is made about unsampled balls or directions.
    """
    if not 0 < mass_fraction <= 1:
        raise InvalidParams("mass fraction kappa must lie in (0, 1]")
    if not energy_bound >= 0:
        raise InvalidParams("energy bound M0 must be nonnegative")
    if direction_samples < 1:
        raise InvalidParams("need at least one sampled direction")
    d, n = m.ambient_dim, m.dim_param
    directions = list(pinned_directions or [])
    directions += sample_grassmannian(d, d - n, direction_samples, seed)
    results = []
    for center, radius in balls:
        idx = m.ball_indices(center, radius)
        ball_mass_val = float(np.sum(m.weights[idx]))
        table = _direction_energies(m, idx, directions, aperture, exponent, radius)
        best = None
        for j in range(len(directions)):
            if ball_mass_val == 0:
                frac, mean_e = 1.0, 0.0
            else:
                energies = table[:, j]
                ok = energies <= energy_bound
                frac = float(np.sum(m.weights[idx][ok]) / ball_mass_val)
                mean_e = float(np.average(energies, weights=m.weights[idx]))
            cand = (frac, -mean_e, -j)
            if best is None or cand > best[0]:
                best = (cand, j, frac, mean_e)
        _, j, frac, mean_e = best
        results.append({
            "center": np.asarray(center, float).tolist(),
            "radius": float(radius),
            "ball_mass": ball_mass_val,
            "best_direction_index": j,
            "best_direction": directions[j].basis.tolist(),
            "pinned": j < len(pinned_directions or []),
            "passing_fraction": frac,
            "mean_energy": mean_e,
            "passes": frac >= mass_fraction,
        })
    return {
        "aperture": aperture,
        "exponent": exponent,
        "energy_bound": energy_bound,
        "mass_fraction": mass_fraction,
        "direction_count": len(directions),
        "ball_count": len(results),
        "finite_family_note": "finite ball and direction families only",
        "balls": results,
        "all_pass": all(r["passes"] for r in results),
    }


def bme_check(m: DiscreteMeasure, balls, aperture: float, exponent: float,
              energy_bound: float, direction_assignment) -> dict:
    """Carleson-type mean-energy check with one fixed direction per atom.

    ``direction_assignment`` maps atom index -> Plane; every atom inside some
    tested ball must be covered.
    """
    if hasattr(direction_assignment, "__getitem__") and not hasattr(direction_assignment, "get"):
        assignment = {i: direction_assignment[i] for i in range(len(direction_assignment))}
    else:
        assignment = dict(direction_assignment)
    results = []
    for center, radius in balls:
        idx = m.ball_indices(center, radius)
        lhs = 0.0
        for i in idx:
            v = assignment.get(int(i))
            if v is None:
                raise MissingDirection(f"atom {i} has no assigned direction")
            lhs += m.weights[i] * _direction_energies(m, [i], [v], aperture, exponent,
                                                      radius)[0, 0]
        bmass = float(np.sum(m.weights[idx]))
        ratio = lhs / bmass if bmass > 0 else 0.0
        results.append({
            "center": np.asarray(center, float).tolist(),
            "radius": float(radius),
            "ball_mass": bmass,
            "mean_energy_ratio": ratio,
            "passes": ratio <= energy_bound,
        })
    return {
        "aperture": aperture,
        "exponent": exponent,
        "energy_bound": energy_bound,
        "balls": results,
        "all_pass": all(r["passes"] for r in results),
    }


def projection_energy_check(m: DiscreteMeasure, base_plane: Plane, aperture: float,
                            metric_radius_factor: float, direction_samples: int,
                            bin_width: float, seed: int) -> dict:
    """Exploratory comparison of the 1-energy with projected L^2 densities.

    The left side is the exact whole-space 1-energy in direction V0^perp; the
    right side averages histogram-smoothed squared L^2 norms of projections
    onto planes within plane-metric lambda*alpha of V0.  Atomic projections
    have no L^2 density, so the histogram resolution is part of the answer
    and the report is labeled exploratory.
    """
    if not bin_width > 0:
        raise InvalidParams("bin width must be positive")
    if base_plane.dim != m.dim_param:
        raise InvalidParams("base plane must have dimension n")
    v_perp = base_plane.complement()
    left = weighted_sum(m.weights, pointwise_energies(m, EnergySpec(v_perp, aperture))[0])

    radius = metric_radius_factor * aperture
    rng = np.random.default_rng(seed)
    planes = [base_plane]
    sigma = radius / 2 if radius > 0 else 0.0
    attempts = 0
    while len(planes) < max(direction_samples, 1) and attempts < 200 * direction_samples:
        attempts += 1
        noise = sigma * rng.standard_normal(base_plane.basis.shape)
        try:
            cand_basis = base_plane.basis + noise
            q, r = np.linalg.qr(cand_basis.T)
            cand = Plane((q * np.sign(np.diag(r))[None, :]).T)
        except (np.linalg.LinAlgError, InvalidParams):
            continue
        if plane_metric(cand, base_plane) <= radius:
            planes.append(cand)
        else:
            sigma *= 0.7

    norms = []
    for v in planes:
        coords = v.coords(m.points)
        bins = np.floor(coords / bin_width).astype(np.int64)
        _, inverse = np.unique(bins, axis=0, return_inverse=True)
        masses = np.bincount(inverse, weights=m.weights)
        # squared L^2 norm of the piecewise-constant density
        norms.append(float(np.sum(masses ** 2) / bin_width ** v.dim))
    right = float(np.mean(norms))
    ratio = 0.0 if left == 0 else (np.inf if right == 0 else left / right)
    return {
        "exploratory": True,
        "aperture": aperture,
        "metric_radius": radius,
        "bin_width": bin_width,
        "planes_used": len(planes),
        "left_energy": float(left),
        "right_mean_sq_l2": right,
        "ratio": float(ratio),
    }
