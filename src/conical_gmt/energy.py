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
It runs in ``cone_pairs``' row strips.  A strip first credits every row's
partners j > i, row after row, and then adds to each of its rows numpy's sum
of that row's compressed terms.  So an atom adds its lower-indexed partners'
terms one at a time, in index order, and then its own row's sum, the order of
a sweep one row at a time, whatever the strips are.  That order differs from
one sum per atom in the last bits only, within 1e-13 relative of an exactly
rounded sum.

Every other energy is a step integral, formed in one place,
``_step_integrals``: for ascending distances, a mask of selected positions
per row and each row's cumulative selected mass, it integrates every row over
every window (lo, hi).  Each entry is numpy's pairwise sum of the row's terms
at its run ends (the last selected position of each run of equal distances)
below hi; numpy groups a sum's terms by position, so a zero-padded row would
change the last bits.  Two engines call it, each with its own loop, since
running either's work through the other's loop measured two to twenty-five
times slower (ROADMAP, aim 2):

- ``window_energies`` tests the atoms against the cloud in ``cone_rows``' row
  blocks, one cone test per block of about ``PAIR_BLOCK // 4`` pairs in one
  reused scratch, sorts each atom's in-cone profile once (``sorted_mass``)
  and reads every window off it.  Other exponents than p = 1 take their
  pointwise energies from it, with the one window (0, R); a corona run takes
  it once for all lattice levels, whose windows (eta r(Q), r(Q)/eta) depend
  only on the level.
- ``_direction_energies`` serves the scans (``bpbe_scan``, ``bme_check``):
  each vertex sorts the atoms within the radius once, and each direction
  masks that sorted list with ``cone_rows``' arithmetic, one kernel row per
  direction.  Its cumulative masses are cumsums of the weights with
  out-of-cone atoms set to 0.0, which is exact, so every in-cone position
  holds the single-direction value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NumericalError
from .geometry import Plane, cone_pairs, cone_rows, lengths, row_blocks, sample_grassmannian
from .measure import DiscreteMeasure, sorted_mass


def _check_cone(aperture: float, exponent: float) -> None:
    """The rules every cone energy puts on its aperture and exponent."""
    if not 0 < aperture < 1:
        raise InvalidParams("aperture must lie in (0, 1)")
    if not 1 <= exponent < np.inf:
        raise InvalidParams("exponent p must be finite and >= 1")


@dataclass(frozen=True)
class EnergySpec:
    """Direction, aperture, exponent and scale window of a cone energy."""

    direction: Plane
    aperture: float
    exponent: float = 1.0
    outer_scale: float = np.inf

    def __post_init__(self):
        _check_cone(self.aperture, self.exponent)
        if not self.outer_scale > 0:
            raise InvalidParams("outer scale R must be positive")


def _step_integrals(d: np.ndarray, cum: np.ndarray, mask: np.ndarray, windows,
                    n: int, p: float) -> np.ndarray:
    """int_lo^hi (mass_j(r) / r^n)^p dr/r, exact, with one row per row j of
    ``mask`` and one column per window (lo, hi), lo < hi.

    ``d`` holds ascending distances > 0, and cum[j, i] the mass that row j
    selects through position i.  A step runs from a run end to the next
    selected distance, or to hi; its term is
    cum^p (max(d, lo)^-np - max(d_next, lo)^-np) / np, +0.0 for a step that
    ends at or below lo.  Every r^-np is an array power: numpy takes some
    exponents (-1 among them) by another path than the scalar power.
    """
    rows, k = mask.shape
    out = np.zeros((rows, len(windows)))
    np_exp = n * p
    # next selected position after each one, k if none
    pos = np.where(mask, np.arange(k), k)
    nxt = np.full_like(pos, k)
    nxt[:, :-1] = np.minimum.accumulate(pos[:, :0:-1], axis=1)[:, ::-1]
    end = mask & (np.concatenate((d, [np.inf]))[nxt] > d)
    height = cum ** p
    finite = np.isfinite(height[:, -1:]).all()      # cum^p grows along a row
    for col, (lo, hi) in enumerate(windows):
        c = np.searchsorted(d, hi, side="left")
        # r^-np at the positions below hi, clamped to lo, then at hi, which
        # stands for every later position
        power = np.concatenate((np.maximum(d[:c], lo), [hi])) ** -np_exp
        terms = height[:, :c] * (power[:c] - power.take(nxt[:, :c], mode="clip")) / np_exp
        if lo > 0 and not (finite and power[0] < np.inf):
            # an overflow makes a step below lo inf - inf or inf * 0
            terms[nxt[:, :c] < np.searchsorted(d, lo, side="right")] = 0.0
        for j, (t, e) in enumerate(zip(terms, end[:, :c])):
            out[j, col] = t[e].sum()
    return out


def pointwise_energies(m: DiscreteMeasure, spec: EnergySpec) -> tuple[np.ndarray, np.ndarray]:
    """E_p(x, V, alpha, R) and the in-cone atom count at every atom x.

    For p = 1 each value is the layer-cake sum
    n^{-1} sum_{y in K, |y-x| < R} w_y (|y-x|^{-n} - R^{-n}), with no sort,
    over one ``cone_pairs`` sweep (see the module docstring); other exponents
    take ``window_energies``' step integral over the window (0, R).  Counts
    include in-cone atoms beyond R.
    """
    if spec.exponent != 1:
        table, counts = window_energies(m, spec, [(0.0, spec.outer_scale)])
        return table[:, 0], counts
    energies = np.zeros(m.size)
    counts = np.zeros(m.size, dtype=int)
    n, R, w = m.dim_param, spec.outer_scale, m.weights
    tail = np.float64(R) ** -n      # in numpy: past the double range it is inf
    for i0, mask, dist in cone_pairs(m.points, spec.direction, spec.aperture):
        rows, width = mask.shape
        counts[i0:i0 + rows] += np.count_nonzero(mask, axis=1)
        counts[i0 + 1:] += np.add.reduce(mask, axis=0, dtype=np.intp)
        mask &= dist < R
        per_row = np.count_nonzero(mask, axis=1)
        partner = np.flatnonzero(mask)          # strip positions r * width + c
        term = dist.ravel()[partner]
        term **= -n
        term -= tail
        partner -= np.repeat(np.arange(rows) * width - (i0 + 1), per_row)
        # each partner j takes w_i times its term, row after row (``add.at``
        # applies repeated indices in order); then each row adds numpy's sum
        # of its own compressed terms (see the module docstring)
        np.add.at(energies, partner, np.repeat(w[i0:i0 + rows], per_row) * term)
        term *= w[partner]
        ends = np.cumsum(per_row).tolist()
        energies[i0:i0 + rows] += [np.add.reduce(term[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return energies / n, counts


def window_energies(m: DiscreteMeasure, spec: EnergySpec,
                    windows) -> tuple[np.ndarray, np.ndarray]:
    """int_lo^hi (mass(K(x, r)) / r^n)^p dr/r, exact, with one row per atom
    x and one column per (lo, hi), and the number of atoms in the cone at
    each x, over the whole cloud.

    Each atom's in-cone profile is built once, out to the largest hi; its
    strict ``< hi`` prefix is exactly the profile that hi alone would give,
    so every entry equals its single-window value bit for bit.  The atoms
    are tested against the cloud in ``cone_rows``' blocks, one cone test per
    block; each row is then sorted and integrated over every window by
    ``_step_integrals``.
    """
    out = np.zeros((m.size, len(windows)))
    counts = np.zeros(m.size, dtype=int)
    top = max(hi for _, hi in windows)
    n, p = m.dim_param, spec.exponent
    for rows, mask, dist in cone_rows(m.points, m.points, spec.direction, spec.aperture):
        counts[rows] = np.count_nonzero(mask, axis=1)
        if top < np.inf:
            mask &= dist < top
        for row in np.flatnonzero(mask.any(axis=1)):
            inside = mask[row]
            d, cum = sorted_mass(dist[row][inside], m.weights[inside])
            every = np.ones((1, len(d)), dtype=bool)
            out[rows.start + row] = _step_integrals(d, cum[None], every, windows, n, p)[0]
    return out, counts


def _direction_energies(m: DiscreteMeasure, vertex_idx, directions: list[Plane],
                        aperture: float, exponent: float, radius: float) -> np.ndarray:
    """int_0^radius (mass(K(x, V, r)) / r^n)^p dr/r, exact, with one row per
    vertex x = m.points[i], i in ``vertex_idx``, and one column per V.

    Each vertex sorts its atoms in 0 < |y - x| < radius once; every direction
    then only masks that sorted list, with ``cone_rows``' arithmetic, and
    ``_step_integrals`` takes the directions together, in ``row_blocks`` of
    directions as wide as the atom list.  Every entry equals the step
    integral of that direction's own sorted profile bit for bit (see the
    module docstring).
    """
    out = np.zeros((len(vertex_idx), len(directions)))
    n = m.dim_param
    for row, i in enumerate(vertex_idx):
        diff = m.points - m.points[i]
        dist = lengths(diff)
        near = np.flatnonzero((dist > 0) & (dist < radius))
        k = len(near)
        if k == 0:
            continue
        near = near[np.argsort(dist[near], kind="stable")]
        diff, d, w = diff[near], dist[near], m.weights[near]
        # a one-row product would take another BLAS path than cone_rows'
        operand = diff if k > 1 else np.vstack((diff, diff))
        for rows in row_blocks(len(directions), k):
            chunk = directions[rows]
            par = np.empty((len(chunk), k, m.ambient_dim))
            for j, v in enumerate(chunk):
                par[j] = ((operand @ v.basis.T) @ v.basis)[:k]
            mask = lengths(diff - par) < aperture * d
            # cumulative in-cone mass; adding the 0.0 of an out-of-cone atom
            # is exact, so in-cone positions match the compressed cumsum
            cum = np.cumsum(np.where(mask, w, 0.0), axis=1)
            out[row, rows] = _step_integrals(d, cum, mask, [(0.0, radius)], n, exponent)[:, 0]
    return out


def weighted_sum(weights: np.ndarray, energies: np.ndarray) -> float:
    """sum_j w_j e_j, accumulated left to right from 0.0 so that the value
    does not depend on how the energies were batched: ``cumsum`` adds in
    that order, and the final + 0.0 turns a sum of -0.0 terms alone into
    the +0.0 that a start from 0.0 gives.  Overflow and inf - inf give inf
    and nan silently, as Python floats do."""
    if len(energies) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.cumsum(weights * energies)[-1] + 0.0)


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
    _check_cone(aperture, exponent)
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
        # an overflow shows in the table, which is checked
        with np.errstate(over="ignore", invalid="ignore"):
            table = _direction_energies(m, idx, directions, aperture, exponent, radius)
        if not np.all(np.isfinite(table)):
            raise NumericalError(f"an energy in the ball of radius {radius:g} is not "
                                 f"finite at p = {exponent:g}: it overflowed")
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
    _check_cone(aperture, exponent)
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
                raise InvalidParams(f"atom {i} has no assigned direction")
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
