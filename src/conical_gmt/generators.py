"""Deterministic generators for the measure classes the toolkit exercises.

Every generator returns a probability measure (total mass 1) together with a
metadata dict recording the resolved parameters and any known ground truth
(graph function and Lipschitz constant, generation, ratio sequence, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, TooLarge
from .measure import DiscreteMeasure

KINDS = ("segment", "circle", "lipschitz_graph", "four_corner_cantor",
         "variable_cantor", "mixture")

_CORNERS = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])

# Largest cloud ``generate`` builds, 2^24 atoms: 256 MiB of coordinates in R^2.
MAX_ATOMS = 2 ** 24


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.seed is not None and self.seed < 0:
            raise InvalidSpec(f"seed must be a nonnegative integer, not {self.seed}")


def _grid01(count: int, jitter: float, rng) -> np.ndarray:
    if count < 1:
        raise InvalidSpec("need at least one sample")
    if not 0 <= jitter < np.inf:
        raise InvalidSpec(f"jitter must be finite and >= 0, not {jitter}")
    z = (np.arange(count) + 0.5) / count
    if jitter > 0:
        if rng is None:
            raise InvalidSpec("jitter requires a seed")
        z = z + jitter * (rng.random(count) - 0.5) / count
    return z


def _graph_fn(profile: str, lipschitz: float, frequency: int):
    """1-d height functions with derivative bounded by `lipschitz` exactly."""
    if profile == "flat" or lipschitz == 0.0:
        return lambda z: np.zeros_like(z), "flat"
    if profile == "sine":
        amp = lipschitz / (2 * math.pi * frequency)
        return lambda z: amp * np.sin(2 * math.pi * frequency * z), "sine"
    if profile == "zigzag":
        # triangle wave with slopes exactly +/- lipschitz
        period = 1.0 / frequency
        def tri(z):
            u = np.mod(z, period) / period
            return lipschitz * period * (0.25 - np.abs(u - 0.5) / 2.0) * 2.0
        return tri, "zigzag"
    raise InvalidSpec(f"unknown graph profile {profile!r}")


def _cantor_cells(generation: int, ratios) -> tuple[np.ndarray, float]:
    """Lower-left corners and final side length of the corner-cell tree."""
    if generation < 1:
        raise InvalidSpec("generation must be >= 1")
    corners = np.zeros((1, 2))
    side = 1.0
    for k in range(generation):
        sigma = ratios[k]
        if not 0 < sigma < 0.5:
            raise InvalidSpec("contraction ratios must lie in (0, 1/2)")
        offs = _CORNERS / 0.75 * (1.0 - sigma) * side
        corners = (corners[:, None, :] + offs[None, :, :]).reshape(-1, 2)
        side *= sigma
    return corners, side


def _atom_count(kind: str, p: dict) -> int:
    """The number of atoms ``generate`` builds for a kind and its parameters,
    read off the parameters alone; for Cantor generations past 32 a lower
    bound, 4^32, which is already over ``MAX_ATOMS``."""
    if kind == "mixture":
        return sum(_atom_count(c["spec"]["kind"], c["spec"].get("params", {}))
                   for c in p.get("components") or [])
    if kind in ("four_corner_cantor", "variable_cantor"):
        default = 4 if kind == "four_corner_cantor" else len(p.get("ratios", []))
        return 4 ** min(max(0, int(p.get("generation", default))), 32)
    return int(p.get("count", 1000))


def generate(spec: GeneratorSpec) -> tuple[DiscreteMeasure, dict]:
    """Build the measure for a spec; deterministic given the seed.  A spec of
    more than ``MAX_ATOMS`` atoms raises ``TooLarge`` before anything is
    allocated."""
    count = _atom_count(spec.kind, spec.params)
    if count > MAX_ATOMS:
        raise TooLarge(f"a {spec.kind} cloud of at least {count} atoms is over the "
                       f"limit of {MAX_ATOMS} atoms")
    rng = np.random.default_rng(spec.seed) if spec.seed is not None else None
    p = dict(spec.params)
    meta = {"kind": spec.kind, "seed": spec.seed}

    if spec.kind == "segment":
        jitter = float(p.get("jitter", 0.0))
        z = _grid01(count, jitter, rng)
        pts = np.stack([z, np.zeros_like(z)], axis=1)
        meta.update(count=count, jitter=jitter, lipschitz=0.0, dimension=1)
        return DiscreteMeasure(pts, np.full(count, 1.0 / count), 1), meta

    if spec.kind == "circle":
        radius = float(p.get("radius", 0.25))
        jitter = float(p.get("jitter", 0.0))
        t = 2 * math.pi * _grid01(count, jitter, rng)
        pts = radius * np.stack([np.cos(t), np.sin(t)], axis=1) + 0.5
        meta.update(count=count, radius=radius, dimension=1)
        return DiscreteMeasure(pts, np.full(count, 1.0 / count), 1), meta

    if spec.kind == "lipschitz_graph":
        lipschitz = float(p.get("lipschitz", 0.5))
        frequency = int(p.get("frequency", 1))
        profile = str(p.get("profile", "sine"))
        jitter = float(p.get("jitter", 0.0))
        if lipschitz < 0:
            raise InvalidSpec("lipschitz must be >= 0")
        fn, name = _graph_fn(profile, lipschitz, frequency)
        z = _grid01(count, jitter, rng)
        pts = np.stack([z, fn(z)], axis=1)
        meta.update(count=count, lipschitz=lipschitz, profile=name,
                    frequency=frequency, jitter=jitter, dimension=1)
        return DiscreteMeasure(pts, np.full(count, 1.0 / count), 1), meta

    if spec.kind == "four_corner_cantor":
        generation = int(p.get("generation", 4))
        corners, side = _cantor_cells(generation, [0.25] * generation)
        pts = corners + side / 2
        count = len(pts)
        meta.update(generation=generation, count=count, cell_side=side,
                    hausdorff_dimension=1.0)
        return DiscreteMeasure(pts, np.full(count, 1.0 / count), 1), meta

    if spec.kind == "variable_cantor":
        if "ratios" not in p:
            raise InvalidSpec("variable_cantor needs its contraction ratios")
        ratios = [float(r) for r in p["ratios"]]
        generation = int(p.get("generation", len(ratios)))
        if generation > len(ratios):
            raise InvalidSpec("need one contraction ratio per generation")
        corners, side = _cantor_cells(generation, ratios)
        pts = corners + side / 2
        count = len(pts)
        scales = np.cumprod(ratios[:generation])
        meta.update(generation=generation, count=count, ratios=ratios[:generation],
                    cell_sides=scales.tolist(),
                    scale_densities=(4.0 ** -np.arange(1, generation + 1) / scales).tolist())
        return DiscreteMeasure(pts, np.full(count, 1.0 / count), 1), meta

    if spec.kind == "mixture":
        comps = p.get("components")
        if not comps:
            raise InvalidSpec("mixture needs a components list")
        parts, metas, masses = [], [], []
        for comp in comps:
            sub = GeneratorSpec(comp["spec"]["kind"], comp["spec"].get("params", {}),
                                comp["spec"].get("seed", spec.seed))
            sub_m, sub_meta = generate(sub)
            offset = np.asarray(comp.get("offset", np.zeros(sub_m.ambient_dim)), float)
            weight = float(comp.get("weight", 1.0 / len(comps)))
            if weight <= 0:
                raise InvalidSpec("component weights must be positive")
            parts.append((sub_m.points + offset[None, :], sub_m.weights * weight))
            metas.append(sub_meta)
            masses.append(weight)
        total = sum(masses)
        pts = np.vstack([pp for pp, _ in parts])
        w = np.concatenate([ww for _, ww in parts]) / total
        meta.update(components=metas, weights=[m / total for m in masses])
        return DiscreteMeasure(pts, w, 1), meta

    raise InvalidSpec(f"unknown generator kind {spec.kind!r}")
