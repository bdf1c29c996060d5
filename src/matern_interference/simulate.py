"""Exact samplers for the three processes and Palm-conditioned Monte Carlo.

One draw-and-thin pass (_thin_chunk) serves both views of a process: the
Palm view, seen from a retained point at the origin (``sample_palm``), and
the stationary view in a window disk (``sample_window``). One ensemble loop
(_ensemble) runs that pass over many replicates, and every estimator is a
reduction over what it returns: the mean interference, the Palm intensity
and the K-function over a Palm ensemble (``run_palm_ensemble``), and the
stationary intensity (``estimate_intensity``) over a windowed one. The
thinning rule (_dead_mask) is decided one of two ways, with the same result
to the bit: by a KD-tree search for the pairs closer than delta
(_strict_pairs), or, for type I at lambda_p*delta**2 >= 1, where almost
every parent dies, by an exact cell test that builds no tree
(_alone_in_window). The cell test's two margins keep it exact: two points
it declares dead without a distance are at most 0.984*delta apart, and the
cells it does not search are at least 1.24*delta away.

Sampling is exact, not approximate: the type I Palm construction uses the
fact that conditioning a Poisson parent on an empty exclusion ball just
removes that ball from its domain, and the type II construction draws the
origin's mark from its Palm law and then the exclusion ball's parents given
that mark (see _draw_palm_parent); the origin, retained by construction,
kills the parents strictly within delta of it that carry a larger mark.
A windowed replicate is the same draw with a hole of radius 0 and no
origin. Window truncation is corrected with an analytic tail that is
unbiased because every process kind has exactly Poisson second-order
structure beyond twice the hard-core distance.

Determinism contract: replicate k draws from the generator
default_rng(SeedSequence(entropy=seed, spawn_key=(k,))), so results are
independent of execution order, chunking, and parallelism. For k < 2**32
its seed words are computed here (replicate_rng): NumPy's pool for the
seed, cached, with k's one word mixed in by SeedSequence's documented
mixing; a test pins them to NumPy's. The per-replicate draw order is fixed:
(windowed, Poisson hole, type I) parent count, then one block of standard
uniforms holding the squared radii, then the angles and, for a windowed
type II replicate, the marks; (Palm type II) origin mark, interior count,
one block of interior squared radii, angles and marks, then exterior count
and one block of its squared radii, angles and marks. A replicate only
draws its blocks; scaling them into squared radii, angles and marks, and
the coordinates, are elementwise and done once per chunk, which gives each
replicate the bits of its own draws (_palm_parents). Ensembles are thinned
in chunks of about 2**13 expected parents (never less than one replicate)
on up to two threads; neither the chunk size nor the thread count changes
a single bit of the result, because every chunk draws from its own
replicates' streams and every thinning decision is made on the replicate's
own coordinates.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ValidationError
from .models import (
    HardCoreParams,
    InterferenceEstimate,
    PathLossModel,
    PointPattern,
    ProcessKind,
    _Record,
    default_window_radius,
    intensity,
)

__all__ = [
    "SimulationConfig",
    "default_window_radius",
    "replicate_rng",
    "sample_palm",
    "sample_window",
    "run_palm_ensemble",
    "interference_estimate_from_ensemble",
    "intensity_estimate_from_ensemble",
    "estimate_mean_interference",
    "estimate_intensity",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_TWO_PI = 2.0 * math.pi
# Expected parents per thinning pass (see _chunk_replicates). A chunk's
# coordinate, tree and pair arrays, or its cell counts, grow with its
# parents, so a budget in parents, not replicates, bounds its memory at any
# density and window; at about 2**15 parents and beyond, every chunk also
# faults in fresh pages for those arrays instead of reusing freed ones.
# With the geometry formed per chunk, 2**13 runs within a few percent of
# 2**14's speed and holds the two chunks in flight 2-5 MB lower.
_PARENT_BUDGET = 2**13
# Chunks in flight at once. cKDTree and the large NumPy reductions release
# the GIL, so a chunk's neighbour search overlaps the other chunk's search
# or its Python-bound parent draws. Both chunks hold a neighbour search's
# pair arrays at once, so the parent budget bounds the peak of the pair.
_MAX_THREADS = 2


class TailPolicy(enum.Enum):
    ANALYTIC_TAIL = "analytic-tail"
    TRUNCATE_ONLY = "truncate-only"


class SimulationConfig(_Record):
    """Window, replication and stream parameters for one Monte Carlo run.

    The window must reach three hard-core distances of the paired
    parameters, window_radius >= 3*delta: the transition annulus out to
    2*delta, and a margin of delta that ``estimate_intensity`` keeps between
    the points it counts and the window edge, so that their thinning saw
    every competitor.
    """

    window_radius: float
    replicates: int = 1000
    seed: int = 0
    tail_policy: TailPolicy = TailPolicy.ANALYTIC_TAIL

    def __post_init__(self):
        # bool is an int, and True would silently give a window of radius 1,
        # one replicate or seed 1
        if (isinstance(self.window_radius, bool)
                or not (self.window_radius > 0
                        and math.isfinite(self.window_radius))):
            raise ValidationError("window_radius must be positive and finite")
        if not (isinstance(self.replicates, int)
                and not isinstance(self.replicates, bool)
                and self.replicates >= 1):
            raise ValidationError("replicates must be an integer >= 1")
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool)
                and 0 <= self.seed < 2**64):
            raise ValidationError("seed must be an unsigned 64-bit integer")


def _check_window(params: HardCoreParams, cfg: SimulationConfig) -> None:
    if cfg.window_radius < 3.0 * params.delta:
        raise ValidationError(
            f"window_radius={cfg.window_radius} is too small; need at least "
            f"3*delta = {3.0 * params.delta}")


# SeedSequence's mixing constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe), fixed since NumPy 1.17 so that seeded
# streams stay reproducible across versions
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# mix_entropy's hash constants for a replicate's word: a pool of four takes
# 16 hashmix steps before it, so pool word i mixes in the word xored with
# _INIT_A*_MULT_A**(16 + i) and multiplied by _INIT_A*_MULT_A**(17 + i)
_REPLICATE_HASH = tuple(_INIT_A * _MULT_A**(16 + i) & _MASK32 for i in range(5))
# generate_state's hash constants for the eight 32-bit output words: word i
# is xored with _INIT_B*_MULT_B**i and multiplied by _INIT_B*_MULT_B**(i + 1)
(_OX0, _OX1, _OX2, _OX3, _OX4, _OX5, _OX6, _OX7) = (
    _INIT_B * _MULT_B**i & _MASK32 for i in range(8))
(_OM0, _OM1, _OM2, _OM3, _OM4, _OM5, _OM6, _OM7) = (
    _INIT_B * _MULT_B**(i + 1) & _MASK32 for i in range(8))
_PACK_WORDS = struct.Struct("=4Q").pack


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """SeedSequence(entropy=seed, spawn_key=(k,))'s pool before the
    replicate's word is mixed in. A spawn key pads the seed's 32-bit words
    with zeros to the pool size of four, which SeedSequence(seed) mixes
    the same, so this is that sequence's pool."""
    return tuple(map(int, np.random.SeedSequence(seed).pool))


def _pcg64_seed_words(seed: int, replicate: int) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(replicate,))
    .generate_state(4, np.uint64) for 0 <= seed < 2**64 and
    0 <= replicate < 2**32: the replicate's one word mixed into the seed's
    cached pool, unrolled."""
    p0, p1, p2, p3 = _seed_pool(seed)
    h0, h1, h2, h3, h4 = _REPLICATE_HASH
    mask, mix_l, mix_r = _MASK32, _MIX_L, _MIX_R
    w = (replicate ^ h0) * h1 & mask
    p0 = (mix_l * p0 - mix_r * (w ^ w >> 16)) & mask
    p0 ^= p0 >> 16
    w = (replicate ^ h1) * h2 & mask
    p1 = (mix_l * p1 - mix_r * (w ^ w >> 16)) & mask
    p1 ^= p1 >> 16
    w = (replicate ^ h2) * h3 & mask
    p2 = (mix_l * p2 - mix_r * (w ^ w >> 16)) & mask
    p2 ^= p2 >> 16
    w = (replicate ^ h3) * h4 & mask
    p3 = (mix_l * p3 - mix_r * (w ^ w >> 16)) & mask
    p3 ^= p3 >> 16
    # generate_state cycles through the pool twice; 64-bit word j is
    # 32-bit words 2j (low) and 2j + 1 (high)
    w0 = (p0 ^ _OX0) * _OM0 & mask
    w1 = (p1 ^ _OX1) * _OM1 & mask
    w2 = (p2 ^ _OX2) * _OM2 & mask
    w3 = (p3 ^ _OX3) * _OM3 & mask
    w4 = (p0 ^ _OX4) * _OM4 & mask
    w5 = (p1 ^ _OX5) * _OM5 & mask
    w6 = (p2 ^ _OX6) * _OM6 & mask
    w7 = (p3 ^ _OX7) * _OM7 & mask
    return np.frombuffer(_PACK_WORDS(
        w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
        w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32, w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32),
        dtype=np.uint64)


class _SeedWords(ISeedSequence):
    """The ISeedSequence PCG64 is seeded through: it hands PCG64 the four
    words it asks for (generate_state(4, np.uint64)), computed already."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The stream for one replicate; the (seed, replicate) pair fully
    determines it regardless of how many other replicates run. It is
    default_rng(SeedSequence(entropy=seed, spawn_key=(replicate,))), with
    the seed words computed here (_pcg64_seed_words) for ints
    0 <= seed < 2**64 and 0 <= replicate < 2**32: building the SeedSequence
    cost more than the rest of a sparse replicate. Anything else goes
    through SeedSequence and its errors."""
    if (type(seed) is int and type(replicate) is int
            and 0 <= seed < 2**64 and 0 <= replicate < 2**32):
        seed_seq = _SeedWords(_pcg64_seed_words(seed, replicate))
    else:
        seed_seq = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.PCG64(seed_seq))


# ---------------------------------------------------------------------------
# Thinning
# ---------------------------------------------------------------------------


def _strict_pairs(points: np.ndarray, delta: float,
                  shifted: Optional[np.ndarray] = None) -> np.ndarray:
    """Index pairs at distance strictly below delta (shape (m, 2)).

    ``shifted``, when given, is ``points`` with each replicate translated
    along x (see run_palm_ensemble). The tree searches it with a padded
    radius, and every pair it finds is decided on the untranslated
    ``points``; so the decisions do not depend on where a replicate sits in
    its chunk.
    """
    if delta <= 0 or len(points) < 2:
        return np.empty((0, 2), dtype=np.intp)
    from scipy.spatial import cKDTree

    search = points if shifted is None else shifted
    # Rounding the translation moves a coordinate difference by at most an
    # ulp of the largest coordinate, and the tree's and our own distance
    # arithmetic differ by a few ulps of delta: eight ulps of the larger
    # keep every pair below delta inside the searched radius.
    pad = 8.0 * np.spacing(max(delta, float(np.max(np.abs(search)))))
    # an unbalanced, non-compact tree finds the same pairs in about half the
    # build time
    tree = cKDTree(search, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(delta + pad, output_type="ndarray")
    if len(pairs) == 0:
        return pairs
    # gathered per coordinate from contiguous columns; dx*dx + dy*dy is
    # the row sum that einsum("ij,ij->i") gave, bit for bit
    x, y = np.ascontiguousarray(points.T)
    i, j = pairs.T
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    strict = dx * dx + dy * dy < delta * delta
    return pairs if strict.all() else pairs[strict]


def _dead_mask(params: HardCoreParams, points: np.ndarray,
               marks: Optional[np.ndarray],
               shifted: Optional[np.ndarray] = None) -> np.ndarray:
    """True for the parent points that the thinning of params.kind removes.

    Type I removes both members of every pair strictly closer than delta;
    type II removes a point iff some such neighbor carries a smaller mark,
    whether or not that neighbor itself survives; the Poisson hole removes
    nothing. ``shifted`` is passed on to _strict_pairs.
    """
    dead = np.zeros(len(points), dtype=bool)
    if params.kind is ProcessKind.POISSON_HOLE:
        return dead
    pairs = _strict_pairs(points, params.delta, shifted)
    if params.kind is ProcessKind.MATERN_I:
        dead[pairs[:, 0]] = True
        dead[pairs[:, 1]] = True
    elif len(pairs):
        mi = marks[pairs[:, 0]]
        mj = marks[pairs[:, 1]]
        dead[pairs[:, 0][mj < mi]] = True
        dead[pairs[:, 1][mi < mj]] = True
    return dead


# Dense type I thinning (_alone_in_window) bins points into square cells of
# side _CELL*delta. Two points in one cell, or in cells sharing an edge, are
# at most sqrt(5)*0.44*delta = 0.984*delta apart. Every other cell within
# delta of a cell lies in one of the _STENCILS (40 cells); the nearest cell
# outside them is 0.44*sqrt(8)*delta = 1.24*delta away.
_CELL = 0.44


def _stencil(lo: float, hi: float) -> tuple:
    """Offsets (a, b) of the cells, other than cell (0, 0) and its edge
    neighbours, whose gap to cell (0, 0) is in [lo, hi) squared cell
    sides."""
    return tuple((a, b) for b in range(-3, 4) for a in range(-3, 4)
                 if abs(a) + abs(b) > 1
                 and lo <= max(0, abs(a) - 1)**2 + max(0, abs(b) - 1)**2 < hi)


# Searched nearest first, each for the points the ones before left alive:
# the 4 diagonal cells (gap 0), the 12 one cell side away, and the 24 others
# within delta. Against one stencil of all 36 beyond the diagonals, this
# was 9-27 % faster at lambda_p*delta**2 = 1-2 and held up to 30 % less.
_STENCILS = (_stencil(0, 1), _stencil(1, 2), _stencil(2, _CELL**-2))
# lambda_p*delta**2 from which type I thinning takes _alone_in_window. From
# 1 the cells were faster at every window tried (3, 7 and 15 delta), whole
# two-thread ensembles 11-20 % faster, and their lead grows with density as
# the cell test settles more points. At 0.5-0.9 the two were within 0-16 %
# of each other, and at 0.5 the cells were sometimes slower.
_DENSE_TYPE1 = 1.0


def _alone_in_window(points: np.ndarray, rep_local: np.ndarray, chunk: int,
                     radii: np.ndarray, delta: float,
                     r_window: float) -> np.ndarray:
    """Type I thinning's keep mask on a chunk without a tree: True for the
    points within r_window of the origin that no other point of their
    replicate lies strictly closer than delta to. rep_local is each point's
    replicate's index in [0, chunk). This is ~_dead_mask(...) &
    (radii <= r_window) bit for bit, on the same untranslated coordinates
    and the same strict test.

    Each replicate's points are binned into cells of side _CELL*delta, with
    three empty cells around each replicate's grid, so that no stencil
    offset reaches another replicate. A point that shares its cell or an
    edge-adjacent one with another point is dead: the pair is at most
    0.984*delta apart, a margin far beyond rounding in the cell indices or
    the distance. Each remaining in-window point is tested exactly against
    the points of the _STENCILS' cells, one stencil at a time, until one
    kills it; points beyond 1.24*delta cannot.
    """
    keep = np.zeros(len(points), dtype=bool)
    inside = np.flatnonzero(radii <= r_window)
    if inside.size == 0:
        return keep
    x, y = np.ascontiguousarray(points.T)
    side = _CELL * delta
    ix = ((x - x.min()) / side).astype(np.intp)
    iy = ((y - y.min()) / side).astype(np.intp)
    nx = int(ix.max()) + 7
    ny = int(iy.max()) + 7
    keys = (rep_local * ny + iy + 3) * nx + ix + 3
    counts = np.bincount(keys, minlength=chunk * nx * ny)
    k = keys[inside]
    near = (counts[k] + counts[k - 1] + counts[k + 1]
            + counts[k - nx] + counts[k + nx])
    alive = inside[near == 1]
    if alive.size:
        order = np.argsort(keys)
        sorted_keys = keys[order]
        for stencil in _STENCILS:
            offsets = np.array([a + b * nx for a, b in stencil])
            cells = keys[alive][:, None] + offsets
            alive = alive[~_close_in_cells(alive, cells, counts, sorted_keys,
                                           order, x, y, delta)]
            if alive.size == 0:
                break
    keep[alive] = True
    return keep


def _close_in_cells(points: np.ndarray, cells: np.ndarray, counts: np.ndarray,
                    sorted_keys: np.ndarray, order: np.ndarray, x: np.ndarray,
                    y: np.ndarray, delta: float) -> np.ndarray:
    """True for each of the points (indices) with some point strictly
    closer than delta in its row of cells (keys); the points of cell k are
    order[s:s + counts[k]], where sorted_keys[s] is the first k in
    sorted_keys = keys[order]."""
    n = counts[cells]
    owner, col = np.nonzero(n)
    cells, n = cells[owner, col], n[owner, col]
    # the m-th point of each visited cell, m < n, in one flat array
    first = np.searchsorted(sorted_keys, cells) - (np.cumsum(n) - n)
    owner = np.repeat(owner, n)
    j = order[np.repeat(first, n) + np.arange(owner.size)]
    i = points[owner]
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    close = np.zeros(len(points), dtype=bool)
    close[owner[dx * dx + dy * dy < delta * delta]] = True
    return close


# ---------------------------------------------------------------------------
# Draw and thin: one pass for the Palm and the windowed view
# ---------------------------------------------------------------------------


def _parent_disk(params: HardCoreParams, cfg: SimulationConfig,
                 palm: bool) -> tuple[float, float]:
    """(hole, r_outer): the annulus holding a replicate's parents. A
    windowed replicate's parents fill the window, (0, W). A Palm
    replicate's lie outside the exclusion ball, and for a Matern process
    out to W + delta, since competitors of any in-window point live within
    delta of it: (delta, W + delta), or (delta, W) for the Poisson hole."""
    if not palm:
        return 0.0, cfg.window_radius
    if params.kind is ProcessKind.POISSON_HOLE:
        return params.delta, cfg.window_radius
    return params.delta, cfg.window_radius + params.delta


def _draw_palm_parent(params: HardCoreParams, cfg: SimulationConfig,
                      rng: np.random.Generator, palm: bool):
    """One replicate's parent configuration, as the standard uniforms it is
    built from (see _palm_parents): conditioned on a retained point at the
    origin if palm, else a plain Poisson draw in the window.

    Returns (interior, exterior, origin_mark). ``exterior`` holds the
    parents of the annulus _parent_disk gives: one block of n squared
    radii, n angles and, for type II, n marks. For a Palm type II
    replicate, ``interior`` is the same block for the parents inside the
    exclusion ball, drawn first, and ``origin_mark`` the origin's mark;
    both are None otherwise.
    Every draw is exact. A type I origin is retained iff its exclusion
    ball is empty, and a Poisson process conditioned on an empty ball is
    the process on the complement. A type II origin with mark m is
    retained with probability exp(-a*m), a = lambda_p*pi*delta^2, so under
    the Palm law its mark has density proportional to exp(-a*m) on [0, 1],
    and given m the ball holds a Poisson number of parents of mean
    a*(1 - m), with marks uniform on (m, 1) (Stoyan, Kendall and Mecke,
    Stochastic Geometry and its Applications). Beyond the ball the parents
    are unconditioned. The origin is retained whatever the other parents
    do, since it carries the smallest mark in its ball; _thin_chunk only
    lets it kill the parents it competes with.
    """
    delta, lam_p = params.delta, params.lambda_p
    hole, r_outer = _parent_disk(params, cfg, palm)
    is_type2 = params.kind is ProcessKind.MATERN_II
    interior = origin_mark = None
    if palm and is_type2:
        a = lam_p * math.pi * delta * delta
        u0 = rng.random()
        # inverse of the mark's distribution function
        # (1 - exp(-a*m)) / (1 - exp(-a))
        origin_mark = -math.log1p(u0 * math.expm1(-a)) / a if a > 0 else u0
        interior = rng.random(3 * int(rng.poisson(a * (1.0 - origin_mark))))
    area = math.pi * (r_outer * r_outer - hole * hole)
    n = int(rng.poisson(lam_p * area))
    exterior = rng.random((3 if is_type2 else 2) * n)
    return interior, exterior, origin_mark


def _palm_parents(params: HardCoreParams, cfg: SimulationConfig,
                  blocks: list, origin_marks: Optional[list], palm: bool):
    """(rsq, theta, marks, rep_local) of a chunk's parents from its
    replicates' uniform blocks (see _draw_palm_parent), listed in draw
    order: for Palm type II each replicate's interior block, then its
    exterior block. marks is None unless type II, and rep_local is each
    parent's replicate's index in the chunk.

    Every map is elementwise and matches what the replicate's own draws
    would give: uniform(lo, hi, n) is lo + (hi - lo)*random(n), so the
    exterior's squared radii are hole^2 + (R^2 - hole^2)*u, its angles
    2*pi*u (0 + 2*pi*u) and its marks u (0 + 1*u); the interior's squared
    radii are delta^2*u and its marks m + (1 - m)*u.
    """
    hole, r_outer = _parent_disk(params, cfg, palm)
    is_type2 = params.kind is ProcessKind.MATERN_II
    width = 3 if is_type2 else 2
    counts = np.fromiter(map(len, blocks), np.intp, len(blocks)) // width
    starts = np.cumsum(counts) - counts
    # the k-th parent of a block of n parents, the block starting at parent
    # s, has its squared radius at width*s + k of the concatenated blocks,
    # its angle n further on and its mark 2n further on
    u = np.concatenate(blocks)
    per_parent = np.repeat(counts, counts)
    at = np.repeat((width - 1) * starts, counts)
    at += np.arange(at.size)
    u_rsq = np.take(u, at)
    lo = hole * hole
    rsq = lo + (r_outer * r_outer - lo) * u_rsq
    theta = _TWO_PI * np.take(u, at + per_parent)
    segments = np.arange(len(blocks))
    marks = np.take(u, at + 2 * per_parent) if is_type2 else None
    if not (palm and is_type2):
        return rsq, theta, marks, np.repeat(segments, counts)
    inside = np.repeat(segments % 2 == 0, counts)
    rsq[inside] = lo * u_rsq[inside]
    origin = np.repeat(np.asarray(origin_marks), counts[0::2])
    marks[inside] = origin + (1.0 - origin) * marks[inside]
    return rsq, theta, marks, np.repeat(segments // 2, counts)


def _sample(params: HardCoreParams, cfg: SimulationConfig, replicate: int,
            palm: bool) -> PointPattern:
    # bool is an int, and True would silently sample replicate 1
    if not (isinstance(replicate, int) and not isinstance(replicate, bool)
            and replicate >= 0):
        raise ValidationError("replicate must be an integer >= 0")
    points, _, keep, _, marks = _thin_chunk(params, cfg, replicate, 1, palm)
    return PointPattern(points=points[keep], window_radius=cfg.window_radius,
                        marks=None if marks is None else marks[keep])


def sample_palm(params: HardCoreParams, cfg: SimulationConfig,
                replicate: int = 0) -> PointPattern:
    """One pattern of params.kind seen from a typical retained point at the
    origin, origin excluded; exact for all points within the window. A type
    II origin's mark competes in the thinning, and type II survivors carry
    their marks. This is the ensemble's own draw and thinning
    (_thin_chunk) on a chunk of one replicate, so run_palm_ensemble
    reproduces it replicate by replicate, bit for bit."""
    _check_window(params, cfg)
    return _sample(params, cfg, replicate, palm=True)


def sample_window(params: HardCoreParams, cfg: SimulationConfig,
                  replicate: int = 0) -> PointPattern:
    """One pattern of params.kind in the window disk: a Poisson parent of
    intensity lambda_p on the disk of radius cfg.window_radius, thinned
    against itself; type II survivors carry their marks. Points within
    delta of the edge are thinned against the window's parents only, so
    only those at least delta inside it are exact (estimate_intensity
    counts those). Any window radius is allowed. This is
    estimate_intensity's own draw and thinning on a chunk of one
    replicate."""
    return _sample(params, cfg, replicate, palm=False)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


class PalmEnsemble(_Record):
    """Every retained in-window point across a batch of Palm replicates,
    as flat arrays grouped by replicate."""

    radii: np.ndarray
    rep_ids: np.ndarray
    replicates: int
    window_radius: float
    delta: float
    # None for every kind: every Palm draw is exact, with no rejection
    acceptance_rate: Optional[float] = None

    @property
    def weights(self) -> np.ndarray:
        # all ones; read only by perfbench/workloads.py's per-replicate digest
        return np.ones(self.radii.size)


def run_palm_ensemble(params: HardCoreParams, cfg: SimulationConfig) -> PalmEnsemble:
    """Draw cfg.replicates Palm patterns and flatten them (see _ensemble).
    The result is identical to looping over sample_palm one replicate at a
    time."""
    _check_window(params, cfg)
    radii, rep_ids = _ensemble(params, cfg, True, _retained)
    return PalmEnsemble(
        radii=radii,
        rep_ids=rep_ids,
        replicates=cfg.replicates,
        window_radius=cfg.window_radius,
        delta=params.delta,
    )


def _ensemble(params: HardCoreParams, cfg: SimulationConfig, palm: bool,
              reduce):
    """Draw and thin cfg.replicates Palm (palm) or windowed replicates and
    reduce each chunk as it is thinned: reduce(radii, rep_local,
    chunk_start, chunk) gets the chunk's retained in-window radii and their
    replicates' indices in the chunk, and returns a tuple of arrays. Each
    component is concatenated over the chunks in replicate order; with
    _retained, that is (radii, rep_ids) of every retained in-window point,
    grouped by replicate.

    Replicates are thinned in chunks of about _PARENT_BUDGET expected
    parents (see _chunk_replicates): each chunk is laid out along the x
    axis with spacing wider than any interaction range and passed through
    one KD-tree query (dense type I: one cell test, _alone_in_window),
    which removes the per-replicate Python cost.
    Chunks run on up to two threads, never more than the CPUs this process
    may use. The per-replicate streams, and pair decisions made on
    untranslated coordinates, make the result identical to sampling one
    replicate at a time (sample_palm, sample_window), whatever the
    chunking or the thread count.
    """
    # imported here, like scipy.spatial, to keep it off the CLI's cold start
    from concurrent.futures import ThreadPoolExecutor

    size = _chunk_replicates(params, cfg)
    starts = range(0, cfg.replicates, size)
    with ThreadPoolExecutor(max_workers=_ensemble_threads(len(starts))) as pool:
        chunks = list(pool.map(
            partial(_ensemble_chunk, params, cfg, palm, size, reduce), starts))
    return tuple(map(np.concatenate, zip(*chunks)))


def _retained(radii: np.ndarray, rep_local: np.ndarray, chunk_start: int,
              chunk: int):
    """A chunk's retained in-window radii and their replicate ids."""
    return radii, rep_local + chunk_start


def _count_within(r: float, radii: np.ndarray, rep_local: np.ndarray,
                  chunk_start: int, chunk: int):
    """Each of a chunk's replicates' retained points within radius r."""
    return (np.bincount(rep_local[radii <= r], minlength=chunk),)


def _chunk_replicates(params: HardCoreParams, cfg: SimulationConfig) -> int:
    """Replicates per chunk: as many as hold at most _PARENT_BUDGET expected
    parents, lambda_p*pi*(W + delta)**2 each, but at least one and at most
    cfg.replicates."""
    r_parent = cfg.window_radius + params.delta
    expected = params.lambda_p * math.pi * r_parent * r_parent
    # tested first, so a tiny density never divides the budget to inf
    if expected * cfg.replicates <= _PARENT_BUDGET:
        return cfg.replicates
    return max(1, int(_PARENT_BUDGET // expected))


def _ensemble_threads(chunks: int) -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_THREADS, cpus, chunks)


def _thin_chunk(params: HardCoreParams, cfg: SimulationConfig,
                chunk_start: int, chunk: int, palm: bool):
    """Draw and thin Palm (palm) or windowed replicates [chunk_start,
    chunk_start + chunk) in one pass: a KD-tree pair search, or for type I
    at lambda_p*delta**2 >= _DENSE_TYPE1 the cell test (_alone_in_window).
    Returns (points, radii, keep, rep_local, marks): every parent drawn,
    its distance from the origin, True where it is retained and in the
    window, its replicate's index in the chunk, and its mark (marks is None
    unless type II). Each replicate only draws its uniforms; the geometry
    is formed once per chunk (_palm_parents).

    A Palm type II replicate's origin is no row of the pair search. It
    would only kill the parents i with x_i**2 + y_i**2 < delta**2 (the
    pair test, with dx = x_i exactly) and a larger mark; its own fate is
    known, and the parents' pairs do not depend on it. So those parents
    are killed directly, with the same result to the bit."""
    delta, r_window = params.delta, cfg.window_radius
    with_origin = palm and params.kind is ProcessKind.MATERN_II
    blocks = []
    origin_marks = [] if with_origin else None
    for j in range(chunk):
        interior, exterior, origin_mark = _draw_palm_parent(
            params, cfg, replicate_rng(cfg.seed, chunk_start + j), palm)
        if with_origin:
            blocks.append(interior)
            origin_marks.append(origin_mark)
        blocks.append(exterior)

    rsq, theta, marks, rep_local = _palm_parents(params, cfg, blocks,
                                                 origin_marks, palm)
    r = np.sqrt(rsq)
    points = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    radii = np.hypot(points[:, 0], points[:, 1])
    if (params.kind is ProcessKind.MATERN_I
            and params.lambda_p * delta * delta >= _DENSE_TYPE1):
        keep = _alone_in_window(points, rep_local, chunk, radii, delta, r_window)
        return points, radii, keep, rep_local, None
    spacing = 2.0 * (r_window + delta) + 2.0 * delta + 1.0
    shifted = points.copy()
    shifted[:, 0] += rep_local * spacing
    dead = _dead_mask(params, points, marks, shifted)
    if with_origin:
        x, y = points.T
        dead |= ((x * x + y * y < delta * delta)
                 & (np.asarray(origin_marks)[rep_local] < marks))
    keep = ~dead & (radii <= r_window)
    return points, radii, keep, rep_local, marks


def _ensemble_chunk(params: HardCoreParams, cfg: SimulationConfig, palm: bool,
                    size: int, reduce, chunk_start: int):
    """Draw and thin replicates [chunk_start, chunk_start + size), as
    _thin_chunk does, and reduce the retained in-window points (see
    _ensemble, which sizes chunks by their expected parents)."""
    chunk = min(size, cfg.replicates - chunk_start)
    _, radii, keep, rep_local, _ = _thin_chunk(params, cfg, chunk_start, chunk,
                                               palm)
    return reduce(radii[keep], rep_local[keep], chunk_start, chunk)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _mean_se(samples: np.ndarray):
    """The mean of per-replicate samples (along axis 0) and its standard
    error, zero for a single replicate."""
    n = len(samples)
    mean = np.mean(samples, axis=0)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, np.std(samples, axis=0, ddof=1) / math.sqrt(n)


def interference_estimate_from_ensemble(
        ens: PalmEnsemble, params: HardCoreParams, pathloss: PathLossModel,
        tail_policy: TailPolicy = TailPolicy.ANALYTIC_TAIL) -> InterferenceEstimate:
    """Mean interference (with 95% CI) from an already-sampled ensemble."""
    contributions = np.asarray(pathloss(ens.radii), dtype=float)
    per_rep = np.bincount(ens.rep_ids, weights=contributions,
                          minlength=ens.replicates)
    tail = 0.0
    if tail_policy is TailPolicy.ANALYTIC_TAIL:
        # unbiased: the pair correlation is exactly Poisson beyond 2*delta,
        # and the window never ends inside the transition annulus
        tail = _TWO_PI * intensity(params) * pathloss.radial_integral(
            ens.window_radius, math.inf)
    mean, std_error = _mean_se(per_rep)
    mean = float(mean) + tail
    std_error = float(std_error)
    return InterferenceEstimate(
        mean=mean,
        std_error=std_error,
        ci_low=mean - _Z95 * std_error,
        ci_high=mean + _Z95 * std_error,
        replicates=ens.replicates,
        tail_correction=tail,
    )


def intensity_estimate_from_ensemble(
        ens: PalmEnsemble,
        params: Optional[HardCoreParams] = None) -> tuple[float, float]:
    """(intensity, standard error) from counts in the annulus between
    2*delta and the window radius, where the expected Palm count is exactly
    the intensity times the annulus area. The ensemble carries its window
    and delta, so ``params`` is not needed."""
    r_out, delta = ens.window_radius, ens.delta
    area = math.pi * (r_out * r_out - 4.0 * delta * delta)
    if area <= 0:
        raise ValidationError("window too small for the intensity annulus")
    in_annulus = ens.radii > 2.0 * delta
    counts = np.bincount(ens.rep_ids[in_annulus], minlength=ens.replicates)
    mean, std_error = _mean_se(counts)
    return float(mean) / area, float(std_error) / area


def estimate_mean_interference(params: HardCoreParams, pathloss: PathLossModel,
                               cfg: SimulationConfig) -> InterferenceEstimate:
    """Palm Monte Carlo estimate of the mean interference at the typical
    point: sample, sum the path loss within the window, and add the
    analytic tail beyond it (zero under TailPolicy.TRUNCATE_ONLY)."""
    ens = run_palm_ensemble(params, cfg)
    return interference_estimate_from_ensemble(ens, params, pathloss,
                                               cfg.tail_policy)


class KFunctionEstimate(_Record):
    """Empirical K-function over an ensemble of Palm patterns."""

    radii: np.ndarray
    k_values: np.ndarray
    std_errors: np.ndarray
    intensity_estimate: float
    replicates: int


def estimate_k_function(ens: PalmEnsemble,
                        radii: Sequence[float]) -> KFunctionEstimate:
    """Empirical normalized count of points within each radius, averaged
    over the ensemble's Palm replicates and divided by the empirical
    intensity (from the exactly-Poisson annulus beyond 2*delta, see
    intensity_estimate_from_ensemble).

    Standard errors cover the count average only; the intensity estimate's
    own error is an order of magnitude smaller in the intended regimes.
    """
    r_grid = np.asarray(radii, dtype=float)
    if (r_grid.ndim != 1 or r_grid.size == 0
            or not np.all(np.isfinite(r_grid) & (r_grid >= 0))):
        raise ValidationError(
            "radii must be a nonempty 1-d grid of finite r >= 0")
    if np.any(r_grid > ens.window_radius):
        raise ValidationError("radii beyond the window would be truncated")
    lam_hat, _ = intensity_estimate_from_ensemble(ens)
    if lam_hat <= 0:
        raise ValidationError("no points beyond 2*delta; cannot normalize")

    n = ens.replicates
    counts = np.empty((n, r_grid.size))
    for j, r in enumerate(r_grid):
        counts[:, j] = np.bincount(ens.rep_ids[ens.radii <= r], minlength=n)
    mean, std_error = _mean_se(counts)
    return KFunctionEstimate(radii=r_grid, k_values=mean / lam_hat,
                             std_errors=std_error / lam_hat,
                             intensity_estimate=lam_hat, replicates=n)


def estimate_intensity(params: HardCoreParams,
                       cfg: SimulationConfig) -> tuple[float, float]:
    """(intensity, standard error) from windowed replicates (sample_window)
    by counting the points at least delta inside the window edge, where
    the thinning decision is exact, over the area they lie in."""
    _check_window(params, cfg)
    core_radius = cfg.window_radius - params.delta
    core_area = math.pi * core_radius * core_radius
    # counted chunk by chunk, so memory does not grow with the replicates
    counts, = _ensemble(params, cfg, False, partial(_count_within, core_radius))
    mean, std_error = _mean_se(counts / core_area)
    return float(mean), float(std_error)
