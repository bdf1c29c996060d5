"""Thinning semantics, Palm sampling, and the Monte Carlo estimators.

Definitional cases are tiny hand-built patterns; statistical checks run at
pinned seeds with wide (4 standard error) acceptance bands so they are
deterministic yet still sensitive to real bias.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.spatial.distance import pdist

from matern_interference import simulate
from matern_interference.analytic import k_function
from matern_interference.errors import ValidationError
from matern_interference.interference import mean_interference_quadrature
from matern_interference.models import (
    HardCoreParams,
    PointPattern,
    PowerLawPathLoss,
    ProcessKind,
    intensity,
)
from matern_interference.simulate import (
    SimulationConfig,
    TailPolicy,
    default_window_radius,
    estimate_intensity,
    estimate_k_function,
    estimate_mean_interference,
    intensity_estimate_from_ensemble,
    interference_estimate_from_ensemble,
    replicate_rng,
    run_palm_ensemble,
    sample_palm,
    sample_window,
)


def thin(points, params, marks=None):
    """The points, and their marks, that the thinning rule (_dead_mask)
    keeps."""
    points = np.asarray(points, dtype=float)
    marks = None if marks is None else np.asarray(marks, dtype=float)
    dead = simulate._dead_mask(params, points, marks)
    return PointPattern(points=points[~dead], window_radius=10.0,
                        marks=None if marks is None else marks[~dead])


def window_parents(params, window, seed, replicate=0):
    """(points, marks) of every parent a windowed replicate draws, before
    thinning: the windowed pass on a chunk of one."""
    cfg = SimulationConfig(window_radius=window, replicates=1, seed=seed)
    points, _, _, _, marks = simulate._thin_chunk(params, cfg, replicate, 1,
                                                  False)
    if params.kind is ProcessKind.MATERN_I:
        # type I thinning carries no marks; the draw has none either
        assert marks is None
    return points, marks


def type1(delta):
    return HardCoreParams(1.0, delta, ProcessKind.MATERN_I)


def type2(delta):
    return HardCoreParams(1.0, delta, ProcessKind.MATERN_II)


# ---------------------------------------------------------------------------
# Thinning semantics
# ---------------------------------------------------------------------------


def test_thin_type1_removes_both_members_of_a_close_pair():
    out = thin([[0.0, 0.0], [0.5, 0.0]], type1(1.0))
    assert len(out) == 0


def test_thin_keeps_pairs_at_exactly_delta():
    pts = [[0.0, 0.0], [1.0, 0.0]]
    assert len(thin(pts, type1(1.0))) == 2
    assert len(thin(pts, type2(1.0), marks=[0.3, 0.6])) == 2


def test_thin_type2_keeps_smaller_mark():
    out = thin([[0.0, 0.0], [0.5, 0.0]], type2(1.0), marks=[0.2, 0.7])
    assert len(out) == 1
    assert out.points[0, 0] == 0.0
    assert out.marks[0] == 0.2


def test_thin_type2_chain_dead_points_still_kill():
    # B dies to A, yet C still dies to B: the contest uses parent points,
    # not survivors
    pts = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    out = thin(pts, type2(1.0), marks=[0.1, 0.2, 0.3])
    assert out.points.tolist() == [[0.0, 0.0]]
    # with the smallest mark in the middle only the middle point survives
    out = thin(pts, type2(1.0), marks=[0.3, 0.1, 0.2])
    assert out.points.tolist() == [[0.9, 0.0]]


def test_thin_type1_chain_removes_all():
    pts = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    assert len(thin(pts, type1(1.0))) == 0


def test_thin_delta_zero_keeps_everything():
    pts = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
    assert len(thin(pts, type1(0.0))) == 3
    assert len(thin(pts, type2(0.0), marks=[0.1, 0.2, 0.3])) == 3


def test_type1_survivors_are_a_subset_of_type2_survivors():
    points, marks = window_parents(
        HardCoreParams(2.0, 0.7, ProcessKind.MATERN_II), 8.0, 42)
    t1 = thin(points, type1(0.7))
    t2 = thin(points, type2(0.7), marks=marks)
    assert len(t1) <= len(t2) <= len(points)
    t2_rows = {(x, y) for x, y in t2.points}
    assert all((x, y) in t2_rows for x, y in t1.points)
    # both survivor sets honor the hard core
    assert pdist(t1.points).min(initial=math.inf) >= 0.7
    assert pdist(t2.points).min(initial=math.inf) >= 0.7


# ---------------------------------------------------------------------------
# Dense type I thinning by cells (_alone_in_window)
# ---------------------------------------------------------------------------


def pair_path_keep(points, rep_local, radii, delta, r_window):
    """The keep mask of the KD-tree pair path, one replicate at a time."""
    params = type1(delta)
    dead = np.zeros(len(points), dtype=bool)
    for rep in np.unique(rep_local):
        at = rep_local == rep
        dead[at] = simulate._dead_mask(params, points[at], None)
    return ~dead & (radii <= r_window)


def assert_cells_match_pairs(points, rep_local, delta, r_window):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    rep_local = np.asarray(rep_local, dtype=np.intp)
    radii = np.hypot(points[:, 0], points[:, 1])
    chunk = int(rep_local.max(initial=-1)) + 1
    keep = simulate._alone_in_window(points, rep_local, chunk, radii, delta,
                                     r_window)
    want = pair_path_keep(points, rep_local, radii, delta, r_window)
    assert keep.dtype == bool and keep.shape == (len(points),)
    assert np.array_equal(keep, want), np.flatnonzero(keep != want)
    return keep


@pytest.mark.parametrize("density", [1.0, 2.0, 5.0, 20.0])
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_cell_thinning_matches_the_pair_path_on_whole_chunks(density, delta):
    params = HardCoreParams(density / delta**2, delta, ProcessKind.MATERN_I)
    for window in (3.0 * delta, 7.0 * delta, default_window_radius(params)):
        cfg = SimulationConfig(window_radius=window, replicates=10**6,
                               seed=int(10 * density))
        chunk = simulate._chunk_replicates(params, cfg)
        points, radii, keep, rep_local, marks = simulate._thin_chunk(
            params, cfg, 5 * chunk, chunk, True)
        assert marks is None
        assert np.array_equal(
            keep, pair_path_keep(points, rep_local, radii, delta, window))
        # the dense cases do retain points, in and beyond 2*delta
        if density <= 2.0:
            assert np.any(keep & (radii > 2.0 * delta))


@pytest.mark.parametrize("lam_p, delta, kind, cells", [
    (2.0, 1.0, ProcessKind.MATERN_I, True),
    (1.0, 1.0, ProcessKind.MATERN_I, True),
    (0.25, 2.0, ProcessKind.MATERN_I, True),
    (1.5, 0.8, ProcessKind.MATERN_I, False),
    (2.0, 0.5, ProcessKind.MATERN_I, False),
    (2.0, 1.0, ProcessKind.MATERN_II, False),
    (2.0, 1.0, ProcessKind.POISSON_HOLE, False),
    (2.0, 0.0, ProcessKind.MATERN_I, False),
])
def test_cell_thinning_is_taken_by_dense_type1_only(lam_p, delta, kind, cells,
                                                    monkeypatch):
    # _thin_chunk looks the cell path up at call time, so it can be wrapped
    calls = []
    cell_path = simulate._alone_in_window

    def recorded(*args):
        calls.append(args[2])
        return cell_path(*args)

    monkeypatch.setattr(simulate, "_alone_in_window", recorded)
    cfg = SimulationConfig(window_radius=max(3.0 * delta, 3.0), replicates=3)
    run_palm_ensemble(HardCoreParams(lam_p, delta, kind), cfg)
    assert calls == ([3] if cells else [])


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_cell_thinning_is_strict_at_delta(delta):
    # delta is a power of two, so a gap of delta squares to exactly delta**2
    # and the next float below it to less. The replicates overlap, as every
    # chunk's do: each is decided on its own.
    below = np.nextafter(delta, 0.0)
    points = [[0.0, 0.0], [0.0, delta], [0.0, 0.0], [0.0, below],
              [0.0, 0.0], [delta, 0.0], [0.0, 0.0], [-below, 0.0]]
    keep = assert_cells_match_pairs(points, [0, 0, 1, 1, 2, 2, 3, 3], delta,
                                    100.0 * delta)
    assert keep.tolist() == [True, True, False, False] * 2


def test_cell_thinning_edge_cases():
    delta, window = 1.0, 7.0
    outer = window + delta
    # coincident points die, three at once as well as two
    keep = assert_cells_match_pairs([[3.0, 1.0], [3.0, 1.0], [4.0, 4.0],
                                     [4.0, 4.0], [4.0, 4.0], [-4.0, 0.5]],
                                    [0] * 6, delta, window)
    assert keep.tolist() == [False] * 5 + [True]
    # points at the parent radius +-R, and at the window's edge +-W exactly
    # delta from them, are decided like any other: the edge is inclusive,
    # points beyond it are never kept, and they still kill those inside
    points = [[outer, 0.0], [-outer, 0.0], [0.0, outer], [0.0, -outer],
              [window, 0.0], [-window, 0.0],
              [0.0, 6.95], [0.0, 7.9], [0.0, -window], [0.5, -window - 0.3]]
    keep = assert_cells_match_pairs(points, [0] * len(points), delta, window)
    assert keep.tolist() == [False] * 4 + [True, True] + [False] * 4
    # a chunk of one replicate, with nothing in its window
    keep = assert_cells_match_pairs([[7.5, 0.0], [0.0, -7.9]], [0, 0], delta,
                                    window)
    assert not keep.any()
    # a replicate with nothing in its window, and one with no points at
    # all, between two that keep points; replicate 3's second point is
    # within delta of replicate 0's, which must not reach it
    points = [[4.0, 0.0], [7.5, 0.0], [7.6, 0.3], [-4.0, 0.0], [4.2, 0.5]]
    keep = assert_cells_match_pairs(points, [0, 1, 1, 3, 3], delta, window)
    assert keep.tolist() == [True, False, False, True, True]
    # no points at all
    assert_cells_match_pairs(np.empty((0, 2)), [], delta, window)


@pytest.mark.parametrize("delta", [0.5, 1.0, 0.7])
def test_cell_thinning_at_cell_corners(delta):
    # For every cell offset (a, b) within four cells, one replicate holds a
    # point at the corner of its cell nearest to cell (a, b) and one at the
    # nearest corner of cell (a, b): that pair must die iff the cells' gap
    # is below delta, so every such cell must be searched. A second
    # replicate puts the pair at the corners farthest apart: edge-adjacent
    # cells then hold points just inside delta, and diagonal ones points
    # beyond it, so the cell test must reach no further than delta.
    side = simulate._CELL * delta
    lo, hi = 12.001, 12.999   # in cells, the grid's origin at (0, 0)

    def near(a):
        return (hi if a > 0 else lo if a < 0 else 12.5,
                a + (lo if a > 0 else hi if a < 0 else 12.5))

    def far(a):
        return (lo, a + hi) if a >= 0 else (hi, a + lo)

    points, rep_local = [[0.0, 0.0]], [0]
    for a in range(-4, 5):
        for b in range(-4, 5):
            for corners in (near, far):
                if a == b == 0:
                    continue
                (px, qx), (py, qy) = corners(a), corners(b)
                points += [[px * side, py * side], [qx * side, qy * side]]
                rep_local += [rep_local[-1] + 1] * 2
    points = np.array(points)
    keep = assert_cells_match_pairs(points, rep_local, delta, 100.0 * delta)
    assert keep[0]
    dx, dy = (points[1::2] - points[2::2]).T
    alive = ~(dx * dx + dy * dy < delta * delta)
    assert np.array_equal(keep[1::2], alive)
    assert np.array_equal(keep[2::2], alive)
    gap = np.hypot(dx, dy)
    assert np.any(gap < delta) and np.any((gap > delta) & (gap < 1.3 * delta))


# ---------------------------------------------------------------------------
# Parent sampling and streams
# ---------------------------------------------------------------------------


def test_replicate_rng_streams_are_deterministic_and_distinct():
    a = replicate_rng(5, 3).random(4)
    b = replicate_rng(5, 3).random(4)
    c = replicate_rng(5, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# one-word and two-word values of SeedSequence's 32-bit entropy words, with
# the ends of each range
_UINT64_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                          st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]))


@given(seed=_UINT64_WORDS, replicate=_UINT64_WORDS)
@settings(max_examples=500)
def test_replicate_rng_is_the_seed_sequence_stream(seed, replicate):
    # the seed words are computed without SeedSequence; the generator must
    # be NumPy's, state for state
    want = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))
    rng = replicate_rng(seed, replicate)
    assert rng.bit_generator.state == want.state
    assert rng.random() == np.random.Generator(want).random()


def test_replicate_rng_leaves_other_values_to_seed_sequence():
    with pytest.raises(ValueError, match="non-negative"):
        replicate_rng(-1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        replicate_rng(0, -1)
    # past 2**64, and NumPy integers, take SeedSequence's own path
    for seed, replicate in [(2**64, 3), (np.uint64(5), 3), (5, np.int64(3))]:
        want = np.random.PCG64(np.random.SeedSequence(entropy=seed,
                                                      spawn_key=(replicate,)))
        assert replicate_rng(seed, replicate).bit_generator.state == want.state


def test_window_parent_basic_properties():
    points, marks = window_parents(type2(1.0), 6.0, 1)
    assert len(points) > 0
    assert np.all(np.hypot(points[:, 0], points[:, 1]) <= 6.0)
    assert np.all((marks >= 0.0) & (marks < 1.0))
    assert len(np.unique(marks)) == len(points)
    # marks are drawn for type II only
    assert window_parents(type1(1.0), 6.0, 1)[1] is None
    pat = sample_window(type2(1.0), SimulationConfig(6.0, 1, 1))
    assert pat.window_radius == 6.0


def test_window_parent_count_matches_intensity():
    params = HardCoreParams(3.0, 1.0, ProcessKind.MATERN_I)
    counts = [len(window_parents(params, 5.0, 8, k)[0]) for k in range(200)]
    want = 3.0 * math.pi * 25.0
    se = math.sqrt(want / 200.0)
    assert abs(float(np.mean(counts)) - want) < 4.0 * se


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_window_parent_draws_count_radii_angles_marks_in_order(kind):
    # the windowed stream's bitwise pin: separate uniform(lo, hi, n) draws
    # of the squared radii, the angles and the marks, in that order
    params = HardCoreParams(1.5, 0.5, kind)
    points, marks = window_parents(params, 4.0, 5, replicate=2)
    rng = replicate_rng(5, 2)
    n = int(rng.poisson(1.5 * math.pi * 16.0))
    r = np.sqrt(rng.uniform(0.0, 16.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    assert len(points) == n > 0
    assert np.array_equal(points,
                          np.column_stack((r * np.cos(theta), r * np.sin(theta))))
    if kind is ProcessKind.MATERN_II:
        assert np.array_equal(marks, rng.uniform(0.0, 1.0, n))
    else:
        assert marks is None


def test_window_parent_is_uniform_on_the_disk():
    points, _ = window_parents(type1(1.0), 5.0, 17)
    assert len(points) > 50
    # uniform area density: (r/W)^2 and the angle over 2*pi are U(0, 1)
    radii = np.hypot(points[:, 0], points[:, 1])
    angles = np.arctan2(points[:, 1], points[:, 0]) % (2.0 * math.pi)
    for u in ((radii / 5.0) ** 2, angles / (2.0 * math.pi)):
        assert stats.kstest(u, "uniform").pvalue > 1e-3


def test_simulation_config_validation():
    for window in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="window_radius"):
            SimulationConfig(window_radius=window)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, replicates=0)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, replicates=2.5)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, seed=-1)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, seed=2**64)
    # bool is an int, but True is no window radius, replicate count or seed
    for flag in (True, False):
        with pytest.raises(ValidationError, match="window_radius"):
            SimulationConfig(window_radius=flag)
        with pytest.raises(ValidationError, match="replicates"):
            SimulationConfig(5.0, flag)
        with pytest.raises(ValidationError, match="seed"):
            SimulationConfig(window_radius=5.0, seed=flag)
    assert SimulationConfig(5.0, 1, 1).replicates == 1


def test_window_must_reach_three_delta():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError, match="3\\*delta"):
        sample_palm(params, SimulationConfig(window_radius=2.5))
    sample_palm(params, SimulationConfig(window_radius=3.0))
    with pytest.raises(ValidationError, match="3\\*delta"):
        estimate_intensity(params, SimulationConfig(window_radius=2.5))
    # a single windowed pattern takes any window
    assert len(sample_window(params, SimulationConfig(window_radius=2.5))) > 0
    assert default_window_radius(params) == pytest.approx(20.0, rel=1e-12)
    dense = HardCoreParams(4.0, 2.0, ProcessKind.MATERN_I)
    assert default_window_radius(dense) == pytest.approx(20.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Palm sampling
# ---------------------------------------------------------------------------


def test_sample_palm_is_deterministic_per_replicate():
    params = HardCoreParams(1.5, 0.8, ProcessKind.MATERN_II)
    cfg = SimulationConfig(window_radius=6.0, seed=3)
    a = sample_palm(params, cfg, replicate=2)
    b = sample_palm(params, cfg, replicate=2)
    c = sample_palm(params, cfg, replicate=5)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.marks, b.marks)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("kind, lam_p, delta", [
    pytest.param(ProcessKind.MATERN_I, 2.0, 0.5, id="ProcessKind.MATERN_I"),
    pytest.param(ProcessKind.MATERN_II, 2.0, 0.5, id="ProcessKind.MATERN_II"),
    # lambda_p*delta**2 = 2: thinned by cells, not pairs
    pytest.param(ProcessKind.MATERN_I, 2.0, 1.0, id="ProcessKind.MATERN_I-dense"),
])
def test_sample_palm_respects_hard_core_and_origin(kind, lam_p, delta):
    params = HardCoreParams(lam_p, delta, kind)
    cfg = SimulationConfig(window_radius=6.0, seed=5)
    retained = 0
    for rep in range(12):
        pat = sample_palm(params, cfg, replicate=rep)
        retained += len(pat)
        if len(pat) == 0:
            continue
        # the origin holds a retained point, so nothing lives within delta
        assert float(np.min(pat.radii)) >= delta
        assert float(np.max(pat.radii)) <= 6.0
        assert pdist(pat.points).min(initial=math.inf) >= delta
    assert retained > 0


def seam_replicates(params, cfg):
    """The first and last replicate of an ensemble, and those on both sides
    of each seam between the chunks it is thinned in."""
    size = simulate._chunk_replicates(params, cfg)
    last = cfg.replicates - 1
    return sorted({0, last} | {seam + side
                               for seam in range(size, cfg.replicates, size)
                               for side in (-1, 0)})


# the ensembles of the bitwise tests below, Palm and windowed:
# lambda_p*delta**2 = 0.96 is thinned by pairs, and the dense type I case,
# at 2, by cells
ENSEMBLE_CASES = [
    pytest.param(ProcessKind.POISSON_HOLE, 1.5, 0.8,
                 id="ProcessKind.POISSON_HOLE"),
    pytest.param(ProcessKind.MATERN_I, 1.5, 0.8, id="ProcessKind.MATERN_I"),
    pytest.param(ProcessKind.MATERN_II, 1.5, 0.8, id="ProcessKind.MATERN_II"),
    pytest.param(ProcessKind.MATERN_I, 2.0, 1.0, id="ProcessKind.MATERN_I-dense"),
]


def test_chunk_sizing_rule():
    budget = simulate._PARENT_BUDGET
    # the last two: lambda_p = 100, W = 20 holds about 138k parents per
    # replicate, and a density so small that one chunk takes everything
    for lam_p, delta, window, reps in [(1.5, 0.8, 6.0, 600), (2.0, 1.0, 20.0, 512),
                                       (2.0, 0.5, 4.0, 100_000), (0.01, 1.0, 3.0, 50),
                                       (4.0, 0.0, 5.0, 1000), (100.0, 0.5, 20.0, 128),
                                       (1e-300, 1.0, 3.0, 10**6)]:
        params = HardCoreParams(lam_p, delta, ProcessKind.MATERN_II)
        cfg = SimulationConfig(window_radius=window, replicates=reps)
        size = simulate._chunk_replicates(params, cfg)
        expected = lam_p * math.pi * (window + delta) ** 2
        assert 1 <= size <= reps
        if expected <= budget:
            # as many as the budget holds, and no fewer
            assert size * expected <= budget
            assert size == reps or (size + 1) * expected > budget
        else:
            assert size == 1
    # the bitwise test below crosses several seams in each case
    for case in ENSEMBLE_CASES:
        kind, lam_p, delta = case.values
        cfg = SimulationConfig(window_radius=6.0, replicates=600)
        assert len(seam_replicates(HardCoreParams(lam_p, delta, kind), cfg)) > 6


@pytest.mark.parametrize("kind, lam_p, delta", ENSEMBLE_CASES)
def test_ensemble_matches_per_replicate_sampling_bitwise(kind, lam_p, delta):
    params = HardCoreParams(lam_p, delta, kind)
    cfg = SimulationConfig(window_radius=6.0, replicates=16, seed=3)
    ens = run_palm_ensemble(params, cfg)
    assert ens.replicates == 16
    assert ens.window_radius == 6.0
    assert ens.delta == delta
    assert ens.radii.size > 0
    for rep in range(16):
        from_ens = np.sort(ens.radii[ens.rep_ids == rep])
        pat = sample_palm(params, cfg, replicate=rep)
        assert np.array_equal(from_ens, np.sort(pat.radii)), rep
    assert ens.acceptance_rate is None
    # the benchmark's per-replicate digest still multiplies by these
    assert np.array_equal(ens.weights, np.ones(ens.radii.size))

    # several chunks, on more than one thread where the machine has the cores
    cfg = SimulationConfig(window_radius=6.0, replicates=600, seed=3)
    ens = run_palm_ensemble(params, cfg)
    assert np.all(np.diff(ens.rep_ids) >= 0)
    for rep in seam_replicates(params, cfg):
        in_rep = ens.rep_ids == rep
        pat = sample_palm(params, cfg, replicate=rep)
        assert np.array_equal(ens.radii[in_rep], pat.radii), rep


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_ensemble_is_the_same_at_any_chunk_size(kind, monkeypatch):
    params = HardCoreParams(1.5, 0.8, kind)
    cfg = SimulationConfig(window_radius=6.0, replicates=40, seed=11)
    expected = params.lambda_p * math.pi * (6.0 + 0.8) ** 2
    ensembles = []
    # one replicate per chunk, an odd size that leaves a short last chunk,
    # and one chunk for everything
    for budget, size in [(1, 1), (math.ceil(7 * expected), 7), (2**62, 40)]:
        monkeypatch.setattr(simulate, "_PARENT_BUDGET", budget)
        assert simulate._chunk_replicates(params, cfg) == size
        ensembles.append(run_palm_ensemble(params, cfg))
    first = ensembles[0]
    for ens in ensembles[1:]:
        assert np.array_equal(ens.radii, first.radii)
        assert np.array_equal(ens.rep_ids, first.rep_ids)


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_ensemble_decides_pairs_on_untranslated_coordinates(kind, monkeypatch):
    # Every replicate gets the same parents: two pairs just inside delta = 1,
    # so that both points of each pair die (type II: the larger mark dies).
    # Chunks translate replicates along x by up to thousands, and rounding
    # the translation moves a gap by up to an ulp of that: pair A's gap
    # rounds up to exactly delta, which a decision on translated
    # coordinates lets live; pair B's distance rounds above delta at some
    # positions, where a search radius of exactly delta misses the pair.
    points = np.array([[2.0, 0.0], [3.0 - 1e-13, 0.0],               # A
                       [-4.0, 2.0], [-4.0 + 0.6 - 1e-14, 2.8]])      # B
    rsq = np.einsum("ij,ij->i", points, points)
    theta = np.arctan2(points[:, 1], points[:, 0])
    # the uniforms that _palm_parents maps to these squared radii and
    # angles, between delta = 1 and the parent radius 8
    block = [(rsq - 1.0) / 63.0, theta / (2.0 * math.pi)]
    interior = origin_mark = None
    if kind is ProcessKind.MATERN_II:
        block.append(np.array([0.2, 0.3, 0.4, 0.5]))
        interior, origin_mark = np.empty(0), 0.1
    exterior = np.concatenate(block)

    def fixed_parents(params, cfg, rng, palm):
        assert palm
        return interior, exterior, origin_mark

    monkeypatch.setattr(simulate, "_draw_palm_parent", fixed_parents)
    params = HardCoreParams(1.0, 1.0, kind)
    cfg = SimulationConfig(window_radius=7.0, replicates=600, seed=0)
    # the parents as drawn are still both pairs just inside delta
    drawn = simulate._thin_chunk(params, cfg, 0, 1, True)[0]
    gaps = np.hypot(*(drawn[0::2] - drawn[1::2]).T)
    assert np.all((gaps < 1.0) & (gaps > 1.0 - 1e-12)), gaps
    # chunks of 128 replicates, whatever the parent budget: chunks of 20 or
    # fewer translate too little for either fault to show
    expected = math.pi * (7.0 + 1.0) ** 2
    monkeypatch.setattr(simulate, "_PARENT_BUDGET", math.ceil(128 * expected))
    assert simulate._chunk_replicates(params, cfg) == 128
    want = sample_palm(params, cfg, replicate=0).radii
    assert want.size == (0 if kind is ProcessKind.MATERN_I else 2)
    ens = run_palm_ensemble(params, cfg)
    counts = np.bincount(ens.rep_ids, minlength=600)
    assert np.all(counts == want.size), np.flatnonzero(counts != want.size)
    assert np.array_equal(ens.radii, np.tile(want, 600))


# sha256 of radii and rep_ids (little-endian float64 / int64) of
# 600-replicate ensembles: the six criterion-6 parameter sets at their
# seeds, and one more type II set. These pin the random stream itself,
# which the bitwise test above cannot see because both of its sides share
# the Palm draw. Recorded with NumPy 2.4 on x86-64; a NumPy with other
# samplers or trigonometric functions may differ.
STREAM_DIGESTS = [
    ((ProcessKind.MATERN_I, 1.0, 1.0, 7.0, 10), 4016,
     "94acadbf6f315c8c8f898f3c104a039e52cdf0fd73d56764e62c06c2e92c911a",
     "fce1323c83090ad3250d838a1b1b6b66ce8117417b47c1004373157ff56bb12b"),
    ((ProcessKind.MATERN_II, 1.0, 1.0, 7.0, 13), 27597,
     "1c7f58af8daf192ea9acc3d95aa37f75893dcf5bf11694551dfb2d12f68e1601",
     "1023ba21236355a38c05e3f01f50cf5a9b6e1d759ae076127d56f757614b6745"),
    ((ProcessKind.MATERN_I, 2.0, 0.5, 4.0, 21), 12711,
     "4dfe3454c982d3cc522ba37758624a5ff3109cb05927ccb53e36f3d4a2c2dcc1",
     "a0ded5fc3880108fc3a7062dd3e8c8bd4b8874c2b8ad6ca3165c9c63a2019fde"),
    ((ProcessKind.MATERN_II, 2.0, 0.5, 4.0, 14), 30049,
     "cfdf724b71bf164d780514e2ea20105a15a2e319e2b4e3f34d6b69c2cbee5253",
     "d8cf6f35e417ceb0ae5b015e3cc7fc713038d538753e34e2de24bca607c64444"),
    ((ProcessKind.MATERN_I, 2.0, 1.0, 7.0, 12), 402,
     "764d4d0b1530081cf90d1eef076c6fd4e5ec1d13eef0e3c1ff4b6adb8d8092c8",
     "785ffc2d967f9dfdddc37c4319bc7a69814a15e48137a9b72e0721048a6e0078"),
    ((ProcessKind.MATERN_II, 2.0, 1.0, 5.0, 25), 14396,
     "d7ed368c6b819e6ea6d93b0411a0dc7c67b3f2b5cd85c241dbf0df1523d94d02",
     "f63bc2ff056a5f183e6ded4e321b2d2fc32f0ef294f8cebb2ea124406cecc9eb"),
    ((ProcessKind.MATERN_II, 1.5, 0.8, 6.0, 3), 31568,
     "72fcf6f42a8023107378b26238ef517303b925fbfef201386c9dd24633adc3e9",
     "d77362f52853fb5ac9c5c260a1644eaa2a648601c95acde459cf39d11de1929d"),
]


@pytest.mark.parametrize(
    "case, size, radii, rep_ids", STREAM_DIGESTS,
    ids=[f"{kind.name}-{lam}-{delta}-w{window}-s{seed}"
         for (kind, lam, delta, window, seed), *_ in STREAM_DIGESTS])
def test_ensemble_stream_is_pinned(case, size, radii, rep_ids):
    kind, lam, delta, window, seed = case
    cfg = SimulationConfig(window_radius=window, replicates=600, seed=seed)
    ens = run_palm_ensemble(HardCoreParams(lam, delta, kind), cfg)

    def digest(values, dtype):
        return hashlib.sha256(
            np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()

    assert ens.radii.size == size
    assert digest(ens.radii, "<f8") == radii
    assert digest(ens.rep_ids, "<i8") == rep_ids
    assert ens.acceptance_rate is None


def test_type2_palm_origin_mark_and_interior_follow_the_palm_law():
    # Under the Palm law of a type II process the origin's mark has
    # distribution function F(m) = (1 - exp(-a*m)) / (1 - exp(-a)),
    # a = lambda_p*pi*delta^2, and given that mark the exclusion ball holds
    # Poisson(a*(1 - m)) parents, all with larger marks.
    from scipy import stats

    params = HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II)
    cfg = SimulationConfig(window_radius=2.0, replicates=4000, seed=11)
    a = params.lambda_p * math.pi * params.delta ** 2
    origin_marks = np.empty(cfg.replicates)
    interior = np.empty(cfg.replicates)
    for k in range(cfg.replicates):
        ball, beyond, origin_marks[k] = simulate._draw_palm_parent(
            params, cfg, replicate_rng(cfg.seed, k), True)
        rsq, _, marks, _ = simulate._palm_parents(
            params, cfg, [ball, beyond], [origin_marks[k]], True)
        inside = rsq < params.delta ** 2
        interior[k] = np.count_nonzero(inside)
        assert np.all(marks[inside] >= origin_marks[k])
    ks = stats.kstest(origin_marks,
                      lambda m: -np.expm1(-a * m) / -math.expm1(-a))
    assert ks.pvalue > 1e-3, ks
    mean_mark = 1.0 / a - 1.0 / math.expm1(a)  # E[m0] = 0.3742...
    want = a * (1.0 - mean_mark)
    se = np.std(interior, ddof=1) / math.sqrt(cfg.replicates)
    assert abs(np.mean(interior) - want) < 4.0 * se


@pytest.mark.parametrize("sample", [sample_palm, sample_window])
def test_sampled_replicate_must_be_a_nonnegative_int(sample):
    params = HardCoreParams(1.5, 0.8, ProcessKind.MATERN_II)
    cfg = SimulationConfig(window_radius=6.0, seed=3)
    # bool is an int, and True would sample replicate 1
    for bad in (-1, 1.5, True, False, "1", None, np.int64(1)):
        with pytest.raises(ValidationError, match="replicate"):
            sample(params, cfg, bad)
    assert np.array_equal(sample(params, cfg, 1).points,
                          sample(params, cfg, replicate=1).points)


@pytest.mark.parametrize("kind, lam_p, delta", ENSEMBLE_CASES)
def test_sample_window_keeps_what_the_rule_keeps(kind, lam_p, delta):
    # the windowed pass, cells or pairs, keeps exactly the parents that
    # the thinning rule keeps on that replicate's parents, in draw order
    params = HardCoreParams(lam_p, delta, kind)
    retained = 0
    for window, seed, replicate in [(6.0, 3, 0), (6.0, 3, 7), (2.0, 1, 4)]:
        cfg = SimulationConfig(window_radius=window, seed=seed)
        pat = sample_window(params, cfg, replicate)
        points, marks = window_parents(params, window, seed, replicate)
        alive = ~simulate._dead_mask(params, points, marks)
        assert np.array_equal(pat.points, points[alive])
        if kind is ProcessKind.MATERN_II:
            assert np.array_equal(pat.marks, marks[alive])
        else:
            assert pat.marks is None
        assert pat.window_radius == window
        retained += len(pat)
        if kind is not ProcessKind.POISSON_HOLE:
            assert pdist(pat.points).min(initial=math.inf) >= delta
    assert retained > 0


@pytest.mark.parametrize("kind, lam_p, delta", ENSEMBLE_CASES)
def test_windowed_ensemble_matches_sample_window(kind, lam_p, delta):
    # the ensemble estimate_intensity reduces, chunk seams included
    params = HardCoreParams(lam_p, delta, kind)
    cfg = SimulationConfig(window_radius=6.0, replicates=600, seed=5)
    radii, rep_ids = simulate._ensemble(params, cfg, palm=False)
    assert np.all(np.diff(rep_ids) >= 0)
    for rep in seam_replicates(params, cfg):
        pat = sample_window(params, cfg, rep)
        assert np.array_equal(radii[rep_ids == rep], pat.radii), rep


def test_dense_type2_palm_agrees_with_quadrature():
    # The thinning probability is 0.0318 here: a rejection sampler would
    # have needed about 31 attempts per replicate.
    params = HardCoreParams(10.0, 1.0, ProcessKind.MATERN_II)
    pathloss = PowerLawPathLoss(3.0)
    cfg = SimulationConfig(window_radius=3.0, replicates=2000, seed=1)
    ens = run_palm_ensemble(params, cfg)
    est = interference_estimate_from_ensemble(ens, params, pathloss)
    want = mean_interference_quadrature(params, pathloss)
    assert abs(est.mean - want) < 4.0 * est.std_error
    lam_hat, lam_se = intensity_estimate_from_ensemble(ens)
    assert abs(lam_hat - intensity(params)) < 4.0 * lam_se


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def test_interference_estimate_is_unbiased_for_type1():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    cfg = SimulationConfig(window_radius=12.0, replicates=400, seed=2)
    est = estimate_mean_interference(params, pathloss, cfg)
    want = mean_interference_quadrature(params, pathloss)
    assert est.replicates == 400
    assert est.std_error > 0.0
    assert est.tail_correction > 0.0
    assert est.ci_low <= est.mean <= est.ci_high
    assert abs(est.mean - want) < 4.0 * est.std_error


def test_truncation_only_drops_exactly_the_analytic_tail():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_II)
    pathloss = PowerLawPathLoss(3.0)
    cfg = SimulationConfig(window_radius=10.0, replicates=50, seed=4)
    with_tail = estimate_mean_interference(params, pathloss, cfg)
    cfg_trunc = SimulationConfig(cfg.window_radius, cfg.replicates, cfg.seed,
                                 TailPolicy.TRUNCATE_ONLY)
    truncated = estimate_mean_interference(params, pathloss, cfg_trunc)
    assert truncated.tail_correction == 0.0
    assert with_tail.tail_correction > 0.0
    assert truncated.mean + with_tail.tail_correction == pytest.approx(
        with_tail.mean, rel=1e-12)
    assert truncated.std_error == with_tail.std_error


def test_tail_correction_equals_poisson_tail_integral():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    cfg = SimulationConfig(window_radius=10.0, replicates=3, seed=0)
    est = estimate_mean_interference(params, pathloss, cfg)
    want = 2.0 * math.pi * intensity(params) * pathloss.radial_integral(
        10.0, math.inf)
    assert est.tail_correction == pytest.approx(want, rel=1e-14)


def test_std_error_shrinks_with_replicates():
    params = HardCoreParams(1.0, 0.5, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    small = estimate_mean_interference(
        params, pathloss, SimulationConfig(window_radius=8.0, replicates=150,
                                           seed=7))
    large = estimate_mean_interference(
        params, pathloss, SimulationConfig(window_radius=8.0, replicates=600,
                                           seed=7))
    ratio = large.std_error / small.std_error
    assert 0.3 < ratio < 0.8  # ideal is 0.5


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_stationary_intensity_estimate_matches_closed_form(kind):
    params = HardCoreParams(2.0, 0.5, kind)
    cfg = SimulationConfig(window_radius=20.0, replicates=150, seed=1)
    value, se = estimate_intensity(params, cfg)
    want = intensity(params)
    assert se > 0.0
    assert abs(value - want) < 4.0 * se
    assert abs(value - want) / want < 0.01


@pytest.mark.parametrize("kind, want", [
    (ProcessKind.MATERN_I, (0.41474180690810036, 0.0013138110948382922)),
    (ProcessKind.MATERN_II, (1.008172445649973, 0.0014309777845073676)),
])
def test_stationary_intensity_estimate_is_pinned(kind, want):
    # the values of the per-replicate windowed estimator this one replaced,
    # to the bit
    params = HardCoreParams(2.0, 0.5, kind)
    cfg = SimulationConfig(window_radius=20.0, replicates=150, seed=1)
    assert estimate_intensity(params, cfg) == want


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_stationary_intensity_counts_inclusively_at_w_minus_delta(kind,
                                                                  monkeypatch):
    # Every windowed replicate gets the same four parents, at least 7 apart:
    # at radius exactly W - delta = 6, just beyond it, at 4, and on the
    # window's edge at 8. The first and third are counted.
    window, delta = 8.0, 2.0
    u_rsq = np.array([36.0 / 64.0, np.nextafter(36.0 / 64.0, 1.0), 0.25, 1.0])
    u_theta = np.array([0.0, 0.5, 0.25, 0.75])  # angles 0, pi, pi/2, 3*pi/2
    block = [u_rsq, u_theta]
    if kind is ProcessKind.MATERN_II:
        block.append(np.array([0.4, 0.3, 0.2, 0.1]))
    exterior = np.concatenate(block)

    def fixed_parents(params, cfg, rng, palm):
        assert not palm
        return None, exterior, None

    monkeypatch.setattr(simulate, "_draw_palm_parent", fixed_parents)
    params = HardCoreParams(1.0, delta, kind)
    cfg = SimulationConfig(window_radius=window, replicates=2, seed=0)
    pat = sample_window(params, cfg)
    assert pat.radii.tolist() == [6.0, np.sqrt(64.0 * u_rsq[1]), 4.0, 8.0]
    assert pat.radii[1] > 6.0
    value, std_error = estimate_intensity(params, cfg)
    assert value == 2.0 / (math.pi * 6.0 * 6.0)
    assert std_error == 0.0


def test_palm_annulus_intensity_estimate():
    params = HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II)
    cfg = SimulationConfig(window_radius=6.0, replicates=800, seed=11)
    ens = run_palm_ensemble(params, cfg)
    value, se = intensity_estimate_from_ensemble(ens, params)
    want = intensity(params)
    assert se > 0.0
    assert abs(value - want) < 4.0 * se


def test_interference_estimate_reuses_ensemble():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    cfg = SimulationConfig(window_radius=10.0, replicates=40, seed=9)
    ens = run_palm_ensemble(params, cfg)
    direct = interference_estimate_from_ensemble(ens, params, pathloss,
                                                 cfg.tail_policy)
    wrapped = estimate_mean_interference(params, pathloss, cfg)
    assert direct.mean == wrapped.mean
    assert direct.std_error == wrapped.std_error


@pytest.mark.parametrize("policy", [TailPolicy.ANALYTIC_TAIL,
                                    TailPolicy.TRUNCATE_ONLY])
def test_interference_estimate_is_the_per_replicate_sum_of_path_loss(policy):
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_II)
    pathloss = PowerLawPathLoss(4.0)
    cfg = SimulationConfig(window_radius=5.0, replicates=30, seed=4)
    ens = run_palm_ensemble(params, cfg)
    est = interference_estimate_from_ensemble(ens, params, pathloss, policy)
    sums = [float(np.sum(pathloss(ens.radii[ens.rep_ids == k])))
            for k in range(cfg.replicates)]
    tail = (2.0 * math.pi * intensity(params)
            * pathloss.radial_integral(5.0, math.inf)
            if policy is TailPolicy.ANALYTIC_TAIL else 0.0)
    assert est.tail_correction == tail
    assert est.mean == pytest.approx(float(np.mean(sums)) + tail, rel=1e-12)
    assert est.std_error == pytest.approx(
        float(np.std(sums, ddof=1)) / math.sqrt(cfg.replicates), rel=1e-10)


def test_palm_ensemble_weights_are_read_only_ones():
    ens = run_palm_ensemble(HardCoreParams(1.5, 0.8, ProcessKind.MATERN_I),
                            SimulationConfig(window_radius=6.0, replicates=5,
                                             seed=2))
    assert ens.weights.dtype == np.float64
    assert np.array_equal(ens.weights, np.ones(ens.radii.size))
    assert "weights" not in ens._fields
    with pytest.raises(AttributeError):
        ens.weights = np.zeros(ens.radii.size)


@pytest.mark.parametrize("params, window, replicates", [
    (HardCoreParams(2.0, 1.0, ProcessKind.POISSON_HOLE), 10.0, 60),
    (HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II), 3.0, 2000),
])
def test_k_function_estimate_matches_analytic(params, window, replicates):
    # type I is checked the same way by criterion 7
    cfg = SimulationConfig(window_radius=window, replicates=replicates, seed=9)
    grid = [f * params.delta for f in (1.5, 2.0, 3.0, 5.0)]
    est = estimate_k_function(run_palm_ensemble(params, cfg), grid)
    assert est.replicates == replicates
    lam = intensity(params)
    assert abs(est.intensity_estimate - lam) / lam < 0.05
    for r, k_hat, se in zip(est.radii, est.k_values, est.std_errors):
        want = k_function(params, r)
        assert se > 0.0
        assert abs(k_hat - want) < 4.0 * se, r


def test_k_function_estimate_validation():
    params = HardCoreParams(2.0, 1.0, ProcessKind.POISSON_HOLE)
    ens = run_palm_ensemble(params, SimulationConfig(window_radius=10.0,
                                                     replicates=2))
    with pytest.raises(ValidationError):
        estimate_k_function(ens, [11.0])
    # NaN passes both the r >= 0 and the window check; it is no radius
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            estimate_k_function(ens, [bad, 2.0])
