"""Thinning semantics, Palm sampling, and the Monte Carlo estimators.

Definitional cases are tiny hand-built patterns; statistical checks run at
pinned seeds with wide (4 standard error) acceptance bands so they are
deterministic yet still sensitive to real bias.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

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
    reliable_mask,
    replicate_rng,
    run_palm_ensemble,
    sample_palm,
    sample_parent,
    thin,
)


def pattern(points, marks=None, window=10.0):
    return PointPattern(points=np.asarray(points, dtype=float),
                        window_radius=window,
                        marks=None if marks is None else np.asarray(marks))


def type1(delta):
    return HardCoreParams(1.0, delta, ProcessKind.MATERN_I)


def type2(delta):
    return HardCoreParams(1.0, delta, ProcessKind.MATERN_II)


# ---------------------------------------------------------------------------
# Thinning semantics
# ---------------------------------------------------------------------------


def test_thin_type1_removes_both_members_of_a_close_pair():
    out = thin(pattern([[0.0, 0.0], [0.5, 0.0]]), type1(1.0))
    assert len(out) == 0


def test_thin_keeps_pairs_at_exactly_delta():
    pts = [[0.0, 0.0], [1.0, 0.0]]
    assert len(thin(pattern(pts), type1(1.0))) == 2
    assert len(thin(pattern(pts, marks=[0.3, 0.6]), type2(1.0))) == 2


def test_thin_type2_keeps_smaller_mark():
    out = thin(pattern([[0.0, 0.0], [0.5, 0.0]], marks=[0.2, 0.7]), type2(1.0))
    assert len(out) == 1
    assert out.points[0, 0] == 0.0
    assert out.marks[0] == 0.2


def test_thin_type2_chain_dead_points_still_kill():
    # B dies to A, yet C still dies to B: the contest uses parent points,
    # not survivors
    pts = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    out = thin(pattern(pts, marks=[0.1, 0.2, 0.3]), type2(1.0))
    assert out.points.tolist() == [[0.0, 0.0]]
    # with the smallest mark in the middle only the middle point survives
    out = thin(pattern(pts, marks=[0.3, 0.1, 0.2]), type2(1.0))
    assert out.points.tolist() == [[0.9, 0.0]]


def test_thin_type1_chain_removes_all():
    pts = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
    assert len(thin(pattern(pts), type1(1.0))) == 0


def test_thin_delta_zero_keeps_everything():
    pts = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
    assert len(thin(pattern(pts), type1(0.0))) == 3
    assert len(thin(pattern(pts, marks=[0.1, 0.2, 0.3]), type2(0.0))) == 3


def test_thin_type2_requires_distinct_marks():
    with pytest.raises(ValidationError):
        thin(pattern([[0.0, 0.0], [0.5, 0.0]], marks=[0.3, 0.3]), type2(1.0))
    with pytest.raises(ValidationError):
        thin(pattern([[0.0, 0.0], [0.5, 0.0]]), type2(1.0))  # no marks


def test_type1_survivors_are_a_subset_of_type2_survivors():
    rng = replicate_rng(42, 0)
    parent = sample_parent(HardCoreParams(2.0, 0.7, ProcessKind.MATERN_II), 8.0, rng)
    t1 = thin(parent, type1(0.7))
    t2 = thin(parent, type2(0.7))
    assert len(t1) <= len(t2) <= len(parent)
    t2_rows = {(x, y) for x, y in t2.points}
    assert all((x, y) in t2_rows for x, y in t1.points)
    # both survivor sets honor the hard core
    assert t1.min_pair_distance() >= 0.7
    assert t2.min_pair_distance() >= 0.7


def test_reliable_mask_is_inclusive_at_the_guard_line():
    pat = pattern([[0.0, 0.0], [8.9, 0.0], [9.0, 0.0], [9.61, 0.0]])
    mask = reliable_mask(pat, 1.0)
    assert mask.tolist() == [True, True, True, False]
    with pytest.raises(ValidationError):
        reliable_mask(pat, 11.0)
    with pytest.raises(ValidationError):
        reliable_mask(pat, -0.1)


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


def test_sample_parent_basic_properties():
    rng = replicate_rng(1, 0)
    pat = sample_parent(type2(1.0), 6.0, rng)
    assert len(pat) > 0
    assert np.all(pat.radii <= 6.0)
    assert np.all((pat.marks >= 0.0) & (pat.marks < 1.0))
    assert len(np.unique(pat.marks)) == len(pat)
    assert pat.window_radius == 6.0
    # marks are drawn for type II only
    assert sample_parent(type1(1.0), 6.0, replicate_rng(1, 0)).marks is None


def test_sample_parent_count_matches_intensity():
    params = HardCoreParams(3.0, 1.0, ProcessKind.MATERN_I)
    counts = [len(sample_parent(params, 5.0, replicate_rng(8, k)))
              for k in range(200)]
    want = 3.0 * math.pi * 25.0
    se = math.sqrt(want / 200.0)
    assert abs(float(np.mean(counts)) - want) < 4.0 * se


def test_sample_parent_validation():
    rng = replicate_rng(0, 0)
    with pytest.raises(ValidationError):
        sample_parent(type1(1.0), -1.0, rng)
    with pytest.raises(ValidationError):
        sample_parent(type1(1.0), math.inf, rng)


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_sample_parent_draws_count_radii_angles_marks_in_order(kind):
    params = HardCoreParams(1.5, 0.5, kind)
    pat = sample_parent(params, 4.0, replicate_rng(5, 2))
    rng = replicate_rng(5, 2)
    n = int(rng.poisson(1.5 * math.pi * 16.0))
    r = np.sqrt(rng.uniform(0.0, 16.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    assert len(pat) == n > 0
    assert np.array_equal(pat.points,
                          np.column_stack((r * np.cos(theta), r * np.sin(theta))))
    if kind is ProcessKind.MATERN_II:
        assert np.array_equal(pat.marks, rng.uniform(0.0, 1.0, n))
    else:
        assert pat.marks is None


def test_sample_parent_is_uniform_on_the_disk():
    pat = sample_parent(type1(1.0), 5.0, replicate_rng(17, 0))
    assert len(pat) > 50
    # uniform area density: (r/W)^2 and the angle over 2*pi are U(0, 1)
    angles = np.arctan2(pat.points[:, 1], pat.points[:, 0]) % (2.0 * math.pi)
    for u in ((pat.radii / 5.0) ** 2, angles / (2.0 * math.pi)):
        assert stats.kstest(u, "uniform").pvalue > 1e-3


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=-1.0)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, replicates=0)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, replicates=2.5)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, seed=-1)
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, seed=2**64)


def test_window_must_reach_three_delta():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError, match="3\\*delta"):
        sample_palm(params, SimulationConfig(window_radius=2.5))
    sample_palm(params, SimulationConfig(window_radius=3.0))
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


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_sample_palm_respects_hard_core_and_origin(kind):
    params = HardCoreParams(2.0, 0.5, kind)
    cfg = SimulationConfig(window_radius=6.0, seed=5)
    for rep in range(12):
        pat = sample_palm(params, cfg, replicate=rep)
        if len(pat) == 0:
            continue
        # the origin holds a retained point, so nothing lives within delta
        assert float(np.min(pat.radii)) >= 0.5
        assert pat.min_pair_distance() >= 0.5


# the first and last replicate of the 600-replicate ensembles below, and
# those on both sides of each seam between the chunks they are thinned in
_SEAM_CHUNK = simulate._chunk_replicates(
    HardCoreParams(1.5, 0.8, ProcessKind.MATERN_I),
    SimulationConfig(window_radius=6.0, replicates=600))
SEAM_REPLICATES = sorted({0, 599} | {seam + side
                                     for seam in range(_SEAM_CHUNK, 600,
                                                       _SEAM_CHUNK)
                                     for side in (-1, 0)})


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
    # the bitwise test below crosses several seams
    assert len(SEAM_REPLICATES) > 6


@pytest.mark.parametrize("kind", [ProcessKind.POISSON_HOLE,
                                  ProcessKind.MATERN_I,
                                  ProcessKind.MATERN_II])
def test_ensemble_matches_per_replicate_sampling_bitwise(kind):
    params = HardCoreParams(1.5, 0.8, kind)
    cfg = SimulationConfig(window_radius=6.0, replicates=16, seed=3)
    ens = run_palm_ensemble(params, cfg)
    assert ens.replicates == 16
    assert ens.window_radius == 6.0
    assert ens.delta == 0.8
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
    for rep in SEAM_REPLICATES:
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

    def fixed_parents(params, cfg, rng):
        return interior, exterior, origin_mark

    monkeypatch.setattr(simulate, "_draw_palm_parent", fixed_parents)
    params = HardCoreParams(1.0, 1.0, kind)
    cfg = SimulationConfig(window_radius=7.0, replicates=600, seed=0)
    # the parents as drawn are still both pairs just inside delta
    drawn = simulate._thin_chunk(params, cfg, 0, 1)[0]
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
            params, cfg, replicate_rng(cfg.seed, k))
        rsq, _, marks, _ = simulate._palm_parents(
            params, cfg, [ball, beyond], [origin_marks[k]])
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
    cfg_trunc = dataclasses.replace(cfg, tail_policy=TailPolicy.TRUNCATE_ONLY)
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
    assert "weights" not in {f.name for f in dataclasses.fields(ens)}
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
