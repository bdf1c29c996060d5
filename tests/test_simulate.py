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

from matern_interference import simulate
from matern_interference.errors import ValidationError
from matern_interference.interference import mean_interference_quadrature
from matern_interference.models import (
    FadingKind,
    FadingModel,
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
    parent = sample_parent(2.0, 8.0, rng, with_marks=True)
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


def test_sample_parent_basic_properties():
    rng = replicate_rng(1, 0)
    pat = sample_parent(2.0, 6.0, rng, r_inner=2.0, with_marks=True)
    radii = pat.radii
    assert np.all(radii >= 2.0)
    assert np.all(radii <= 6.0)
    assert np.all((pat.marks >= 0.0) & (pat.marks < 1.0))
    assert len(np.unique(pat.marks)) == len(pat)
    assert pat.window_radius == 6.0


def test_sample_parent_count_matches_intensity():
    counts = [len(sample_parent(3.0, 5.0, replicate_rng(8, k)))
              for k in range(200)]
    want = 3.0 * math.pi * 25.0
    se = math.sqrt(want / 200.0)
    assert abs(float(np.mean(counts)) - want) < 4.0 * se


def test_sample_parent_validation():
    rng = replicate_rng(0, 0)
    with pytest.raises(ValidationError):
        sample_parent(0.0, 5.0, rng)
    with pytest.raises(ValidationError):
        sample_parent(1.0, 2.0, rng, r_inner=3.0)
    with pytest.raises(ValidationError):
        sample_parent(1.0, math.inf, rng)


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
    with pytest.raises(ValidationError):
        SimulationConfig(window_radius=5.0, guard=-0.5)


def test_window_and_guard_interplay():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    with pytest.raises(ValidationError):
        sample_palm(params, SimulationConfig(window_radius=5.0, guard=0.5))
    with pytest.raises(ValidationError):
        sample_palm(params, SimulationConfig(window_radius=2.5))  # < 2d+guard
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
    if kind is ProcessKind.MATERN_II:
        assert 0.0 < ens.acceptance_rate <= 1.0
    else:
        assert ens.acceptance_rate is None
    assert np.all(ens.weights == 1.0)

    # several chunks, on more than one thread where the machine has the
    # cores; the type II case also draws fading weights, which come from
    # the replicate's stream right after its Palm draw
    fading = (FadingModel(FadingKind.UNIT_MEAN_EXPONENTIAL)
              if kind is ProcessKind.MATERN_II else FadingModel())
    cfg = SimulationConfig(window_radius=6.0, replicates=600, seed=3,
                           fading=fading)
    ens = run_palm_ensemble(params, cfg)
    assert np.all(np.diff(ens.rep_ids) >= 0)
    for rep in SEAM_REPLICATES:
        in_rep = ens.rep_ids == rep
        pat = sample_palm(params, cfg, replicate=rep)
        assert np.array_equal(ens.radii[in_rep], pat.radii), rep
        rng = replicate_rng(cfg.seed, rep)
        simulate._draw_palm_parent(params, cfg, rng)
        want = cfg.fading.sample(rng, len(pat))
        assert np.array_equal(ens.weights[in_rep], want), rep


@pytest.mark.parametrize("kind", [ProcessKind.MATERN_I, ProcessKind.MATERN_II])
def test_ensemble_is_the_same_at_any_chunk_size(kind, monkeypatch):
    params = HardCoreParams(1.5, 0.8, kind)
    cfg = SimulationConfig(window_radius=6.0, replicates=40, seed=11,
                           fading=FadingModel(FadingKind.UNIT_MEAN_EXPONENTIAL))
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
        assert np.array_equal(ens.weights, first.weights)
        assert ens.acceptance_rate == first.acceptance_rate


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
    marks = (np.array([0.2, 0.3, 0.4, 0.5])
             if kind is ProcessKind.MATERN_II else None)
    origin_mark = 0.1 if kind is ProcessKind.MATERN_II else None

    def fixed_parents(params, cfg, rng):
        return rsq.copy(), theta.copy(), marks, origin_mark, 1

    monkeypatch.setattr(simulate, "_draw_palm_parent", fixed_parents)
    params = HardCoreParams(1.0, 1.0, kind)
    cfg = SimulationConfig(window_radius=7.0, replicates=600, seed=0)
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


# sha256 of radii, rep_ids and weights (little-endian float64 / int64) and
# the acceptance rate of 600-replicate ensembles: the six criterion-6
# parameter sets at their seeds, and one type II set with fading. These
# pin the random stream itself, which the bitwise test above cannot see
# because both of its sides share the Palm draw. Recorded with NumPy 2.4 on
# x86-64; a NumPy with other samplers or trigonometric functions may differ.
STREAM_DIGESTS = [
    ((ProcessKind.MATERN_I, 1.0, 1.0, 7.0, 10, FadingKind.NONE), 4016,
     "94acadbf6f315c8c8f898f3c104a039e52cdf0fd73d56764e62c06c2e92c911a",
     "fce1323c83090ad3250d838a1b1b6b66ce8117417b47c1004373157ff56bb12b",
     "a90eec5fd2888c74ab98f9c67057bce4d6552e2b5e6fc1f2fc4f5a635d623e37",
     None),
    ((ProcessKind.MATERN_II, 1.0, 1.0, 7.0, 13, FadingKind.NONE), 27493,
     "1f98aa0894d4c79ea67e74bc344a5c6903ccd83cdb3a4dc3082c08319af4c91f",
     "0e4ca0065a6c8520c764cf7bad12bbf2ea32dbb3bc53e970f6474ed1973b4c91",
     "2c2d933bb738813dfb444bb44632c771f0e3a763d47af8913f2910a457893473",
     0.2914035939776591),
    ((ProcessKind.MATERN_I, 2.0, 0.5, 4.0, 21, FadingKind.NONE), 12711,
     "4dfe3454c982d3cc522ba37758624a5ff3109cb05927ccb53e36f3d4a2c2dcc1",
     "a0ded5fc3880108fc3a7062dd3e8c8bd4b8874c2b8ad6ca3165c9c63a2019fde",
     "059a96055d705c21fd2f0e2b7344b35f605c43ba7437f333ca9b27266e5b3b1b",
     None),
    ((ProcessKind.MATERN_II, 2.0, 0.5, 4.0, 14, FadingKind.NONE), 30142,
     "7507bd3434aeafc584b8d65cb04e6335ab5e836a86d1054e30268f24571c5094",
     "c29c352da0f3cd23e779f537fd52b6a8a678ecce271b8b44ed335a597b1d6d32",
     "451e6068b89c4064f998d1e840a8c6e2cf744d41498a353919127460239ebdda",
     0.4971002485501243),
    ((ProcessKind.MATERN_I, 2.0, 1.0, 7.0, 12, FadingKind.NONE), 402,
     "764d4d0b1530081cf90d1eef076c6fd4e5ec1d13eef0e3c1ff4b6adb8d8092c8",
     "785ffc2d967f9dfdddc37c4319bc7a69814a15e48137a9b72e0721048a6e0078",
     "7f3b0c407a2ce566559f277913de321a828a6f0527fb2c1bf2e6e615d1c83823",
     None),
    ((ProcessKind.MATERN_II, 2.0, 1.0, 5.0, 25, FadingKind.NONE), 14632,
     "5a8a1ef162e69967de010d0d15e88c2d4ff1bf71e3d033a91f740cc36f033996",
     "0e1dab093215e0899917a25f02cb3851df652817a6c3e6daacbb7c36e91f6d54",
     "28907ee68e5f2c0f866c141de05ecbe43a65c951142ff3e1e920db59a7c1e673",
     0.16304347826086957),
    ((ProcessKind.MATERN_II, 1.5, 0.8, 6.0, 3, FadingKind.UNIT_MEAN_EXPONENTIAL),
     31615,
     "0590695b75c79d8b7709914d5c35ddda39ee14812d715b98570a141ef878623c",
     "a563fe8c6a03aef620c0e383e46aedf8c25c75baa92a3d7d0f7cf873180839d9",
     "1ca4e675c9e0beb8487e247037e22269cf9b5574503dbb2bbd260c2385a07ccb",
     0.2982107355864811),
]


@pytest.mark.parametrize(
    "case, size, radii, rep_ids, weights, rate", STREAM_DIGESTS,
    ids=[f"{kind.name}-{lam}-{delta}-w{window}-s{seed}-{fading.value}"
         for (kind, lam, delta, window, seed, fading), *_ in STREAM_DIGESTS])
def test_ensemble_stream_is_pinned(case, size, radii, rep_ids, weights, rate):
    kind, lam, delta, window, seed, fading = case
    cfg = SimulationConfig(window_radius=window, replicates=600, seed=seed,
                           fading=FadingModel(fading))
    ens = run_palm_ensemble(HardCoreParams(lam, delta, kind), cfg)

    def digest(values, dtype):
        return hashlib.sha256(
            np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()

    assert ens.radii.size == size
    assert digest(ens.radii, "<f8") == radii
    assert digest(ens.rep_ids, "<i8") == rep_ids
    assert digest(ens.weights, "<f8") == weights
    assert ens.acceptance_rate == rate


def test_type2_palm_acceptance_rate_matches_thinning_probability():
    params = HardCoreParams(2.0, 0.5, ProcessKind.MATERN_II)
    cfg = SimulationConfig(window_radius=6.0, replicates=1500, seed=11)
    ens = run_palm_ensemble(params, cfg)
    want = intensity(params) / params.lambda_p  # 0.504378...
    assert abs(ens.acceptance_rate - want) < 0.035


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


def test_fading_leaves_the_mean_unchanged():
    params = HardCoreParams(1.0, 1.0, ProcessKind.MATERN_I)
    pathloss = PowerLawPathLoss(3.0)
    base = SimulationConfig(window_radius=12.0, replicates=400, seed=6)
    faded_cfg = dataclasses.replace(
        base, fading=FadingModel(FadingKind.UNIT_MEAN_EXPONENTIAL))
    plain = estimate_mean_interference(params, pathloss, base)
    faded = estimate_mean_interference(params, pathloss, faded_cfg)
    gap = abs(plain.mean - faded.mean)
    assert gap < 4.0 * (plain.std_error + faded.std_error)
    assert faded.std_error > plain.std_error  # fading adds variance


def test_ensemble_weights_vary_under_fading():
    params = HardCoreParams(1.5, 0.8, ProcessKind.MATERN_I)
    cfg = SimulationConfig(window_radius=6.0, replicates=30, seed=3,
                           fading=FadingModel(FadingKind.UNIT_MEAN_GAMMA,
                                              gamma_shape=2.0))
    ens = run_palm_ensemble(params, cfg)
    assert np.all(ens.weights > 0.0)
    assert float(np.std(ens.weights)) > 0.0
    assert 0.8 < float(np.mean(ens.weights)) < 1.2


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


def test_k_function_estimate_on_poisson_hole():
    params = HardCoreParams(2.0, 1.0, ProcessKind.POISSON_HOLE)
    cfg = SimulationConfig(window_radius=10.0, replicates=60, seed=9)
    grid = [1.5, 2.0, 3.0, 5.0]
    est = estimate_k_function(run_palm_ensemble(params, cfg), grid)
    assert est.replicates == 60
    assert abs(est.intensity_estimate - 2.0) / 2.0 < 0.05
    for r, k_hat, se in zip(est.radii, est.k_values, est.std_errors):
        want = math.pi * (r * r - 1.0)
        assert se > 0.0
        assert abs(k_hat - want) < 4.0 * se, r


def test_k_function_estimate_validation():
    params = HardCoreParams(2.0, 1.0, ProcessKind.POISSON_HOLE)
    ens = run_palm_ensemble(params, SimulationConfig(window_radius=10.0,
                                                     replicates=2))
    with pytest.raises(ValidationError):
        estimate_k_function(ens, [11.0])
