"""Stochastic simulation: determinism across workers, convergence to the
closed forms, record consistency and verification histograms."""

import dataclasses
import gc
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from vacfilter.detectors import (
    Apd,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    acceptance_probability,
    effective_displacement,
    error_probability,
    threshold_for_error,
)
from vacfilter.montecarlo import (
    BLOCK_SIZE,
    HIST_BINS,
    McConfig,
    TrialRecord,
    TrialRecords,
    _bin_index,
    _blocks,
    _hist_edges,
    _rules,
    _select,
    _Split,
    calibrate_prep_error,
    chi2_gof,
    run_sweep,
    run_trials,
    sample_trials,
    verification_chi2,
)
from vacfilter.signal_model import CoherentAmplitude, ErasureMixture

E_MATCH = 5.3e-3


def make_cfg(detector, p=0.5, alpha_sq=3.3, tap=0.5, trials=200_000, seed=321, **kw):
    mix = ErasureMixture(CoherentAmplitude(math.sqrt(alpha_sq)), p, tap)
    return McConfig(seed=seed, trials=trials, detector=detector, mixture=mix, **kw)


DETECTORS = {
    "apd": Apd(eta=0.63, dark_prob=1.4e-4),
    "hds": HomodyneStabilized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
    "hdr": HomodyneRandomized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
}


class TestDeterminism:
    @pytest.mark.parametrize("detector", [
        Apd(eta=0.63, dark_prob=1.4e-4),
        HomodyneRandomized(eta=0.84, threshold=1.39),
    ])
    def test_bit_identical_across_worker_counts(self, detector):
        results = []
        for workers in (1, 4, 8):
            cfg = make_cfg(detector, trials=150_000, workers=workers)
            results.append(run_trials(cfg))
        base = results[0]
        for other in results[1:]:
            assert other.n_coherent == base.n_coherent
            assert other.n_accepted_coherent == base.n_accepted_coherent
            assert other.n_accepted_vacuum == base.n_accepted_vacuum
            np.testing.assert_array_equal(other.hist_all.counts, base.hist_all.counts)
            np.testing.assert_array_equal(other.hist_accepted.counts,
                                          base.hist_accepted.counts)

    def test_different_seeds_differ(self):
        a = run_trials(make_cfg(IdealOnOff(), seed=1, trials=50_000))
        b = run_trials(make_cfg(IdealOnOff(), seed=2, trials=50_000))
        assert a.n_accepted != b.n_accepted


class TestClosedFormAgreement:
    @pytest.mark.parametrize("detector", [
        IdealOnOff(),
        Apd(eta=0.63, dark_prob=1.4e-4),
        HomodyneStabilized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
        HomodyneRandomized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
    ])
    def test_estimates_within_three_sigma(self, detector):
        cfg = make_cfg(detector, trials=200_000)
        res = run_trials(cfg)
        beta = math.sqrt(cfg.mixture.tap_reflectivity) * cfg.mixture.alpha.magnitude
        p_true = acceptance_probability(detector, beta)
        e_true = error_probability(detector)
        p_s_true = cfg.mixture.p * p_true + (1 - cfg.mixture.p) * e_true

        def sigma(q, n):
            return math.sqrt(max(q * (1 - q), 1e-12) / n)

        assert abs(res.p_accept_hat - p_true) < 3 * sigma(p_true, res.n_coherent)
        assert abs(res.e_hat - e_true) < 3 * sigma(e_true, res.n_vacuum)
        assert abs(res.p_s_hat - p_s_true) < 3 * sigma(p_s_true, res.trials)

    def test_pure_vacuum_error_rate(self):
        det = HomodyneStabilized(eta=0.84, threshold=1.0)
        cfg = make_cfg(det, p=0.0, trials=200_000)
        res = run_trials(cfg)
        from scipy.special import erfc
        e_true = erfc(np.sqrt(2) * 1.0)
        se = math.sqrt(e_true * (1 - e_true) / res.n_vacuum)
        assert abs(res.e_hat - e_true) < 3 * se

    def test_gain_estimate_tracks_closed_form(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        cfg = make_cfg(det, p=0.02, trials=400_000)
        res = run_trials(cfg)
        beta = math.sqrt(1.65)
        p_true = acceptance_probability(det, beta)
        p_s = 0.02 * p_true + 0.98 * 1.4e-4
        g_true = p_true / p_s
        assert res.g_hat == pytest.approx(g_true, rel=0.05)
        assert res.stderr("g") is not None


_COLUMNS = ("truth", "tap_outcome", "accepted", "verify_x")
# Column digests of the config below, recorded from the per-trial record
# lists that sample_trials returned before it returned columns.
_RECORDS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sample_trials_golden.json").read_text())


# the pull crosses a block boundary; leaked vacuum amplitude makes both truth
# branches reach the detector with a nonzero displacement
_GOLDEN_PULL = BLOCK_SIZE + 1500


def _golden_pull(kind):
    return sample_trials(make_cfg(DETECTORS[kind], trials=3 * BLOCK_SIZE, prep_error=0.3),
                         _GOLDEN_PULL)


class TestTrialRecords:
    def test_records_consistent_with_detector_rule(self):
        det = HomodyneStabilized(eta=0.84, threshold=1.2)
        records = sample_trials(make_cfg(det, trials=5000), 500)
        assert len(records) == 500
        np.testing.assert_array_equal(records.accepted, np.abs(records.tap_outcome) > 1.2)

    def test_on_off_records(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        records = sample_trials(make_cfg(det, trials=2000), 200)
        np.testing.assert_array_equal(records.accepted, records.tap_outcome)
        assert [c.dtype for c in (records.truth, records.tap_outcome, records.accepted,
                                  records.verify_x)] == [bool, bool, bool, np.float64]

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_records_reproduce_counts_and_histograms(self, kind):
        records = _golden_pull(kind)
        res = run_trials(make_cfg(DETECTORS[kind], trials=_GOLDEN_PULL, prep_error=0.3))
        assert len(records) == res.trials
        coherent, accepted = records.truth, records.accepted
        assert (int(coherent.sum()), int((coherent & accepted).sum()),
                int((~coherent & accepted).sum())) == (
            res.n_coherent, res.n_accepted_coherent, res.n_accepted_vacuum)
        edges = res.hist_all.edges

        def hist(x):
            return np.bincount(np.searchsorted(edges, x, side="right"),
                               minlength=len(edges) + 1)

        np.testing.assert_array_equal(hist(records.verify_x), res.hist_all.counts)
        np.testing.assert_array_equal(hist(records.verify_x[accepted]),
                                      res.hist_accepted.counts)

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_columns_match_the_recorded_records(self, kind):
        records = _golden_pull(kind)
        want = _RECORDS_GOLDEN[kind]
        for name in _COLUMNS:
            column = getattr(records, name)
            assert str(column.dtype) == want[name]["dtype"], name
            assert hashlib.sha256(column.tobytes()).hexdigest() == want[name]["sha256"], name
        # the per-record view prints exactly as the old list of records did
        assert (hashlib.sha256(repr(list(records)).encode()).hexdigest()
                == want["records_repr_sha256"])

    @pytest.mark.parametrize("kind", ["apd", "hdr"])
    def test_per_record_view_matches_the_columns(self, kind):
        records = sample_trials(make_cfg(DETECTORS[kind], trials=3000,
                                         prep_error=0.3), 2000)
        tap_type = bool if kind == "apd" else float
        viewed = list(records)
        assert len(viewed) == len(records) == 2000
        for i, rec in enumerate(viewed):
            assert type(rec) is TrialRecord
            assert records[i] == records[i - 2000] == rec
            assert rec.truth == ("coherent" if records.truth[i] else "vacuum")
            assert type(rec.tap_outcome) is tap_type
            assert rec.tap_outcome == records.tap_outcome[i]
            assert type(rec.accepted) is bool and rec.accepted == records.accepted[i]
            assert type(rec.verify_x) is float and rec.verify_x == records.verify_x[i]
        with pytest.raises(IndexError):
            records[2000]
        with pytest.raises(TypeError):
            records[1.0]

    @pytest.mark.parametrize("n", [0, 1, 1500, BLOCK_SIZE, BLOCK_SIZE + 1])
    def test_a_pull_is_a_prefix_of_a_longer_one(self, n):
        cfg = make_cfg(DETECTORS["hdr"], trials=2 * BLOCK_SIZE + 7, prep_error=0.3)
        short, long = sample_trials(cfg, n), sample_trials(cfg, cfg.trials)
        assert len(short) == n
        for name in _COLUMNS:
            assert getattr(short, name).dtype == getattr(long, name).dtype
            np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[:n])

    @pytest.mark.parametrize("n", [-1, 2001])
    def test_n_outside_the_trials_rejected(self, n):
        cfg = make_cfg(DETECTORS["apd"], trials=2000)
        with pytest.raises(ValueError, match=rf"cfg.trials.*2000.*n = {n}"):
            sample_trials(cfg, n)

    @pytest.mark.parametrize("n", [2.5, np.float64(2.0), "3", None])
    def test_non_integer_n_rejected(self, n):
        # n = 2.5 once failed inside the block loop with numpy's message
        cfg = make_cfg(DETECTORS["apd"], trials=2000)
        with pytest.raises(TypeError, match=re.escape(f"n must be an integer, got {n!r}")):
            sample_trials(cfg, n)

    def test_a_bool_n_pulls_as_its_integer(self):
        # n = True once failed with "an integer is required"; McConfig takes it as 1 too
        cfg = make_cfg(DETECTORS["hds"], trials=True)
        assert cfg.trials == 1 and type(cfg.trials) is int
        pulled, one = sample_trials(cfg, True), sample_trials(cfg, 1)
        for name in _COLUMNS:
            np.testing.assert_array_equal(getattr(pulled, name), getattr(one, name))
        assert run_trials(cfg).trials == 1

    @pytest.mark.parametrize("shared", [False, True], ids=["own-uniforms", "whole-columns"])
    @pytest.mark.parametrize("kind", ["ideal", *sorted(DETECTORS)])
    def test_records_decide_as_the_cuts_do(self, kind, shared):
        det = IdealOnOff() if kind == "ideal" else DETECTORS[kind]
        cfg = make_cfg(det, trials=3 * BLOCK_SIZE, prep_error=0.3)
        records = sample_trials(cfg, _GOLDEN_PULL)
        [rule] = _rules([cfg])
        decided = np.empty(_GOLDEN_PULL, bool)
        for block, draws in _blocks(cfg.seed, _GOLDEN_PULL):
            # a group of two reads the tap variates from the block's whole columns
            split = _Split(draws, draws.u[:, 0] < cfg.mixture.p, [rule] * (1 + shared))
            for at, acc in zip(split.positions, split.decide(rule), strict=True):
                decided[block * BLOCK_SIZE + at] = acc
        np.testing.assert_array_equal(decided, records.accepted)

    def test_columns_differ_in_length_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            TrialRecords(np.zeros(3, bool), np.zeros(3, bool), np.zeros(2, bool), np.zeros(3))

    def test_a_held_pull_adds_no_object_per_trial(self):
        cfg = make_cfg(DETECTORS["hds"], trials=20_000)
        gc.collect()
        before = len(gc.get_objects())
        records = sample_trials(cfg, 20_000)
        added = len(gc.get_objects()) - before
        assert len(records) == 20_000
        assert added < 100


# Counts and histograms recorded at the commit before the histogram reduction
# switched from searchsorted to arithmetic bin indices (d61c1b3); any change to
# the randomness contract or the binning shows up here bit for bit.
_GOLDEN = json.loads((Path(__file__).parent / "data" / "run_trials_golden.json").read_text())
_GOLDEN_PREP_ERROR = {"apd": 0.3, "hds": 0.0, "hdr": 0.0}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_run_trials_golden(key, workers):
    kind, seed = key.split("-")
    # three full blocks and a partial one
    res = run_trials(make_cfg(DETECTORS[kind], trials=3 * BLOCK_SIZE + 1500, seed=int(seed),
                              workers=workers, prep_error=_GOLDEN_PREP_ERROR[kind]))
    want = _GOLDEN[key]
    assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
            res.n_accepted_vacuum] == want["counts"]
    assert res.hist_all.counts.tolist() == want["hist_all"]
    assert res.hist_accepted.counts.tolist() == want["hist_accepted"]


_SWEEP_DETECTORS = (IdealOnOff(), *DETECTORS.values())


@st.composite
def sweeps(draw, workers):
    """Mixed-detector configurations sharing a seed, three blocks of trials
    (the last one partial) and a worker count."""
    seed = draw(st.integers(0, 2**64 - 1))
    unit = st.floats(0.0, 1.0)
    return [make_cfg(draw(st.sampled_from(_SWEEP_DETECTORS)), p=draw(unit),
                     alpha_sq=draw(st.floats(0.0, 6.0)), tap=draw(unit),
                     prep_error=draw(st.floats(0.0, 1.5)), trials=2 * BLOCK_SIZE + 123,
                     seed=seed, workers=workers)
            for _ in range(draw(st.integers(1, 5)))]


@pytest.fixture
def serial_pool(monkeypatch):
    """Runs a sweep's workers one after another in this thread, at most three
    of them; returns the list of pool sizes the runs open."""
    from vacfilter import montecarlo

    pools = []

    class SerialPool:  # records the pool size and runs the workers in this thread
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo, "MAX_WORKERS", 3)
    return pools


class TestSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sweep_equals_one_configuration_runs(self, workers, data):
        cfgs = data.draw(sweeps(workers))
        for swept, alone in zip(run_sweep(cfgs), [run_trials(c) for c in cfgs], strict=True):
            assert swept.config is alone.config
            assert (swept.n_coherent, swept.n_accepted_coherent, swept.n_vacuum,
                    swept.n_accepted_vacuum) == (alone.n_coherent, alone.n_accepted_coherent,
                                                 alone.n_vacuum, alone.n_accepted_vacuum)
            np.testing.assert_array_equal(swept.hist_all.edges, alone.hist_all.edges)
            np.testing.assert_array_equal(swept.hist_all.counts, alone.hist_all.counts)
            np.testing.assert_array_equal(swept.hist_accepted.counts, alone.hist_accepted.counts)

    def test_empty_sweep_runs_nothing(self):
        assert run_sweep([]) == []

    @pytest.mark.parametrize("field, value", [("seed", 322), ("trials", 1000), ("workers", 2)])
    def test_configurations_must_share_seed_trials_and_workers(self, field, value):
        base = make_cfg(IdealOnOff(), trials=2000)
        other = make_cfg(Apd(eta=0.63, dark_prob=1.4e-4), **{"trials": 2000, field: value})
        with pytest.raises(ValueError, match="must share seed, trials and workers"):
            run_sweep([base, other])

    @pytest.mark.parametrize("detectors, normals_per_block", [
        (_SWEEP_DETECTORS[:2], 1),  # on/off filters read no tap noise
        (_SWEEP_DETECTORS[2:3], 3),  # a lone filter: one band per preparation branch
        (_SWEEP_DETECTORS * 8, 2),  # shared readers: the block's tap-noise column once
    ], ids=["on-off", "one-homodyne", "mixed"])
    def test_each_block_is_drawn_once(self, monkeypatch, detectors, normals_per_block):
        from vacfilter import montecarlo

        calls = {"uniforms": 0, "ndtri": 0}

        def counting(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(montecarlo, "_block_uniforms",
                            counting("uniforms", montecarlo._block_uniforms))
        monkeypatch.setattr(montecarlo, "ndtri", counting("ndtri", montecarlo.ndtri))
        run_sweep([make_cfg(d, trials=2 * BLOCK_SIZE + 123) for d in detectors])
        assert calls == {"uniforms": 3, "ndtri": 3 * normals_per_block}

    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    def test_a_block_holds_few_block_sized_arrays(self, kind):
        # The uniforms buffer is 4 block-sized float arrays.  The rest of a
        # block's peak is the three normal/phase variates, the verification
        # quadratures, two bool columns and the bin index with its float
        # guess (about 6.5 arrays); more, and the memory a block frees
        # crosses glibc's heap-trim threshold, so every block page-faults
        # its working set back in.
        cfg = make_cfg(DETECTORS[kind], trials=2 * BLOCK_SIZE, prep_error=0.3)
        run_trials(cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (4 + 7) * 8 * BLOCK_SIZE

    def test_a_mixture_group_holds_few_block_sized_arrays(self):
        # Three detectors on one mixture: the group's index is shared, and
        # only the two configurations before the last copy it, one at a time,
        # so the block stays under the one-configuration bound.
        cfgs = [make_cfg(DETECTORS[kind], trials=2 * BLOCK_SIZE, prep_error=0.3)
                for kind in sorted(DETECTORS)]
        run_sweep(cfgs)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_sweep(cfgs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (4 + 7) * 8 * BLOCK_SIZE

    def test_a_sweep_holds_the_same_memory_however_many_blocks_it_runs(self):
        # Counts are integer totals per worker: a sweep that kept each block's
        # counts until the end grew by about 1.6 KiB per block and
        # configuration, ~300 KiB between these two lengths.
        mix = ErasureMixture(CoherentAmplitude(1.2), 0.5, 0.5)
        dets = [IdealOnOff(), *(Apd(eta=0.1 * k, dark_prob=1e-3) for k in range(1, 11))]

        def peak(blocks):
            cfgs = [McConfig(seed=5, trials=blocks * BLOCK_SIZE, detector=d, mixture=mix)
                    for d in dets]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run_sweep(cfgs)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        peak(1)
        assert peak(24) - peak(8) < 16 * 1024

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_split_unevenly_among_workers(self, workers):
        # 5 blocks: two workers take 3 and 2 of them, three take 2, 2 and 1
        mixes = [ErasureMixture(CoherentAmplitude(a), 0.4, 0.5) for a in (0.8, 1.5)]
        dets = [IdealOnOff(), Apd(eta=0.63, dark_prob=1.4e-4)]
        cfgs = [McConfig(seed=9, trials=4 * BLOCK_SIZE + 321, detector=d, mixture=m,
                         workers=workers) for m in mixes for d in dets]
        for swept, cfg in zip(run_sweep(cfgs), cfgs, strict=True):
            alone = run_trials(dataclasses.replace(cfg, workers=1))
            assert (swept.n_coherent, swept.n_accepted_coherent, swept.n_vacuum,
                    swept.n_accepted_vacuum) == (alone.n_coherent, alone.n_accepted_coherent,
                                                 alone.n_vacuum, alone.n_accepted_vacuum)
            np.testing.assert_array_equal(swept.hist_all.counts, alone.hist_all.counts)
            np.testing.assert_array_equal(swept.hist_accepted.counts, alone.hist_accepted.counts)

    @pytest.mark.parametrize("workers, blocks, opened", [
        (8, 5, 3),  # clamped to MAX_WORKERS
        (2, 5, 2),
        (8, 2, 2),  # clamped to the block count
    ])
    def test_worker_threads_are_bounded(self, serial_pool, workers, blocks, opened):
        cfg = make_cfg(IdealOnOff(), trials=(blocks - 1) * BLOCK_SIZE + 1, workers=workers)
        res = run_trials(cfg)
        assert serial_pool == [opened]
        alone = run_trials(dataclasses.replace(cfg, workers=1))
        assert (res.n_coherent, res.n_accepted_coherent, res.n_vacuum, res.n_accepted_vacuum) == \
            (alone.n_coherent, alone.n_accepted_coherent, alone.n_vacuum, alone.n_accepted_vacuum)
        np.testing.assert_array_equal(res.hist_accepted.counts, alone.hist_accepted.counts)

    def test_each_mixture_group_is_binned_once_per_block(self, monkeypatch, tmp_path):
        from vacfilter import cli, montecarlo

        # fig4's three detectors at each of 11 signal levels, one block of trials
        swept = []
        sweep = montecarlo.run_sweep
        monkeypatch.setattr(montecarlo, "run_sweep",
                            lambda cfgs, **kw: swept.append(list(cfgs)) or sweep(swept[-1], **kw))
        assert cli.main(["figures", "fig4", "--trials", "20000", "--seed", "7",
                         "--out", str(tmp_path / "fig4.csv")]) == 0
        [cfgs] = swept
        assert len(cfgs) == 33
        calls = []
        binned = montecarlo._bin_index
        monkeypatch.setattr(montecarlo, "_bin_index",
                            lambda padded, x: calls.append(len(x)) or binned(padded, x))
        sweep(cfgs, histograms=True)
        assert calls == [20_000] * 11

    @pytest.mark.parametrize("argv, histogrammed", [
        (["simulate", "--detector", "hdr", "--eta", "0.84", "--match-error", "5.3e-3",
          "--p", "0.5", "--alpha-sq", "3.3", "--trials", "20000"], 0),
        (["figures", "fig4", "--trials", "20000"], 0),
        (["figures", "fig3", "--trials", "20000"], 2),  # the probes fire where histograms are read
    ], ids=["simulate", "fig4", "fig3"])
    def test_only_histogram_readers_draw_and_bin_verification_quadratures(
            self, monkeypatch, tmp_path, argv, histogrammed):
        from vacfilter import cli, montecarlo

        calls = {"verify_noise": 0, "_bin_index": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(montecarlo._Draws, "verify_noise",
                            property(counted("verify_noise", montecarlo._Draws.verify_noise.func)))
        monkeypatch.setattr(montecarlo, "_bin_index", counted("_bin_index", montecarlo._bin_index))
        assert cli.main([*argv, "--seed", "7", "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == {"verify_noise": histogrammed, "_bin_index": histogrammed}

    @pytest.mark.parametrize("histograms, splits", [(False, 1), (True, 11)],
                             ids=["counts-only", "binned"])
    def test_counts_only_configurations_are_grouped_by_p(self, monkeypatch, tmp_path, histograms,
                                                         splits):
        # fig4's 33 configurations share p = 0.5: one group per block without
        # histograms, where a group computes only its preparations; binned,
        # its 11 mixture halves stay apart
        from vacfilter import cli, montecarlo

        swept, inits = [], []
        sweep, init = montecarlo.run_sweep, montecarlo._Split.__init__
        monkeypatch.setattr(montecarlo, "run_sweep",
                            lambda cfgs, **kw: swept.append(list(cfgs)) or sweep(swept[-1], **kw))
        assert cli.main(["figures", "fig4", "--trials", "20000", "--seed", "7",
                         "--out", str(tmp_path / "fig4.csv")]) == 0
        [cfgs] = swept
        monkeypatch.setattr(montecarlo._Split, "__init__",
                            lambda self, *args: inits.append(1) or init(self, *args))
        sweep(cfgs, histograms=histograms)
        assert len(inits) == splits

    @pytest.mark.parametrize("argv, shared", [
        (["simulate", "--detector", "hds", "--eta", "0.84", "--match-error", "5.3e-3",
          "--p", "0.5", "--alpha-sq", "3.3"], False),
        (["figures", "fig4"], True),  # 22 homodyne readers: the probe fires on whole blocks
    ], ids=["simulate-hds", "fig4"])
    def test_a_lone_homodyne_filter_draws_tap_noise_only_in_its_band(
            self, monkeypatch, tmp_path, argv, shared):
        from vacfilter import cli, montecarlo

        lengths = []
        normals = montecarlo._normals
        monkeypatch.setattr(montecarlo, "_normals",
                            lambda u: lengths.append(len(u)) or normals(u))
        assert cli.main([*argv, "--trials", "200000", "--seed", "7",
                         "--out", str(tmp_path / "out.csv")]) == 0
        blocks = [BLOCK_SIZE] * 3 + [200_000 - 3 * BLOCK_SIZE]
        if shared:
            assert lengths == blocks
        else:  # the vacuum band, then the coherent one, of each block
            assert len(lengths) == 2 * len(blocks)
            assert all(v + c < b for v, c, b in zip(lengths[::2], lengths[1::2], blocks))

    @pytest.mark.parametrize("trials", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_counts_only_equals_the_histogram_path(self, serial_pool, workers, trials):
        # six mixture groups of every detector kind: p at both ends and inside,
        # with and without light leaked into the vacuum slots
        cfgs = [make_cfg(d, p=p, trials=trials, workers=workers, prep_error=prep)
                for p in (0.0, 1.0, 0.5) for prep in (0.0, 0.3) for d in _SWEEP_DETECTORS]

        def counts(res):
            return res.n_coherent, res.n_accepted_coherent, res.n_vacuum, res.n_accepted_vacuum

        counted = run_sweep(cfgs, histograms=False)
        for cfg, full, fast in zip(cfgs, run_sweep(cfgs), counted, strict=True):
            assert fast.config is cfg
            assert counts(fast) == counts(full)
            assert fast.hist_all is None and fast.hist_accepted is None
            assert counts(run_trials(cfg, histograms=False)) == counts(full)
        assert sum(counts(res)[1] for res in counted) > 0


def _padded(edges):
    return np.concatenate(([-np.inf], edges, [np.inf]))


@settings(max_examples=200, deadline=None)
@given(amp=st.floats(0.0, 10.0), bins=st.sampled_from([1, 2, 7, HIST_BINS, 1000]),
       seed=st.integers(0, 2**32 - 1))
def test_bin_index_matches_searchsorted(amp, bins, seed):
    # edges as run_trials builds them (a lossless tap passes amp through), at
    # HIST_BINS and at other bin counts
    mix = ErasureMixture(CoherentAmplitude(amp), 0.5, 0.0)
    edges = _hist_edges(McConfig(seed=1, trials=1, detector=IdealOnOff(), mixture=mix))
    if bins != HIST_BINS:
        edges = np.linspace(edges[0], edges[-1], bins + 1)
    # where the guess (x - e0) * scale + 1 crosses an integer, one ulp either side
    scale = bins / (edges[-1] - edges[0])
    crossings = edges[0] + np.arange(-2, bins + 3) / scale
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        edges, crossings,
        *(np.nextafter(v, to) for v in (edges, crossings) for to in (-np.inf, np.inf)),
        [-1e300, -1e6, edges[0] - 1.0, edges[-1] + 1.0, 1e6, 1e300, 0.0, -0.0],
        rng.normal(amp / 2.0, 2.0, 4096),
    ])
    np.testing.assert_array_equal(_bin_index(_padded(edges), x),
                                  np.searchsorted(edges, x, side="right"))


def test_bin_index_of_no_values():
    edges = np.linspace(-2.5, 2.5, HIST_BINS + 1)
    k = _bin_index(_padded(edges), np.empty(0))
    assert k.dtype == np.intp and k.shape == (0,)


_ODD_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324, -5e-324])


@settings(max_examples=200, deadline=None)
@given(if_true=_ODD_FLOATS, if_false=_ODD_FLOATS, ulp_apart=st.booleans(),
       mask=st.lists(st.booleans(), max_size=300))
def test_select_matches_where_bit_for_bit(if_true, if_false, ulp_apart, mask):
    if ulp_apart:
        with np.errstate(over="ignore"):  # the largest float's partner is inf
            if_false = float(np.nextafter(if_true, np.inf))
    truth = np.array(mask, dtype=bool)
    got, want = _select(truth, if_true, if_false), np.where(truth, if_true, if_false)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_select_keeps_the_sign_of_zero():
    got = _select(np.array([True, False, True]), -0.0, 0.0)
    assert np.signbit(got).tolist() == [True, False, True]


def _reference_blocks(cfg, n):
    """The columns (truth, tap_outcome, accepted, verify_x) of trials [0, n),
    block by block, written out plainly from the randomness contract: Philox
    keyed by (seed, block), four uniforms per trial, np.where selects and
    every trial's tap quadrature from ndtri and cos."""
    mix, det = cfg.mixture, cfg.detector
    sqrt_r, sqrt_t = math.sqrt(mix.tap_reflectivity), math.sqrt(mix.transmissivity)
    alpha = mix.alpha.magnitude
    for start in range(0, n, BLOCK_SIZE):
        key = np.array([cfg.seed, start // BLOCK_SIZE], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(
            (min(BLOCK_SIZE, n - start), 4))
        normal = 0.5 * ndtri(np.clip(u, 2.0**-53, 1.0 - 2.0**-53))
        truth = u[:, 0] < mix.p
        if isinstance(det, (IdealOnOff, Apd)):
            tap = accepted = u[:, 1] < np.where(
                truth, acceptance_probability(det, sqrt_r * alpha),
                acceptance_probability(det, sqrt_r * cfg.prep_error))
        else:
            tap = np.where(truth, sqrt_r * alpha, sqrt_r * cfg.prep_error)
            tap = tap * effective_displacement(det, 1.0)
            if isinstance(det, HomodyneRandomized):
                tap = tap * np.cos((u[:, 2] - 0.5) * (2.0 * np.pi))
            tap = tap + normal[:, 1]
            accepted = np.abs(tap) > det.threshold
        verify_x = np.where(truth, sqrt_t * alpha, sqrt_t * cfg.prep_error) + normal[:, 3]
        yield truth, tap, accepted, verify_x


def _reference_run(cfg):
    """Counts and histograms of ``cfg`` from ``_reference_blocks``, by
    searchsorted binning and boolean sums."""
    edges = _hist_edges(cfg)
    counts = np.zeros(4, dtype=np.int64)
    h_all = np.zeros(len(edges) + 1, dtype=np.int64)
    h_acc = np.zeros(len(edges) + 1, dtype=np.int64)
    for truth, _, accepted, verify_x in _reference_blocks(cfg, cfg.trials):
        counts += [truth.sum(), (truth & accepted).sum(), (~truth).sum(),
                   (~truth & accepted).sum()]
        k = np.searchsorted(edges, verify_x, side="right")
        h_all += np.bincount(k, minlength=len(edges) + 1)
        h_acc += np.bincount(k[accepted], minlength=len(edges) + 1)
    return counts.tolist(), h_all, h_acc


@st.composite
def _any_detector(draw):
    kind = draw(st.sampled_from(["ideal", "apd", "hds", "hdr"]))
    if kind == "ideal":
        return IdealOnOff()
    eta = draw(st.floats(0.05, 1.0))
    if kind == "apd":
        return Apd(eta=eta, dark_prob=draw(st.floats(0.0, 0.1)))
    cls = HomodyneStabilized if kind == "hds" else HomodyneRandomized
    return cls(eta=eta, threshold=draw(st.floats(0.0, 3.0)),
               efficiency_model=draw(st.sampled_from(["linear", "sqrt"])))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sweep_matches_a_plain_reference(data):
    trials = data.draw(st.integers(1, 2 * BLOCK_SIZE + 999).filter(lambda t: t % BLOCK_SIZE))
    seed = data.draw(st.integers(0, 2**64 - 1))
    workers = data.draw(st.sampled_from([1, 2]))
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cfgs = [make_cfg(data.draw(_any_detector()), p=data.draw(unit),
                     alpha_sq=data.draw(st.floats(0.0, 6.0)), tap=data.draw(unit),
                     prep_error=data.draw(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 1.5)),
                     trials=trials, seed=seed, workers=workers)
            for _ in range(data.draw(st.integers(1, 4)))]
    for res, cfg in zip(run_sweep(cfgs), cfgs, strict=True):
        counts, h_all, h_acc = _reference_run(cfg)
        assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
                res.n_accepted_vacuum] == counts
        np.testing.assert_array_equal(res.hist_all.counts, h_all)
        np.testing.assert_array_equal(res.hist_accepted.counts, h_acc)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_records_match_a_plain_reference(data):
    # every detector kind, light leaked into the vacuum slots, pulls across a
    # block boundary: each column equals the reference's bit for bit
    n = data.draw(st.integers(BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 999))
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    cfg = make_cfg(data.draw(_any_detector()), p=data.draw(unit),
                   alpha_sq=data.draw(st.floats(0.0, 6.0)), tap=data.draw(unit),
                   prep_error=data.draw(st.floats(0.0, 1.5, exclude_min=True)),
                   trials=n + data.draw(st.integers(0, BLOCK_SIZE)),
                   seed=data.draw(st.integers(0, 2**64 - 1)))
    records = sample_trials(cfg, n)
    want = [np.concatenate(column) for column in zip(*_reference_blocks(cfg, n))]
    for name, column in zip(_COLUMNS, want, strict=True):
        got = getattr(records, name)
        assert got.dtype == column.dtype and got.tobytes() == column.tobytes(), name


@st.composite
def _grouped_sweeps(draw, workers):
    """Configurations with any detector on a pool of one to three mixture
    halves, each used at least once, in interleaved order.  A pool entry
    after the first is a fresh draw or a near-miss of the first that differs
    only in p, prep_error, tap or |alpha| (at zero, possibly only by the
    sign).  p and tap include 0 and 1, and every zero comes with either sign."""
    zero = st.sampled_from([0.0, -0.0])
    fields = {"p": zero | st.just(1.0) | st.floats(0.0, 1.0),
              "tap": zero | st.just(1.0) | st.floats(0.0, 1.0),
              "alpha": zero | st.floats(0.0, 2.5),
              "prep_error": zero | st.floats(0.0, 1.5)}
    fresh = st.fixed_dictionaries(fields)
    pool = [draw(fresh)]
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from([None, *fields]))
        if field is None:
            pool.append(draw(fresh))
            continue
        v = pool[0][field]
        pool.append({**pool[0], field: draw(st.just(-v) | fields[field] if v == 0.0
                                            else fields[field])})
    picks = [*range(len(pool)), *draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))]
    seed = draw(st.integers(0, 2**64 - 1))
    return [McConfig(seed=seed, trials=BLOCK_SIZE + 777, detector=draw(_any_detector()),
                     mixture=ErasureMixture(CoherentAmplitude(pool[i]["alpha"]), pool[i]["p"],
                                            pool[i]["tap"]),
                     workers=workers, prep_error=pool[i]["prep_error"])
            for i in draw(st.permutations(picks))]


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_grouped_sweep_matches_runs_alone_and_the_reference(workers, data):
    cfgs = data.draw(_grouped_sweeps(workers))
    for res, cfg in zip(run_sweep(cfgs), cfgs, strict=True):
        alone = run_trials(cfg)
        counts, h_all, h_acc = _reference_run(cfg)
        assert res.config is cfg
        assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
                res.n_accepted_vacuum] == [alone.n_coherent, alone.n_accepted_coherent,
                                           alone.n_vacuum, alone.n_accepted_vacuum] == counts
        np.testing.assert_array_equal(res.hist_all.edges, alone.hist_all.edges)
        for got, want in ((res.hist_all.counts, alone.hist_all.counts),
                          (res.hist_accepted.counts, alone.hist_accepted.counts)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(res.hist_all.counts, h_all)
        np.testing.assert_array_equal(res.hist_accepted.counts, h_acc)


@pytest.mark.parametrize("workers", [1, 2])
def test_near_miss_mixtures_keep_their_own_halves(workers):
    # A base mixture and one variant per field of the mixture half, each
    # between two detectors on the base: grouping on fewer fields, or handing
    # a configuration another group's half, changes some count.
    base = {"p": 0.5, "tap": 0.4, "alpha": 1.2, "prep_error": 0.0}
    variants = [base, *({**base, field: value} for field, value in (
        ("p", 0.8), ("tap", 0.7), ("alpha", 0.3), ("prep_error", 0.9)))]
    cfgs = []
    for m in variants:
        for det in (DETECTORS["hds"], IdealOnOff()):
            cfgs.append(McConfig(seed=17, trials=BLOCK_SIZE + 777, detector=det,
                                 mixture=ErasureMixture(CoherentAmplitude(m["alpha"]), m["p"],
                                                        m["tap"]),
                                 workers=workers, prep_error=m["prep_error"]))
    for res, cfg in zip(run_sweep(cfgs), cfgs, strict=True):
        counts, h_all, h_acc = _reference_run(cfg)
        assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
                res.n_accepted_vacuum] == counts
        np.testing.assert_array_equal(res.hist_all.counts, h_all)
        np.testing.assert_array_equal(res.hist_accepted.counts, h_acc)


@st.composite
def _homodyne_filters(draw):
    cls = draw(st.sampled_from([HomodyneStabilized, HomodyneRandomized]))
    zero, small, large = st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-3, 4.0)
    return cls(eta=draw(st.sampled_from([1.0]) | st.floats(0.05, 1.0)),
               threshold=draw(zero | small | large),
               efficiency_model=draw(st.sampled_from(["linear", "sqrt"])))


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cut_decisions_count_as_the_tap_quadrature_does(workers, data):
    # every homodyne count of a counts-only sweep equals the outcome formula
    # |sqrt(R) amp kappa (cos) + noise| > B evaluated on every trial
    edge = st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1])
    trials = data.draw(edge | st.integers(1, 2 * BLOCK_SIZE + 999))
    seed = data.draw(st.integers(0, 2**64 - 1))
    cfgs = [make_cfg(data.draw(_homodyne_filters()),
                     p=data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                     alpha_sq=data.draw(st.floats(0.0, 900.0)), tap=data.draw(st.floats(0.0, 1.0)),
                     prep_error=data.draw(st.just(0.0) | st.floats(0.0, 1.5)),
                     trials=trials, seed=seed, workers=workers)
            for _ in range(data.draw(st.integers(1, 3)))]
    for res, cfg in zip(run_sweep(cfgs, histograms=False), cfgs, strict=True):
        assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
                res.n_accepted_vacuum] == _reference_run(cfg)[0]


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_wide_cuts_keep_the_golden_counts(wide_guard, key):
    kind, seed = key.split("-")
    cfg = make_cfg(DETECTORS[kind], trials=3 * BLOCK_SIZE + 1500, seed=int(seed),
                   prep_error=_GOLDEN_PREP_ERROR[kind])
    for res in (run_trials(cfg), run_trials(cfg, histograms=False)):
        assert [res.n_coherent, res.n_accepted_coherent, res.n_vacuum,
                res.n_accepted_vacuum] == _GOLDEN[key]["counts"]
    assert run_trials(cfg).hist_accepted.counts.tolist() == _GOLDEN[key]["hist_accepted"]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_a_cut_without_guard_misdecides_a_trial_at_the_threshold(monkeypatch, seed):
    # With no light on the tap the quadrature is the noise n = ndtri(u1) / 2.
    # Put the threshold at one trial's n: that trial rejects (n > n is false),
    # but ndtr(ndtri(u1)) rounds below u1 for it, so a bare cut accepts it.
    from vacfilter import montecarlo

    key = np.array([seed, 0], dtype=np.uint64)
    u1 = np.random.Generator(np.random.Philox(key=key)).random((BLOCK_SIZE, 4))[:, 1]
    t = int(np.flatnonzero((u1 > 0.5) & (ndtr(ndtri(u1)) < u1))[0])
    cfg = make_cfg(HomodyneStabilized(eta=1.0, threshold=0.5 * ndtri(u1[t])), p=0.0,
                   trials=t + 1, seed=seed)
    counts = _reference_run(cfg)[0]

    def run():
        res = run_trials(cfg, histograms=False)
        return [res.n_coherent, res.n_accepted_coherent, res.n_vacuum, res.n_accepted_vacuum]

    assert run() == counts
    monkeypatch.setattr(montecarlo, "_GUARD", 0.0)
    assert run() == [*counts[:3], counts[3] + 1]


class TestVerificationHistograms:
    def test_vacuum_variance_matches(self):
        cfg = make_cfg(IdealOnOff(), p=0.0, trials=100_000)
        res = run_trials(cfg)
        edges = res.hist_all.edges
        mids = 0.5 * (edges[:-1] + edges[1:])
        counts = res.hist_all.counts[1:-1]
        mean = float(np.average(mids, weights=counts))
        var = float(np.average((mids - mean) ** 2, weights=counts))
        # binned variance approximates 1/4; binning inflates it by w^2/12
        width = edges[1] - edges[0]
        se = 0.25 * math.sqrt(2.0 / counts.sum())
        assert abs(var - width**2 / 12.0 - 0.25) < 3 * se + 1e-3

    def test_accepted_mean_grows_with_tap_photons(self):
        means = []
        for alpha_sq in (0.8, 2.0, 3.3):
            cfg = make_cfg(IdealOnOff(), p=0.5, alpha_sq=alpha_sq, trials=60_000)
            res = run_trials(cfg)
            hist = res.hist_accepted
            mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
            means.append(float(np.average(mids, weights=hist.counts[1:-1])))
        assert means[0] < means[1] < means[2]

    def test_chi2_accepts_the_true_model(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        cfg = make_cfg(det, p=0.02, trials=100_000, seed=5150)
        res = run_trials(cfg)
        for condition in ("all", "accepted"):
            stat, dof, pval = verification_chi2(res, condition)
            assert pval > 0.01, f"{condition}: chi2={stat:.1f} dof={dof} p={pval:.4f}"
        for condition in ("rejected", "vacuum"):
            with pytest.raises(ValueError, match="condition must be all/accepted"):
                verification_chi2(res, condition)

    def test_empty_subset_raises(self):
        cfg = make_cfg(IdealOnOff(), p=0.0, trials=2000)  # never accepts: E = 0
        res = run_trials(cfg)
        with pytest.raises(ValueError, match="no trials"):
            verification_chi2(res, "accepted")
        assert res.g_hat is None

    def test_a_run_without_histograms_has_none_to_fit(self):
        res = run_trials(make_cfg(IdealOnOff(), trials=2000), histograms=False)
        for condition in ("all", "accepted"):
            with pytest.raises(ValueError, match="made without histograms"):
                verification_chi2(res, condition)


class TestChi2:
    def test_uniform_fit(self):
        rng = np.random.default_rng(8)
        counts = rng.multinomial(10_000, [0.25] * 4)
        stat, dof, p = chi2_gof(np.concatenate([[0], counts, [0]]),
                                np.array([0.0, 0.25, 0.25, 0.25, 0.25, 0.0]))
        assert dof == 3
        assert p > 0.001

    def test_bad_fit_rejected(self):
        counts = np.array([0, 9000, 1000, 0])
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        _, _, p = chi2_gof(counts, probs)
        assert p < 1e-10


class TestPrepErrorCalibration:
    def test_roundtrip_against_closed_form(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        leak = calibrate_prep_error(det, 0.5, E_MATCH)
        assert acceptance_probability(det, math.sqrt(0.5) * leak) == pytest.approx(
            E_MATCH, abs=1e-12
        )

    def test_measured_error_hits_target(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        leak = calibrate_prep_error(det, 0.5, E_MATCH)
        cfg = make_cfg(det, p=0.02, trials=400_000, prep_error=leak)
        res = run_trials(cfg)
        se = math.sqrt(E_MATCH * (1 - E_MATCH) / res.n_vacuum)
        assert abs(res.e_hat - E_MATCH) < 3 * se

    def test_target_below_intrinsic_error_rejected(self):
        det = Apd(eta=0.63, dark_prob=1e-3)
        with pytest.raises(ValueError, match="below intrinsic"):
            calibrate_prep_error(det, 0.5, 1e-4)

    @pytest.mark.parametrize("target, message", [
        (1.5, "stays below 1"),
        (1.0, "stays below 1"),
        (float("nan"), "must be finite"),
        (float("inf"), "must be finite"),
    ])
    def test_unreachable_target_rejected(self, target, message):
        with pytest.raises(ValueError, match=message):
            calibrate_prep_error(Apd(eta=0.8, dark_prob=1e-3), 0.5, target)

    def test_dark_tap_rejected(self):
        with pytest.raises(ValueError, match="tap reflectivity 0"):
            calibrate_prep_error(Apd(eta=0.8, dark_prob=1e-3), 0.0, 0.01)
        assert calibrate_prep_error(Apd(eta=0.8, dark_prob=1e-3), 0.0, 1e-3) == 0.0

    def test_target_beyond_a_weak_detector_rejected(self):
        det = HomodyneStabilized(eta=1e-6, threshold=1.0)
        with pytest.raises(ValueError) as info:
            calibrate_prep_error(det, 0.5, 0.9)
        assert str(info.value) == ("target error 0.9 not reached by this detector "
                                   "at prep_error up to 1024.0")

    @pytest.mark.parametrize("det", [
        IdealOnOff(),
        Apd(eta=0.63, dark_prob=1.4e-4),
        HomodyneStabilized(eta=0.63, threshold=threshold_for_error(E_MATCH)),
        HomodyneRandomized(eta=0.63, threshold=threshold_for_error(E_MATCH)),
    ], ids=["ideal", "apd", "hds", "hdr"])
    @settings(max_examples=15, deadline=None)
    @given(tap=st.floats(0.05, 1.0), excess=st.floats(1e-4, 0.9))
    def test_bisection_matches_brentq(self, det, tap, excess):
        from scipy.optimize import brentq

        base = error_probability(det)
        target = base + excess * (1.0 - base)
        ref = brentq(lambda amp: acceptance_probability(det, math.sqrt(tap) * amp) - target,
                     0.0, 1024.0, xtol=1e-15)
        assert abs(calibrate_prep_error(det, tap, target) - ref) <= 1e-12


class TestConfigValidation:
    def test_bad_config_rejected(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            McConfig(seed=1, trials=0, detector=IdealOnOff(), mixture=mix)
        with pytest.raises(ValueError):
            McConfig(seed=1, trials=10, detector=IdealOnOff(), mixture=mix, workers=0)
        with pytest.raises(ValueError):
            McConfig(seed=1, trials=10, detector=IdealOnOff(), mixture=mix, prep_error=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="prep_error"):
                McConfig(seed=1, trials=10, detector=IdealOnOff(), mixture=mix,
                         prep_error=bad)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("trials", 1000.5),
                                              ("workers", 1.5)])
    def test_non_integer_count_rejected(self, field, value):
        # seed=1.5 once ran as seed 1, workers=1.5 passed, trials=1000.5 failed in the block loop
        mix = ErasureMixture(CoherentAmplitude(1.0), 0.5, 0.5)
        fields = {"seed": 1, "trials": 1000, "workers": 1, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an integer, got {value}"):
            McConfig(detector=IdealOnOff(), mixture=mix, **fields)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 3])
    def test_seed_outside_the_philox_key_rejected(self, seed):
        # a seed once entered Philox modulo 2^64: -1 drew the trials of 2^64 - 1
        mix = ErasureMixture(CoherentAmplitude(1.0), 0.5, 0.5)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            McConfig(seed=seed, trials=10, detector=IdealOnOff(), mixture=mix)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_domain_ends_run(self, seed):
        mix = ErasureMixture(CoherentAmplitude(1.0), 0.5, 0.5)
        assert run_trials(McConfig(seed=seed, trials=1000, detector=IdealOnOff(),
                                   mixture=mix)).trials == 1000

    def test_infinite_amplitude_rejected(self):
        # an infinite amplitude once reached run_trials and failed there with an
        # IndexError from NaN histogram edges
        with pytest.raises(ValueError, match="coherent amplitude"):
            run_trials(McConfig(seed=1, trials=10, detector=IdealOnOff(),
                                mixture=ErasureMixture(CoherentAmplitude(math.inf), 0.5, 0.5)))
