import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
from spikesr.events import EventError, EventStream, downsample_2x
from spikesr import metrics
from spikesr.metrics import DegenerateStreamError, MetricsReport, rmse_st
from spikesr.synth import synth_moving_bar


def stream_of(events, width, height, t0=None, t1=None):
    t = [e[0] for e in events]
    x = [e[1] for e in events]
    y = [e[2] for e in events]
    p = [e[3] for e in events]
    return EventStream(t, x, y, p, width, height, t0=t0, t1=t1)


def check_against_oracle(out, gt, steps, dt):
    """Every figure of rmse_st(out, gt, steps, dt) equals the event-loop oracles'."""
    got = rmse_st(out, gt, steps, dt)
    want, mse_t, mse_s, n_p = helpers.rmse_st_oracle(out, gt, steps, dt)
    assert (got.mse_t_raw, got.mse_s_raw, got.n_p) == (mse_t, mse_s, n_p)
    assert got.rmse_st == pytest.approx(want, rel=1e-12)
    t0 = min(s.t0 for s in (out, gt) if len(s))
    assert (got.pa_percent, got.pa_vacuous) == helpers.pa_oracle(out, gt, steps, t0, dt)


def edge_scene(name):
    """(out, gt, steps, dt) of a 3x2 pair whose events sit where grading one
    50 ms block at a time could slip; the random part is seeded per scene."""
    ms = 1000
    steps, dt, spread, edges = {
        "on_block_edges": (200, 1.0, 200 * ms, [0, 49_999, 50_000, 50_000, 99_999, 100_000,
                                                150_000, 199_999]),
        "on_the_closing_edge": (120, 1.0, 120 * ms, [119_999, 120_000, 120_000, 120_000]),
        "past_the_grid": (100, 1.0, 180 * ms, [99_999, 100_000, 100_001, 150_000]),
        "empty_block_between_busy_ones": (250, 1.0, 250 * ms, [49_999, 150_000]),
        "half_ms_steps_on_block_edges": (400, 0.5, 200 * ms, [49_999, 50_000, 100_000, 199_500]),
        "steps_longer_than_a_block": (17, 120.0, 2_000 * ms, [0, 120_000, 240_000, 1_920_000,
                                                               2_040_000, 2_040_001]),
    }[name]
    rng = np.random.default_rng(sorted(EDGE_SCENES).index(name))

    def stream():
        t = np.r_[rng.integers(0, spread + 1, 300), edges]
        if name == "empty_block_between_busy_ones":
            t = t[(t < 50_000) | (t >= 150_000)]
        return EventStream(np.sort(t), rng.integers(0, 3, t.size), rng.integers(0, 2, t.size),
                           rng.choice([1, -1], t.size), 3, 2, t0=0)
    return stream(), stream(), steps, dt


# Each scene's (rmse_st, mse_t_raw, mse_s_raw, n_p, pa_percent, dropped, span_ms) as
# the pair-wide sort graded them before rmse_st went block by block
EDGE_SCENES = {
    "on_block_edges": (1.0066471079903492, 632.0, 584.0, 6, 42.10526315789474, 0, 199.999),
    "on_the_closing_edge": (1.1737877907772674, 616.0, 376.0, 6, 42.25352112676056, 0, 120.0),
    "past_the_grid": (0.99498743710662, 310.0, 284.0, 6, 54.285714285714285, 264, 100.0),
    "empty_block_between_busy_ones": (0.731390451766471, 356.0, 446.0, 6, 50.0, 0, 249.876),
    "half_ms_steps_on_block_edges": (0.9431937118310891, 588.0, 478.0, 6, 72.22222222222223, 0,
                                     199.712),
    "steps_longer_than_a_block": (0.31777412128249644, 618.0, 618.0, 6, 40.35087719298246, 2,
                                  2040.0),
}


class TestMseTemporal:
    def test_identity(self, rng):
        s = helpers.random_stream(rng, 6, 6, 10, 40)
        assert rmse_st(s, s, 10).mse_t_raw == 0.0

    def test_hand_value(self):
        # voxel counts at (0, 0), positive channel: out (2, 0, 1), gt (0, 1, 1)
        out = stream_of([(100, 0, 0, 1), (200, 0, 0, 1), (2_100, 0, 0, 1)], 2, 2,
                        t0=0, t1=3_000)
        gt = stream_of([(1_100, 0, 0, 1), (2_100, 0, 0, 1)], 2, 2, t0=0, t1=3_000)
        assert rmse_st(out, gt, 3).mse_t_raw == 5.0


class TestMseSpatial:
    def test_partial_last_block(self):
        # 70 steps of 1 ms into 50 ms blocks: second block holds 20 steps
        out = stream_of([(60_500, 0, 0, 1)] * 3, 1, 1, t0=0, t1=70_000)
        gt = stream_of([(69_500, 0, 0, 1)], 1, 1, t0=0, t1=70_000)
        assert rmse_st(out, gt, 70).mse_s_raw == pytest.approx(4.0)


class TestRmseSt:
    def test_identity_is_zero(self, rng):
        for _ in range(5):
            s = helpers.random_stream(rng, 8, 8, 40, 60)
            rep = rmse_st(s, s, 40)
            assert rep.rmse_st == 0.0
            assert rep.pa_percent == 100.0

    def test_hand_value_single_miss(self):
        # gt: one +1 event at (1,1) t=10ms; out: empty; declared 20 ms span
        gt = stream_of([(10_000, 1, 1, 1)], 4, 4, t0=0, t1=20_000)
        out = stream_of([], 4, 4, t0=0, t1=20_000)
        rep = rmse_st(out, gt, 20)
        # mse_t = 1 (one missed voxel), mse_s = 1 (one block), n_p = 1
        assert rep.rmse_st == pytest.approx(math.sqrt(2.0 / 20.0))
        assert rep.n_p == 1 and rep.span_ms == 20.0
        assert rep.mse_t_raw == 1.0 and rep.mse_s_raw == 1.0

    def test_matches_oracle_on_random_streams(self, rng):
        for _ in range(10):
            w, h = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            dur = int(rng.integers(20, 80))
            gt = helpers.random_stream(rng, w, h, dur, int(rng.integers(30, 120)))
            out = helpers.random_stream(rng, w, h, dur, int(rng.integers(0, 120)))
            steps = dur
            got = rmse_st(out, gt, steps)
            want, mse_t, mse_s, n_p = helpers.rmse_st_oracle(out, gt, steps)
            assert got.rmse_st == pytest.approx(want, rel=1e-9)
            assert got.mse_t_raw == mse_t and got.mse_s_raw == mse_s
            assert got.n_p == n_p

    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
    def test_matches_oracle_at_any_step_size(self, rng, dt):
        # spans that are no multiple of 50 ms leave a partial last block
        for k in range(8):
            w, h = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            dur = int(rng.integers(20, 240))
            gt = helpers.random_stream(rng, w, h, dur, int(rng.integers(30, 150)))
            out = helpers.random_stream(rng, w, h, dur, int(rng.integers(0, 150)))
            check_against_oracle(out, gt, math.ceil(dur / dt) - k % 3, dt)

    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0])
    def test_matches_oracle_with_ties_and_an_empty_prediction(self, rng, dt):
        gt = helpers.random_stream(rng, 3, 2, 130, 200)
        # every other event joined by its opposite: cells that tie on one side
        tied = EventStream(np.r_[gt.t, gt.t[::2]], np.r_[gt.x, gt.x[::2]],
                           np.r_[gt.y, gt.y[::2]], np.r_[gt.p, -gt.p[::2]], 3, 2)
        empty = EventStream.empty(3, 2)
        for out, truth in ((tied, gt), (gt, tied), (empty, gt), (tied, tied)):
            check_against_oracle(out, truth, math.ceil(130 / dt), dt)

    @pytest.mark.parametrize("dt", [120.0, 333.0])
    def test_matches_oracle_when_steps_are_longer_than_a_block(self, rng, dt):
        # past 50 ms a step starts a new block, and block ids skip values
        for k in range(4):
            gt = helpers.random_stream(rng, 3, 3, 2000, 150)
            out = helpers.random_stream(rng, 3, 3, 2000, 150)
            check_against_oracle(out, gt, math.ceil(2000 / dt) - k, dt)

    @pytest.mark.parametrize("batch", [1, 7, metrics.BATCH_EVENTS])
    @pytest.mark.parametrize("name", sorted(EDGE_SCENES))
    def test_block_by_block_grades_like_the_whole_pair(self, monkeypatch, name, batch):
        # a batch of 1 event grades each block alone; the default takes each scene whole
        monkeypatch.setattr(metrics, "BATCH_EVENTS", batch)
        out, gt, steps, dt = edge_scene(name)
        check_against_oracle(out, gt, steps, dt)
        rep = rmse_st(out, gt, steps, dt)
        assert (rep.rmse_st, rep.mse_t_raw, rep.mse_s_raw, rep.n_p, rep.pa_percent, rep.dropped,
                rep.span_ms) == EDGE_SCENES[name]

    @pytest.mark.parametrize("dt,steps", [(1.0, 130), (2.0, 65), (2.0, 61)])
    def test_slice_by_slice_grades_like_the_whole_batch(self, monkeypatch, rng, dt, steps):
        # each slice ends at a pixel's first key, so a slice of 1 to 3 keys holds one
        # pixel's keys, 12 a side on the busy pixel; 130 ms ends in a partial block
        gt, out = (helpers.random_stream(rng, 3, 2, 130, 60) for _ in range(2))
        busy = EventStream(np.r_[gt.t, np.arange(0, 120_000, 10_000)],
                           np.r_[gt.x, np.zeros(12, int)], np.r_[gt.y, np.zeros(12, int)],
                           np.r_[gt.p, np.ones(12, int)], 3, 2)
        pairs = [(out, gt), (busy, gt), (out, busy)]
        default = [rmse_st(o, g, steps, dt) for o, g in pairs]
        for size in (1, 2, 3, 11):
            monkeypatch.setattr(metrics, "SLICE_KEYS", size)
            for (o, g), want in zip(pairs, default):
                assert rmse_st(o, g, steps, dt) == want
                check_against_oracle(o, g, steps, dt)

    def test_sparse_blocks_share_a_sort(self, monkeypatch, rng):
        # 2,000 events a side over 1,000 blocks: one batch, so one set of keys a side
        gt, out = (helpers.random_stream(rng, 16, 16, 50_000, 2000) for _ in range(2))
        calls = []
        inner = metrics._batch_keys
        monkeypatch.setattr(metrics, "_batch_keys", lambda *a: calls.append(a) or inner(*a))
        check_against_oracle(out, gt, 50_000, 1.0)
        assert len(calls) == 2

    def test_memory_follows_one_batch_not_the_pair(self, monkeypatch, rng):
        # rmse_st holds one batch of blocks' keys at a time, so a pair three times
        # as long, at the same event rate, peaks about as high.  Batches of 10,000
        # events a side take one 50 ms block each here
        monkeypatch.setattr(metrics, "BATCH_EVENTS", 10_000)
        gt, out = (helpers.random_stream(rng, 64, 64, 300, 60_000) for _ in range(2))
        peaks = []
        for k in (1, 3):
            long_gt, long_out = (helpers.repeated(s, k, 1_000) for s in (gt, out))
            tracemalloc.start()
            try:
                rmse_st(long_out, long_gt, k * 301)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_memory_follows_the_events_not_the_steps(self):
        # three events on a grid of 10^7 steps
        gt = stream_of([(0, 0, 0, 1), (5_000, 1, 0, -1)], 2, 2)
        out = stream_of([(2_000, 1, 1, 1)], 2, 2)
        tracemalloc.start()
        try:
            rmse_st(out, gt, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_memory_follows_the_events_not_the_grid(self, rng):
        # one [2, 256, 256, 200] grid of doubles is 200 MiB; each stream holds 2,000 events
        gt, out = (helpers.random_stream(rng, 256, 256, 200, 2000) for _ in range(2))
        tracemalloc.start()
        try:
            rmse_st(out, gt, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak

    def test_memory_of_a_large_pair(self, rng):
        # 250,000 events a side over six 50 ms blocks, graded one block at a time.
        # The measured peak is 2.1 MiB (9.9 MiB with each batch's figures read from
        # all its keys at once, 43.2 MiB with one sort of the whole pair's keys,
        # 68.9 MiB with five np.unique calls); the bound of 12 MiB was set for 9.9
        gt, out = (helpers.random_stream(rng, 128, 128, 300, 250_000) for _ in range(2))
        tracemalloc.start()
        try:
            rmse_st(out, gt, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20, peak

    def test_keys_past_int64_grade_like_a_short_grid(self, rng):
        # on the long grid the keys of pixel 8 pass 2**63; steps past the last
        # event change no figure, and 1 us steps make four 50 ms blocks
        gt, out = (helpers.random_stream(rng, 3, 3, 200, 600) for _ in range(2))
        short = rmse_st(out, gt, 200_001, 0.001)
        long = rmse_st(out, gt, 3 * 10 ** 17, 0.001)
        assert short == long and short.n_p == 9

    def test_does_not_import_numpy_ma(self):
        # numpy.ma costs 13 ms and 1 MiB in every `eval` and `train` process
        code = ("import sys; from spikesr import rmse_st, synth_moving_bar; "
                "s = synth_moving_bar(8, 8, 20.0, 0.3, 2.0, seed=1); rmse_st(s, s, 20); "
                "assert 'numpy.ma' not in sys.modules")
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_empty_ground_truth_rejected(self):
        gt = stream_of([], 4, 4, t0=0, t1=10_000)
        out = stream_of([(1_000, 0, 0, 1)], 4, 4)
        with pytest.raises(DegenerateStreamError):
            rmse_st(out, gt, 10)

    def test_zero_span_rejected(self):
        gt = stream_of([(5_000, 1, 1, 1)], 4, 4, t0=5_000, t1=5_000)
        out = stream_of([], 4, 4, t0=5_000, t1=5_000)
        with pytest.raises(DegenerateStreamError):
            rmse_st(out, gt, 10)

    def test_geometry_mismatch_rejected(self):
        gt = stream_of([(1_000, 1, 1, 1)], 4, 4)
        out = stream_of([(1_000, 1, 1, 1)], 8, 8)
        with pytest.raises(EventError):
            rmse_st(out, gt, 10)

    def test_span_is_union_of_both_streams(self):
        gt = stream_of([(2_000, 1, 1, 1)], 4, 4, t0=2_000, t1=6_000)
        out = stream_of([(0, 0, 0, 1)], 4, 4, t0=0, t1=1_000)
        rep = rmse_st(out, gt, 6)
        assert rep.span_ms == 6.0

    def test_reports_dropped_events(self):
        # 32 one-millisecond steps cover only the first half of a 64 ms stream
        gt = downsample_2x(synth_moving_bar(32, 32, 64.0, 0.3, 2.0, seed=1))
        empty = EventStream.empty(gt.width, gt.height)
        half = rmse_st(empty, gt, 32)
        late = int(np.count_nonzero(gt.t - gt.t0 >= 32_000))
        assert half.dropped == late > 0
        assert rmse_st(empty, gt, 64).dropped == 0

    def test_span_is_the_graded_part(self):
        # 40 one-millisecond steps grade the first 40 ms of a 64 ms pair
        gt = downsample_2x(synth_moving_bar(32, 32, 64.0, 0.3, 2.0, seed=1))
        out = EventStream(gt.t[::2], gt.x[::2], gt.y[::2], gt.p[::2], gt.width, gt.height)
        rep = rmse_st(out, gt, 40)
        assert rep.dropped > 0
        assert rep.span_ms == 40.0
        assert rep.rmse_st == math.sqrt((rep.mse_t_raw + rep.mse_s_raw) / (40.0 * rep.n_p))
        want, mse_t, mse_s, n_p = helpers.rmse_st_oracle(out, gt, 40)
        assert (rep.mse_t_raw, rep.mse_s_raw, rep.n_p) == (mse_t, mse_s, n_p)
        assert rep.rmse_st == pytest.approx(want, rel=1e-12)

    def test_memory_does_not_grow_with_steps(self):
        # whole-grid voxel tensors of both streams would grow with the step count
        gt = downsample_2x(synth_moving_bar(32, 32, 20.0, 0.3, 2.0, seed=1))
        out = EventStream(gt.t[::2], gt.x[::2], gt.y[::2], gt.p[::2], gt.width, gt.height)
        peaks = []
        for steps in (150, 1200):
            tracemalloc.start()
            try:
                rmse_st(out, gt, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_normalized_fields(self, rng):
        gt = helpers.random_stream(rng, 6, 6, 30, 80)
        out = helpers.random_stream(rng, 6, 6, 30, 40)
        rep = rmse_st(out, gt, 30)
        assert rep.mse_t_norm == pytest.approx(rep.mse_t_raw / rep.n_p)
        assert rep.mse_s_norm == pytest.approx(rep.mse_s_raw / rep.n_p)


class TestPolarityAccuracy:
    def test_identity_100(self, rng):
        s = helpers.random_stream(rng, 6, 6, 30, 50)
        assert rmse_st(s, s, 30).pa_percent == 100.0

    def test_flipped_is_zero(self, rng):
        s = helpers.random_stream(rng, 6, 6, 30, 50)
        flipped = EventStream(s.t, s.x, s.y, -s.p, s.width, s.height,
                              t0=s.t0, t1=s.t1)
        assert rmse_st(flipped, s, 30).pa_percent == 0.0

    def test_half_agreement(self):
        # two occupied cells, one polarity match and one mismatch
        gt = stream_of([(500, 0, 0, 1), (500, 1, 1, -1)], 4, 4, t0=0, t1=1_000)
        out = stream_of([(500, 0, 0, 1), (500, 1, 1, 1)], 4, 4, t0=0, t1=1_000)
        assert rmse_st(out, gt, 1).pa_percent == 50.0

    def test_tied_cells_excluded(self):
        # out has +1 and -1 in one cell (tied): cell drops from the count
        gt = stream_of([(500, 0, 0, 1), (500, 1, 1, 1)], 4, 4, t0=0, t1=1_000)
        out = stream_of([(200, 0, 0, 1), (700, 0, 0, -1),
                         (500, 1, 1, 1)], 4, 4, t0=0, t1=1_000)
        assert rmse_st(out, gt, 1).pa_percent == 100.0

    def test_disjoint_cells_vacuous(self):
        gt = stream_of([(500, 0, 0, 1)], 4, 4, t0=0, t1=1_000)
        out = stream_of([(500, 3, 3, 1)], 4, 4, t0=0, t1=1_000)
        rep = rmse_st(out, gt, 1)
        assert rep.pa_percent == 100.0 and rep.pa_vacuous

    def test_empty_stream_vacuous(self):
        gt = stream_of([(500, 0, 0, 1)], 4, 4, t0=0, t1=1_000)
        out = stream_of([], 4, 4)
        rep = rmse_st(out, gt, 1)
        assert rep.pa_percent == 100.0 and rep.pa_vacuous

    def test_symmetric(self, rng):
        a = helpers.random_stream(rng, 6, 6, 40, 60)
        b = helpers.random_stream(rng, 6, 6, 40, 60)
        assert rmse_st(a, b, 40).pa_percent == rmse_st(b, a, 40).pa_percent

    def test_matches_oracle(self, rng):
        for _ in range(10):
            a = helpers.random_stream(rng, 8, 8, 50, 100)
            b = helpers.random_stream(rng, 8, 8, 50, 100)
            want = helpers.pa_oracle(a, b, 50, min(a.t0, b.t0))[0]
            assert rmse_st(a, b, 50).pa_percent == want


class TestMetricsReport:
    def test_event_counts_follow_dropped(self, rng):
        gt = helpers.random_stream(rng, 6, 6, 30, 60)
        out = helpers.random_stream(rng, 6, 6, 30, 25)
        rep = rmse_st(out, gt, 20)
        assert MetricsReport.FIELDS[-3:] == ("dropped", "n_pred", "n_gt")
        assert (rep.n_pred, rep.n_gt) == (25, 60) and rep.dropped > 0

    def test_kv_and_csv_round_trip(self, rng):
        gt = helpers.random_stream(rng, 6, 6, 30, 60)
        out = helpers.random_stream(rng, 6, 6, 30, 30)
        rep = rmse_st(out, gt, 30)
        kv = dict(line.split("=") for line in rep.to_kv().splitlines())
        assert set(kv) == set(MetricsReport.FIELDS)
        assert float(kv["rmse_st"]) == rep.rmse_st
        row = rep.to_csv_row().split(",")
        assert len(row) == len(MetricsReport.FIELDS)
        header = MetricsReport.csv_header().split(",")
        assert header[0] == "rmse_st"
