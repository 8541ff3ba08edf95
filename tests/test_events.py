import hashlib

import numpy as np
import pytest

import helpers
from spikesr.events import (EventError, EventStream, _count_voxels, _voxel_index, downsample_2x,
                            event_bins, from_voxel_grid, steps_to_cover)
from spikesr.synth import synth_moving_bar


def stream_of(rows, width, height, **kw):
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return EventStream(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], width, height, **kw)


class TestEventStream:
    def test_sorts_stably(self):
        s = stream_of([[2000, 1, 0, 1], [1000, 2, 0, -1], [1000, 3, 0, 1]], 4, 1)
        assert list(s.t) == [1000, 1000, 2000]
        # ties keep file order
        assert list(s.x) == [2, 3, 1]

    def test_span_derived_and_declared(self):
        s = stream_of([[1000, 0, 0, 1], [5000, 0, 0, 1]], 1, 1)
        assert (s.t0, s.t1) == (1000, 5000)
        s2 = stream_of([[1000, 0, 0, 1]], 1, 1, t0=0, t1=9000)
        assert (s2.t0, s2.t1) == (0, 9000)

    def test_rejects_bad_polarity(self):
        with pytest.raises(EventError):
            stream_of([[0, 0, 0, 2]], 1, 1)

    def test_rejects_out_of_range_coords(self):
        with pytest.raises(EventError):
            stream_of([[0, 5, 0, 1]], 4, 4)
        with pytest.raises(EventError):
            stream_of([[0, 0, -1, 1]], 4, 4)

    def test_rejects_events_outside_declared_span(self):
        with pytest.raises(EventError):
            stream_of([[5000, 0, 0, 1]], 1, 1, t0=0, t1=4000)

    def test_empty(self):
        s = EventStream.empty(8, 8)
        assert len(s) == 0 and (s.t0, s.t1) == (0, 0)


class TestToVoxelGrid:
    """A whole stream binned by event_bins and counted through _voxel_index and _count_voxels."""

    def test_basic_binning(self):
        s = stream_of([[0, 1, 2, 1], [400, 1, 2, 1], [1500, 0, 0, -1]], 4, 4)
        vox, dropped = helpers.voxel_grid(s, 4)
        assert dropped == 0
        assert vox[0, 2, 1, 0] == 2.0
        assert vox[1, 0, 0, 1] == 1.0
        assert vox.sum() == 3.0

    def test_closing_edge_folds_into_last_bin(self):
        s = stream_of([[0, 0, 0, 1], [4000, 0, 0, 1]], 1, 1)
        vox, dropped = helpers.voxel_grid(s, 4)
        assert dropped == 0
        assert vox[0, 0, 0, 3] == 1.0

    def test_beyond_grid_dropped(self):
        s = stream_of([[0, 0, 0, 1], [9999, 0, 0, 1]], 1, 1)
        vox, dropped = helpers.voxel_grid(s, 4)
        assert dropped == 1
        assert vox.sum() == 1.0

    def test_reorder_within_bin_invariant(self, rng):
        s = helpers.random_stream(rng, 6, 6, 20, 80)
        vox, _ = helpers.voxel_grid(s, 20)
        perm = rng.permutation(len(s))
        shuffled = EventStream(s.t[perm], s.x[perm], s.y[perm], s.p[perm],
                               6, 6, t0=s.t0, t1=s.t1)
        vox2, _ = helpers.voxel_grid(shuffled, 20)
        assert np.array_equal(vox, vox2)

    def test_matches_event_loop_oracle(self, rng):
        for _ in range(25):
            s = helpers.random_stream(rng, 8, 8, 30, int(rng.integers(0, 120)))
            steps = int(rng.integers(1, 40))
            vox, dropped = helpers.voxel_grid(s, steps)
            counts, dropped_o = helpers.voxel_oracle(s, steps)
            assert dropped == dropped_o
            dense = np.zeros_like(vox)
            for (c, y, x, b), v in counts.items():
                dense[c, y, x, b] = v
            assert np.array_equal(vox, dense)

    def test_refuses_a_step_count_int64_cannot_hold(self):
        s = stream_of([[0, 0, 0, 1], [4000, 0, 0, -1]], 1, 1)
        top = int(np.iinfo(np.int64).max)
        (ch, _, _, bins), dropped = event_bins(s, top)
        assert ch.tolist() == [0, 1] and bins.tolist() == [0, 4] and dropped == 0
        for steps in (top + 1, 10 ** 19):
            with pytest.raises(EventError, match=f"step count {steps} exceeds the int64 maximum"):
                event_bins(s, steps)


def count_window(coords, height, width, start, stop):
    """Count grid [2, H, W, stop - start] of bins [start, stop), as inference windows count it."""
    return _count_voxels(*_voxel_index(coords, (0, height, 0, width), start, stop))


class TestWholeMicrosecondSteps:
    def test_bins_match_an_integer_oracle(self):
        # every step of 1 to 4,999 us: events on each step boundary, one microsecond
        # before it, on the closing edge of 3 steps and one microsecond past it
        for n in range(1, 5000):
            dt = n / 1000
            t = np.array([0, n - 1, n, 2 * n - 1, 2 * n, 3 * n - 1, 3 * n, 3 * n + 1])
            s = EventStream(t, np.zeros(8), np.zeros(8), np.ones(8), 1, 1)
            spans = (3 * n - 1, 3 * n, 3 * n + 1)
            assert [steps_to_cover(a, dt) for a in spans] == [(a + n - 1) // n for a in spans], n
            want = t // n
            want[t == 3 * n] = 2
            (_, _, _, bins), dropped = event_bins(s, 3, dt)
            assert bins.tolist() == want[want < 3].tolist() and dropped == 1, n
            # each bin's stamp lies inside its bin
            centres = from_voxel_grid(np.ones((2, 1, 1, 3)), dt=dt)
            assert event_bins(centres, 3, dt, origin=0)[0][3].tolist() == [0, 0, 1, 1, 2, 2], n

    @pytest.mark.parametrize("dt", [1 / 3, 0.0005, 0.0, -1.0, float("nan"), float("inf")])
    def test_other_steps_are_refused(self, dt):
        s = EventStream([0], [0], [0], [1], 1, 1)
        for call in (lambda: steps_to_cover(10, dt), lambda: event_bins(s, 3, dt),
                     lambda: from_voxel_grid(np.ones((2, 1, 1, 1)), dt=dt)):
            with pytest.raises(EventError, match="whole number of microseconds"):
                call()


class TestVoxelWindow:
    """_voxel_index and _count_voxels count the bins [start, stop) of event_bins' coordinates."""

    def test_matches_event_loop_oracle(self, rng):
        for _ in range(25):
            s = helpers.random_stream(rng, 7, 5, 30, int(rng.integers(0, 150)))
            steps = int(rng.integers(1, 40))
            start = int(rng.integers(0, steps))
            stop = int(rng.integers(start + 1, steps + 1))
            coords, _ = event_bins(s, steps)
            vox = count_window(coords, 5, 7, start, stop)
            assert vox.shape == (2, 5, 7, stop - start)
            dense = np.zeros(vox.shape)
            for (c, y, x, b), v in helpers.voxel_oracle(s, steps)[0].items():
                if start <= b < stop:
                    dense[c, y, x, b - start] = v
            assert np.array_equal(vox, dense)

    @pytest.mark.parametrize("y, x", [(-1, 0), (0, -1), (4, 0), (0, 3)])
    def test_refuses_a_pixel_outside_its_grid(self, y, x):
        # a negative index would otherwise count at the far edge
        coords = tuple(np.array(v, dtype=np.int64) for v in ([0, 1], [1, y], [1, x], [0, 2]))
        with pytest.raises(EventError, match="outside the 4x3 voxel grid"):
            _voxel_index(coords, (0, 4, 0, 3), 0, 3)
        # an event outside the window's bins is not counted, wherever it lies
        assert count_window(coords, 4, 3, 0, 2).sum() == 1.0

    def test_refuses_a_grid_int64_cannot_index(self):
        # every event lies inside the grid; only the cell count is too large
        coords = tuple(np.array(v, dtype=np.int64) for v in ([1], [0], [0], [7]))
        top = int(np.iinfo(np.int64).max)
        assert _voxel_index(coords, (0, 1, 0, 1), 0, top // 2)[0].tolist() == [top // 2 + 7]
        for box, steps, shape in (((0, 1, 0, 1), top // 2 + 1, f"2x1x1x{top // 2 + 1}"),
                                  ((0, 16, 0, 16), 2 ** 61, f"2x16x16x{2 ** 61}")):
            with pytest.raises(EventError, match=f"a {shape} voxel grid has too many cells"):
                _voxel_index(coords, box, 0, steps)


class TestFromVoxelGrid:
    def test_single_entry(self):
        data = np.zeros((2, 3, 3, 8))
        data[0, 1, 1, 4] = 1.0
        s = from_voxel_grid(data)
        assert len(s) == 1
        assert (s.t[0], s.x[0], s.y[0], s.p[0]) == (4500, 1, 1, 1)

    def test_zero_tensor_empty(self):
        s = from_voxel_grid(np.zeros((2, 4, 4, 5)))
        assert len(s) == 0 and (s.width, s.height) == (4, 4)

    def test_negative_channel_polarity(self):
        data = np.zeros((2, 2, 2, 2))
        data[1, 0, 1, 0] = 2.0
        s = from_voxel_grid(data, t0=1000)
        assert len(s) == 2
        assert np.all(s.p == -1) and np.all(s.t == 1500)

    def test_stamps_bin_centres_at_the_given_step(self):
        # bin b of a grid starting at bin first_bin sits at t0 + (first_bin + b + 0.5) * dt
        data = np.zeros((2, 2, 3, 4))
        data[0, 1, 2, 0] = data[1, 0, 0, 3] = 1.0
        s = from_voxel_grid(data, t0=700, dt=2.0)
        assert s.t.tolist() == [700 + 0.5 * 2000, 700 + 3.5 * 2000]
        assert s.p.tolist() == [1, -1] and (s.width, s.height) == (3, 2)
        shifted = from_voxel_grid(data, t0=700, first_bin=5, dt=2.0)
        assert shifted.t.tolist() == [700 + 5.5 * 2000, 700 + 8.5 * 2000]

    def test_round_trip_integer_tensors(self, rng):
        for _ in range(10):
            data = rng.integers(0, 4, (2, 5, 6, 9)).astype(float)
            back, dropped = helpers.voxel_grid(from_voxel_grid(data), 9)
            assert dropped == 0
            assert np.array_equal(back, data)

    def test_sorted_output(self, rng):
        data = rng.integers(0, 3, (2, 4, 4, 6)).astype(float)
        s = from_voxel_grid(data)
        assert np.all(np.diff(s.t) >= 0)

    def test_order_within_a_bin(self, rng):
        # events of one bin come by channel, then row, then column
        data = rng.integers(0, 3, (2, 3, 4, 5)).astype(float)
        s = from_voxel_grid(data)
        got = list(zip(s.t.tolist(), s.p.tolist(), s.y.tolist(), s.x.tolist()))
        want = []
        for b in range(5):
            for c in range(2):
                for y in range(3):
                    for x in range(4):
                        want += [(1000 * b + 500, 1 - 2 * c, y, x)] * int(data[c, y, x, b])
        assert got == want


class TestDownsample:
    def test_floor_halving(self):
        s = stream_of([[0, 5, 3, 1], [100, 4, 2, -1]], 8, 8)
        d = downsample_2x(s)
        assert (d.width, d.height) == (4, 4)
        assert list(d.x) == [2, 2] and list(d.y) == [1, 1]
        assert list(d.t) == [0, 100] and list(d.p) == [1, -1]

    def test_odd_dims_round_up(self):
        s = stream_of([[0, 32, 32, 1]], 33, 33)
        d = downsample_2x(s)
        assert (d.width, d.height) == (17, 17)
        assert (d.x[0], d.y[0]) == (16, 16)

    def test_count_conserved_random(self, rng):
        for _ in range(30):
            w, h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            s = helpers.random_stream(rng, w, h, 10, int(rng.integers(0, 100)))
            d = downsample_2x(s)
            assert len(d) == len(s)
            assert np.array_equal(d.x, s.x // 2) and np.array_equal(d.y, s.y // 2)


class TestSynthMovingBar:
    def test_deterministic(self):
        a = synth_moving_bar(16, 16, 50, 0.3, 2.0, seed=9)
        b = synth_moving_bar(16, 16, 50, 0.3, 2.0, seed=9)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.p, b.p)

    def test_output_is_pinned(self):
        """The benchmark's inputs and the criterion-8 corpus come from this
        generator: a digest of its arrays, geometry and span over a fixed sweep."""
        sweep = [(32, 32, 64.0, 0.1, 11.0, 5), (64, 64, 64.0, 0.5, 4.0, 123456789),
                 (128, 128, 300.0, 0.25, 11.0, 1), (32, 32, 64.0, 0.3, 6.0, 0),
                 (17, 9, 12.5, 0.37, 2.5, 7),
                 (16, 16, 50.0, 0.0, 2.0, 1),     # still bar
                 (16, 16, 50.0, 0.3, 0.0, 1),     # no events per edge
                 (8, 8, 20.0, 0.01, 3.0, 2),      # never reaches a second pixel
                 (4, 4, 10.0004, 0.4, 2000.0, 3)]  # events on the closing edge
        digest = hashlib.sha256()
        for args in sweep:
            s = synth_moving_bar(*args)
            for a in (s.t, s.x, s.y, s.p):
                digest.update(a.astype("<i8").tobytes())
            digest.update(repr((s.width, s.height, s.t0, s.t1)).encode())
        assert digest.hexdigest() == ("466998a094acda3869d87f36bf3695c5"
                                      "995ed06e91ba221e77d6b94d93720151")

    def test_zero_velocity_empty(self):
        s = synth_moving_bar(16, 16, 50, 0.0, 2.0, seed=1)
        assert len(s) == 0 and (s.t0, s.t1) == (0, 50000)

    def test_polarity_structure(self):
        s = synth_moving_bar(16, 16, 100, 0.12, 3.0, seed=4)
        pos, neg = s.p == 1, s.p == -1
        assert pos.any() and neg.any()
        # trailing edge lags the leading edge at every column
        for x in set(s.x[pos]) & set(s.x[neg]):
            assert s.t[pos & (s.x == x)].min() < s.t[neg & (s.x == x)].min()

    def test_centroid_advances(self):
        s = synth_moving_bar(16, 16, 100, 0.12, 3.0, seed=4)
        pos = s.p == 1
        centroids = []
        for k in range(10):
            m = pos & (s.t >= k * 10000) & (s.t < (k + 1) * 10000)
            if m.any():
                centroids.append(s.x[m].mean())
        assert len(centroids) >= 5
        assert all(b > a for a, b in zip(centroids, centroids[1:]))
