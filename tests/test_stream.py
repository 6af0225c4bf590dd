"""Datapoint layout, ring-buffer windows, SWD history, stream files.

The ring buffer is checked against a plain-list model: every operation
is mirrored on a list and the observable views must agree.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swoks.detector import Detector, DetectorConfig
from swoks.stream import (
    NotReadyError,
    StreamBlock,
    SwdHistory,
    WindowBuffer,
    make_datapoints,
    read_stream_blocks,
    write_stream,
)


def pack(phi, action, reward):
    """One step packed as a one-row block."""
    return make_datapoints([phi], [action], [reward])[0]


class TestMakeDatapoint:
    def test_layout(self):
        dp = pack([0.5, -0.5], 3, 1.0)
        assert dp.shape == (4,)
        assert dp[0] == pytest.approx(np.sqrt(2) * 1.0)
        assert dp[1] == 3.0
        assert np.allclose(dp[2:], [0.5, -0.5])

    def test_all_zero(self):
        dp = pack([0.0, 0.0, 0.0, 0.0], 0, 0.0)
        assert np.array_equal(dp, np.zeros(6))

    def test_negative_reward_scaling(self):
        dp = pack(np.zeros(9), 1, -0.1)
        assert dp[0] == pytest.approx(-0.3)

    def test_rejects_empty_phi(self):
        with pytest.raises(ValueError):
            pack([], 0, 1.0)

    def test_block_rows_equal_single_steps(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(7, 5))
        actions = rng.integers(0, 4, size=7)
        rewards = rng.normal(size=7)
        block = make_datapoints(phi, actions, rewards)
        for i in range(7):
            assert np.array_equal(block[i], pack(phi[i], int(actions[i]), rewards[i]))

    def test_block_shape_checks(self):
        with pytest.raises(ValueError):
            make_datapoints(np.zeros(3), [0, 0, 0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            make_datapoints(np.zeros((3, 2)), [0, 0], [0.0, 0.0, 0.0])


def row(i, width=3):
    return np.full(width, float(i))


def push(buf, v):
    """Append one row holding ``v`` in every column."""
    buf.extend(np.full((1, buf.width), float(v)))


class TestWindowBuffer:
    def test_capacity(self):
        buf = WindowBuffer(width=3, set_len=4, n_windows=2)
        assert buf.capacity == 12
        assert len(buf) == 0 and not buf.is_full

    def test_push_one(self):
        buf = WindowBuffer(width=3, set_len=4, n_windows=2)
        push(buf, 0)
        assert len(buf) == 1
        assert np.array_equal(buf.oldest(1), [row(0)])

    def test_fifo_eviction(self):
        buf = WindowBuffer(width=3, set_len=2, n_windows=1)
        for i in range(buf.capacity + 1):
            push(buf, i)
        assert len(buf) == buf.capacity
        held = buf.oldest(buf.capacity)
        assert held[0, 0] == 1.0  # point 0 evicted

    def test_old_set_after_exact_fill(self):
        buf = WindowBuffer(width=3, set_len=4, n_windows=2)
        for i in range(buf.capacity):
            push(buf, i)
        old = buf.old_set()
        assert np.array_equal(old, np.stack([row(i) for i in range(4)]))
        recent = buf.recent_set()
        assert np.array_equal(recent, np.stack([row(i) for i in range(8, 12)]))

    def test_sets_disjoint_when_full(self):
        buf = WindowBuffer(width=3, set_len=3, n_windows=2)
        for i in range(buf.capacity):
            push(buf, i)
        rec = set(buf.recent_set().ravel())
        old = set(buf.old_set().ravel())
        assert rec.isdisjoint(old)

    def test_single_window_partition(self):
        # n_windows=1: recent and old halves tile the whole buffer
        buf = WindowBuffer(width=3, set_len=5, n_windows=1)
        for i in range(10):
            push(buf, i)
        both = np.concatenate([buf.old_set()[:, 0], buf.recent_set()[:, 0]])
        assert np.array_equal(both, np.arange(10, dtype=float))

    def test_not_ready(self):
        buf = WindowBuffer(width=3, set_len=3, n_windows=2)
        push(buf, 0)
        with pytest.raises(NotReadyError):
            buf.recent_set()
        with pytest.raises(NotReadyError):
            buf.old_set()

    def test_oldest_does_not_require_full(self):
        buf = WindowBuffer(width=3, set_len=3, n_windows=2)
        for i in range(4):
            push(buf, i)
        assert np.array_equal(buf.oldest(2), np.stack([row(0), row(1)]))
        with pytest.raises(ValueError):
            buf.oldest(5)

    def test_clear_and_extend(self):
        buf = WindowBuffer(width=2, set_len=2, n_windows=1)
        buf.extend([row(i, 2) for i in range(3)])
        assert len(buf) == 3
        buf.clear()
        assert len(buf) == 0

    def test_width_mismatch(self):
        buf = WindowBuffer(width=3, set_len=2, n_windows=1)
        with pytest.raises(ValueError):
            buf.extend(np.zeros((1, 4)))
        assert len(buf) == 0 and buf.pushed == 0

    @pytest.mark.parametrize("phi, action, reward", [
        ([np.nan], 0, 1.0),
        ([np.inf], 0, 1.0),
        ([0.5], float("inf"), 1.0),
        ([0.5], 0, float("nan")),
        (np.zeros(4), 0, 1e308),  # sqrt(4) * 1e308 overflows
    ])
    def test_rejected_step_writes_nothing(self, phi, action, reward):
        """A step the detector rejects leaves its window's ring as it was."""
        set_len = 2
        det = Detector(DetectorConfig(history_len=set_len, swd_history_len=2, n_projections=4))
        latent = len(phi)
        for i in range(set_len * 3):
            det.ingest(np.full(latent, float(i)), i, 0.0)
        buf = det.label_state(1).window
        before = buf.oldest(buf.capacity)
        with pytest.raises(ValueError):
            det.ingest(phi, action, reward)
        assert len(buf) == buf.capacity and buf.pushed == buf.capacity
        assert np.array_equal(buf.oldest(buf.capacity), before)
        det.ingest(np.full(latent, 9.0), 9, 0.0)  # the next slot is still the oldest
        assert np.array_equal(buf.oldest(buf.capacity)[:-1], before[1:])

    @given(
        st.integers(1, 4),  # set_len
        st.integers(1, 3),  # n_windows
        st.lists(st.integers(0, 1000), min_size=0, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_list_model(self, set_len, n_windows, pushes):
        buf = WindowBuffer(width=3, set_len=set_len, n_windows=n_windows)
        model: list[float] = []
        for v in pushes:
            push(buf, v)
            model.append(float(v))
            model = model[-buf.capacity:]
            assert len(buf) == len(model)
            if len(model) >= 2:
                k = min(2, len(model))
                assert list(buf.oldest(k)[:, 0]) == model[:k]
        if buf.is_full:
            assert list(buf.old_set()[:, 0]) == model[:set_len]
            assert list(buf.recent_set()[:, 0]) == model[-set_len:]

    @given(
        st.integers(1, 4),  # set_len
        st.integers(1, 3),  # n_windows
        st.lists(st.integers(0, 30), min_size=0, max_size=12),  # block sizes
    )
    @settings(max_examples=80, deadline=None)
    def test_extend_matches_pushes(self, set_len, n_windows, sizes):
        blocks = WindowBuffer(width=3, set_len=set_len, n_windows=n_windows)
        pushes = WindowBuffer(width=3, set_len=set_len, n_windows=n_windows)
        v = 0
        for size in sizes:
            rows = np.stack([row(v + i) for i in range(size)]) if size else []
            blocks.extend(rows)
            for i in range(size):
                push(pushes, v + i)
            v += size
            assert len(blocks) == len(pushes) and blocks.pushed == pushes.pushed == v
            assert np.array_equal(blocks.oldest(len(blocks)), pushes.oldest(len(pushes)))

    def test_extend_rejects_wrong_width(self):
        buf = WindowBuffer(width=3, set_len=2, n_windows=1)
        with pytest.raises(ValueError):
            buf.extend(np.zeros((2, 4)))
        assert len(buf) == 0 and buf.pushed == 0

    def test_pushed_restarts_at_clear(self):
        buf = WindowBuffer(width=1, set_len=2, n_windows=1)
        buf.extend(np.zeros((7, 1)))
        assert buf.pushed == 7 and len(buf) == 4
        buf.clear()
        assert buf.pushed == 0


class TestSwdHistory:
    def test_halves_after_exact_fill(self):
        h = SwdHistory(half_len=3)
        for v in range(6):
            h.push(float(v))
        assert h.is_full
        assert np.array_equal(h.old_half(), [0.0, 1.0, 2.0])
        assert np.array_equal(h.new_half(), [3.0, 4.0, 5.0])

    def test_one_more_push_shifts(self):
        h = SwdHistory(half_len=3)
        for v in range(7):
            h.push(float(v))
        assert np.array_equal(h.old_half(), [1.0, 2.0, 3.0])
        assert np.array_equal(h.new_half(), [4.0, 5.0, 6.0])

    def test_not_ready_before_full(self):
        h = SwdHistory(half_len=2)
        h.push(1.0)
        with pytest.raises(NotReadyError):
            h.new_half()
        with pytest.raises(NotReadyError):
            h.old_half()

    def test_rejects_bad_values(self):
        h = SwdHistory(half_len=2)
        with pytest.raises(ValueError):
            h.push(-1.0)
        with pytest.raises(ValueError):
            h.push(float("nan"))

    def test_keep_oldest(self):
        h = SwdHistory(half_len=3)
        for v in range(6):
            h.push(float(v))
        h.keep_oldest(2)
        assert list(h.values()) == [0.0, 1.0]
        assert not h.is_full

    def test_values_order(self):
        h = SwdHistory(half_len=2)
        for v in (5.0, 1.0, 3.0):
            h.push(v)
        assert list(h.values()) == [5.0, 1.0, 3.0]


def read_all(path) -> StreamBlock:
    """The whole stream as one block."""
    return StreamBlock(*map(np.concatenate, zip(*read_stream_blocks(path))))


class TestStreamFiles:
    def make_block(self, n=5, k=3) -> StreamBlock:
        rng = np.random.default_rng(0)
        rows = [  # per step: reward, action, phi, in this draw order
            (i + 1, 1 + i % 2, float(rng.normal()), int(rng.integers(0, 2)), rng.normal(size=k))
            for i in range(n)
        ]
        return StreamBlock(*map(np.array, zip(*rows)))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.csv"
        block = self.make_block()
        assert write_stream(path, block) == 5
        back = read_all(path)
        for a, b in zip(block, back):
            assert np.array_equal(a, b)  # repr round-trip is exact

    def test_awkward_floats_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "stream.csv"
        awkward = np.array([-0.0, 5e-324, 1e+16])
        block = StreamBlock(t=np.arange(1, 4), gt_task=np.array([1, 1, 2]), reward=awkward,
                            action=np.array([0.0, 1.0, 2.0]),
                            phi=np.stack([awkward, awkward[::-1]], axis=1))
        write_stream(path, block)
        assert path.read_text().splitlines()[1:] == [
            "1,1,-0.0,0,-0.0,1e+16", "2,1,5e-324,1,5e-324,5e-324", "3,2,1e+16,2,1e+16,-0.0"]
        back = read_all(path)
        for a, b in zip(block, back):
            assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

    def test_mismatched_columns_rejected(self, tmp_path):
        block = self.make_block(n=4, k=2)
        with pytest.raises(ValueError, match="one entry per row"):
            write_stream(tmp_path / "s.csv", block._replace(reward=block.reward[:3]))
        with pytest.raises(ValueError, match="one entry per row"):
            write_stream(tmp_path / "s.csv", block._replace(phi=block.phi[:, 0]))
        with pytest.raises(ValueError, match="empty"):
            write_stream(tmp_path / "s.csv", StreamBlock(*(c[:0] for c in block)))

    def test_header_written(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_stream(path, self.make_block(n=2, k=2))
        first = path.read_text().splitlines()[0]
        assert first == "t,gt_task,r,a,phi_1,phi_2"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_stream(path, self.make_block(n=3, k=2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"csv:3:"):
            read_all(path)

    def test_wrong_column_count_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_stream(path, self.make_block(n=3, k=2))
        lines = path.read_text().splitlines()
        lines[3] += ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"csv:4:"):
            read_all(path)

    def rewrite(self, path, n, k, edit):
        write_stream(path, self.make_block(n=n, k=k))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("lineno", [3, 5000])  # in the first block and a later one
    @pytest.mark.parametrize("field, value", [
        (-1, "not_a_number"),  # a latent value
        (0, "2.5"),  # t
        (1, "1.5"),  # gt_task
        (2, "nan"),  # reward
    ])
    def test_malformed_value_reports_path_and_line(self, tmp_path, lineno, field, value):
        path = tmp_path / "bad.csv"

        def edit(lines):
            parts = lines[lineno - 1].split(",")
            parts[field] = value
            lines[lineno - 1] = ",".join(parts)

        self.rewrite(path, 6000, 2, edit)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: "):
            read_all(path)

    @pytest.mark.parametrize("lineno", [4, 5000])
    def test_wrong_column_count_reports_path_and_line(self, tmp_path, lineno):
        path = tmp_path / "bad.csv"

        def edit(lines):
            lines[lineno - 1] += ",0.5"

        self.rewrite(path, 6000, 2, edit)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: expected 6"):
            read_all(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        block = self.make_block(n=5, k=2)
        write_stream(path, block)
        lines = path.read_text().splitlines()
        lines[2:2] = ["", "   "]
        path.write_text("\n".join(lines) + "\n\n")
        back = read_all(path)
        assert np.array_equal(back.t, block.t)
        assert np.array_equal(back.phi, block.phi)

    def test_blocks_tile_the_stream(self, tmp_path):
        path = tmp_path / "long.csv"
        block = self.make_block(n=9000, k=3)
        write_stream(path, block)
        blocks = list(read_stream_blocks(path))
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate([b.t for b in blocks]), block.t)
        assert np.array_equal(np.concatenate([b.phi for b in blocks]), block.phi)
        assert np.array_equal(np.concatenate([b.reward for b in blocks]), block.reward)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_all(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("t,gt_task,r,a,phi_1\n")
        with pytest.raises(ValueError):
            read_all(path)
