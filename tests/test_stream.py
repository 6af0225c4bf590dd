"""Datapoint layout, stream files and their reader process.

A label's window (its queue of whole sets, each with its sorts, and the
set being filled) and its distance history are checked through the detector, against the plain
reference detector in ``test_reference_detector.py``.
"""
import errno
import multiprocessing
import multiprocessing.connection
import re
import warnings

import numpy as np
import pytest

from conftest import window_rows

from swoks import stream as stream_module
from swoks.detector import Detector, DetectorConfig
from swoks.stream import (
    StreamBlock,
    make_datapoints,
    prefetch_stream_blocks,
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


class TestWindowBuffer:
    @pytest.mark.parametrize("phi, action, reward", [
        ([np.nan], 0, 1.0),
        ([np.inf], 0, 1.0),
        ([0.5], float("inf"), 1.0),
        ([0.5], 0, float("nan")),
        (np.zeros(4), 0, 1e308),  # sqrt(4) * 1e308 overflows
    ])
    def test_rejected_step_writes_nothing(self, phi, action, reward):
        """A step the detector rejects leaves its window's sets as they were."""
        set_len, capacity = 2, 6
        det = Detector(DetectorConfig(history_len=set_len, swd_history_len=2, n_projections=4))
        latent = len(phi)
        for i in range(capacity):
            det.ingest(np.full(latent, float(i)), i, 0.0)
        buf = det.label_state(1).window
        before = window_rows(buf)
        with pytest.raises(ValueError):
            det.ingest(phi, action, reward)
        assert window_rows(buf) == before
        det.ingest(np.full(latent, 9.0), 9, 0.0)  # the next row starts the next set
        assert window_rows(buf) == before + [[0.0, 9.0] + [9.0] * latent]


def read_all(path) -> StreamBlock:
    """The whole stream as one block."""
    return StreamBlock(*map(np.concatenate, zip(*read_stream_blocks(path))))


def make_block(n=5, k=3) -> StreamBlock:
    rng = np.random.default_rng(0)
    rows = [  # per step: reward, action, phi, in this draw order
        (i + 1, 1 + i % 2, float(rng.normal()), int(rng.integers(0, 2)), rng.normal(size=k))
        for i in range(n)
    ]
    return StreamBlock(*map(np.array, zip(*rows)))


class TestStreamFiles:

    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.csv"
        block = make_block()
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
        block = make_block(n=4, k=2)
        with pytest.raises(ValueError, match="one entry per row"):
            write_stream(tmp_path / "s.csv", block._replace(reward=block.reward[:3]))
        with pytest.raises(ValueError, match="one entry per row"):
            write_stream(tmp_path / "s.csv", block._replace(phi=block.phi[:, 0]))
        with pytest.raises(ValueError, match="empty"):
            write_stream(tmp_path / "s.csv", StreamBlock(*(c[:0] for c in block)))

    @pytest.mark.parametrize("column, dtype, value, message", [
        pytest.param("t", float, 1.5, "t at row 9000 is 1.5, not an integer in int64",
                     id="fraction"),
        pytest.param("gt_task", float, 2.0 ** 63,
                     "gt_task at row 9000 is 9.223372036854776e+18, not an integer in int64",
                     id="float-past-int64"),
        pytest.param("t", np.uint64, 2 ** 63 + 5,
                     "t at row 9000 is 9223372036854775813, not an integer in int64",
                     id="uint64-past-int64"),
        pytest.param("t", object, 1, "t holds object, not numbers", id="object-ids"),
        pytest.param("action", str, "1", "a holds <U21, not numbers", id="text-action"),
        pytest.param("reward", str, "1.5", "r holds <U32, not numbers", id="text-reward"),
        pytest.param("reward", float, np.nan, "r at row 9000 is nan, not finite",
                     id="nan-reward"),
        pytest.param("action", float, np.inf, "a at row 9000 is inf, not finite",
                     id="infinite-action"),
        pytest.param("phi", float, -np.inf, "phi_2 at row 9000 is -inf, not finite",
                     id="infinite-latent"),
    ])
    def test_what_would_not_read_back_is_refused_before_writing(self, tmp_path, column, dtype,
                                                                value, message):
        """A value the reader refuses or reads back changed, at row 9,000 of
        10,000, raises ValueError naming its column and row before anything is
        written: an existing file at the path is not touched."""
        path = tmp_path / "s.csv"
        path.write_text("kept\n")
        block = make_block(n=10000, k=2)
        values = getattr(block, column).astype(dtype)
        values.reshape(10000, -1)[9000, -1] = value  # the last latent of a phi row
        with pytest.raises(ValueError, match=f"^cannot write {re.escape(str(path))}: "
                                             f"{re.escape(message)}$"):
            write_stream(path, block._replace(**{column: values}))
        assert path.read_text() == "kept\n"

    def test_header_written(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_stream(path, make_block(n=2, k=2))
        first = path.read_text().splitlines()[0]
        assert first == "t,gt_task,r,a,phi_1,phi_2"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_stream(path, make_block(n=3, k=2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"csv:3:"):
            read_all(path)

    def test_wrong_column_count_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_stream(path, make_block(n=3, k=2))
        lines = path.read_text().splitlines()
        lines[3] += ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"csv:4:"):
            read_all(path)

    def rewrite(self, path, n, k, edit):
        write_stream(path, make_block(n=n, k=k))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("lineno", [3, 5000])  # in the first block and a later one
    @pytest.mark.parametrize("field, value", [
        (-1, "not_a_number"),  # a latent value
        (0, "2.5"),  # t
        (1, "1.5"),  # gt_task
        (2, "nan"),  # reward
        (0, "1e300"),  # t: a float, far past int64
        (1, "-9223372036854777856"),  # gt_task: the float below -2**63
        (0, "4503599627370497.5"), (1, "1.0"), (0, "1e3"),  # ids written as floats
        (0, str(2 ** 63)), (1, str(-2 ** 63 - 1)),  # one past either end of int64
        # Python's int() and float() read these; numpy's parse refuses them.
        (0, "2_0"), (2, "0_5"), (-1, "0.2_5"), (0, "\u0661"),  # digit separators, Arabic-Indic 1
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

    def test_block_parse_refuses_an_id_numpy_reads_through_a_float(self, monkeypatch):
        """numpy 1.23-1.26 read an int64 field written as a float (``1.0``) through
        the float with only a DeprecationWarning; the block parse refuses it, and so
        does the field parse that names the bad line."""
        def loadtxt(lines, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return np.ones(len(lines), dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert stream_module._parse_block(["1.0,1,0.5,1,0.1"], 1) is None
        assert stream_module._parse_field("1.0", np.int64) is None

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
        block = make_block(n=5, k=2)
        write_stream(path, block)
        lines = path.read_text().splitlines()
        lines[2:2] = ["", "   "]
        path.write_text("\n".join(lines) + "\n\n")
        back = read_all(path)
        assert np.array_equal(back.t, block.t)
        assert np.array_equal(back.phi, block.phi)

    def test_blocks_tile_the_stream(self, tmp_path):
        path = tmp_path / "long.csv"
        block = make_block(n=9000, k=3)
        write_stream(path, block)
        blocks = list(read_stream_blocks(path))
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate([b.t for b in blocks]), block.t)
        assert np.array_equal(np.concatenate([b.phi for b in blocks]), block.phi)
        assert np.array_equal(np.concatenate([b.reward for b in blocks]), block.reward)

    def test_exact_id_ends_read_back_exactly(self, tmp_path):
        """Ids at the ends of int64 and past a float's exact integers read back
        exactly, also from a block with a blank line, which is parsed again
        without it; an action is still truncated."""
        path = tmp_path / "ends.csv"
        ids = [-2 ** 63, -2 ** 53, 2 ** 53 + 1, 2 ** 62 + 1, 2 ** 63 - 1]
        write_stream(path, StreamBlock(t=np.array(ids), gt_task=np.array(ids[::-1]),
                                       reward=np.zeros(5), action=np.zeros(5),
                                       phi=np.zeros((5, 1))))
        for blank in ("", "  \n"):
            path.write_text(path.read_text() + blank)
            back = read_all(path)
            assert back.t.tolist() == ids and back.gt_task.tolist() == ids[::-1]
        path.write_text("t,gt_task,r,a,phi_1\n1,1,0.5,1.9,0.1\n2,1,0.5,-1.9,0.1\n")
        assert read_all(path).action.tolist() == [1.0, -1.0]

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


def one_cpu(monkeypatch):
    """Make the reader's CPU check see a single usable CPU."""
    monkeypatch.setattr(stream_module, "_usable_cpus", lambda: 1)


def blocks_until_error(path):
    """The blocks :func:`prefetch_stream_blocks` yields and the error that ends them."""
    blocks = []
    try:
        for block in prefetch_stream_blocks(path):
            blocks.append(block)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return blocks, exc
    return blocks, None


def assert_same_blocks(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


class TestPrefetch:
    """The reader process yields what ``read_stream_blocks`` yields, raises its
    errors at the same place, and is always reaped."""

    def write(self, path, n=40000, k=3):
        """A stream of ``n`` rows; by default more than the pipe holds, so
        the reader is still running after the first block."""
        write_stream(path, make_block(n=n, k=k))
        return path

    def test_blocks_equal_the_in_process_blocks(self, tmp_path):
        path = self.write(tmp_path / "long.csv", n=9000)
        expected = list(read_stream_blocks(path))
        assert len(expected) == 3
        assert_same_blocks(list(prefetch_stream_blocks(path)), expected)
        assert multiprocessing.active_children() == []

    def test_reader_runs_ahead_and_an_abandoned_generator_reaps_it(self, tmp_path):
        path = self.write(tmp_path / "long.csv")
        blocks = prefetch_stream_blocks(path)
        first = next(blocks)
        assert len(multiprocessing.active_children()) == 1
        del blocks  # never closed explicitly
        assert multiprocessing.active_children() == []
        assert np.array_equal(first.t, np.arange(1, 4097))

    def test_closed_generator_reaps_the_reader(self, tmp_path):
        blocks = prefetch_stream_blocks(self.write(tmp_path / "long.csv"))
        next(blocks)
        blocks.close()
        assert multiprocessing.active_children() == []

    def test_closing_one_of_two_readers_breaks_its_pipe(self, tmp_path, monkeypatch):
        """The second reader, forked while the first is running, must not hold
        the first one's pipe open, or stopping the first would take a kill."""
        kills = []
        kill = multiprocessing.process.BaseProcess.kill
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "kill",
                            lambda process: (kills.append(process), kill(process)))
        monkeypatch.setattr(stream_module, "_REAP_TIMEOUT_S", 10.0)
        first = prefetch_stream_blocks(self.write(tmp_path / "a.csv"))
        second = prefetch_stream_blocks(self.write(tmp_path / "b.csv"))
        next(first)
        next(second)
        assert len(multiprocessing.active_children()) == 2
        first.close()
        assert len(multiprocessing.active_children()) == 1
        second.close()
        assert multiprocessing.active_children() == [] and kills == []

    @pytest.mark.parametrize("no_reader", ["one usable CPU", "daemonic", "fork refused"])
    def test_parses_in_process_where_no_reader_can_start(self, tmp_path, monkeypatch,
                                                         no_reader):
        if no_reader == "one usable CPU":
            one_cpu(monkeypatch)
        elif no_reader == "daemonic":  # a Pool worker, say: it may not start processes
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            def refuse(process):
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        path = self.write(tmp_path / "long.csv")
        blocks = prefetch_stream_blocks(path)
        got = [next(blocks)]
        assert multiprocessing.active_children() == []
        got.extend(blocks)
        assert_same_blocks(got, list(read_stream_blocks(path)))

    def error_after_blocks(self, path, lineno, field, value, monkeypatch):
        """Set one field of a line, then check that the reader and the
        in-process parse yield the same blocks before it and raise the same
        ValueError; return its message."""
        path = self.write(path, n=6000, k=2)
        lines = path.read_text().splitlines()
        parts = lines[lineno - 1].split(",")
        parts[field] = value
        lines[lineno - 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        blocks, error = blocks_until_error(path)
        assert multiprocessing.active_children() == []
        one_cpu(monkeypatch)
        in_process, expected = blocks_until_error(path)
        assert type(error) is ValueError
        assert str(error) == str(expected)
        assert len(blocks) == (lineno - 2) // 4096
        assert_same_blocks(blocks, in_process)
        return str(error)

    @pytest.mark.parametrize("lineno", [3, 5000])  # in the first block and a later one
    def test_malformed_line_is_raised_after_the_blocks_before_it(self, tmp_path, monkeypatch,
                                                                  lineno):
        path = tmp_path / "bad.csv"
        message = self.error_after_blocks(path, lineno, -1, "not_a_number", monkeypatch)
        assert message.startswith(f"{path}:{lineno}: unparseable value")

    @pytest.mark.parametrize("lineno", [3, 5000])
    def test_digit_separator_is_raised_after_the_blocks_before_it(self, tmp_path, monkeypatch,
                                                                  lineno):
        """A reward Python's float() reads as 5.0 and numpy's parse refuses."""
        path = tmp_path / "bad.csv"
        message = self.error_after_blocks(path, lineno, 2, "0_5", monkeypatch)
        assert message == (f"{path}:{lineno}: unparseable value "
                           "(could not convert string to float: '0_5')")

    @pytest.mark.parametrize("lineno", [3, 5000])
    def test_id_past_int64_is_raised_after_the_blocks_before_it(self, tmp_path, monkeypatch,
                                                                lineno):
        path = tmp_path / "bad.csv"
        message = self.error_after_blocks(path, lineno, 0, str(2 ** 63), monkeypatch)
        assert message == f"{path}:{lineno}: t {2 ** 63} is outside int64"

    @pytest.mark.parametrize("content", [
        None,  # missing file
        "",  # empty file
        "t,gt_task,reward,a,phi_1\n1,1,0.0,0,0.5\n",  # bad header
        "t,gt_task,r,a,phi_1\n\n",  # header and a blank line: no data rows
    ])
    def test_reader_errors_keep_type_and_message(self, tmp_path, monkeypatch, content):
        path = tmp_path / "s.csv"
        if content is not None:
            path.write_text(content)
        blocks, error = blocks_until_error(path)
        assert multiprocessing.active_children() == []
        one_cpu(monkeypatch)
        _, expected = blocks_until_error(path)
        assert blocks == []
        assert isinstance(expected, (FileNotFoundError, ValueError))
        assert type(error) is type(expected)
        assert str(error) == str(expected)

    def test_reader_that_dies_is_reported(self, tmp_path):
        blocks = prefetch_stream_blocks(self.write(tmp_path / "long.csv"))
        next(blocks)
        (reader,) = multiprocessing.active_children()
        reader.kill()
        with pytest.raises(RuntimeError, match=r"stream reader exited with code -9 before"):
            list(blocks)  # the blocks still in the pipe, then the end of the pipe
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ring_blocks", [None, 2])  # the shipped ring, and two slots
    def test_blocks_outlive_the_ring_slots_they_came_through(self, tmp_path, monkeypatch,
                                                             ring_blocks):
        """Every block is held until the stream ends, by when each slot was
        reused: a block that shared memory with its slot would have changed."""
        if ring_blocks is not None:
            monkeypatch.setattr(stream_module, "_RING_BLOCKS", ring_blocks)
        path = self.write(tmp_path / "long.csv")
        expected = list(read_stream_blocks(path))
        assert len(expected) > stream_module._RING_BLOCKS
        assert_same_blocks(list(prefetch_stream_blocks(path)), expected)
        assert multiprocessing.active_children() == []

    def test_closing_while_the_reader_waits_for_a_slot_reaps_it(self, tmp_path, monkeypatch):
        """Closing hands no slot back but ends the slot pipe: the waiting reader
        exits by itself, without a kill."""
        kills = []
        kill = multiprocessing.process.BaseProcess.kill
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "kill",
                            lambda process: (kills.append(process), kill(process)))
        monkeypatch.setattr(stream_module, "_REAP_TIMEOUT_S", 10.0)
        monkeypatch.setattr(stream_module, "_RING_BLOCKS", 2)
        # The reader only receives to wait for a free slot; it counts each wait.
        waits = multiprocessing.get_context("fork").Semaphore(0)
        recv = multiprocessing.connection.Connection.recv

        def counted_recv(connection):
            if multiprocessing.parent_process() is not None:  # in the reader
                waits.release()
            return recv(connection)

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", counted_recv)
        blocks = prefetch_stream_blocks(self.write(tmp_path / "long.csv"))
        next(blocks)  # slot 0 comes back: the third block takes it, the fourth waits
        assert waits.acquire(timeout=10) and waits.acquire(timeout=10)
        blocks.close()
        assert multiprocessing.active_children() == [] and kills == []
