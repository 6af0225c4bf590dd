"""The columnar trace: its rows, the streamed CSV and its round trip."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swoks.trace import TRACE_COLUMNS, Trace, TraceRow, TraceWriter, read_trace

# Values whose reprs are easy to get wrong: both zeros, an exponent form
# on each side, the smallest subnormal.
AWKWARD = [0.0, -0.0, 1e-05, 1e+16, 5e-324, -0.1, 1.0, 0.30000000000000004]
CHECKS = [None, *AWKWARD]
EVENTS = ["", "", "", "new-task", "re-detected", "suppressed", "probe-error"]


def format_row(row: TraceRow) -> str:
    """One ``trace.csv`` line, formatted field by field."""
    def opt(value):
        return "" if value is None else repr(float(value))

    return ",".join([
        str(row.t), str(row.iteration), str(row.gt_task), str(row.pred_label),
        row.event, opt(row.p_value), opt(row.swd),
        repr(float(row.reward)), str(row.probe_flag),
    ])


blocks = st.lists(
    st.tuples(
        st.integers(0, 3),                                  # iteration step
        st.integers(1, 4),                                  # gt_task
        st.integers(1, 5),                                  # pred_label
        st.lists(st.sampled_from(AWKWARD), min_size=1, max_size=6),  # rewards
        st.integers(0, 1),                                  # probe_flag
        st.sampled_from(CHECKS),                            # p_value
        st.sampled_from(CHECKS),                            # swd
        st.sampled_from(EVENTS),                            # event on the first row
    ),
    max_size=12,
)


def build(blocks, *writers: TraceWriter) -> tuple[Trace, list[TraceRow]]:
    """The trace appended block by block, as the runner does, and its rows.
    The same blocks are appended to each of ``writers``."""
    trace, rows = Trace(), []
    t, iteration = 1, 0
    for step, gt_task, label, rewards, probe_flag, p, s, event in blocks:
        iteration += step
        for sink in (trace, *writers):
            sink.append(t, iteration, gt_task, label, rewards, probe_flag, p, s, event)
        for i, reward in enumerate(rewards):
            rows.append(TraceRow(t + i, iteration, gt_task, label, event if i == 0 else "",
                                 p, s, reward, probe_flag))
        t += len(rewards)
    return trace, rows


@given(blocks)
@settings(max_examples=200, deadline=None)
@example([(0, 1, 1, [0.0, -0.0, 0.0], 0, 0.0, -0.0, "new-task"),
          (1, 2, 1, [-0.0], 1, -0.0, 0.0, ""),
          (0, 2, 2, [5e-324, 1e+16, 1e-05], 0, None, None, "re-detected")])
def test_trace_csv_matches_the_row_formula_and_round_trips(tmp_path_factory, blocks):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    with TraceWriter(path) as writer:
        trace, rows = build(blocks, writer)
    assert len(trace) == len(rows)
    assert list(trace) == rows
    text = path.read_text(encoding="utf-8")
    assert text == ",".join(TRACE_COLUMNS) + "\n" + "".join(format_row(r) + "\n" for r in rows)
    back = read_trace(path)
    assert back == trace
    # The rebuilt trace keeps every sign and bit.
    for name in Trace._DTYPES:
        assert getattr(back, name).tobytes() == getattr(trace, name).tobytes(), name
    assert repr(back.checks) == repr(trace.checks)
    assert back.events == trace.events


# Every append shape the runner makes, as Trace.append arguments:
# (t, iteration, gt_task, pred_label, reward, probe_flag, p_value, swd, event).
RUNNER_APPENDS = [
    # before the first check: rows before a boundary, per-row iteration and gt_task lists
    (1, [0, 0, 1, 1], [2, 2, 2, 3], 1, [0.0, -0.1, 0.0, -0.0], 0, None, None),
    # the boundary row: one row, scalars, the check's values
    (5, 1, 3, 1, [np.float64(1.0)], 0, None, 0.25),
    # the boundary row that carries an event
    (6, 2, 3, 1, [-0.0], 0, 0.0005, 0.5, "new-task"),
    # a probe block of tuples, probe_flag=1
    (7, 2, (3, 3, 3), 1, (0.0, 1.0, np.float64(-0.1)), 1, 0.0005, 0.5),
    # a multi-row block whose first row carries an event, numpy rewards
    (10, np.array([3, 3]), [3, 4], 2, np.array([-0.0, 1e-05]), 0, -0.0, 5e-324, "re-detected"),
    # an event text that reads as a format directive
    (14, 4, 4, 3, [1.0], 0, None, None, "%d%%"),
]


def test_every_runner_append_shape_writes_the_row_formula(tmp_path):
    def per_row(value, k):
        return list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value] * k

    trace, rows = Trace(), []
    with TraceWriter(tmp_path / "trace.csv") as writer:
        for t, iteration, gt_task, label, reward, flag, p, s, *event in RUNNER_APPENDS:
            for sink in (trace, writer):
                sink.append(t, iteration, gt_task, label, reward, flag, p, s, *event)
            k = len(reward)
            kinds = [*event, *[""] * k][:k] if event else [""] * k
            rows += [TraceRow(t + i, it, gt, lab, kind, p, s, float(r), flag)
                     for i, (it, gt, lab, kind, r) in enumerate(zip(
                         per_row(iteration, k), per_row(gt_task, k), per_row(label, k),
                         kinds, reward))]
    text = (tmp_path / "trace.csv").read_text(encoding="utf-8")
    assert text == ",".join(TRACE_COLUMNS) + "\n" + "".join(format_row(r) + "\n" for r in rows)
    assert list(trace) == rows
    assert read_trace(tmp_path / "trace.csv") == trace


def test_columns_hold_the_appended_rows(tmp_path):
    trace = Trace()
    with TraceWriter(tmp_path / "streamed.csv") as writer:
        for sink in (trace, writer):
            sink.append(1, np.array([0, 0, 1]), np.array([2, 2, 2]), 7,
                        np.array([0.0, 1.0, -0.1]), 0, None, 0.5)
            sink.append(4, 1, 2, 7, [1.0], 1, 0.25, 0.5, "new-task")
    text = (tmp_path / "streamed.csv").read_text(encoding="utf-8")
    assert text == ",".join(TRACE_COLUMNS) + "\n" + "".join(format_row(r) + "\n" for r in trace)
    assert read_trace(tmp_path / "streamed.csv") == trace
    assert trace.t.tolist() == [1, 2, 3, 4]
    assert trace.iteration.tolist() == [0, 0, 1, 1]
    assert trace.pred_label.tolist() == [7] * 4
    assert trace.probe_flag.tolist() == [0, 0, 0, 1]
    assert trace.checks == [(None, 0.5), (0.25, 0.5)]
    assert trace.check.tolist() == [0, 0, 0, 1]
    assert trace.events == {3: "new-task"}
    assert list(trace)[-1] == TraceRow(4, 1, 2, 7, "new-task", 0.25, 0.5, 1.0, 1)


def test_empty_trace_writes_a_header_only(tmp_path):
    with TraceWriter(tmp_path / "trace.csv") as writer:
        writer.append(1, 0, 1, 1, [], 0, None, None)
    assert (tmp_path / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"
    assert read_trace(tmp_path / "trace.csv") == Trace()
    assert len(Trace()) == 0 and list(Trace()) == []


class TestReadTraceErrors:
    def written(self, tmp_path, edit):
        path = tmp_path / "trace.csv"
        with TraceWriter(path) as writer:
            build([(0, 1, 1, [0.5, -0.1, 1.0], 0, 0.25, 0.5, "new-task")], writer)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_header(self, tmp_path):
        path = self.written(tmp_path, lambda lines: lines.__setitem__(0, "t,iteration"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: unexpected trace header"):
            read_trace(path)

    def test_short_line(self, tmp_path):
        def edit(lines):
            lines[3] = lines[3].rsplit(",", 1)[0]

        path = self.written(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: expected 9 fields, got 8"):
            read_trace(path)

    # Every field but the event, whose text is free.
    @pytest.mark.parametrize("field", [i for i, name in enumerate(TRACE_COLUMNS)
                                       if name != "event"])
    def test_unparseable_value(self, tmp_path, field):
        def edit(lines):
            parts = lines[2].split(",")
            parts[field] = "x1"
            lines[2] = ",".join(parts)

        path = self.written(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: unparseable value"):
            read_trace(path)
