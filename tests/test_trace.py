"""The columnar trace: its rows, its CSV form and the CSV round trip."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swoks.trace import TRACE_COLUMNS, Trace, TraceRow, read_trace, write_trace

# Values whose reprs are easy to get wrong: both zeros, an exponent form
# on each side, the smallest subnormal.
AWKWARD = [0.0, -0.0, 1e-05, 1e+16, 5e-324, -0.1, 1.0, 0.30000000000000004]
CHECKS = [None, *AWKWARD]
EVENTS = ["", "", "", "new-task", "re-detected", "suppressed", "probe-error"]


def format_row(row: TraceRow) -> str:
    """The per-row formula write_trace replaced."""
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


def build(blocks) -> tuple[Trace, list[TraceRow]]:
    """The trace appended block by block, as the runner does, and its rows."""
    trace, rows = Trace(), []
    t, iteration = 1, 0
    for step, gt_task, label, rewards, probe_flag, p, s, event in blocks:
        iteration += step
        trace.append(t, iteration, gt_task, label, rewards, probe_flag, p, s, event)
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
def test_write_trace_matches_the_row_formula_and_round_trips(tmp_path_factory, blocks):
    trace, rows = build(blocks)
    assert len(trace) == len(rows)
    assert list(trace) == rows
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace(path, trace)
    text = path.read_text(encoding="utf-8")
    assert text == ",".join(TRACE_COLUMNS) + "\n" + "".join(format_row(r) + "\n" for r in rows)
    back = read_trace(path)
    assert back == trace
    # The rebuilt trace keeps every sign and bit: it writes the same bytes.
    again = path.with_name("again.csv")
    write_trace(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_columns_hold_the_appended_rows():
    trace = Trace()
    trace.append(1, np.array([0, 0, 1]), np.array([2, 2, 2]), 7, np.array([0.0, 1.0, -0.1]),
                 0, None, 0.5)
    trace.append(4, 1, 2, 7, [1.0], 1, 0.25, 0.5, "new-task")
    assert trace.t.tolist() == [1, 2, 3, 4]
    assert trace.iteration.tolist() == [0, 0, 1, 1]
    assert trace.pred_label.tolist() == [7] * 4
    assert trace.probe_flag.tolist() == [0, 0, 0, 1]
    assert trace.checks == [(None, 0.5), (0.25, 0.5)]
    assert trace.check.tolist() == [0, 0, 0, 1]
    assert trace.events == {3: "new-task"}
    assert list(trace)[-1] == TraceRow(4, 1, 2, 7, "new-task", 0.25, 0.5, 1.0, 1)


def test_empty_trace_writes_a_header_only(tmp_path):
    write_trace(tmp_path / "trace.csv", Trace())
    assert (tmp_path / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"
    assert read_trace(tmp_path / "trace.csv") == Trace()
    assert len(Trace()) == 0 and list(Trace()) == []


class TestReadTraceErrors:
    def written(self, tmp_path, edit):
        trace, _ = build([(0, 1, 1, [0.5, -0.1, 1.0], 0, 0.25, 0.5, "new-task")])
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
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
