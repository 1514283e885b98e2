"""Query trace: span nesting and where counts land."""

from kghop.trace import Trace, count, span


def test_spans_nest_under_the_innermost_open_span():
    trace = Trace()
    with span(trace, "a") as a:
        with span(trace, "b") as b:
            count(trace, "n", 2)
        count(trace, "n")
    with span(trace, "c") as c:
        pass
    assert trace.spans == [a, b, c]
    assert [s.parent for s in trace.spans] == [None, a, None]
    assert (a.counts["n"], b.counts["n"], c.counts["n"]) == (1, 2, 0)
    assert a.start_ns <= b.start_ns <= b.end_ns <= a.end_ns <= c.start_ns <= c.end_ns


def test_counts_outside_every_span_go_to_the_trace():
    trace = Trace()
    count(trace, "n", 3)
    assert trace.counts["n"] == 3 and trace.spans == []


def test_no_trace_records_nothing():
    with span(None, "a") as a:
        count(None, "n")
    assert a is None
