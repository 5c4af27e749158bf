"""Self-time arithmetic of the span analysis."""

import pytest

from tracer import Tracer, self_times


def span(span_id, name, start, end, parent=None, command="retrieve-rag"):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "command": command, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "cli.retrieve-rag", 0.0, 10.0),
        span(2, "vindex.load", 1.0, 4.0, parent=1),
        span(3, "vindex.crc32c", 1.5, 2.5, parent=2),
        span(4, "vindex.crc32c", 2.5, 3.0, parent=2),
        # two worker-thread children that overlap each other: 5..8 counts once
        span(5, "classifier.classify", 5.0, 7.0, parent=1),
        span(6, "classifier.classify", 6.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own[("retrieve-rag", 1)] == pytest.approx(10.0 - 3.0 - 3.0)
    assert own[("retrieve-rag", 2)] == pytest.approx(3.0 - 1.5)
    assert own[("retrieve-rag", 3)] == pytest.approx(1.0)
    assert own[("retrieve-rag", 5)] == pytest.approx(2.0)


def test_self_time_keeps_commands_apart_and_clips_children():
    spans = [
        span(1, "cli.ingest", 0.0, 2.0, command="ingest"),
        span(1, "cli.delong", 0.0, 5.0, command="delong"),
        span(2, "metrics.delong_test", 4.0, 6.0, parent=1, command="delong"),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[("ingest", 1)] == pytest.approx(2.0)
    assert own[("delong", 1)] == pytest.approx(4.0)


def test_wrapper_hooks_are_nobodys_self_time():
    spans = [
        span(1, "cli.build-index", 0.0, 10.0, command="build-index"),
        # the wrapped call ran 3..5; its hooks stretched the wrapper call to 2..7
        dict(span(2, "embedding.embed_many", 3.0, 5.0, parent=1, command="build-index"),
             outer_start=2.0, outer_end=7.0),
    ]
    own = self_times(spans)
    assert own[("build-index", 1)] == pytest.approx(10.0 - 5.0)
    assert own[("build-index", 2)] == pytest.approx(2.0)


def test_tracer_records_the_whole_wrapper_call():
    tracer = Tracer("build-index")
    with tracer.span("cli.build-index"):
        tracer.wrap(lambda: 1, "embedding.embed", before=lambda: {"texts": 1}, after=lambda res: {"n": res})()
    record = next(s for s in tracer.spans if s["name"] == "embedding.embed")
    assert record["outer_start"] <= record["start"] <= record["end"] <= record["outer_end"]
    assert record["attrs"] == {"texts": 1, "n": 1}


def test_tracer_parents_worker_threads_to_the_root():
    import threading

    tracer = Tracer("classify-rag")
    with tracer.span("cli.classify-rag"):
        with tracer.span("classifier.classify_batch"):
            worker = threading.Thread(target=lambda: tracer.wrap(lambda: None, "classifier.classify")())
            worker.start()
            worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s["name"]: s for s in tracer.spans}
    root = by_name["cli.classify-rag"]
    assert root["parent"] is None
    assert by_name["classifier.classify_batch"]["parent"] == root["id"]
    assert by_name["classifier.classify"]["parent"] == root["id"]
    assert all(s["command"] == "classify-rag" for s in tracer.spans)
