"""Classifier: response parsing, scoring, mock oracle, batch behavior, wire format."""

from __future__ import annotations

import json

import pytest

from budgetrag.classifier import (
    ClassifierConfig,
    classify,
    classify_batch,
    mock_response,
    parse_response,
    rank_score,
    read_outcomes,
    write_outcomes,
)
from budgetrag.errors import RemoteServiceError, ResponseParseError
from budgetrag.retrieval import DEFAULT_COMPLICATION_KEYWORDS, MODE_RAG, AssembledContext


MOCK = ClassifierConfig()  # the keyword mock with the default keywords


def ctx(text, pid="p1", mode=MODE_RAG):
    return AssembledContext(patient_id=pid, mode=mode, text=text,
                            word_count=len(text.split()), total_words=len(text.split()))


class TestParseResponse:
    def test_json_after_prose(self):
        assert parse_response('Sure! {"complication": 0, "severity": 1}')[:2] == (0, 1)

    def test_markdown_fenced(self):
        raw = '```json\n{"complication":1,"severity":5}\n```'
        assert parse_response(raw)[:2] == (1, 5)

    def test_no_json_is_parse_error(self):
        with pytest.raises(ResponseParseError):
            parse_response("no json here")

    def test_missing_complication_is_parse_error(self):
        with pytest.raises(ResponseParseError):
            parse_response('{"severity": 2}')

    def test_invalid_complication_value(self):
        with pytest.raises(ResponseParseError):
            parse_response('{"complication": 7, "severity": 2}')

    def test_missing_severity_defaults_to_three_with_flag(self):
        parsed = parse_response('{"complication": 1}')
        assert parsed == (1, 3, True)

    def test_out_of_range_severity_also_defaults(self):
        parsed = parse_response('{"complication": 0, "severity": 11}')
        assert parsed == (0, 3, True)

    def test_skips_unparseable_brace_spans(self):
        raw = 'calc {not json} then {"complication": 1, "severity": 2} done'
        assert parse_response(raw)[:2] == (1, 2)

    def test_nested_object(self):
        raw = '{"meta": {"model": "x"}, "complication": 0, "severity": 1}'
        assert parse_response(raw)[:2] == (0, 1)

    def test_braces_inside_strings_do_not_confuse(self):
        raw = '{"note": "uses { and } freely", "complication": 1, "severity": 4}'
        assert parse_response(raw)[:2] == (1, 4)


class TestRankScore:
    @pytest.mark.parametrize("label,severity,expected", [
        (1, 5, 1.0),
        (1, 4, 0.8),
        (1, 1, 0.2),
        (0, 5, 0.0),
        (0, 3, 0.2),
        (0, 1, 0.4),
    ])
    def test_formula(self, label, severity, expected):
        assert rank_score(label, severity) == pytest.approx(expected)

    def test_severity_monotone_under_label_one(self):
        scores = [rank_score(1, s) for s in range(1, 6)]
        assert scores == sorted(scores) and len(set(scores)) == 5

    def test_mock_positive_scores_dominate_label_zero_scores(self):
        # the mock emits severity >= 2 for label 1, so its label-1
        # scores are never below any label-0 score
        min_mock_positive = rank_score(1, 2)
        max_label_zero = max(rank_score(0, s) for s in range(1, 6))
        assert min_mock_positive >= max_label_zero


class TestMock:
    def test_no_keywords(self):
        outcome = classify(ctx("routine recovery, nothing remarkable"), MOCK)
        assert (outcome.label, outcome.severity) == (0, 1)

    def test_two_distinct_keywords(self):
        outcome = classify(ctx("sepsis followed by reoperation"), MOCK)
        assert (outcome.label, outcome.severity) == (1, 3)

    def test_planted_sentence_detected(self):
        outcome = classify(ctx("note: postoperative anastomotic leak requiring reoperation."), MOCK)
        assert outcome.label == 1

    def test_case_insensitive(self):
        assert classify(ctx("SEPSIS"), MOCK).label == 1

    def test_repeated_keyword_counts_once(self):
        outcome = classify(ctx("sepsis sepsis sepsis"), MOCK)
        assert outcome.severity == 2

    def test_severity_caps_at_five(self):
        text = " then ".join(DEFAULT_COMPLICATION_KEYWORDS)
        assert classify(ctx(text), MOCK).severity == 5

    def test_empty_context(self):
        outcome = classify(ctx(""), MOCK)
        assert (outcome.label, outcome.severity) == (0, 1)
        assert outcome.score == pytest.approx(0.4)

    def test_deterministic(self):
        a = classify(ctx("wound dehiscence observed"), MOCK)
        b = classify(ctx("wound dehiscence observed"), MOCK)
        assert a == b

    def test_mock_response_is_json(self):
        raw = mock_response("sepsis", DEFAULT_COMPLICATION_KEYWORDS)
        assert json.loads(raw) == {"complication": 1, "severity": 2}

    def test_latency_zero_for_mock(self):
        assert classify(ctx("anything"), MOCK).latency_ms == 0

    def test_prompt_words_counted(self):
        outcome = classify(ctx("alpha beta gamma"), MOCK)
        template_words = len(ClassifierConfig().prompt_template.replace("{context}", "").split())
        assert outcome.prompt_words == template_words + 3

    @pytest.mark.parametrize("template", ["{context}", "x{context}y", "Notes:\n{context}\r\nAnswer.",
                                          "a\u2028{context}\x85b"])
    @pytest.mark.parametrize("edges", ["", "\x0b\x1c"])
    def test_prompt_words_are_the_whitespace_split_of_the_prompt(self, template, edges):
        # every line boundary str.splitlines knows, and a {context} touching a word
        breaks = ["\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        text = edges[:1] + "".join(f"w{i}{brk}" for i, brk in enumerate(breaks)) + "last" + edges[1:]
        outcome = classify(ctx(text), ClassifierConfig(prompt_template=template))
        assert outcome.prompt_words == len(template.replace("{context}", text).split())

    @pytest.mark.parametrize("extra", ["", "\u2028"], ids=["ascii", "line-separator"])
    def test_prompt_words_equal_the_split_of_an_ascii_prompt_and_of_one_that_is_not(self, extra):
        # an ASCII prompt is counted without splitting it; a line separator sends it down str.split
        template = f"Notes:\r\n{{context}}\x0bthen\x1canswer{extra}."
        text = f"\x1calpha\r\nbeta\x0b\x0bgamma{extra}delta "
        prompt = template.replace("{context}", text)
        outcome = classify(ctx(text), ClassifierConfig(prompt_template=template))
        assert outcome.prompt_words == len(prompt.split()) == (8 if extra else 6)

    def test_custom_keywords(self):
        outcome = classify(ctx("flux capacitor failure"), ClassifierConfig(keywords=("flux capacitor",)))
        assert outcome.label == 1


class TestRemoteClassifier:
    def _cfg(self, api_server, **kwargs):
        return ClassifierConfig(kind="remote", endpoint=api_server.url, model_name="gpt-test", **kwargs)

    @staticmethod
    def _chat_payload(content):
        return {"choices": [{"message": {"role": "assistant", "content": content}}]}

    def test_parses_remote_verdict(self, api_server):
        api_server.reset([(200, self._chat_payload('{"complication": 1, "severity": 4}'))])
        outcome = classify(ctx("some notes"), self._cfg(api_server))
        assert (outcome.label, outcome.severity) == (1, 4)
        assert outcome.score == pytest.approx(0.8)

    def test_request_wire_shape(self, api_server):
        api_server.reset([(200, self._chat_payload('{"complication": 0, "severity": 1}'))])
        cfg = self._cfg(api_server, temperature=0.25)
        classify(ctx("the notes body"), cfg)
        _, _, body = api_server.requests[0]
        assert body["model"] == "gpt-test"
        assert body["temperature"] == 0.25
        assert body["messages"][0]["role"] == "user"
        assert "the notes body" in body["messages"][0]["content"]

    def test_default_temperature_is_zero(self, api_server):
        api_server.reset([(200, self._chat_payload('{"complication": 0, "severity": 1}'))])
        classify(ctx("x"), self._cfg(api_server))
        assert api_server.requests[0][2]["temperature"] == 0.0

    def test_transport_failure_after_retries(self, api_server, monkeypatch):
        monkeypatch.setattr("budgetrag.remote.time.sleep", lambda s: None)
        api_server.reset([(503, {})])
        with pytest.raises(RemoteServiceError) as err:
            classify(ctx("x"), self._cfg(api_server, max_retries=2))
        assert err.value.status == 503
        assert len(api_server.requests) == 2

    def test_max_retries_counts_attempts_so_one_is_no_retry(self, api_server, monkeypatch):
        monkeypatch.setattr("budgetrag.remote.time.sleep", lambda s: None)
        api_server.reset([(503, {})])
        with pytest.raises(RemoteServiceError):
            classify(ctx("x"), self._cfg(api_server, max_retries=1))
        assert len(api_server.requests) == 1

    def test_unparseable_body_is_parse_error(self, api_server):
        api_server.reset([(200, self._chat_payload("I cannot say."))])
        with pytest.raises(ResponseParseError):
            classify(ctx("x"), self._cfg(api_server))

    def test_missing_choices_is_parse_error(self, api_server):
        api_server.reset([(200, {"result": "ok"})])
        with pytest.raises(ResponseParseError, match="choices"):
            classify(ctx("x"), self._cfg(api_server))

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            ClassifierConfig(kind="remote", model_name="m")

    @pytest.mark.parametrize("max_retries", [0, -3])
    def test_max_retries_below_one_is_rejected(self, max_retries):
        with pytest.raises(ValueError, match="max_retries"):
            ClassifierConfig(max_retries=max_retries)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_is_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            ClassifierConfig(kind="remote", endpoint="http://127.0.0.1:9/v1", model_name="m", temperature=temperature)


class TestClassifyBatch:
    def test_empty_batch(self):
        batch = classify_batch([], ClassifierConfig())
        assert batch.outcomes == [] and batch.failures == []

    def test_order_preserving(self):
        contexts = [ctx("sepsis", pid=f"p{i}") for i in range(5)]
        batch = classify_batch(contexts, ClassifierConfig())
        assert [o.patient_id for o in batch.outcomes] == [f"p{i}" for i in range(5)]

    def test_parallelism_invariance(self):
        contexts = [ctx(f"note {i} " + ("sepsis" if i % 2 else ""), pid=f"p{i}") for i in range(12)]
        serial = classify_batch(contexts, ClassifierConfig(), parallelism=1)
        parallel = classify_batch(contexts, ClassifierConfig(), parallelism=8)
        assert serial.outcomes == parallel.outcomes

    @pytest.mark.parametrize("bad,error", [
        ({"choices": [{"message": {"content": "garbled"}}]}, "ResponseParseError"),
        (b'["choices"]', "RemoteSchemaError"),
    ], ids=["garbled-verdict", "reply-not-an-object"])
    def test_failures_recorded_without_aborting(self, api_server, bad, error):
        cfg = ClassifierConfig(kind="remote", endpoint=api_server.url, model_name="m")
        ok = {"choices": [{"message": {"content": '{"complication": 1, "severity": 2}'}}]}
        api_server.reset([(200, ok), (200, bad), (200, ok)])
        contexts = [ctx("a", pid="p1"), ctx("b", pid="p2"), ctx("c", pid="p3")]
        batch = classify_batch(contexts, cfg)
        assert [o.patient_id for o in batch.outcomes] == ["p1", "p3"]
        assert [f.patient_id for f in batch.failures] == ["p2"]
        assert batch.failures[0].error == error

    def test_bad_parallelism(self):
        with pytest.raises(ValueError):
            classify_batch([], ClassifierConfig(), parallelism=0)


class TestOutcomesFile:
    def test_round_trip_with_failures(self, tmp_path):
        batch = classify_batch([ctx("sepsis", pid="p1"), ctx("fine", pid="p2")], ClassifierConfig())
        from budgetrag.classifier import FailedClassification

        batch.failures.append(FailedClassification(
            patient_id="p3", mode=MODE_RAG, error="ResponseParseError", message="no json"))
        path = tmp_path / "outcomes.jsonl"
        write_outcomes(path, batch)
        outcomes, failures = read_outcomes(path)
        assert [o.patient_id for o in outcomes] == ["p1", "p2"]
        assert outcomes == batch.outcomes
        assert [f.patient_id for f in failures] == ["p3"]
