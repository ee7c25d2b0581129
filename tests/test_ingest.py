import json

import pytest

from affinity_miner import (
    ALL_TYPES,
    MbtiType,
    UserProfile,
    filter_bots,
    load_interactions,
    load_profiles,
    parse_mbti,
)
from affinity_miner.errors import InvalidType, MalformedRecord
from affinity_miner.ingest import Sentiment


def event_line(source="a", target="b", timestamp=1, sentiment="POS", **extra):
    record = {"source": source, "target": target, "timestamp": timestamp,
              "sentiment": sentiment, **extra}
    return json.dumps(record)


class TestParseMbti:
    def test_all_16_round_trip(self):
        assert len(ALL_TYPES) == 16
        for t in ALL_TYPES:
            assert parse_mbti(str(t)) is t

    def test_case_insensitive(self):
        assert parse_mbti("infj") is MbtiType.INFJ
        assert parse_mbti("InFj") is MbtiType.INFJ

    def test_invalid_code(self):
        with pytest.raises(InvalidType):
            parse_mbti("ABCD")


class TestFilterBots:
    def build(self, scores):
        return [UserProfile(f"u{i}", MbtiType.INFJ, s) for i, s in enumerate(scores)]

    def test_boundary_removed(self):
        kept = filter_bots(self.build([2.5]))
        assert kept == []

    def test_below_boundary_kept(self):
        kept = filter_bots(self.build([2.49, 0.0]))
        assert [p.bot_score for p in kept] == [2.49, 0.0]

    def test_order_preserved(self):
        profiles = self.build([1.0, 3.0, 0.5, 2.5, 2.0])
        kept = filter_bots(profiles)
        assert [p.user_id for p in kept] == ["u0", "u2", "u4"]

    def test_idempotent(self):
        profiles = self.build([0.1, 2.6, 1.4, 4.9, 2.5, 0.0])
        once = filter_bots(profiles)
        assert filter_bots(once) == once

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            filter_bots(self.build([1.0]), threshold=5.5)


class TestLoadInteractions:
    def test_basic_mapping(self):
        events = load_interactions([event_line(sentiment="POS")])
        assert len(events) == 1
        assert events[0].sentiment is Sentiment.POS

    def test_self_mention_rejected(self):
        lines = [event_line(), event_line(source="x", target="x")] + [
            event_line(timestamp=i) for i in range(2, 20)
        ]
        events = load_interactions(lines)
        assert all(e.source != e.target for e in events)
        assert len(events) == 19

    def test_tie_broken_by_input_position(self):
        lines = [
            event_line(source="first", timestamp=5),
            event_line(source="second", timestamp=5),
        ]
        events = load_interactions(lines)
        assert [e.source for e in events] == ["first", "second"]

    def test_sorted_by_timestamp(self):
        lines = [event_line(timestamp=t) for t in (5, 1, 3, 2, 4)]
        events = load_interactions(lines)
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)

    def test_unknown_sentiment_rejected(self):
        lines = [event_line(sentiment="MEH")] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    def test_aggregate_error_above_ten_percent(self):
        lines = [event_line()] * 8 + ["{broken", event_line(sentiment="?")]
        with pytest.raises(MalformedRecord) as info:
            load_interactions(lines)
        assert len(info.value.line_errors) == 2

    def test_deeply_nested_line_rejected(self, caplog):
        lines = [event_line(timestamp=i) for i in range(20)] + ["[" * 100_000]
        assert len(load_interactions(lines)) == 20
        assert "line 21 rejected: invalid JSON: nested too deeply" in caplog.text

    def test_deeply_nested_lines_over_limit(self):
        lines = [event_line(timestamp=i) for i in range(5)] + ["[" * 100_000] * 2
        with pytest.raises(MalformedRecord, match="first: line 6: invalid JSON"):
            load_interactions(lines)

    def test_non_string_sentiment_rejected(self):
        lines = [event_line(sentiment=[])] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    def test_unknown_field_rejected(self):
        lines = [event_line()] * 20 + [event_line(sentimnet="POS")]
        events = load_interactions(lines)
        assert len(events) == 20

    def test_blank_lines_skipped(self):
        events = load_interactions(["", event_line(), "   "])
        assert len(events) == 1

    def test_text_optional(self):
        events = load_interactions([event_line(text="hi there")])
        assert events[0].text == "hi there"
        events = load_interactions([event_line()])
        assert events[0].text is None

    def test_non_integer_timestamp_rejected(self):
        lines = [event_line(timestamp="noon")] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    def test_events_are_compact(self):
        # CPython shares one-character strings anyway, so the ids are longer
        lines = [event_line("user_0001", "user_0002"), event_line("user_0002", "user_0001")]
        first, second = load_interactions(lines)
        assert not hasattr(first, "__dict__")
        assert first.source is second.target
        assert first.target is second.source


class TestLoadProfiles:
    HEADER = "user_id\tmbti\tbot_score"

    def test_basic(self):
        rows = [self.HEADER, "alice\tINFJ\t0.4", "bob\tentp\t2.0"]
        profiles = load_profiles(rows)
        assert [p.user_id for p in profiles] == ["alice", "bob"]
        assert profiles[1].mbti is MbtiType.ENTP

    def test_bad_header(self):
        with pytest.raises(MalformedRecord):
            load_profiles(["id\ttype\tscore", "a\tINFJ\t0.1"])

    def test_duplicate_user_rejected(self):
        rows = [self.HEADER] + [f"u{i}\tINFJ\t0.1" for i in range(20)] + ["u0\tENTP\t0.2"]
        profiles = load_profiles(rows)
        assert len(profiles) == 20

    def test_out_of_range_score_rejected(self):
        rows = [self.HEADER] + [f"u{i}\tINFJ\t0.1" for i in range(20)] + ["bad\tINFJ\t6.0"]
        profiles = load_profiles(rows)
        assert all(p.user_id != "bad" for p in profiles)

    def test_aggregate_error(self):
        rows = [self.HEADER, "a\tINFJ\t0.1", "b\tWXYZ\t0.1"]
        with pytest.raises(MalformedRecord):
            load_profiles(rows)

    def test_stray_quote_rejects_only_its_line(self, caplog):
        rows = [f"u{i}\tINFJ\t0.1\n" for i in range(30)]
        rows[24] = 'u24\t"INTJ\t0.1\n'
        profiles = load_profiles([self.HEADER + "\n"] + rows)
        assert [p.user_id for p in profiles] == [f"u{i}" for i in range(30) if i != 24]
        assert "profiles line 26 rejected" in caplog.text

    def test_quote_is_an_ordinary_character(self):
        profiles = load_profiles([self.HEADER, '"alice"\tINFJ\t0.1', 'b"ob\tENTP\t0.2'])
        assert [p.user_id for p in profiles] == ['"alice"', 'b"ob']

    def test_long_field_is_a_normal_value(self):
        user_id = "x" * 200_000
        profiles = load_profiles([self.HEADER, f"{user_id}\tINFJ\t0.1"])
        assert [p.user_id for p in profiles] == [user_id]

    def test_line_numbers_count_blank_lines(self, caplog):
        rows = [self.HEADER, "", "a\tINFJ\t0.1", "   ", "b\tWXYZ\t0.1"]
        with pytest.raises(MalformedRecord, match="first: line 5: ") as info:
            load_profiles(rows)
        assert info.value.line == 5
        assert "profiles line 5 rejected" in caplog.text
