import json
import random
import tracemalloc

import numpy as np
import pytest

from affinity_miner.errors import InvalidType, MalformedRecord
from affinity_miner.ingest import (
    ALL_TYPES,
    MbtiType,
    Sentiment,
    UserProfile,
    filter_bots,
    load_interactions,
    load_profiles,
    open_input,
    parse_mbti,
)


def event_line(source="a", target="b", timestamp=1, sentiment="POS", **extra):
    record = {"source": source, "target": target, "timestamp": timestamp,
              "sentiment": sentiment, **extra}
    return json.dumps(record)


def ids(events, codes):
    return [events.users[c] for c in codes.tolist()]


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

    def test_type_does_not_order_against_its_code(self):
        with pytest.raises(TypeError):
            MbtiType.ENFJ < "ENFJ"


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


class TestLoadInteractions:
    def test_basic_mapping(self):
        events = load_interactions([event_line(sentiment="POS", timestamp=7)])
        assert len(events) == 1
        assert events.users == ("a", "b")
        assert events.source.tolist() == [0] and events.target.tolist() == [1]
        assert events.timestamp.tolist() == [7]
        assert events.sentiment.tolist() == [Sentiment.POS]

    def test_column_types(self):
        events = load_interactions([event_line(), event_line("b", "c")])
        assert events.source.dtype == np.int32 and events.target.dtype == np.int32
        assert events.timestamp.dtype == np.int64 and events.sentiment.dtype == np.int8
        with pytest.raises(ValueError):
            events.source[0] = 1

    def test_each_user_once(self):
        lines = [event_line("a", "b"), event_line("b", "a"), event_line("c", "a")]
        events = load_interactions(lines)
        assert sorted(events.users) == ["a", "b", "c"]
        assert ids(events, events.source) == ["a", "b", "c"]
        assert ids(events, events.target) == ["b", "a", "a"]

    def test_self_mention_rejected(self):
        lines = [event_line(), event_line(source="x", target="x")] + [
            event_line(timestamp=i) for i in range(2, 20)
        ]
        events = load_interactions(lines)
        assert np.all(events.source != events.target)
        assert "x" not in events.users
        assert len(events) == 19

    def test_tie_broken_by_input_position(self):
        lines = [
            event_line(source="first", timestamp=5),
            event_line(source="second", timestamp=5),
        ]
        events = load_interactions(lines)
        assert ids(events, events.source) == ["first", "second"]

    def test_sorted_by_timestamp(self):
        lines = [event_line(timestamp=t, sentiment=s)
                 for t, s in ((5, "POS"), (1, "NEG"), (3, "NEU"), (2, "POS"), (4, "NEG"))]
        events = load_interactions(lines)
        assert events.timestamp.tolist() == [1, 2, 3, 4, 5]
        assert events.sentiment.tolist() == [0, 2, 1, 0, 2]

    def test_unknown_sentiment_rejected(self):
        lines = [event_line(sentiment="MEH")] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    @pytest.mark.parametrize("token", ["pos", 2, None, ["POS"], {"POS": 1}])
    def test_sentiment_must_be_a_token_name(self, caplog, token):
        lines = [event_line(sentiment=token)] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20
        assert f"line 1 rejected: unknown sentiment token: {token!r}" in caplog.text

    def test_aggregate_error_above_ten_percent(self, caplog):
        lines = [event_line()] * 8 + ["{broken", event_line(sentiment="?")]
        with pytest.raises(MalformedRecord, match="^interactions: 2 of 10 lines malformed"):
            load_interactions(lines)
        assert sum("rejected" in r.getMessage() for r in caplog.records) == 2

    def test_deeply_nested_line_rejected(self, caplog):
        lines = [event_line(timestamp=i) for i in range(20)] + ["[" * 100_000]
        assert len(load_interactions(lines)) == 20
        assert "line 21 rejected: invalid JSON: nested too deeply" in caplog.text

    def test_invalid_json_names_its_column_only(self, caplog):
        lines = [event_line(timestamp=i) for i in range(20)] + ['{"source": "a" "target"}']
        assert len(load_interactions(lines)) == 20
        expected = "line 21 rejected: invalid JSON at column 16: Expecting ',' delimiter"
        assert caplog.records[-1].getMessage().endswith(expected)

    def test_deeply_nested_lines_over_limit(self):
        lines = [event_line(timestamp=i) for i in range(5)] + ["[" * 100_000] * 2
        with pytest.raises(MalformedRecord, match="first: line 6: invalid JSON"):
            load_interactions(lines)

    def test_non_string_sentiment_rejected(self):
        lines = [event_line(sentiment=[])] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    def test_unknown_field_rejected(self, caplog):
        lines = [event_line()] * 40 + [event_line(sentimnet="POS"), "[1]", "1", "null"]
        events = load_interactions(lines)
        assert len(events) == 40
        for lineno in (42, 43, 44):
            assert f"line {lineno} rejected: record is not a key-value object" in caplog.text

    def test_blank_lines_skipped(self):
        events = load_interactions(["", event_line(), "   ", " \t \r\n"])
        assert len(events) == 1

    @pytest.mark.parametrize("blank", ["\x0c", "\xa0", "\u3000", "\x0b"])
    def test_other_whitespace_is_not_blank(self, caplog, blank):
        lines = [event_line(timestamp=i) for i in range(20)]
        lines.insert(5, blank + "\n")
        assert len(load_interactions(lines)) == 20
        assert "interactions line 6 rejected: invalid JSON" in caplog.text

    def test_text_joined_per_source_in_event_order(self):
        lines = [
            event_line("a", "b", 3, text="third"),
            event_line("a", "c", 1, text="first"),
            event_line("b", "a", 2, text="other"),
            event_line("a", "b", 2, text=""),
            event_line("a", "c", 2),
            event_line("a", "b", 1, text="second"),
        ]
        events = load_interactions(lines)
        assert events.documents == {"a": "first second third", "b": "other"}

    @pytest.mark.parametrize(
        "rejected",
        [
            "not json",
            event_line("a", "b", 2, sentiment="HAPPY", text="rejected"),
            # rejected after every field has been read
            event_line("a", "a", 2, text="rejected"),
        ],
        ids=["invalid-json", "bad-sentiment", "self-mention"],
    )
    @pytest.mark.parametrize("at", [1, 3, 4])
    def test_rejected_line_leaves_the_documents_as_if_absent(self, rejected, at):
        # the texted lines out of timestamp order, so a text moved onto a
        # neighbouring row lands at a different place in the document
        lines = [
            event_line("a", "b", 5, text="fifth"),
            event_line("a", "c", 1, text="first"),
            event_line("b", "a", 4, text="other"),
            event_line("a", "c", 3),
            event_line("a", "b", 4, text="fourth"),
            *(event_line("c", "a", 10 + i) for i in range(5)),
        ]
        with_rejected = lines[:at] + [rejected] + lines[at:]
        documents = load_interactions(with_rejected).documents
        assert documents == load_interactions(lines).documents
        assert documents == {"a": "first fourth fifth", "b": "other"}

    def test_text_optional(self):
        events = load_interactions([event_line(text="hi there")])
        assert events.documents == {"a": "hi there"}
        assert load_interactions([event_line()]).documents == {}
        assert load_interactions([event_line(text="")]).documents == {}

    @pytest.mark.parametrize("field", ["source", "target"])
    @pytest.mark.parametrize("brk", ["\t", "\r", "\n"])
    def test_tab_or_line_break_in_id_rejected(self, caplog, field, brk):
        lines = [event_line(timestamp=i) for i in range(20)]
        lines.insert(3, event_line(**{field: f"x{brk}y"}))
        events = load_interactions(lines)
        assert len(events) == 20
        assert all(brk not in user for user in events.users)
        assert f"interactions line 4 rejected: {field} contains a tab or line break" in caplog.text

    @pytest.mark.parametrize("field", ["source", "target"])
    @pytest.mark.parametrize("user_id", [" x", "x ", " x ", "x\u00a0"])
    def test_padded_id_rejected(self, caplog, field, user_id):
        # an id must equal its profile's user_id, which may not be padded either
        lines = [event_line(timestamp=i) for i in range(20)]
        lines.insert(3, event_line(**{field: user_id}))
        events = load_interactions(lines)
        assert len(events) == 20 and events.users == ("a", "b")
        reason = f"{field} {user_id!r} has leading or trailing whitespace"
        assert f"interactions line 4 rejected: {reason}" in caplog.text

    def test_non_string_text_rejected(self, caplog):
        lines = [event_line(timestamp=i) for i in range(20)]
        lines.insert(5, event_line(source="x", text=["hi"]))
        events = load_interactions(lines)
        assert len(events) == 20 and "x" not in events.users
        assert "interactions line 6 rejected: text must be a string when present" in caplog.text

    def test_non_integer_timestamp_rejected(self):
        lines = [event_line(timestamp="noon")] + [event_line(timestamp=i) for i in range(20)]
        assert len(load_interactions(lines)) == 20

    @pytest.mark.parametrize("timestamp", [2**63, -(2**63) - 1, 10**30])
    def test_timestamp_outside_int64_rejected(self, caplog, timestamp):
        lines = [event_line(timestamp=i) for i in range(20)]
        lines.insert(2, event_line(timestamp=timestamp))
        events = load_interactions(lines)
        assert len(events) == 20
        assert "interactions line 3 rejected: timestamp out of range" in caplog.text

    def test_timestamp_outside_int64_counts_toward_limit(self):
        lines = [event_line(timestamp=2**63)] * 2 + [event_line()] * 8
        with pytest.raises(MalformedRecord, match="first: line 1: timestamp out of range"):
            load_interactions(lines)

    def test_int64_bounds_accepted(self):
        lines = [event_line(timestamp=2**63 - 1), event_line(timestamp=-(2**63))]
        events = load_interactions(lines)
        assert events.timestamp.tolist() == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize("field", ["source", "target", "text"])
    def test_escaped_surrogate_rejected_naming_field(self, caplog, field):
        lines = [event_line(timestamp=i) for i in range(20)]
        # json.dumps writes the lone surrogate as the escape \udcff
        lines.insert(4, event_line(**{field: "x\udcff"}))
        assert "\\udcff" in lines[4]
        events = load_interactions(lines)
        assert len(events) == 20
        assert [r.getMessage() for r in caplog.records] == [
            f"interactions line 5 rejected: {field}: not valid UTF-8 at character 2"
        ]

    def test_escapes_decoding_to_valid_text_accepted(self, caplog):
        lines = [event_line("café", "a\\u", text="été \\u00e9")]
        assert "\\u00e9" in lines[0]
        events = load_interactions(lines)
        assert events.users == ("café", "a\\u")
        assert events.documents == {"café": "été \\u00e9"}
        assert not caplog.records

    def test_retained_memory_is_bounded(self, tmp_path):
        """The table keeps typed columns and one document per source, not an
        object per event: 50k events with texts of about 37 characters stay under 4 MiB."""
        rng = random.Random(0)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
        users = [f"user_{i:04d}" for i in range(100)]
        path = tmp_path / "interactions.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for _ in range(50_000):
                source, target = rng.sample(users, 2)
                text = " ".join(rng.choice(words) for _ in range(6))
                fh.write(event_line(source, target, rng.randrange(10**9),
                                    rng.choice(["NEG", "NEU", "POS"]), text=text) + "\n")
        tracemalloc.start()
        try:
            with open_input(path) as fh:
                events = load_interactions(fh)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == 50_000 and len(events.documents) == 100
        assert retained <= 4 * 2**20


class TestLoadProfiles:
    HEADER = "user_id\tmbti\tbot_score"

    @pytest.mark.parametrize("user_id", [" u5", "u5 ", " u5 ", "u5\u00a0"])
    def test_padded_user_id_rejected(self, caplog, user_id):
        # load_interactions keeps ids as written, so a stripped " u5 " would
        # name a user no event has
        rows = [self.HEADER] + [f"u{i}\tINFJ\t0.1" for i in range(20)]
        rows.insert(4, f"{user_id}\tINFJ\t0.1")
        profiles = load_profiles(rows)
        assert [p.user_id for p in profiles] == [f"u{i}" for i in range(20)]
        reason = f"user_id {user_id!r} has leading or trailing whitespace"
        assert f"profiles line 5 rejected: {reason}" in caplog.text

    def test_padded_type_and_score_load(self):
        profiles = load_profiles([self.HEADER, "u0\t INFJ \t 0.1 "])
        assert profiles == [UserProfile("u0", MbtiType.INFJ, 0.1)]

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

    @pytest.mark.parametrize(
        "row, reason",
        [("\tINFJ\t0.1", "user_id must be non-empty"), ("bad\tINFJ", "expected 3 fields, got 2")],
    )
    def test_bad_row_rejected(self, caplog, row, reason):
        rows = [self.HEADER] + [f"u{i}\tINFJ\t0.1" for i in range(20)]
        rows.insert(4, row)
        profiles = load_profiles(rows)
        assert [p.user_id for p in profiles] == [f"u{i}" for i in range(20)]
        assert f"profiles line 5 rejected: {reason}" in caplog.text

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
        with pytest.raises(MalformedRecord, match="first: line 5: "):
            load_profiles(rows)
        assert "profiles line 5 rejected" in caplog.text
