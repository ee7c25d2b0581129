"""Parsing, validation and filtering of user profiles and mention interactions.

Input formats:
  interactions: JSON Lines, one object per line with keys
    source, target, timestamp (int), sentiment ("NEG"|"NEU"|"POS"),
    and optional text.
  profiles: tab-separated with header row: user_id, mbti, bot_score.
"""

from __future__ import annotations

import enum
import json
import logging
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .errors import ConfigError, InvalidType, MalformedRecord

log = logging.getLogger(__name__)

MALFORMED_FRACTION_LIMIT = 0.10
# bot_score (0-5 scale) at or above which filter_bots drops a profile
BOT_THRESHOLD = 2.5


class Sentiment(enum.IntEnum):
    """Sentiment trichotomy; integer value doubles as matrix index."""

    NEG = 0
    NEU = 1
    POS = 2


_SENTIMENT_BY_NAME = {s.name: s for s in Sentiment}


class MbtiType(enum.Enum):
    """The 16 four-letter personality type codes."""

    ENFJ = "ENFJ"
    ENFP = "ENFP"
    ENTJ = "ENTJ"
    ENTP = "ENTP"
    ESFJ = "ESFJ"
    ESFP = "ESFP"
    ESTJ = "ESTJ"
    ESTP = "ESTP"
    INFJ = "INFJ"
    INFP = "INFP"
    INTJ = "INTJ"
    INTP = "INTP"
    ISFJ = "ISFJ"
    ISFP = "ISFP"
    ISTJ = "ISTJ"
    ISTP = "ISTP"

    def __str__(self) -> str:
        return self.value

    def __lt__(self, other: MbtiType) -> bool:
        """Types order by their code."""
        if not isinstance(other, MbtiType):
            return NotImplemented
        return self.value < other.value


ALL_TYPES: tuple[MbtiType, ...] = tuple(sorted(MbtiType))


def parse_mbti(code: str) -> MbtiType:
    """Case-insensitive lookup of a four-letter type code."""
    try:
        return MbtiType(code.upper())
    except ValueError:
        raise InvalidType(f"not a personality type code: {code!r}") from None


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    mbti: MbtiType
    bot_score: float

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be non-empty")
        if not 0.0 <= self.bot_score <= 5.0:
            raise ValueError(f"bot_score outside [0, 5]: {self.bot_score}")


@dataclass(frozen=True, eq=False)
class EventTable:
    """Mention events as read-only columns, one row per event in
    (timestamp, input position) order.

    `source` and `target` are int32 codes into `users`, which holds each
    id once; `timestamp` is int64 and `sentiment` int8 (Sentiment values).
    The event texts are not kept: `documents` maps each source id that has
    non-empty texts to those texts joined by " " in row order.
    """

    users: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    timestamp: np.ndarray
    sentiment: np.ndarray
    documents: dict[str, str]

    def __len__(self) -> int:
        return len(self.timestamp)


def filter_bots(profiles: list[UserProfile]) -> list[UserProfile]:
    """Keep profiles with bot_score strictly below BOT_THRESHOLD, in input
    order; a score exactly at the threshold counts as a bot and is removed."""
    return [p for p in profiles if p.bot_score < BOT_THRESHOLD]


_EVENT_KEYS = {"source", "target", "timestamp", "sentiment", "text"}


def open_input(path: str | os.PathLike) -> TextIO:
    """Open an input file for reading.

    Bytes that are not UTF-8 decode to lone surrogates instead of failing
    the whole file, so the loaders can reject just the lines holding them
    and name those lines.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


def make_output_dir(path: Path) -> None:
    """Create the output directory `path` and its parents if missing. An
    OSError is the ConfigError for the out key, naming `path` as given."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"config key out: cannot create directory {str(path)!r}: {exc.strerror}"
        raise ConfigError(message, key="out") from None


def _require_utf8(text: str, what: str = "") -> None:
    """ValueError, its message prefixed by `what`, if text holds a lone
    surrogate: a byte that is not UTF-8 (see open_input) or a JSON escape
    such as "\\udcff"."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{what}not valid UTF-8 at character {exc.start + 1}") from None


def _numbered_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, line without its line break) per non-blank line, where
    a blank line holds nothing but spaces and tabs; the numbers count blank
    lines too, so a diagnostic names the physical line."""
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\r\n")
        if line.strip(" \t"):
            yield lineno, line


def read_lines(stream: Iterable[str], error=MalformedRecord) -> Iterator[tuple[int, str]]:
    """Strict reader: yield (line number, line) for each non-blank line.

    A line that is not valid UTF-8 fails the whole load by raising the
    AffinityMinerError `error("line N: ...", line=N)`.
    """
    for lineno, line in _numbered_lines(stream):
        try:
            _require_utf8(line)
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}", line=lineno) from None
        yield lineno, line


def parse_lines(
    lines: Iterable[tuple[int, str]], what: str, parse: Callable[[str], None]
) -> None:
    """Tolerant loop: hand each numbered line to `parse`, which keeps what
    it accepts, rejecting bad lines.

    A line that is not valid UTF-8, or that `parse` refuses with ValueError
    or InvalidType (before keeping any of it), is logged as "<what> line N
    rejected: <reason>" and skipped. If more than 10% of the lines are
    rejected the load fails with an aggregate MalformedRecord naming the
    first one.
    """
    bad: list[tuple[int, str]] = []
    total = 0
    for lineno, line in lines:
        total += 1
        try:
            _require_utf8(line)
            parse(line)
        except (ValueError, InvalidType) as exc:
            bad.append((lineno, str(exc)))
            log.warning("%s line %d rejected: %s", what, lineno, exc)
    if total and len(bad) / total > MALFORMED_FRACTION_LIMIT:
        raise MalformedRecord(
            f"{what}: {len(bad)} of {total} lines malformed "
            f"(first: line {bad[0][0]}: {bad[0][1]})",
            line=bad[0][0],
            line_errors=bad,
        )


def _parse_event_line(line: str) -> tuple[str, str, int, Sentiment, str | None]:
    """(source, target, timestamp, sentiment, text) of one record."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise ValueError("record is not a key-value object")
    unknown = set(record) - _EVENT_KEYS
    if unknown:
        raise ValueError(f"unknown field(s): {sorted(unknown)}")
    missing = {"source", "target", "timestamp", "sentiment"} - set(record)
    if missing:
        raise ValueError(f"missing field(s): {sorted(missing)}")
    source, target = record["source"], record["target"]
    for name, value in (("source", source), ("target", target)):
        if not isinstance(value, str) or not value:
            raise ValueError(f"{name} must be a non-empty string")
        if "\t" in value or "\r" in value or "\n" in value:
            raise ValueError(f"{name} contains a tab or line break")
    ts = record["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ValueError(f"timestamp must be an integer, got {ts!r}")
    if not -(2**63) <= ts < 2**63:
        raise ValueError("timestamp out of range (not a 64-bit signed integer)")
    token = record["sentiment"]
    if not isinstance(token, str) or token not in _SENTIMENT_BY_NAME:
        raise ValueError(f"unknown sentiment token: {token!r}")
    text = record.get("text")
    if text is not None and not isinstance(text, str):
        raise ValueError("text must be a string when present")
    # parse_lines checked the raw line, so only a \u escape can decode to a
    # lone surrogate
    if "\\u" in line:
        for name, value in (("source", source), ("target", target), ("text", text or "")):
            _require_utf8(value, f"{name}: ")
    if source == target:
        raise ValueError("source equals target (self-mention)")
    return source, target, ts, _SENTIMENT_BY_NAME[token], text


def load_interactions(stream: Iterable[str]) -> EventTable:
    """Parse interaction records under the parse_lines policy into columns.

    Rows are sorted by timestamp; the sort is stable, so ties keep input
    order. Each accepted line goes straight into typed columns and its text
    into a list, so no per-event object outlives its line; each source's
    non-empty texts are joined in the row order of that one sort.
    """
    codes: dict[str, int] = {}
    source, target = array("i"), array("i")
    timestamp, sentiment = array("q"), bytearray()
    texts: list[str | None] = []  # per accepted line, in input order

    def keep(line: str) -> None:
        src, dst, ts, state, text = _parse_event_line(line)
        source.append(codes.setdefault(src, len(codes)))
        target.append(codes.setdefault(dst, len(codes)))
        timestamp.append(ts)
        sentiment.append(state)
        texts.append(text)

    parse_lines(_numbered_lines(stream), "interactions", keep)
    users = tuple(codes)
    order = np.argsort(np.frombuffer(timestamp, np.int64), kind="stable")
    parts: defaultdict[int, list[str]] = defaultdict(list)
    # a memoryview yields each row as an int without a list of them all
    for row in memoryview(order):
        if texts[row]:
            parts[source[row]].append(texts[row])
    documents = {users[code]: " ".join(p) for code, p in parts.items()}
    columns = [
        np.frombuffer(column, dtype)[order]
        for column, dtype in (
            (source, np.int32), (target, np.int32), (timestamp, np.int64), (sentiment, np.int8)
        )
    ]
    for column in columns:
        column.setflags(write=False)
    return EventTable(users, *columns, documents)


def load_profiles(stream: Iterable[str]) -> list[UserProfile]:
    """Parse the tab-separated profiles table (header: user_id, mbti, bot_score).

    Fields are split on tabs only; a quote is an ordinary character. Bad
    rows and duplicate user ids are rejected under the parse_lines policy.
    """
    lines = _numbered_lines(stream)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise MalformedRecord("profiles file has no header row")
    names = [c.strip() for c in header.split("\t")]
    if names != ["user_id", "mbti", "bot_score"]:
        raise MalformedRecord(f"line {lineno}: bad profiles header: {names}", line=lineno)
    profiles: list[UserProfile] = []
    seen: set[str] = set()

    def parse_row(line: str) -> None:
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"expected 3 fields, got {len(fields)}")
        user_id, code, score_text = (c.strip() for c in fields)
        profile = UserProfile(user_id, parse_mbti(code), float(score_text))
        if user_id in seen:
            raise ValueError(f"duplicate user_id: {user_id!r}")
        seen.add(user_id)
        profiles.append(profile)

    parse_lines(lines, "profiles", parse_row)
    return profiles
