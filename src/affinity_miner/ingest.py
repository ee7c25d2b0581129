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
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import InvalidType, MalformedRecord

log = logging.getLogger(__name__)

T = TypeVar("T")

MALFORMED_FRACTION_LIMIT = 0.10


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


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One mention. Slots and interned ids keep a large event list small:
    the loader gives every event naming a user the same id string."""

    source: str
    target: str
    timestamp: int
    sentiment: Sentiment
    text: str | None = field(default=None)

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("self-mentions are excluded")


def filter_bots(profiles: list[UserProfile], threshold: float = 2.5) -> list[UserProfile]:
    """Keep profiles with bot_score strictly below threshold, in input order.

    A score exactly at the threshold counts as a bot and is removed.
    """
    if not 0.0 <= threshold <= 5.0:
        raise ValueError(f"threshold outside [0, 5]: {threshold}")
    return [p for p in profiles if p.bot_score < threshold]


_EVENT_KEYS = {"source", "target", "timestamp", "sentiment", "text"}


def open_input(path: str | os.PathLike) -> TextIO:
    """Open an input file for reading.

    Bytes that are not UTF-8 decode to lone surrogates instead of failing
    the whole file, so the loaders can reject just the lines holding them
    and name those lines.
    """
    return open(path, encoding="utf-8", errors="surrogateescape")


def _require_utf8(text: str, what: str = "") -> None:
    """ValueError, its message prefixed by `what`, if text holds a lone
    surrogate: a byte that is not UTF-8 (see open_input) or a JSON escape
    such as "\\udcff"."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{what}not valid UTF-8 at character {exc.start + 1}") from None


def _numbered_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, line without its line break) per non-blank line; the
    numbers count blank lines too, so a diagnostic names the physical line."""
    for lineno, line in enumerate(stream, start=1):
        if line.strip():
            yield lineno, line.rstrip("\r\n")


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
    lines: Iterable[tuple[int, str]], what: str, parse: Callable[[str], T]
) -> list[T]:
    """Tolerant loop: parse each numbered line, rejecting bad ones.

    A line that is not valid UTF-8, or that `parse` refuses with ValueError
    or InvalidType, is logged as "<what> line N rejected: <reason>" and
    skipped. If more than 10% of the lines are rejected the load fails
    with an aggregate MalformedRecord naming the first one.
    """
    values: list[T] = []
    bad: list[tuple[int, str]] = []
    total = 0
    for lineno, line in lines:
        total += 1
        try:
            _require_utf8(line)
            values.append(parse(line))
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
    return values


def _parse_event_line(line: str) -> InteractionEvent:
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
    if not isinstance(source, str) or not source:
        raise ValueError("source must be a non-empty string")
    if not isinstance(target, str) or not target:
        raise ValueError("target must be a non-empty string")
    ts = record["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ValueError(f"timestamp must be an integer, got {ts!r}")
    token = record["sentiment"]
    if not isinstance(token, str) or token not in _SENTIMENT_BY_NAME:
        raise ValueError(f"unknown sentiment token: {token!r}")
    text = record.get("text")
    if text is not None and not isinstance(text, str):
        raise ValueError("text must be a string when present")
    for name, value in (("source", source), ("target", target), ("text", text or "")):
        _require_utf8(value, f"{name}: ")
    if source == target:
        raise ValueError("source equals target (self-mention)")
    return InteractionEvent(
        sys.intern(source), sys.intern(target), ts, _SENTIMENT_BY_NAME[token], text
    )


def load_interactions(stream: Iterable[str]) -> list[InteractionEvent]:
    """Parse interaction records under the parse_lines policy.

    Output is sorted by timestamp; the sort is stable, so ties keep input
    order.
    """
    events = parse_lines(_numbered_lines(stream), "interactions", _parse_event_line)
    return sorted(events, key=lambda event: event.timestamp)


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
    seen: set[str] = set()

    def parse_row(line: str) -> UserProfile:
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"expected 3 fields, got {len(fields)}")
        user_id, code, score_text = (c.strip() for c in fields)
        profile = UserProfile(user_id, parse_mbti(code), float(score_text))
        if user_id in seen:
            raise ValueError(f"duplicate user_id: {user_id!r}")
        seen.add(user_id)
        return profile

    return parse_lines(lines, "profiles", parse_row)
