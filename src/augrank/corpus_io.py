"""Readers and writers for every experiment artifact.

File formats:

- Corpus, queries, snippet caches, and training triples are UTF-8 JSONL:
  one JSON object per line.
    corpus:   {"id": str, "title": str (optional), "text": str}
    queries:  {"id": str, "text": str}
    snippets: {"query_id": str, "rank": int, "kind": "organic"|"direct_answer",
               "text": str, "source": "web_serp"|"wiki"}
    triples:  {"query_id": str, "passage_id": str,
               "label": "relevant"|"not_relevant"}
  Every field must hold its JSON type, nothing is cast: ids, text, kind,
  source, label and (in expansion files) mode are strings, title is a
  string or null, and rank is an integer (not a boolean). A wrong type is
  a ParseError naming the line and the field.
- Run files are TREC 6-column text: `qid Q0 docid rank score tag`. The tag
  names the run and is the same on every line: `write_run` takes it once
  and writes it on each line, and `parse_run` does not read it. The qid,
  docid and tag are each one token without whitespace, so `load_queries`
  and `load_corpus` reject an id that a run could not hold. Given the
  corpus, `parse_run` also refuses a docid that the corpus lacks, at the
  first such line.
- Qrels are TREC 4-column text: `qid 0 docid grade`, with a grade in
  0..2**63 - 1. `parse_qrels` returns {query_id: {passage_id: grade}}, the
  mapping the metrics take.
- Grades, ranks and scores are plain ASCII numbers without `_`, as
  trec_eval reads them (`plain_number`).

Every reader takes an open text file, any iterable of lines, or a whole
string. A string is read as a text-mode file would be: its lines end at
`\\n`, `\\r` and `\\r\\n` only, so U+2028 or `\\x0c` inside a record is
part of it.

Duplicate judgments, duplicate docids within a query, and duplicate record
ids are hard errors, never last-wins. All parsers are pure functions over
their input lines and are safe to call concurrently on distinct streams.

A valid JSONL or run file is checked in bulk, and the first bad line or
entry is reported exactly as a check of each line or entry in turn
reports it. Readers stream line by line and hold nothing across records
but what they return and the ids they have seen. A JSONL line is read by
one decode that must end at the end of the stripped line (`json.loads`
runs only to word the error); a run line's numbers are read by one test
and the casts; `RankedList` checks a whole list's scores and ids in a
few passes. Only a check that fails takes the path that checks item by
item and raises the error of the first bad one: its class, message and
line.

The records (`Query`, `Passage`, `Snippet`, `TrainingExample`,
`RankedList`, and the records of the other modules) are `__slots__`
classes on `Record`: they compare by value and print their fields, but
they do not refuse assignment and are not hashable.
"""

from __future__ import annotations

import io
import json
import math
import operator
from collections.abc import Callable, Container, Iterable, Iterator, Sequence
from enum import Enum

from .errors import ConflictError, ParseError, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only: importing typing slows every start-up
    from typing import TextIO, TypeVar

    T = TypeVar("T")


class SnippetSource(str, Enum):
    WEB_SERP = "web_serp"
    WIKI = "wiki"


class Record:
    """Base of the records: equal to a record of the same class whose
    fields are equal, and shown as `Name(field=value, ...)`. The fields are
    the class's `__slots__`, in order; a slot whose name starts with `_`
    holds a cache, which is neither compared nor shown. Assignment is not
    refused, but no code assigns a field after construction."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        names = [name for name in self.__slots__ if name[0] != "_"]
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._values()))
        return f"{type(self).__name__}({shown})"


class Query(Record):
    """A query string with its identifier.

    Ids must be single non-empty tokens (they fill a run file's qid
    column) and unique within a query set; text must be non-empty after
    whitespace trim. Enforced by `load_queries`.
    """

    __slots__ = ("id", "text")

    def __init__(self, id: str, text: str):
        self.id = id
        self.text = text


class Passage(Record):
    """One retrievable text unit. The optional title is carried metadata
    and is never concatenated into the indexed or re-ranked text."""

    __slots__ = ("id", "title", "text")

    def __init__(self, id: str, title: str | None, text: str):
        self.id = id
        self.title = title
        self.text = text


class Snippet(Record):
    """One externally retrieved text with provenance.

    Ranks are 1-based and unique within a (query_id, source) group; the
    file's kind "direct_answer" is `direct_answer`, "organic" is not.
    """

    __slots__ = ("query_id", "rank", "direct_answer", "text", "source")

    def __init__(
        self, query_id: str, rank: int, direct_answer: bool, text: str, source: SnippetSource
    ):
        self.query_id = query_id
        self.rank = rank
        self.direct_answer = direct_answer
        self.text = text
        self.source = source


class TrainingExample(Record):
    """A training triple; the file's label "relevant" is `relevant`."""

    __slots__ = ("query_id", "passage_id", "relevant")

    def __init__(self, query_id: str, passage_id: str, relevant: bool):
        self.query_id = query_id
        self.passage_id = passage_id
        self.relevant = relevant


# Graded relevance judgments: query id -> passage id -> grade, as
# `parse_qrels` returns them. Grades are integers in 0..2**63 - 1; a query
# absent from the mapping is unjudged, and an unjudged pair counts as 0.
Qrels = dict[str, dict[str, int]]
_MAX_GRADE = 2**63 - 1  # a float holds it, and any qrels file's gain sums stay finite

# Getters for the items of `parse_run`'s row (docid, score, rank) and of
# `_iter_lines`' pair (line_no, line); `_entry` gives a row's entry.
_second, _rank = operator.itemgetter(1), operator.itemgetter(2)
_entry = operator.itemgetter(0, 1)


class RankedList(Record):
    """One query's candidate ranking: entries are (passage_id, score),
    sorted by score descending, passage ids unique, no NaN scores. The run
    tag is not part of it: it is given to `write_run`."""

    __slots__ = ("query_id", "entries")

    def __init__(self, query_id: str, entries: tuple[tuple[str, float], ...]):
        self.query_id = query_id
        self.entries = entries
        # One score per distinct passage id; a sum is NaN when a score is
        # NaN (or when both infinities occur, which only the loop clears).
        scores = [*dict(entries).values()]
        if (
            len(scores) != len(entries)
            or math.isnan(sum(scores))
            or sorted(scores, reverse=True) != scores
        ):
            _refuse_entries(query_id, entries)


def _refuse_entries(query_id: str, entries: tuple[tuple[str, float], ...]) -> None:
    """Raise the error of `entries`' first entry that breaks `RankedList`'s
    rules: a NaN score, a score above the one before it, or a passage id
    seen before. `RankedList` checks a whole list in bulk and calls this
    only when a check fails, so that the error names that entry."""
    seen: set[str] = set()
    prev = math.inf
    for pid, score in entries:
        if math.isnan(score):
            raise ValidationError(f"NaN score for passage {pid!r} in query {query_id!r}")
        if score > prev:
            raise ValidationError(f"entries not sorted by descending score in query {query_id!r}")
        prev = score
        if pid in seen:
            raise ConflictError(f"duplicate passage {pid!r} in query {query_id!r}")
        seen.add(pid)


def _iter_lines(stream: Iterable[str] | str) -> Iterator[tuple[int, str]]:
    """(line_no, line) pairs of the stripped lines, skipping blank lines;
    built of C iterators, so no Python code runs per line.

    Accepts an open text file, any iterable of lines, or a whole string. A
    string is read as a text-mode file reads its bytes: lines end only at
    `\\n`, `\\r` and `\\r\\n`, not at the other breaks `str.splitlines` knows.
    """
    lines = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
    return filter(_second, enumerate(map(str.strip, lines), start=1))


def plain_number(cast: Callable[[str], T], text: str) -> T:
    """`cast(text)` for a number column, or ValueError unless the text is
    plain ASCII without `_`. Python's int() and float() also read `1_0`
    and non-ASCII digits such as `２`, which C's atoi and atof (and so
    trec_eval) do not; `+1` and `1e3` stay legal."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return cast(text)


def parse_qrels(stream: Iterable[str] | str) -> Qrels:
    """Parse TREC qrels: `qid <ignored> docid grade`, one judgment per line,
    into {query_id: {passage_id: grade}}.

    Raises ParseError on malformed lines and ConflictError when a
    (qid, docid) pair appears twice, both naming the line number.
    """
    qrels: Qrels = {}
    for line_no, line in _iter_lines(stream):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}: {line!r}", line_no)
        qid, _, docid, grade_str = parts
        try:
            grade = plain_number(int, grade_str)
        except ValueError:
            raise ParseError(f"non-integer grade {grade_str!r}", line_no) from None
        if grade < 0:
            raise ParseError(f"negative grade {grade}", line_no)
        if grade > _MAX_GRADE:
            raise ParseError(f"grade {grade_str!r} is above {_MAX_GRADE}", line_no)
        judged = qrels.setdefault(qid, {})
        if docid in judged:
            raise ConflictError(f"duplicate judgment for ({qid}, {docid})", line_no)
        judged[docid] = grade
    return qrels


def parse_run(
    stream: Iterable[str] | str, passages: Container[str] | None = None
) -> list[RankedList]:
    """Parse a TREC run file: `qid Q0 docid rank score tag`.

    Entries are grouped by qid (lists emitted in order of first appearance)
    and re-sorted by score descending with ties broken by the given rank
    ascending, so write_run -> parse_run round-trips preserve ordering. The
    tag column must be present but is not read. A score that is NaN or
    infinite, or that overflows a float (such as `1e999`), is a ParseError.
    Given `passages`, a docid it lacks is a ParseError at its line, after
    that line's other checks; the first such line in file order is named.
    """
    # qid -> docid -> its row (docid, score, rank), in file order
    groups: dict[str, dict[str, tuple[str, float, int]]] = {}
    for line_no, line in _iter_lines(stream):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}: {line!r}", line_no)
        qid, _, docid, rank_str, score_str, _ = parts
        numbers = rank_str + score_str
        try:
            if not numbers.isascii() or "_" in numbers:
                raise ValueError(numbers)
            rank, score = int(rank_str), float(score_str)
            if not math.isfinite(score):
                raise ValueError(score_str)
        except ValueError:
            _refuse_run_numbers(rank_str, score_str, docid, line_no)
        rows = groups.get(qid)
        if rows is None:
            rows = groups[qid] = {}
        if docid in rows:
            raise ConflictError(f"duplicate docid {docid!r} for query {qid!r}", line_no)
        if passages is not None and docid not in passages:
            raise ParseError(f"passage {docid!r} of query {qid!r} is not in the corpus", line_no)
        rows[docid] = (docid, score, rank)

    lists = []
    for qid, by_docid in groups.items():
        rows = list(by_docid.values())
        # Two stable sorts, by rank and then by score descending, give the
        # order of the key (-score, rank), as no score is NaN.
        rows.sort(key=_rank)
        rows.sort(key=_second, reverse=True)
        lists.append(RankedList(qid, tuple(map(_entry, rows))))
    return lists


def _refuse_run_numbers(rank_str: str, score_str: str, docid: str, line_no: int) -> None:
    """Raise the ParseError that names what is wrong with a run line's rank
    or score. `parse_run` reads valid numbers itself and calls this only
    when that read failed, so a rank and a score that `plain_number` reads
    leave a score that is not finite."""
    try:
        plain_number(int, rank_str)
    except ValueError:
        raise ParseError(f"non-integer rank {rank_str!r}", line_no) from None
    try:
        plain_number(float, score_str)
    except ValueError:
        raise ParseError(f"non-numeric score {score_str!r}", line_no) from None
    raise ParseError(f"NaN or infinite score {score_str!r} for docid {docid!r}", line_no)


def check_run_token(value: str, what: str) -> None:
    """A run file column that must be one non-empty token, such as a run
    tag, a query id or a docid; `what` names it in the ValidationError.
    A token holds no character for which `str.isspace` is true: `split()`
    cuts at exactly those, so it returns `[value]` only for such a token."""
    if value.split() != [value]:
        raise ValidationError(f"{what} {value!r} is not a single non-empty token")


def write_run(lists: Sequence[RankedList], tag: str, out: TextIO) -> None:
    """Write TREC 6-column format with fixed 4-decimal scores and `tag` on
    every line, one write per ranked list. The tag is checked before
    anything is written, and each list's query id and docids before its
    lines are written.

    Rank column numbers entries 1..n in list order.
    """
    check_run_token(tag, "run tag")
    for ranked in lists:
        qid = ranked.query_id
        check_run_token(qid, "query id")
        for pid, _ in ranked.entries:
            check_run_token(pid, "docid")
        out.write("".join([
            f"{qid} Q0 {pid} {rank} {score:.4f} {tag}\n"
            for rank, (pid, score) in enumerate(ranked.entries, start=1)
        ]))


# A string as the JSON string literal `json.dumps(value, ensure_ascii=False)`
# gives, for the JSONL writers. json.dumps builds a new encoder on every
# call that sets an option; this one is built once.
encode_json_string = json.JSONEncoder(ensure_ascii=False).encode

# The JSON types each JSONL field may hold. A field that may be null may
# also be missing; `type` is exact, so a boolean is not an integer.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "id": (str,),
    "query_id": (str,),
    "passage_id": (str,),
    "text": (str,),
    "kind": (str,),
    "source": (str,),
    "label": (str,),
    "mode": (str,),
    "title": (str, type(None)),
    "rank": (int,),
}
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", type(None): "null"}


def _holds_lone_surrogate(text: str) -> bool:
    """True when `text` cannot be written as UTF-8, which only a lone
    surrogate (from a JSON escape such as "\\ud800") causes. O(1) for ASCII."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


# The JSON value at the start of a string and where it ends. `json.loads`
# runs the same decoder after a whitespace match at either end, which a
# stripped line does not need.
_decode_prefix = json.JSONDecoder().raw_decode


def _parse_record(line: str, line_no: int, fields: Sequence[str]) -> dict:
    """One JSONL record whose named fields are checked against
    `_FIELD_TYPES`; read a nullable field with `get`. A string field that
    holds a lone surrogate is rejected too: no artifact could hold it.
    `line` is stripped, as `_iter_lines` yields it: the record is read in
    one decode that must end at the end of the line."""
    try:
        record, end = _decode_prefix(line)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: deep nesting
        end = -1
    if end != len(line):
        # Not one JSON value: json.loads words the error, a BOM and
        # trailing data included.
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid JSON record: {exc}", line_no) from None
    if not isinstance(record, dict):
        raise ParseError("record is not a JSON object", line_no)
    for key in fields:
        value = record.get(key)
        kind = type(value)
        if kind not in _FIELD_TYPES[key]:
            if key not in record:
                raise ParseError(f"missing field {key!r}", line_no)
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in _FIELD_TYPES[key])
            raise ParseError(
                f"field {key!r} must be {expected}, got {json.dumps(value)}", line_no
            )
        # isascii() first: a call per ASCII field is measurable on a corpus.
        if kind is str and not value.isascii() and _holds_lone_surrogate(value):
            raise ParseError(f"field {key!r} holds a lone surrogate", line_no)
    return record


def _check_id(value: str, what: str, line_no: int) -> None:
    """A passage or query id must fit a run file's docid or qid column, as
    `check_run_token` checks; a ParseError naming the line if not."""
    try:
        check_run_token(value, what)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no) from None


def load_corpus(stream: Iterable[str] | str) -> list[Passage]:
    """Load a JSONL passage corpus, preserving file order and checking
    that ids are unique single tokens and texts non-empty."""
    passages: dict[str, Passage] = {}
    for line_no, line in _iter_lines(stream):
        record = _parse_record(line, line_no, ("id", "title", "text"))
        pid, text = record["id"], record["text"]
        _check_id(pid, "passage id", line_no)
        if not text:
            raise ParseError(f"empty text for passage {pid!r}", line_no)
        if pid in passages:
            raise ConflictError(f"duplicate passage id {pid!r}", line_no)
        passages[pid] = Passage(pid, record.get("title"), text)
    return list(passages.values())


def load_queries(stream: Iterable[str] | str) -> list[Query]:
    """Load a JSONL query set; ids unique single tokens, text non-empty
    after trim."""
    queries: dict[str, Query] = {}
    for line_no, line in _iter_lines(stream):
        record = _parse_record(line, line_no, ("id", "text"))
        qid, text = record["id"], record["text"]
        _check_id(qid, "query id", line_no)
        if not text.strip():
            raise ParseError(f"empty text for query {qid!r}", line_no)
        if qid in queries:
            raise ConflictError(f"duplicate query id {qid!r}", line_no)
        queries[qid] = Query(qid, text)
    return list(queries.values())


def load_snippet_cache(stream: Iterable[str] | str) -> dict[str, list[Snippet]]:
    """Load a JSONL snippet cache grouped per query, sorted by rank ascending.

    A duplicate (query_id, source, rank) triple is a conflict; unknown kind
    or source tokens are parse errors. Kind filtering (e.g. skipping direct
    answers) happens downstream, not here.
    """
    cache: dict[str, list[Snippet]] = {}
    seen: set[tuple[str, str, int]] = set()
    for line_no, line in _iter_lines(stream):
        record = _parse_record(line, line_no, ("query_id", "rank", "kind", "text", "source"))
        qid, rank, text = record["query_id"], record["rank"], record["text"]
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {rank}", line_no)
        kind = record["kind"]
        if kind not in ("organic", "direct_answer"):
            raise ParseError(f"unknown snippet kind {kind!r}", line_no)
        try:
            source = SnippetSource(record["source"])
        except ValueError:
            raise ParseError(f"unknown snippet source {record['source']!r}", line_no) from None
        if not text:
            raise ParseError(f"empty snippet text for query {qid!r}", line_no)
        key = (qid, source.value, rank)
        if key in seen:
            raise ConflictError(
                f"duplicate snippet rank {rank} for query {qid!r}, source {source.value}",
                line_no,
            )
        seen.add(key)
        cache.setdefault(qid, []).append(Snippet(qid, rank, kind == "direct_answer", text, source))
    for snippets in cache.values():
        snippets.sort(key=lambda s: (s.rank, s.source.value))
    return cache


def load_triples(stream: Iterable[str] | str) -> list[TrainingExample]:
    """Load JSONL (query_id, passage_id, label) training triples."""
    triples: list[TrainingExample] = []
    for line_no, line in _iter_lines(stream):
        record = _parse_record(line, line_no, ("query_id", "passage_id", "label"))
        qid, pid, label = record["query_id"], record["passage_id"], record["label"]
        if label not in ("relevant", "not_relevant"):
            raise ParseError(f"unknown label {label!r}", line_no)
        triples.append(TrainingExample(qid, pid, label == "relevant"))
    return triples
