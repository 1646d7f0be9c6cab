"""Re-ranker inputs and pluggable candidate scoring.

A `RerankInput` holds its segments as fields: the query, the description
(the expansion text, or None for the plain form) and the document. Its
`sequence` property renders them into one of two fixed templates (single
space after each label colon, single space between segments):

    plain:     "Query: <q> Document: <d> Relevant:"          (description None)
    augmented: "Query: <q> Description: <expansion> Document: <d> Relevant:"

The templates are written once: `template_head` gives everything up to the
document, which every candidate of one query shares, and `sequence` adds
the document and " Relevant:".

`build_augmented_input` is the one place that picks the template: no
expansion, or the empty fallback one, gives the plain form. Training
sequences (`trainset.render_training_sequences`) append " true" /
" false" after "Relevant:". Strings are rendered only where a string
leaves the program: the remote scorer's payload, the pipeline's
inputs.jsonl and training sequences. The first two hold JSON strings,
and they are joined from one set of escaped pieces: `_escape` JSON-escapes
each distinct template head (query and description) and each distinct
document of a call once, in json.dumps' form with ensure_ascii=False and
in its default ASCII form (one string when the two agree), and caches
the pieces on the inputs; `input_records` and the remote payload
concatenate them. JSON escapes one character at a time, so every
inputs.jsonl line is the json.dumps(record, ensure_ascii=False) of its
input and every payload the json.dumps of its sequences. Nothing parses
a rendered sequence back, so text that contains a label literal such as
"Document:" is scored as the text it is. Scorers return one value per input
in [0, 1], higher means more relevant:

- lexical_baseline: BM25 of the document against the tokenized query +
  description terms, exactly as `bm25_search` computes it, over an index
  of the distinct passages among its query id's inputs in the call (a
  repeated id keeps its first document) holding only that query's terms,
  squashed to [0, 1] via s/(s+1); a candidate with no hit scores 0.0.
  Each distinct document is tokenized once per call, however many
  queries' inputs hold it.
- remote: HTTP POST {"inputs": [...]} to <address>/score with the
  rendered sequences, in the bytes json.dumps(...).encode() gives,
  joined from the pieces' ASCII form, expecting {"scores": [...]} of
  equal length; scores must be JSON numbers (not booleans) in [0, 1].
  The address needs a host that encodes as IDNA, a port in 1..65535 if
  it names one, an ASCII path, no space or control character, and no
  query string or fragment. Each call's inputs go in `batch_size`
  chunks, in order, over one HTTP/1.1 keep-alive connection, opened at
  the first batch and closed when the call returns. The client is
  `_http.Connection`, a plain socket that sends each request in the
  bytes http.client would; it is imported at the first batch, so other
  commands never load it. A request that fails on a reused connection
  before any byte of its reply (the server closed it between requests)
  is sent once more on a new connection; a timeout is not retried.
  Proxies come from the environment as urllib.request reads them
  (http_proxy, https_proxy, no_proxy); https goes through a CONNECT
  tunnel, and HTTPS certificates are checked against the system trust
  store. Any other failed request or reply that HTTP/1.1 cannot frame,
  or any status but 200 (a redirect included: it is not followed), is a
  TransportError naming the batch's indices into the call's inputs; a
  reply outside the contract is a ProtocolError.

A call's scores for one query's candidates depend only on that query's
candidates in the call, so scoring a whole run in one call gives the
scores of one call per query. `score_heads` is that one call: the
pipeline scores every query's head with it, and `rerank_topk` orders one
query's head by the scores it is given or scores the head with it. A
remote batch may then hold candidates of several queries; a
TransportError keeps its indices into the call's inputs and names the
query ids of the failed batch.
"""

from __future__ import annotations

import json
import math
from _thread import TIMEOUT_MAX
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from itertools import islice

from .augment import Expansion
from .corpus_io import Passage, Query, RankedList, Record, encode_json_string
from .errors import (
    ProtocolError,
    TransportError,
    UnknownIdError,
    ValidationError,
    count_and_ids,
)
from .index import InvertedIndex, bm25_scores, tokenize

QUERY_LABEL = "Query:"
DESCRIPTION_LABEL = "Description:"
DOCUMENT_LABEL = "Document:"
RELEVANT_LABEL = "Relevant:"

# A string as json.dumps escapes it.
_encode_ascii = json.JSONEncoder().encode

# The escaped end of a sequence after its document: its last segment and
# the closing quote.
_SEQUENCE_END = encode_json_string(f" {RELEVANT_LABEL}")[1:]

# Score assigned to entries kept below the re-ranked head: each sits this
# far under the previous one so the output stays sorted.
_TAIL_STEP = 1e-6


class ScorerKind(str, Enum):
    LEXICAL_BASELINE = "lexical_baseline"
    REMOTE = "remote"


class ScorerEndpoint:
    """Where and how candidates are scored; the class attributes are the
    defaults of batch size and timeout. `kind` is read by value, so
    "remote" is ScorerKind.REMOTE; an unknown one is a ValidationError, as
    is an address that is not a string or None, a batch size that is not
    an int, or a timeout that is not an int or a float (a bool is neither)."""

    address: str | None = None
    batch_size: int = 32
    timeout: float = 10.0

    def __init__(
        self,
        kind: ScorerKind,
        address: str | None = address,
        batch_size: int = batch_size,
        timeout: float = timeout,
    ):
        try:
            self.kind = ScorerKind(kind)
        except ValueError:
            raise ValidationError(f"unknown scorer {kind!r}") from None
        if address is not None and not isinstance(address, str):
            raise ValidationError(f"address must be a string or None, got {address!r}")
        if not isinstance(batch_size, int) or isinstance(batch_size, bool):
            raise ValidationError(f"batch_size must be an integer, got {batch_size!r}")
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
            raise ValidationError(f"timeout must be a number, got {timeout!r}")
        self.address = address
        self.batch_size = batch_size
        self.timeout = timeout
        if self.kind is ScorerKind.REMOTE:
            # Imported here: only a remote address is parsed, and
            # urllib.parse loads ipaddress with it.
            from urllib.parse import urlsplit

            try:
                parts = urlsplit(self.address or "")
            except ValueError as exc:  # e.g. an unclosed "[" around an IPv6 host
                raise ValidationError(f"remote scorer address {self.address!r}: {exc}") from None
            if parts.scheme not in ("http", "https"):
                raise ValidationError(
                    f"remote scorer requires an http(s) address, got {self.address!r}"
                )
            try:
                port_ok = parts.port != 0  # None (the scheme's default) or 1..65535
            except ValueError:
                port_ok = False
            if not parts.hostname or not port_ok:
                raise ValidationError(
                    f"remote scorer address needs a host and a port in 1..65535, "
                    f"got {self.address!r}"
                )
            # "/score" is appended to the address: after a query string or
            # a fragment it would not extend the path.
            if "?" in self.address or "#" in self.address:
                raise ValidationError(
                    f"remote scorer address must not have a query string or a fragment, "
                    f"got {self.address!r}"
                )
            # What would fail only at the first request: the host is looked
            # up as IDNA and the path sent as ASCII; a request line holds no
            # space or control character, and urlsplit drops a tab.
            try:
                parts.hostname.encode("idna")
            except UnicodeError as exc:
                raise ValidationError(f"remote scorer address {self.address!r}: {exc}") from None
            if not parts.path.isascii() or not self.address.isprintable() or " " in self.address:
                raise ValidationError(
                    f"remote scorer address must have an ASCII path and no space or control "
                    f"character, got {self.address!r}"
                )
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ValidationError(f"timeout must be finite and positive, got {self.timeout}")
        if self.timeout > TIMEOUT_MAX:  # a longer one overflows at the first request
            raise ValidationError(f"timeout must be at most {TIMEOUT_MAX}, got {self.timeout}")


class RerankInput(Record):
    """One candidate for the scorer, kept as its template segments.
    `_escaped` caches the JSON-escaped pieces of its sequence, which
    `_escape` fills: head and document for inputs.jsonl, then head and
    document for the remote payload."""

    __slots__ = ("query_id", "passage_id", "query", "description", "document", "_escaped")

    def __init__(
        self, query_id: str, passage_id: str, query: str, description: str | None, document: str
    ):
        self.query_id = query_id
        self.passage_id = passage_id
        self.query = query
        self.description = description
        self.document = document
        self._escaped: tuple[str, str, str, str] | None = None

    @property
    def sequence(self) -> str:
        """The inference-form template; the label slot after "Relevant:" is
        left for the scorer."""
        return f"{template_head(self.query, self.description)}{self.document} {RELEVANT_LABEL}"


def template_head(query: str, description: str | None) -> str:
    """The template up to the document: "Query: <q> Document: " (description
    None) or "Query: <q> Description: <expansion> Document: ". Every
    candidate of one query shares it."""
    if description is None:
        return f"{QUERY_LABEL} {query} {DOCUMENT_LABEL} "
    return f"{QUERY_LABEL} {query} {DESCRIPTION_LABEL} {description} {DOCUMENT_LABEL} "


def _escaped_forms(text: str, start: int, stop: int) -> tuple[str, str]:
    """`text` JSON-escaped and cut to [start:stop], as json.dumps escapes it
    with ensure_ascii=False and as it escapes it by default. The two agree
    on ASCII text without DEL ("\\x7f"), which then gives one string for both."""
    escaped = encode_json_string(text)[start:stop]
    if text.isascii() and "\x7f" not in text:
        return escaped, escaped
    return escaped, _encode_ascii(text)[start:stop]


def _escape(inputs: Iterable[RerankInput]) -> None:
    """Fill the `_escaped` of each input that lacks it with its sequence's
    pieces: the template head with its opening quote and the document
    without quotes, each in both of `_escaped_forms`' forms. Each distinct
    head (query and description) and each distinct document among `inputs`
    is escaped once, and inputs that share one share its strings."""
    heads: dict[tuple[str, str | None], tuple[str, str]] = {}
    documents: dict[str, tuple[str, str]] = {}
    for item in inputs:
        if item._escaped is not None:
            continue
        head_key = (item.query, item.description)
        head = heads.get(head_key)
        if head is None:
            head = _escaped_forms(template_head(item.query, item.description), 0, -1)
            heads[head_key] = head
        document = documents.get(item.document)
        if document is None:
            document = documents[item.document] = _escaped_forms(item.document, 1, -1)
        item._escaped = (head[0], document[0], head[1], document[1])


def input_records(inputs: Sequence[RerankInput]) -> list[str]:
    """The inputs.jsonl lines of `inputs`, in order: each is
    json.dumps({"query_id", "passage_id", "sequence"}, ensure_ascii=False)
    of its own input, joined from the pieces `_escape` gives it. JSON
    escapes one character at a time, so the joined pieces are the escaped
    sequence."""
    _escape(inputs)
    lines = []
    query_id = prefix = None
    for item in inputs:
        if item.query_id != query_id:
            query_id = item.query_id
            prefix = f'{{"query_id": {encode_json_string(query_id)}, "passage_id": '
        head, document, _, _ = item._escaped
        lines.append(
            f'{prefix}{encode_json_string(item.passage_id)}, "sequence": '
            f"{head}{document}{_SEQUENCE_END}}}\n"
        )
    return lines


def build_input(query: Query, passage: Passage) -> RerankInput:
    """Plain input: no Description segment."""
    return RerankInput(query.id, passage.id, query.text, None, passage.text)


def build_augmented_input(
    query: Query, expansion: Expansion | None, passage: Passage
) -> RerankInput:
    """The input for `query` and `passage`: augmented, with the expansion
    text as the Description segment, or plain when there is no expansion or
    it is the empty fallback, so the no-augmentation path is byte-identical.
    """
    if expansion is None or expansion.fallback:
        return build_input(query, passage)
    return RerankInput(query.id, passage.id, query.text, expansion.text, passage.text)


def _lexical_baseline_scores(inputs: Sequence[RerankInput]) -> list[float]:
    """BM25 of each input's stream (query + description terms) over an index
    of its own query id's inputs: their distinct passages (a repeated id
    keeps its first document) with postings of that query's stream terms
    only (bm25_scores reads no others) and lengths counting every token.
    Two ids that share text and expansion still take their own statistics.
    Each distinct stream of a query and each distinct document of the call
    is tokenized once; a document's tokens fill every query that holds it
    and are dropped before the next document's."""
    streams: dict[str, dict[tuple[str, str | None], list[str]]] = {}
    # document -> the (query id, passage id) pairs it is the first document of
    holders: dict[str, list[tuple[str, str]]] = {}
    held: set[tuple[str, str]] = set()
    for item in inputs:
        query_streams = streams.setdefault(item.query_id, {})
        key = (item.query, item.description)
        if key not in query_streams:
            terms = tokenize(item.query)
            if item.description is not None:
                terms += tokenize(item.description)
            query_streams[key] = terms
        holder = (item.query_id, item.passage_id)
        if holder not in held:
            held.add(holder)
            holders.setdefault(item.document, []).append(holder)
    # query id -> each of its stream terms -> passage id -> tf
    postings = {
        query_id: {term: {} for terms in keyed.values() for term in terms}
        for query_id, keyed in streams.items()
    }
    doc_lengths: dict[str, dict[str, int]] = {query_id: {} for query_id in streams}
    for document, owners in holders.items():
        tokens = tokenize(document)
        for query_id, pid in owners:
            doc_lengths[query_id][pid] = len(tokens)
            query_postings = postings[query_id]
            for term in filter(query_postings.__contains__, tokens):
                tfs = query_postings[term]
                tfs[pid] = tfs.get(pid, 0) + 1
    raw = {}
    for query_id, query_streams in streams.items():
        # An index holds no term without postings.
        hits = {term: tfs for term, tfs in postings[query_id].items() if tfs}
        index = InvertedIndex(hits, doc_lengths[query_id])
        raw[query_id] = {key: bm25_scores(index, terms) for key, terms in query_streams.items()}
    scores = []
    for item in inputs:
        s = raw[item.query_id][(item.query, item.description)].get(item.passage_id, 0.0)
        scores.append(s / (s + 1.0))
    return scores


def _failed(message: str, batch: Sequence[RerankInput], start: int) -> TransportError:
    """The error of the batch at `start` of a call's inputs, naming its queries."""
    query_ids = list(dict.fromkeys(item.query_id for item in batch))
    return TransportError(
        f"{message}; queries in the failed batch: {count_and_ids(query_ids)}",
        range(start, start + len(batch)),
    )


def _request_body(batch: Sequence[RerankInput]) -> bytes:
    """json.dumps({"inputs": [item.sequence for item in batch]}).encode(),
    joined from the inputs' pieces in json.dumps' default (ASCII) form."""
    sequences = ", ".join(
        f"{item._escaped[2]}{item._escaped[3]}{_SEQUENCE_END}" for item in batch
    )
    return f'{{"inputs": [{sequences}]}}'.encode()


def _remote_scores(inputs: Sequence[RerankInput], endpoint: ScorerEndpoint) -> list[float]:
    # Imported here: only this scorer talks HTTP, so no other command
    # loads the client, `socket` or `ssl`.
    from ._http import Connection, HTTPFault

    _escape(inputs)
    url = endpoint.address.rstrip("/") + "/score"
    connection = None
    scores: list[float] = []
    try:
        for start in range(0, len(inputs), endpoint.batch_size):
            batch = inputs[start : start + endpoint.batch_size]
            body = _request_body(batch)
            try:
                if connection is None:
                    connection = Connection(url, endpoint.timeout)
                status, data = connection.post(body)
            except (OSError, HTTPFault) as exc:
                raise _failed(f"scorer request failed: {exc}", batch, start) from exc
            if status != 200:
                raise _failed(f"scorer returned HTTP {status}", batch, start)
            try:
                payload = json.loads(data)
            except (ValueError, RecursionError):  # RecursionError: deep nesting
                raise ProtocolError("scorer response is not valid JSON") from None
            got = payload.get("scores") if isinstance(payload, dict) else None
            if not isinstance(got, list) or len(got) != len(batch):
                raise ProtocolError(
                    f"expected {len(batch)} scores, got "
                    f"{len(got) if isinstance(got, list) else payload!r}"
                )
            for value in got:
                if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
                    raise ProtocolError(f"score {value!r} outside [0, 1]")
                scores.append(float(value))
    finally:
        if connection is not None:
            connection.close()
    return scores


def score_batch(inputs: Sequence[RerankInput], endpoint: ScorerEndpoint) -> list[float]:
    """One score per input, order-aligned, each in [0, 1]."""
    if not inputs:
        raise ValidationError("score_batch requires at least one input")
    if endpoint.kind is ScorerKind.LEXICAL_BASELINE:
        return _lexical_baseline_scores(inputs)
    return _remote_scores(inputs, endpoint)


def head_inputs(
    initial: RankedList,
    passages: Mapping[str, Passage],
    query: Query,
    expansion: Expansion | None,
    k: int,
) -> list[RerankInput]:
    """The scorer inputs of the top-k of the initial list, in its order,
    each from `build_augmented_input`, so a None or fallback expansion
    gives the plain form."""
    _check_depth(initial, k)
    inputs = []
    for pid, _ in initial.entries[:k]:
        passage = passages.get(pid)
        if passage is None:
            raise UnknownIdError(f"passage {pid!r} from the initial run is not in the corpus")
        inputs.append(build_augmented_input(query, expansion, passage))
    return inputs


def score_heads(
    heads: Sequence[Sequence[RerankInput]], endpoint: ScorerEndpoint
) -> list[list[float]]:
    """The scores of every head's inputs, one list per head, from one
    `score_batch` call over the heads in order, or from none when they
    hold no input. Each query id's scores are those of its candidates
    alone, so they equal the scores of one call per query id: two heads
    with one query id are scored as one. A TransportError keeps its
    indices into the concatenated inputs."""
    inputs = [item for head in heads for item in head]
    scores = iter(score_batch(inputs, endpoint) if inputs else ())
    return [list(islice(scores, len(head))) for head in heads]


def _check_depth(initial: RankedList, k: int) -> None:
    if not 1 <= k <= len(initial.entries):
        raise ValidationError(
            f"k must be in [1, {len(initial.entries)}], got {k} for query {initial.query_id!r}"
        )


def rerank_topk(
    initial: RankedList,
    passages: Mapping[str, Passage],
    query: Query,
    expansion: Expansion | None,
    endpoint: ScorerEndpoint,
    k: int,
    scores: Sequence[float] | None = None,
) -> RankedList:
    """Rescore the top-k of the initial list; ties keep initial order.

    Entries beyond k keep their relative order after the re-ranked head and
    are assigned synthetic scores strictly below the head's minimum so the
    output remains a valid descending run. The output is always a
    permutation of the input entries. Without `scores`, the head's
    `head_inputs` are scored by `score_heads`; given the k scores of those
    inputs (from `score_heads` over many heads, say), the head is only
    ordered by them.
    """
    if scores is None:
        (scores,) = score_heads([head_inputs(initial, passages, query, expansion, k)], endpoint)
    else:
        _check_depth(initial, k)
        if len(scores) != k:
            raise ValidationError(
                f"expected {k} scores for query {initial.query_id!r}, got {len(scores)}"
            )
    head = initial.entries[:k]
    order = sorted(range(k), key=lambda i: (-scores[i], i))
    entries = [(head[i][0], scores[i]) for i in order]
    floor = entries[-1][1]
    for offset, (pid, _) in enumerate(initial.entries[k:], start=1):
        entries.append((pid, floor - offset * _TAIL_STEP))
    return RankedList(initial.query_id, tuple(entries))
