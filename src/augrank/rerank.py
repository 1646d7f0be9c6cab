"""Re-ranker inputs and pluggable candidate scoring.

A `RerankInput` holds its segments as fields: the query, the description
(the expansion text, or None for the plain form) and the document. Its
`sequence` property renders them into one of two fixed templates (single
space after each label colon, single space between segments):

    plain:     "Query: <q> Document: <d> Relevant:"          (description None)
    augmented: "Query: <q> Description: <expansion> Document: <d> Relevant:"

The templates are written once: `template_head` gives everything up to the
document, which every candidate of one query shares, and `sequence` adds
the document and " Relevant:". `input_records` renders one query's
inputs.jsonl lines from that head, escaped once.

`build_augmented_input` is the one place that picks the template: no
expansion, or the empty fallback one, gives the plain form. Training
sequences append " true" / " false" after "Relevant:". Strings are
rendered only where a string leaves the program: the remote scorer's
payload, the pipeline's inputs.jsonl and training sequences. Nothing parses
a rendered sequence back, so text that contains a label literal such as
"Document:" is scored as the text it is. Scorers return one value per input
in [0, 1], higher means more relevant:

- lexical_baseline: BM25 of the document against the tokenized query +
  description terms, exactly as `bm25_search` computes it, over an index
  of the batch's distinct passages (a repeated id keeps its first document)
  holding only the batch's query terms, squashed to [0, 1] via s/(s+1); a
  candidate with no hit scores 0.0.
- remote: HTTP POST {"inputs": [...]} to <address>/score with the rendered
  sequences, expecting {"scores": [...]} of equal length; scores must be
  JSON numbers (not booleans) in [0, 1]. The address needs a host, and a
  port in 1..65535 if it names one. Each call's batches go over one
  HTTP/1.1 keep-alive connection from the standard library's http.client,
  opened at the first batch and closed when the call returns; the HTTP
  modules are imported then, so other commands start without them. A
  request that fails on a reused connection before its reply (the server
  closed it between requests) is sent once more on a new connection.
  Proxies come from the environment as urllib.request reads them
  (http_proxy, https_proxy, no_proxy); https goes through a CONNECT
  tunnel, and HTTPS certificates are checked against the system trust
  store. Any other failed request, or any status but 200 (a redirect
  included: it is not followed), is a TransportError naming the batch's
  input indices; a reply outside the contract is a ProtocolError.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from urllib.parse import unquote, urlsplit, urlunsplit

from .augment import Expansion
from .corpus_io import Passage, Query, RankedList, TrainingLabel, encode_json_string
from .errors import ProtocolError, TransportError, UnknownIdError, ValidationError
from .index import InvertedIndex, bm25_scores, tokenize

QUERY_LABEL = "Query:"
DESCRIPTION_LABEL = "Description:"
DOCUMENT_LABEL = "Document:"
RELEVANT_LABEL = "Relevant:"

# The escaped end of an inputs.jsonl record: the sequence's last segment,
# its closing quote and the record's closing brace.
_SEQUENCE_TAIL = encode_json_string(f" {RELEVANT_LABEL}")[1:] + "}\n"

# Score assigned to entries kept below the re-ranked head: each sits this
# far under the previous one so the output stays sorted.
_TAIL_STEP = 1e-6


class ScorerKind(str, Enum):
    LEXICAL_BASELINE = "lexical_baseline"
    REMOTE = "remote"


@dataclass(frozen=True)
class ScorerEndpoint:
    kind: ScorerKind
    address: str | None = None
    batch_size: int = 32
    timeout: float = 10.0

    def __post_init__(self):
        if self.kind is ScorerKind.REMOTE:
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
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise ValidationError(f"timeout must be finite and positive, got {self.timeout}")


@dataclass(frozen=True)
class RerankInput:
    """One candidate for the scorer, kept as its template segments."""

    query_id: str
    passage_id: str
    query: str
    description: str | None
    document: str

    @property
    def augmented(self) -> bool:
        return self.description is not None

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


def input_records(first: RerankInput, passages: Sequence[Passage]) -> list[str]:
    """The inputs.jsonl lines of one query's candidate `passages`: each is
    json.dumps({"query_id", "passage_id", "sequence"}, ensure_ascii=False)
    of its input with `first`'s query and description. The head is escaped
    once and lines joined from escaped pieces; JSON escapes per character."""
    prefix = f'{{"query_id": {encode_json_string(first.query_id)}, "passage_id": '
    head = encode_json_string(template_head(first.query, first.description))[:-1]
    return [
        f'{prefix}{encode_json_string(passage.id)}, "sequence": {head}'
        f"{encode_json_string(passage.text)[1:-1]}{_SEQUENCE_TAIL}"
        for passage in passages
    ]


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


def training_sequence(inference_input: RerankInput, label: TrainingLabel) -> str:
    """Training form: the inference sequence plus " true" or " false"."""
    target = "true" if label is TrainingLabel.RELEVANT else "false"
    return f"{inference_input.sequence} {target}"


def _lexical_baseline_scores(inputs: Sequence[RerankInput]) -> list[float]:
    # Each distinct (query, description) stream and each distinct passage id
    # is tokenized once. The index keeps postings of the batch's query terms
    # only: bm25_scores reads no others, and the lengths count every token.
    streams: dict[tuple[str, str | None], list[str]] = {}
    for item in inputs:
        key = (item.query, item.description)
        if key not in streams:
            terms = tokenize(item.query)
            if item.description is not None:
                terms += tokenize(item.description)
            streams[key] = terms
    query_terms = set().union(*streams.values())
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for item in inputs:
        pid = item.passage_id
        if pid not in doc_lengths:
            tokens = tokenize(item.document)
            doc_lengths[pid] = len(tokens)
            for term in filter(query_terms.__contains__, tokens):
                tfs = postings.setdefault(term, {})
                tfs[pid] = tfs.get(pid, 0) + 1
    index = InvertedIndex(postings, doc_lengths)
    raw = {key: bm25_scores(index, terms) for key, terms in streams.items()}
    scores = []
    for item in inputs:
        s = raw[(item.query, item.description)].get(item.passage_id, 0.0)
        scores.append(s / (s + 1.0))
    return scores


def _connection(url: str, timeout: float):
    """An HTTP(S) connection for `url`, not yet opened, the request target
    to send on it, and the headers for every request. The proxy is the one
    urllib.request would use: taken from the environment, skipped for a
    host in no_proxy; an http URL goes to it in absolute form (over TLS when
    the proxy URL is https://), an https URL through a CONNECT tunnel;
    user:password in its URL becomes a Basic Proxy-Authorization header."""
    from base64 import b64encode
    from http.client import HTTPConnection, HTTPSConnection
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(url)
    cls = HTTPSConnection if parts.scheme == "https" else HTTPConnection
    host = parts.netloc.rpartition("@")[2]
    target = urlunsplit(("", "", parts.path, parts.query, ""))
    headers = {"Content-Type": "application/json"}
    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(host):
        return cls(parts.hostname, parts.port, timeout=timeout), target, headers
    proxy_parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
    auth = {}
    if proxy_parts.username and proxy_parts.password:
        credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
        auth["Proxy-Authorization"] = "Basic " + b64encode(credentials.encode()).decode("ascii")
    proxy_host = unquote(proxy_parts.netloc.rpartition("@")[2])
    if parts.scheme == "https":
        connection = cls(proxy_host, timeout=timeout)
        connection.set_tunnel(host, headers=auth)
        return connection, target, headers
    # An http request is sent to an https:// proxy over TLS, as urllib does.
    cls = HTTPSConnection if proxy_parts.scheme == "https" else HTTPConnection
    connection = cls(proxy_host, timeout=timeout)
    return connection, urlunsplit(parts._replace(fragment="")), headers | auth


def _post(connection, target: str, body: bytes, headers: Mapping[str, str]) -> tuple[int, bytes]:
    """Status and body of one POST. http.client opens the connection when it
    has none, and keeps it open after a reply unless the server closes it."""
    reused = connection.sock is not None
    try:
        connection.request("POST", target, body, headers)
        response = connection.getresponse()
    # http.client's RemoteDisconnected is a ConnectionResetError. A server
    # may close a kept-alive connection between requests; that request is
    # sent once more, on a new connection. A timeout is not retried.
    except (ConnectionResetError, BrokenPipeError):
        if not reused:
            raise
        connection.close()
        connection.request("POST", target, body, headers)
        response = connection.getresponse()
    with response:
        return response.status, response.read()


def _remote_scores(inputs: Sequence[RerankInput], endpoint: ScorerEndpoint) -> list[float]:
    # Imported here: http.client and urllib.request are a large share of
    # importing the CLI, and only this scorer uses them.
    from http.client import HTTPException

    url = endpoint.address.rstrip("/") + "/score"
    connection = None
    scores: list[float] = []
    try:
        for start in range(0, len(inputs), endpoint.batch_size):
            batch = inputs[start : start + endpoint.batch_size]
            indices = range(start, start + len(batch))
            body = json.dumps({"inputs": [item.sequence for item in batch]}).encode()
            try:
                if connection is None:
                    connection, target, headers = _connection(url, endpoint.timeout)
                status, data = _post(connection, target, body, headers)
            except (OSError, HTTPException) as exc:
                raise TransportError(f"scorer request failed: {exc}", indices) from exc
            if status != 200:
                raise TransportError(f"scorer returned HTTP {status}", indices)
            try:
                payload = json.loads(data)
            except ValueError:
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


def rerank_topk(
    initial: RankedList,
    passages: Mapping[str, Passage],
    query: Query,
    expansion: Expansion | None,
    endpoint: ScorerEndpoint,
    k: int,
) -> RankedList:
    """Rescore the top-k of the initial list; ties keep initial order.

    Entries beyond k keep their relative order after the re-ranked head and
    are assigned synthetic scores strictly below the head's minimum so the
    output remains a valid descending run. The output is always a
    permutation of the input entries. Each candidate's input comes from
    `build_augmented_input`, so a None or fallback expansion scores the
    plain form.
    """
    if not 1 <= k <= len(initial.entries):
        raise ValidationError(
            f"k must be in [1, {len(initial.entries)}], got {k} for query {initial.query_id!r}"
        )
    head = initial.entries[:k]
    inputs = []
    for pid, _ in head:
        passage = passages.get(pid)
        if passage is None:
            raise UnknownIdError(f"passage {pid!r} from the initial run is not in the corpus")
        inputs.append(build_augmented_input(query, expansion, passage))
    scores = score_batch(inputs, endpoint)
    order = sorted(range(k), key=lambda i: (-scores[i], i))
    entries = [(head[i][0], scores[i]) for i in order]
    floor = entries[-1][1]
    for offset, (pid, _) in enumerate(initial.entries[k:], start=1):
        entries.append((pid, floor - offset * _TAIL_STEP))
    return RankedList(initial.query_id, tuple(entries))
