"""augrank: snippet-augmented query expansion, re-ranking, and IR evaluation."""

from .augment import (
    Expansion,
    ExpansionMode,
    augment_query,
    natural_language_expansion,
    retrieve,
    topical_term_expansion,
    topical_term_weights,
)
from .corpus_io import (
    Passage,
    Qrels,
    Query,
    RankedList,
    Snippet,
    SnippetKind,
    SnippetSource,
    TrainingExample,
    TrainingLabel,
    load_corpus,
    load_queries,
    load_snippet_cache,
    load_triples,
    parse_qrels,
    parse_run,
    write_run,
)
from .errors import (
    ConflictError,
    ParseError,
    ProtocolError,
    ToolkitError,
    TransportError,
    UnknownIdError,
    ValidationError,
)
from .evaluation import (
    MetricConfig,
    MetricReport,
    SignificanceMarker,
    TTestResult,
    average_precision,
    compare_runs,
    evaluate_run,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    success_at_k,
)
from .index import (
    CorpusLanguageModel,
    InvertedIndex,
    bm25_search,
    build_index,
    corpus_lm,
    estimate_corpus_lm,
    fuse_runs,
    tokenize,
)
from .rerank import (
    RerankInput,
    ScorerEndpoint,
    ScorerKind,
    build_augmented_input,
    build_input,
    head_inputs,
    rerank_topk,
    score_batch,
    score_heads,
)
from .trainset import balance_upsample, render_training_sequences

__version__ = "0.1.0"
