"""Training sequence construction and positive upsampling.

Examples are the `TrainingExample`s that `load_triples` reads, in file
order; an example is positive when `relevant` is true. Its sequence is
the inference sequence of `rerank.build_augmented_input` followed by
" true" or " false". Balancing duplicates the positive examples
round-robin, in their original order, until positive and negative counts
are equal; duplicates are appended after the original examples so the
input order (and the negative subsequence in particular) is untouched.
Shuffling belongs to the training harness, not here.
`render_training_sequences` is the one place that checks an example's
query and passage ids.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .augment import Expansion
from .corpus_io import Passage, Query, TrainingExample
from .errors import UnknownIdError, ValidationError
from .rerank import build_augmented_input


def balance_upsample(examples: Sequence[TrainingExample]) -> tuple[TrainingExample, ...]:
    """Duplicate positives round-robin until they match the negative count.

    Already-balanced (or positive-heavy) sets come back unchanged.
    Negatives are never duplicated.
    """
    examples = tuple(examples)
    positive_examples = [e for e in examples if e.relevant]
    positives, negatives = len(positive_examples), len(examples) - len(positive_examples)
    if positives < 1 or negatives < 1:
        raise ValidationError("balancing needs at least one positive and one negative example")
    deficit = negatives - positives
    if deficit <= 0:
        return examples
    return examples + tuple(positive_examples[i % positives] for i in range(deficit))


def render_training_sequences(
    examples: Sequence[TrainingExample],
    queries: Mapping[str, Query],
    corpus: Mapping[str, Passage],
    expansions: Mapping[str, Expansion] | None = None,
) -> list[str]:
    """One training string per example, ending in " true" / " false".

    An example whose query or passage id is missing from `queries` or
    `corpus` is an UnknownIdError. Examples whose query has an expansion get
    the augmented template (empty fallback expansions revert to the plain
    one). A sequence that holds a line break is a ValidationError, since
    each is written as one line.
    """
    sequences = []
    for example in examples:
        query = queries.get(example.query_id)
        if query is None:
            raise UnknownIdError(
                f"training triple references unknown query {example.query_id!r}"
            )
        passage = corpus.get(example.passage_id)
        if passage is None:
            raise UnknownIdError(
                f"training triple references unknown passage {example.passage_id!r}"
            )
        expansion = expansions.get(example.query_id) if expansions else None
        target = "true" if example.relevant else "false"
        sequence = f"{build_augmented_input(query, expansion, passage).sequence} {target}"
        # One example is one line of the output; str.splitlines also breaks
        # at \r, \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029.
        if sequence.splitlines() != [sequence]:
            raise ValidationError(
                f"training sequence for query {example.query_id!r} and passage "
                f"{example.passage_id!r} holds a line break"
            )
        sequences.append(sequence)
    return sequences
