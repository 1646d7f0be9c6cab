"""Training sequence construction and positive upsampling.

Balancing duplicates the positive examples round-robin, in their original
order, until positive and negative counts are equal; duplicates are
appended after the original examples so the input order (and the negative
subsequence in particular) is untouched. Shuffling belongs to the training
harness, not here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .augment import Expansion
from .corpus_io import Passage, Query, TrainingExample, TrainingLabel
from .errors import UnknownIdError, ValidationError
from .rerank import build_augmented_input, training_sequence


@dataclass(frozen=True)
class TrainingSet:
    """Labelled examples in input order; the label counts are derived."""

    examples: tuple[TrainingExample, ...]

    @property
    def positives(self) -> int:
        return sum(e.label is TrainingLabel.RELEVANT for e in self.examples)

    @property
    def negatives(self) -> int:
        return len(self.examples) - self.positives


def make_pairs(
    triples: Iterable[TrainingExample],
    corpus: Mapping[str, Passage],
    queries: Mapping[str, Query],
) -> TrainingSet:
    """Validate that every triple's ids resolve."""
    examples = []
    for triple in triples:
        if triple.query_id not in queries:
            raise UnknownIdError(f"training triple references unknown query {triple.query_id!r}")
        if triple.passage_id not in corpus:
            raise UnknownIdError(
                f"training triple references unknown passage {triple.passage_id!r}"
            )
        examples.append(triple)
    return TrainingSet(tuple(examples))


def balance_upsample(training_set: TrainingSet) -> TrainingSet:
    """Duplicate positives round-robin until they match the negative count.

    Already-balanced (or positive-heavy) sets pass through unchanged.
    Negatives are never duplicated.
    """
    if training_set.positives < 1 or training_set.negatives < 1:
        raise ValidationError(
            "balancing needs at least one positive and one negative example"
        )
    deficit = training_set.negatives - training_set.positives
    if deficit <= 0:
        return training_set
    positive_examples = [
        e for e in training_set.examples if e.label is TrainingLabel.RELEVANT
    ]
    extras = tuple(positive_examples[i % len(positive_examples)] for i in range(deficit))
    return TrainingSet(training_set.examples + extras)


def render_training_sequences(
    training_set: TrainingSet,
    queries: Mapping[str, Query],
    corpus: Mapping[str, Passage],
    expansions: Mapping[str, Expansion] | None = None,
) -> list[str]:
    """One training string per example, ending in " true" / " false".

    Examples whose query has an expansion get the augmented template (empty
    fallback expansions revert to the plain one). A sequence that holds a
    line break is a ValidationError, since each is written as one line.
    """
    sequences = []
    for example in training_set.examples:
        query = queries.get(example.query_id)
        if query is None:
            raise UnknownIdError(f"unknown query {example.query_id!r}")
        passage = corpus.get(example.passage_id)
        if passage is None:
            raise UnknownIdError(f"unknown passage {example.passage_id!r}")
        expansion = expansions.get(example.query_id) if expansions else None
        rerank_input = build_augmented_input(query, expansion, passage)
        sequence = training_sequence(rerank_input, example.label)
        # One example is one line of the output; str.splitlines also breaks
        # at \r, \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029.
        if sequence.splitlines() != [sequence]:
            raise ValidationError(
                f"training sequence for query {example.query_id!r} and passage "
                f"{example.passage_id!r} holds a line break"
            )
        sequences.append(sequence)
    return sequences
