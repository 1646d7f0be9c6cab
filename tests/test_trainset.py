from collections import Counter

import pytest

from augrank.augment import Expansion, ExpansionMode
from augrank.corpus_io import Passage, Query, TrainingExample
from augrank.errors import UnknownIdError, ValidationError
from augrank.trainset import balance_upsample, render_training_sequences

POS = True  # TrainingExample.relevant
NEG = False


def corpus(n=10):
    return {f"d{i}": Passage(f"d{i}", None, f"passage {i}") for i in range(n)}


def queries(n=10):
    return {f"q{i}": Query(f"q{i}", f"question {i}") for i in range(n)}


def triples(*labels):
    return [TrainingExample(f"q{i}", f"d{i}", label) for i, label in enumerate(labels)]


class TestBalanceUpsample:
    def make(self, positives, negatives):
        examples = [TrainingExample(f"q{i}", f"d{i}", POS) for i in range(positives)]
        examples += [
            TrainingExample(f"q{positives + i}", f"d{positives + i}", NEG)
            for i in range(negatives)
        ]
        return tuple(examples)

    def test_two_pos_six_neg(self):
        balanced = balance_upsample(self.make(2, 6))
        assert len(balanced) == 12
        counts = Counter(e.query_id for e in balanced if e.relevant)
        assert sorted(counts.values()) == [3, 3]
        assert Counter(e.relevant for e in balanced) == {POS: 6, NEG: 6}

    def test_already_balanced_unchanged(self):
        ts = self.make(5, 5)
        assert balance_upsample(ts) is ts

    def test_three_pos_seven_neg_round_robin(self):
        balanced = balance_upsample(self.make(3, 7))
        assert len(balanced) == 14
        counts = Counter(e.query_id for e in balanced if e.relevant)
        assert counts == {"q0": 3, "q1": 2, "q2": 2}

    def test_positive_heavy_unchanged(self):
        ts = self.make(6, 2)
        assert balance_upsample(ts) is ts

    def test_zero_positives_is_error(self):
        with pytest.raises(ValidationError):
            balance_upsample(self.make(0, 3))

    def test_zero_negatives_is_error(self):
        with pytest.raises(ValidationError):
            balance_upsample(self.make(3, 0))

    def test_negative_subsequence_untouched(self):
        ts = self.make(2, 6)
        balanced = balance_upsample(ts)
        original_negs = [e for e in ts if not e.relevant]
        balanced_negs = [e for e in balanced if not e.relevant]
        assert balanced_negs == original_negs

    def test_duplicates_appended_in_round_robin_passes(self):
        ts = self.make(2, 5)
        balanced = balance_upsample(ts)
        appended = balanced[len(ts):]
        assert [e.query_id for e in appended] == ["q0", "q1", "q0"]

    def test_distinct_positive_pairs_unchanged(self):
        ts = self.make(3, 9)
        balanced = balance_upsample(ts)
        assert {(e.query_id, e.passage_id) for e in balanced if e.relevant} == {
            (e.query_id, e.passage_id) for e in ts if e.relevant
        }


class TestRenderTrainingSequences:
    def test_positive_ends_true(self):
        (sequence,) = render_training_sequences(triples(POS), queries(), corpus())
        assert sequence == "Query: question 0 Document: passage 0 Relevant: true"

    def test_negative_ends_false(self):
        (sequence,) = render_training_sequences(triples(NEG), queries(), corpus())
        assert sequence.endswith("Relevant: false")

    def test_expansion_inserted_and_label_kept(self):
        expansions = {
            "q0": Expansion("q0", ExpansionMode.NATURAL_LANGUAGE, "extra context"),
        }
        first, second = render_training_sequences(
            triples(POS, NEG), queries(), corpus(), expansions
        )
        assert "Description: extra context Document:" in first
        assert first.endswith("Relevant: true")
        assert "Description:" not in second
        assert second.endswith("Relevant: false")

    def test_output_length_matches_examples(self):
        labels = [POS, NEG, NEG, POS]
        examples = balance_upsample(triples(*labels))
        sequences = render_training_sequences(examples, queries(), corpus())
        assert len(sequences) == len(examples)

    def test_missing_query_raises(self):
        with pytest.raises(UnknownIdError, match="^training triple references unknown query 'q99'$"):
            render_training_sequences([TrainingExample("q99", "d1", POS)], queries(), corpus())

    def test_missing_passage_raises(self):
        with pytest.raises(UnknownIdError):
            render_training_sequences([TrainingExample("q0", "d99", POS)], queries(), corpus())

    def test_missing_passage_message_names_id(self):
        with pytest.raises(
            UnknownIdError, match="^training triple references unknown passage 'd99'$"
        ):
            render_training_sequences([TrainingExample("q1", "d99", POS)], queries(), corpus())

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    @pytest.mark.parametrize("where", ["query", "passage", "expansion"])
    def test_every_line_break_is_rejected(self, brk, where):
        qs, docs = queries(1), corpus(1)
        expansions = {"q0": Expansion("q0", ExpansionMode.NATURAL_LANGUAGE, "extra context")}
        if where == "query":
            qs["q0"] = Query("q0", f"question{brk}0")
        elif where == "passage":
            docs["d0"] = Passage("d0", None, f"passage{brk}0")
        else:
            expansions["q0"] = Expansion("q0", ExpansionMode.NATURAL_LANGUAGE, f"extra{brk}context")
        with pytest.raises(ValidationError, match="'q0' and passage 'd0'"):
            render_training_sequences(triples(POS), qs, docs, expansions)

    def test_tab_and_other_controls_stay_on_one_line(self):
        docs = {"d0": Passage("d0", None, "tab\there \x1f unit \x07 bell")}
        (sequence,) = render_training_sequences(triples(POS), queries(1), docs)
        assert "tab\there \x1f unit \x07 bell" in sequence
