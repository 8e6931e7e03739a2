"""Typology tables, constraint compilation, and ratio estimation."""

import io
import logging

import numpy as np
import pytest

import cip
from cip.typology import MISSING, build_feature_vocab, feature_vector

from conftest import make_sentence


WALS_CSV = """\
lang,feature,value
en,85A,Prepositions
en,87A,Adjective-Noun
hi,85A,Postpositions
hi,87A,Adjective-Noun
fr,85A,Prepositions
fr,87A,Noun-Adjective
"""

ORIENT_85A = {
    "Postpositions": "pos1_first",  # noun precedes the adposition
    "Prepositions": "pos2_first",
    "No dominant order": "no_dominant",
}


class TestTypologyTable:
    def test_parse(self):
        table = cip.TypologyTable.from_csv(io.StringIO(WALS_CSV))
        assert table.value("hi", "85A") == "Postpositions"
        assert table.value("hi", "86A") is None
        assert table.value("xx", "85A") is None
        assert table.languages == ("en", "fr", "hi")

    def test_requires_header(self):
        with pytest.raises(ValueError, match="header"):
            cip.TypologyTable.from_csv(io.StringIO("en,85A,Prepositions\n"))

    def test_short_row_names_its_line(self):
        text = "lang,feature,value\nen,85A,Prepositions\n\nhi,85A\n"
        message = r"^line 4: expected lang,feature,value, got 2 fields$"
        with pytest.raises(ValueError, match=message):
            cip.TypologyTable.from_csv(io.StringIO(text))


class TestCompileBinary:
    def test_dominant_pos1_first(self):
        assert cip.compile_binary("Postpositions", ORIENT_85A) == (0.875, 0.125)

    def test_dominant_pos2_first(self):
        assert cip.compile_binary("Prepositions", ORIENT_85A) == (0.125, 0.125)

    def test_no_dominant(self):
        assert cip.compile_binary("No dominant order", ORIENT_85A) == (0.5, 0.25)

    def test_missing_feature(self):
        assert cip.compile_binary(None, ORIENT_85A) == (0.5, 0.25)

    def test_unknown_value(self):
        with pytest.raises(ValueError, match="no orientation"):
            cip.compile_binary("Inpositions", ORIENT_85A)


class TestFeatureEncoding:
    def test_one_hot_with_missing_level(self):
        table = cip.TypologyTable.from_csv(io.StringIO(WALS_CSV))
        vocab = build_feature_vocab(table, ("85A", "86A"))
        assert ("85A", "Postpositions") in vocab
        assert ("85A", MISSING) in vocab
        assert ("86A", MISSING) in vocab
        vec = feature_vector(table, "hi", vocab)
        assert vec[vocab.index(("85A", "Postpositions"))] == 1.0
        assert vec[vocab.index(("86A", MISSING))] == 1.0
        assert vec.sum() == 2.0  # exactly one level per feature


class TestFitUnaryRatio:
    def test_constant_fit(self):
        vec = np.array([1.0, 0.0])
        train = [(vec, 0.7), (vec, 0.7), (vec, 0.7)]
        assert cip.fit_unary_ratio(train, vec) == pytest.approx(0.7)

    def test_two_point_separable(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        train = [(a, 0.2), (b, 0.8)]
        assert cip.fit_unary_ratio(train, a) == pytest.approx(0.2)
        assert cip.fit_unary_ratio(train, b) == pytest.approx(0.8)

    def test_clamped_to_unit_interval(self):
        a, b = np.array([1.0, 1.0]), np.array([1.0, 2.0])
        train = [(a, 0.5), (b, 1.0)]  # slope 0.5 per unit of feature 2
        target = np.array([1.0, 3.0])  # raw prediction 1.5
        assert cip.fit_unary_ratio(train, target) == 1.0

    def test_interpolates_full_rank_square_design(self):
        rng = np.random.default_rng(60)
        design = np.eye(3)
        ratios = rng.uniform(0, 1, 3)
        train = list(zip(design, ratios))
        for vec, expected in train:
            assert cip.fit_unary_ratio(train, vec) == pytest.approx(expected)

    def test_degenerate_design_falls_back_to_mean(self, caplog):
        zero = np.zeros(2)
        train = [(zero, 0.2), (zero, 0.6)]
        with caplog.at_level(logging.WARNING):
            result = cip.fit_unary_ratio(train, zero)
        assert result == pytest.approx(0.4)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            cip.fit_unary_ratio([(np.ones(2), 0.5)], np.ones(2))


def gold_sentence(kind):
    # "PP": two left-headed nouns; "MP": one right-headed, one left-headed.
    if kind == "PP":
        return make_sentence(("DET", "NOUN", "NOUN"), gold_heads=(0, 1, 1))
    return make_sentence(("DET", "NOUN", "NOUN"), gold_heads=(0, 3, 1))


class TestEstimateRatio:
    def test_all_left(self):
        sentences = [gold_sentence("PP") for _ in range(4)]
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        measured, count = cip.estimate_ratio(sentences, c)
        assert measured == 1.0
        assert count == 8

    def test_hand_counted_corpus(self):
        # 2 sentences with 2 positive arcs each, 3 with one positive and one
        # negative: 7 positive of 10 matched arcs.
        sentences = [gold_sentence("PP")] * 2 + [gold_sentence("MP")] * 3
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        measured, count = cip.estimate_ratio(sentences, c)
        assert measured == pytest.approx(0.7)
        assert count == 10

    def test_full_sample_equals_whole_corpus(self):
        sentences = [gold_sentence("PP")] * 3 + [gold_sentence("MP")] * 2
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        whole = cip.estimate_ratio(sentences, c)
        sampled = cip.estimate_ratio(sentences, c, sample_size=len(sentences))
        assert whole == sampled

    def test_seeded_sampling_is_deterministic(self):
        sentences = [gold_sentence("PP")] * 6 + [gold_sentence("MP")] * 6
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        a = cip.estimate_ratio(sentences, c, sample_size=5, seed=3)
        b = cip.estimate_ratio(sentences, c, sample_size=5, seed=3)
        assert a == b

    def test_growing_samples_converge_to_whole_corpus(self):
        rng = np.random.default_rng(61)
        sentences = [
            gold_sentence("PP" if rng.random() < 0.7 else "MP") for _ in range(200)
        ]
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        whole, _ = cip.estimate_ratio(sentences, c)
        errors = []
        for size in (20, 100, 200):
            sampled, _ = cip.estimate_ratio(sentences, c, sample_size=size, seed=1)
            errors.append(abs(sampled - whole))
        assert errors[-1] == 0.0
        assert errors[0] < 0.2

    def test_zero_denominator(self):
        sentences = [make_sentence(("DET", "VERB"), gold_heads=(2, 0))]
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        assert cip.estimate_ratio(sentences, c) == (None, 0)

    def test_requires_gold(self):
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        with pytest.raises(ValueError, match="gold"):
            cip.estimate_ratio([make_sentence(("NOUN",))], c)

    def test_sample_too_large(self):
        c = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.1)
        with pytest.raises(ValueError):
            cip.estimate_ratio([gold_sentence("PP")], c, sample_size=2)
