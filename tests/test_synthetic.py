"""Synthetic corpus generation: determinism, planting, recoverability."""

import numpy as np
import pytest

import cip
from cip.constraints import class_matrix


POS = (("NOUN", 0.3), ("VERB", 0.25), ("DET", 0.25), ("ADJ", 0.2))


def unary_spec(**kwargs):
    defaults = dict(
        n_sentences=40,
        min_len=3,
        max_len=8,
        pos_weights=POS,
        planted=(
            cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.9, theta=0.0),
        ),
        seed=5,
    )
    defaults.update(kwargs)
    return cip.SyntheticSpec(**defaults)


class TestSpecValidation:
    def test_planted_pos_must_exist(self):
        with pytest.raises(ValueError, match="not in inventory"):
            unary_spec(
                planted=(
                    cip.Constraint(id="x", kind="unary", pos="PRON", r=0.5, theta=0.0),
                )
            )

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            unary_spec(min_len=5, max_len=3)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_sentences": 0}, "n_sentences must be at least 1"),
            ({"min_len": 0}, "need 1 <= min_len <= max_len"),
            ({"min_len": 1, "max_len": 0}, "max_len must be at least 1"),
            ({"sigma": -0.1}, "sigma must be nonnegative"),
            ({"margin": 0.0}, "margin must be positive"),
            ({"flip_prob": 1.5}, r"flip_prob must lie in \[0, 1\]"),
            ({"seed": -1}, "seed must be nonnegative"),
            ({"pos_weights": POS + (("PRON", 0.0),)}, "POS weight for 'PRON' must be positive"),
            ({"pos_weights": POS + (("NOUN", 0.1),)}, "duplicate POS 'NOUN' in inventory"),
            (
                {"planted": (cip.Constraint("x", "binary", "NOUN", 0.5, 0.0, pos2="PRON"),)},
                "planted POS 'PRON' not in inventory",
            ),
        ],
        ids=[
            "no-sentences", "zero-min-len", "zero-max-len", "negative-sigma", "zero-margin", "flip-prob",
            "negative-seed", "zero-weight", "duplicate-pos", "binary-pos2",
        ],
    )
    def test_rejects_out_of_range_fields(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            unary_spec(**fields)

    def test_from_dict_round_trip(self):
        spec = cip.SyntheticSpec.from_dict(
            {
                "n_sentences": 7,
                "min_len": 2,
                "max_len": 5,
                "pos_weights": {"NOUN": 0.5, "VERB": 0.5},
                "planted": [
                    {"id": "c", "kind": "unary", "pos": "NOUN", "r": 0.8}
                ],
                "sigma": 0.2,
                "flip_prob": 0.4,
                "seed": 9,
            }
        )
        assert spec.n_sentences == 7
        assert spec.planted[0].pos == "NOUN"
        assert spec.flip_prob == 0.4


class TestGeneration:
    def test_bit_identical_across_runs(self):
        a, ra = cip.generate_synthetic(unary_spec(sigma=0.3, flip_prob=0.5))
        b, rb = cip.generate_synthetic(unary_spec(sigma=0.3, flip_prob=0.5))
        assert ra == rb
        for (sa, ma), (sb, mb) in zip(a, b):
            assert sa == sb
            np.testing.assert_array_equal(ma.scores, mb.scores)

    def test_noise_free_scores_recover_gold(self):
        corpus, _ = cip.generate_synthetic(unary_spec())
        view = cip.CorpusView.of(corpus, [])
        trees = view.trees(view.decode())
        assert cip.uas(trees, corpus.sentences) == 1.0

    def test_planted_unary_ratio_concentrates(self):
        spec = unary_spec(n_sentences=500, seed=77)
        corpus, true_ratios = cip.generate_synthetic(spec)
        measured, count = cip.estimate_ratio(
            corpus.sentences,
            cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.9, theta=0.0),
        )
        assert count > 200
        assert abs(measured - 0.9) <= 0.05
        assert abs(true_ratios["noun-left"] - measured) < 1e-12

    def test_planted_binary_ratio(self):
        spec = cip.SyntheticSpec(
            n_sentences=300,
            min_len=4,
            max_len=8,
            pos_weights=POS + (("ADP", 0.15),),
            planted=(
                cip.Constraint(
                    id="noun-adp", kind="binary", pos="NOUN", pos2="ADP",
                    r=0.8, theta=0.0,
                ),
            ),
            seed=8,
        )
        corpus, true_ratios = cip.generate_synthetic(spec)
        assert abs(true_ratios["noun-adp"] - 0.8) <= 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_binary_ratio_is_exact(self, seed):
        # Planting skips arcs whose tags would make a neighbouring gold arc
        # match as well, so the gold trees match exactly the placed arcs.
        spec = cip.SyntheticSpec(
            n_sentences=50,
            min_len=5,
            max_len=15,
            pos_weights=POS,
            planted=(
                cip.Constraint(
                    id="adj-noun", kind="binary", pos="ADJ", pos2="NOUN",
                    r=0.8, theta=0.0,
                ),
            ),
            seed=seed,
        )
        corpus, true_ratios = cip.generate_synthetic(spec)
        tokens = sum(len(s) for s in corpus.sentences)
        count = round(dict(POS)["ADJ"] * tokens)
        placed_plus = round(0.8 * count)
        matched = np.concatenate([
            class_matrix(spec.planted[0], s)[list(s.gold_heads), np.arange(len(s))]
            for s in corpus.sentences
        ])
        assert (matched == 1).sum() == placed_plus
        assert (matched == -1).sum() == count - placed_plus
        assert true_ratios["adj-noun"] == placed_plus / count

    def test_infeasible_planting(self):
        # Length-2 sentences have at most one non-root arc, half of them
        # right-headed; demanding 90% of tokens be right-headed nouns fails.
        spec = cip.SyntheticSpec(
            n_sentences=50,
            min_len=2,
            max_len=2,
            pos_weights=(("NOUN", 0.9), ("VERB", 0.1)),
            planted=(
                cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.0, theta=0.0),
            ),
            seed=1,
        )
        with pytest.raises(ValueError, match="infeasible"):
            cip.generate_synthetic(spec)

    def test_infeasible_binary_planting(self):
        # Length-2 sentences hold one arc each, 50 in all; a share of 0.6 of
        # the 100 tokens asks for 60 ADJ-NOUN arcs.
        spec = cip.SyntheticSpec(
            n_sentences=50,
            min_len=2,
            max_len=2,
            pos_weights=(("ADJ", 0.6), ("NOUN", 0.6), ("VERB", 0.1)),
            planted=(
                cip.Constraint(id="an", kind="binary", pos="ADJ", pos2="NOUN", r=0.5, theta=0.0),
            ),
            seed=1,
        )
        with pytest.raises(ValueError, match="infeasible: only 50 of 60 arcs available$"):
            cip.generate_synthetic(spec)

    def test_every_pos_planted_leaves_no_filler(self):
        spec = unary_spec(pos_weights=(("NOUN", 0.3),))
        with pytest.raises(ValueError, match="^no POS left for filler tokens"):
            cip.generate_synthetic(spec)

    def test_projective_by_default_nonprojective_on_request(self):
        corpus, _ = cip.generate_synthetic(unary_spec(n_sentences=60, max_len=10))
        assert all(
            cip.is_projective(s.gold_heads) for s, _ in corpus
        )
        loose, _ = cip.generate_synthetic(
            unary_spec(n_sentences=60, max_len=10, allow_nonprojective=True, seed=2)
        )
        assert any(not cip.is_projective(s.gold_heads) for s, _ in loose)

    def test_corruption_moves_baseline_ratio(self):
        clean, ratios = cip.generate_synthetic(unary_spec(n_sentences=120, sigma=0.1))
        corrupt, _ = cip.generate_synthetic(
            unary_spec(n_sentences=120, sigma=0.1, flip_prob=1.0, flip_boost=1.0)
        )
        c = cip.Constraint(
            id="x", kind="unary", pos="NOUN", r=ratios["noun-left"], theta=0.01
        )
        clean_view, corrupt_view = (cip.CorpusView.of(corpus, [c]) for corpus in (clean, corrupt))
        clean_ratio = cip.ratio(c, clean, clean_view.trees(clean_view.decode()))
        corrupt_ratio = cip.ratio(c, corrupt, corrupt_view.trees(corrupt_view.decode()))
        assert abs(corrupt_ratio - c.r) > abs(clean_ratio - c.r) + 0.2

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_flips_boost_the_mirrored_head(self, seed):
        # A binary class does not say which side of the dependent the head
        # is on; the competitor must still land inside the sentence, on the
        # side opposite the gold head.
        spec = cip.SyntheticSpec(
            n_sentences=50,
            min_len=5,
            max_len=15,
            pos_weights=POS,
            planted=(
                cip.Constraint(
                    id="adj-noun", kind="binary", pos="ADJ", pos2="NOUN",
                    r=0.8, theta=0.0,
                ),
            ),
            flip_prob=1.0,
            seed=seed,
        )
        corpus, _ = cip.generate_synthetic(spec)
        flipped = 0
        for sentence, matrix in corpus:
            best = matrix.scores.argmax(axis=0)
            for dep, (head, top) in enumerate(zip(sentence.gold_heads, best), start=1):
                if top != head:
                    flipped += 1
                    assert head != 0 and (top - dep) * (head - dep) < 0
        assert flipped > 0
