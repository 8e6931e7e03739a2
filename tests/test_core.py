"""Domain types, file formats, head distributions, and UAS."""

import dataclasses
import io
import math
import typing

import numpy as np
import pytest

import cip
from cip.cli import _RatioRow
from cip.config import InferenceConfig
from cip.core import NEG_INF, _converters, _read
from cip.posterior import _head_probs

from conftest import make_sentence, to_distribution


CONLLU_TWO = """\
# sent_id = s1
1\ta\tx\tDET\t_\t_\t2\tdet\t_\t_
2\tdog\tx\tNOUN\t_\t_\t0\troot\t_\t_

"""


class TestReadConllu:
    def test_single_token(self):
        text = "1\tdog\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        (sentence,) = cip.read_conllu(io.StringIO(text))
        assert len(sentence) == 1
        assert sentence.gold_heads == (0,)
        assert sentence.upos == ("NOUN",)

    def test_two_tokens(self):
        (sentence,) = cip.read_conllu(io.StringIO(CONLLU_TWO))
        assert sentence.sent_id == "s1"
        assert sentence.gold_heads == (2, 0)
        assert sentence.gold_labels == ("det", "root")

    def test_cycle_is_an_error(self):
        text = (
            "1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
            "2\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n\n"
        )
        with pytest.raises(cip.FormatError, match=r"line 1.*not a tree"):
            cip.read_conllu(io.StringIO(text))

    def test_head_out_of_range(self):
        text = "1\ta\t_\tDET\t_\t_\t5\tdet\t_\t_\n\n"
        with pytest.raises(cip.FormatError, match=r"line 1.*out of range"):
            cip.read_conllu(io.StringIO(text))

    def test_malformed_id_sequence(self):
        text = (
            "1\ta\t_\tDET\t_\t_\t0\troot\t_\t_\n"
            "3\tb\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n\n"
        )
        with pytest.raises(cip.FormatError, match=r"line 2.*ID"):
            cip.read_conllu(io.StringIO(text))

    def test_underscore_head_drops_gold(self):
        text = (
            "1\ta\t_\tDET\t_\t_\t_\t_\t_\t_\n"
            "2\tb\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        )
        (sentence,) = cip.read_conllu(io.StringIO(text))
        assert sentence.gold_heads is None

    def test_skips_ranges_and_empty_nodes(self):
        text = (
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
            "2\tb\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        )
        (sentence,) = cip.read_conllu(io.StringIO(text))
        assert sentence.forms == ("a", "b")

    def test_superscript_id_is_a_format_error(self):
        # "¹".isdigit() is true, but int("¹") raises a bare ValueError.
        text = (
            "1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
            "\u00b9\tb\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        )
        with pytest.raises(cip.FormatError, match=r"line 2: malformed ID"):
            cip.read_conllu(io.StringIO(text))

    def test_roundtrip_preserves_consumed_fields(self):
        first = cip.read_conllu(io.StringIO(CONLLU_TWO))
        out = io.StringIO()
        cip.write_conllu(first, out)
        second = cip.read_conllu(io.StringIO(out.getvalue()))
        assert first == second


class TestScoreFile:
    def test_self_arc_forced(self):
        line = '{"sent_id": "s", "n": 1, "scores": [[3.0], [7.5]]}\n'
        (matrix,) = cip.read_scores(io.StringIO(line))
        assert matrix.scores[0, 0] == 3.0
        assert matrix.scores[1, 0] == NEG_INF

    def test_shape(self):
        line = '{"n": 2, "scores": [[1, 2], [0, 3], [4, 0]]}\n'
        (matrix,) = cip.read_scores(io.StringIO(line))
        assert matrix.scores[1, 0] == NEG_INF
        assert matrix.scores[2, 1] == NEG_INF
        assert matrix.scores[0, 0] == 1.0

    def test_row_count_mismatch(self):
        line = '{"n": 2, "scores": [[1, 2], [0, 3]]}\n'
        with pytest.raises(cip.FormatError, match="expected 3 rows, got 2"):
            cip.read_scores(io.StringIO(line))

    @pytest.mark.parametrize("scores", ['"ab"', "[0, 1]", "[[0], 1]", "{}"])
    def test_scores_not_a_list_of_rows(self, scores):
        line = f'{{"n": 1, "scores": {scores}}}\n'
        with pytest.raises(cip.FormatError, match=r"^line 1: 'scores' is not a list of rows$"):
            cip.read_scores(io.StringIO(line))

    def test_nonfinite_off_diagonal(self):
        line = '{"n": 2, "scores": [[1, 2], [0, 3], [Infinity, 0]]}\n'
        with pytest.raises(cip.FormatError, match=r"line 1.*non-finite"):
            cip.read_scores(io.StringIO(line))

    def test_bool_score_rejected(self):
        line = '{"n": 2, "scores": [[true, 1.5], [0, 3], [4, 0]]}\n'
        with pytest.raises(cip.FormatError, match=r"line 1: non-numeric score entry"):
            cip.read_scores(io.StringIO(line))

    def test_string_score_rejected(self):
        line = '{"n": 2, "scores": [[1, "1.5"], [0, 3], [4, 0]]}\n'
        with pytest.raises(cip.FormatError, match=r"line 1: non-numeric score entry"):
            cip.read_scores(io.StringIO(line))

    def test_string_on_self_position_rejected(self):
        line = '{"n": 2, "scores": [[1, 2], ["x", 3], [4, 0]]}\n'
        with pytest.raises(cip.FormatError, match=r"line 1: non-numeric score entry"):
            cip.read_scores(io.StringIO(line))

    @pytest.mark.parametrize("n", ["2.7", '"2"', "true", "2.0", "null"])
    def test_non_integer_n_rejected(self, n):
        line = '{"n": %s, "scores": [[1, 2], [0, 3], [4, 0]]}\n' % n
        with pytest.raises(cip.FormatError, match=r"line 1: 'n' is not an integer"):
            cip.read_scores(io.StringIO(line))

    def test_self_positions_take_any_number(self):
        line = '{"n": 3, "scores": [[1, 2, 3], [null, 4, 5], [6, NaN, 7], [8, 9, %s]]}\n' % (
            "9" * 400
        )
        (matrix,) = cip.read_scores(io.StringIO(line))
        assert matrix.scores[0, 0] == 1.0
        assert (matrix.scores[[1, 2, 3], [0, 1, 2]] == NEG_INF).all()
        line = line.replace("NaN", "-Infinity").replace("null", "1e400")
        (again,) = cip.read_scores(io.StringIO(line))
        np.testing.assert_array_equal(again.scores, matrix.scores)

    def test_null_off_diagonal_is_non_finite(self):
        line = '{"n": 2, "scores": [[1, null], [0, 3], [4, 0]]}\n'
        with pytest.raises(cip.FormatError, match=r"line 1: non-finite"):
            cip.read_scores(io.StringIO(line))

    def test_integer_past_double_range_off_diagonal(self):
        line = '{"n": 1, "scores": [[%s], [0]]}\n' % ("9" * 400)
        with pytest.raises(cip.FormatError, match=r"line 1: score entry out of double range"):
            cip.read_scores(io.StringIO(line))

    def test_invalid_json_message_kept(self):
        lines = ['{"n": 1, "scores": [[1], [0]]}\n', '{"n": 1, "scores": [[1], [0]]\n']
        with pytest.raises(
            cip.FormatError, match=r"^line 2: invalid JSON \(Expecting ',' delimiter\)$"
        ):
            cip.read_scores(lines)

    def test_roundtrip_full_precision(self):
        rng = np.random.default_rng(0)
        matrices = [cip.ScoreMatrix(rng.normal(0, 3, (4, 3)), sent_id="a")]
        out = io.StringIO()
        cip.write_scores(matrices, out)
        back = cip.read_scores(io.StringIO(out.getvalue()))
        np.testing.assert_array_equal(back[0].scores, matrices[0].scores)
        assert back[0].sent_id == "a"


def head_distributions(matrix):
    """The head distributions of ``matrix`` from the scalar reference and
    from the bucket kernel that PR runs."""
    return [to_distribution(matrix), _head_probs(matrix.scores[None])[0]]


class TestToDistribution:
    def test_equal_scores_give_uniform(self):
        matrix = cip.ScoreMatrix(np.zeros((4, 3)))
        for dist in head_distributions(matrix):
            for j in range(3):
                column = dist[:, j]
                nonzero = column[column > 0]
                np.testing.assert_allclose(nonzero, 1 / 3)

    def test_single_token(self):
        matrix = cip.ScoreMatrix(np.array([[3.0], [0.0]]))
        for dist in head_distributions(matrix):
            assert dist[0, 0] == 1.0

    def test_hand_softmax(self):
        # dependent 2 with candidate heads 0 and 1 scoring (0, log 3)
        scores = np.zeros((3, 2))
        scores[1, 1] = math.log(3)
        for dist in head_distributions(cip.ScoreMatrix(scores)):
            np.testing.assert_allclose(dist[:, 1], [0.25, 0.75, 0.0], atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            matrix = cip.ScoreMatrix(rng.normal(0, 5, (n + 1, n)))
            reference, kernel = head_distributions(matrix)
            np.testing.assert_array_equal(kernel, reference)
            np.testing.assert_allclose(reference.sum(axis=0), 1.0, atol=1e-9)

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            base = rng.normal(0, 2, (n + 1, n))
            shifted = base + rng.normal(0, 10, n)  # one constant per column
            a = head_distributions(cip.ScoreMatrix(base))
            b = head_distributions(cip.ScoreMatrix(shifted))
            for x, y in zip(a, b):
                np.testing.assert_allclose(x, y, atol=1e-9)


class TestUas:
    def test_identity(self):
        sentence = make_sentence(["NOUN"] * 10, gold_heads=[0] + [1] * 9)
        tree = cip.ParseTree(sentence.gold_heads)
        assert cip.uas([tree], [sentence]) == 1.0

    def test_half(self):
        sentence = make_sentence(["DET", "NOUN"], gold_heads=[2, 0])
        tree = cip.ParseTree((0, 0))  # only the second head is right
        assert cip.uas([tree], [sentence]) == 0.5

    def test_micro_average(self):
        s1 = make_sentence(["A", "B"], gold_heads=[0, 1])
        s2 = make_sentence(["A", "B", "C"], gold_heads=[0, 1, 1])
        t1 = cip.ParseTree((0, 0))  # 1 of 2 correct
        t2 = cip.ParseTree((0, 1, 1))  # 3 of 3 correct
        assert cip.uas([t1, t2], [s1, s2]) == pytest.approx(4 / 5)

    def test_permutation_invariance(self):
        s1 = make_sentence(["A", "B"], gold_heads=[0, 1])
        s2 = make_sentence(["A", "B", "C"], gold_heads=[2, 0, 2])
        t1, t2 = cip.ParseTree((0, 0)), cip.ParseTree((2, 0, 1))
        assert cip.uas([t1, t2], [s1, s2]) == cip.uas([t2, t1], [s2, s1])

    def test_equals_token_weighted_mean(self):
        rng = np.random.default_rng(3)
        sentences, trees = [], []
        for _ in range(6):
            n = int(rng.integers(1, 6))
            gold = cip.mst_decode(cip.ScoreMatrix(rng.normal(0, 1, (n + 1, n))))
            pred = cip.mst_decode(cip.ScoreMatrix(rng.normal(0, 1, (n + 1, n))))
            sentences.append(make_sentence(["X"] * n, gold_heads=gold.heads))
            trees.append(pred)
        per_sentence = [
            cip.uas([t], [s]) for t, s in zip(trees, sentences)
        ]
        weights = np.array([len(s) for s in sentences], dtype=float)
        weighted = float(np.dot(per_sentence, weights) / weights.sum())
        assert cip.uas(trees, sentences) == pytest.approx(weighted)

    def test_missing_gold(self):
        sentence = make_sentence(["A"])
        with pytest.raises(ValueError, match="gold"):
            cip.uas([cip.ParseTree((0,))], [sentence])

    def test_length_mismatch(self):
        sentence = make_sentence(["A", "B"], gold_heads=[0, 1])
        with pytest.raises(ValueError):
            cip.uas([cip.ParseTree((0,))], [sentence])


ONE_TOKEN = make_sentence(["A"], gold_heads=[0])


class TestTypeInvariants:
    def test_sentence_requires_tree_gold(self):
        with pytest.raises(ValueError):
            make_sentence(["A", "B"], gold_heads=[2, 1])

    def test_parse_tree_rejects_cycles(self):
        with pytest.raises(ValueError):
            cip.ParseTree((2, 1))

    def test_parse_tree_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cip.ParseTree((3,))

    def test_score_matrix_rejects_nan(self):
        grid = np.zeros((3, 2))
        grid[0, 1] = np.nan
        with pytest.raises(ValueError):
            cip.ScoreMatrix(grid)

    def test_score_matrix_is_readonly(self):
        matrix = cip.ScoreMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            matrix.scores[0, 0] = 1.0

    def test_corpus_checks_dimensions(self):
        sentence = make_sentence(["A", "B"])
        matrix = cip.ScoreMatrix(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="entry 0"):
            cip.Corpus(((sentence, matrix),))

    def test_pair_corpus_checks_ids(self):
        sentence = make_sentence(["A"], sent_id="x")
        matrix = cip.ScoreMatrix(np.zeros((2, 1)), sent_id="y")
        with pytest.raises(ValueError, match="sent_id"):
            cip.pair_corpus([sentence], [matrix])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: cip.Sentence(forms=(), upos=()), "sentence must contain at least one token"),
            (lambda: cip.Sentence(forms=("a",), upos=()), "forms and upos lengths differ"),
            (
                lambda: cip.Sentence(forms=("a",), upos=("A",), gold_heads=(0, 1)),
                "gold heads length differs from token count",
            ),
            (
                lambda: cip.Sentence(forms=("a",), upos=("A",), gold_labels=("x", "y")),
                "gold labels length differs from token count",
            ),
            (lambda: cip.ScoreMatrix(np.zeros((2, 2))), r"expected \(n\+1\) x n score array"),
            (lambda: cip.ScoreMatrix(np.zeros(2)), r"expected \(n\+1\) x n score array"),
            (lambda: cip.ScoreMatrix(np.zeros((1, 0))), r"expected \(n\+1\) x n score array"),
            (
                lambda: cip.pair_corpus([ONE_TOKEN] * 2, [cip.ScoreMatrix(np.zeros((2, 1)))]),
                "2 sentences but 1 score matrices",
            ),
            (
                lambda: cip.write_conllu([ONE_TOKEN] * 2, io.StringIO(), [cip.ParseTree((0,))]),
                "trees and sentences differ in length",
            ),
            (
                lambda: cip.uas([cip.ParseTree((0,))], [ONE_TOKEN] * 2),
                "predicted and gold differ in sentence count",
            ),
        ],
        ids=[
            "no-token", "upos-length", "heads-length", "labels-length", "square-scores",
            "flat-scores", "empty-scores", "pair-count", "write-count", "uas-count",
        ],
    )
    def test_rejects_inputs_that_do_not_line_up(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


def test_public_names_resolve():
    # A name left in __all__ after its definition is gone breaks star imports.
    missing = [name for name in cip.__all__ if not hasattr(cip, name)]
    assert missing == []
    namespace = {}
    exec("from cip import *", namespace)
    assert set(cip.__all__) <= set(namespace)


# Every dataclass that ``core._read`` builds from a JSON input.
JSON_READ_CLASSES = [
    InferenceConfig, cip.LrParams, cip.PrParams, cip.SyntheticSpec, cip.Constraint, _RatioRow
]


@pytest.mark.parametrize("cls", JSON_READ_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_read_from_json_has_a_converter(cls):
    # A field whose annotation the converter table does not know, and that
    # declares no converter of its own, fails here rather than on the first
    # input that sets it.
    assert cls.__dataclass_params__.frozen
    assert list(_converters(cls)) == [f.name for f in dataclasses.fields(cls)]


def test_field_of_unknown_type_without_converter_is_caught():
    @dataclasses.dataclass(frozen=True)
    class Tagged:
        tags: list[str]

    with pytest.raises(KeyError):
        _converters(Tagged)
    with pytest.raises(KeyError):
        _read(Tagged, {"tags": ["x"]}, "tagged")


# A valid instance of each dataclass whose numeric fields declare a range.
RANGED = {
    cip.LrParams: {},
    cip.PrParams: {},
    cip.SyntheticSpec: {
        "n_sentences": 2, "min_len": 1, "max_len": 3, "pos_weights": (("NOUN", 0.5),),
    },
    cip.Constraint: {"id": "x", "kind": "unary", "pos": "NOUN", "r": 0.5, "theta": 0.1},
}


def _non_finite_cases():
    """NaN and ±inf in every float field and in one POS weight, and NaN and
    +inf in every int field that declares a range, each with the start of
    the message that names it."""
    for cls, valid in RANGED.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if hints[f.name] is float:
                values = ("nan", "inf", "-inf")
            elif hints[f.name] is int and "range" in f.metadata:
                values = ("nan", "inf")
            else:
                continue
            for value in values:
                yield pytest.param(
                    cls, {**valid, f.name: float(value)}, f"^{f.name} ",
                    id=f"{cls.__name__}.{f.name}={value}",
                )
    for value in ("nan", "inf", "-inf"):
        weights = (("NOUN", 0.5), ("VERB", float(value)))
        yield pytest.param(
            cip.SyntheticSpec, {**RANGED[cip.SyntheticSpec], "pos_weights": weights},
            "^POS weight for 'VERB' ", id=f"SyntheticSpec.pos_weights={value}",
        )


@pytest.mark.parametrize("cls, values, message", _non_finite_cases())
def test_every_numeric_field_rejects_non_finite_values(cls, values, message):
    # A float field added later without a range fails here.
    cls(**RANGED[cls])
    with pytest.raises(ValueError, match=message):
        cls(**values)
