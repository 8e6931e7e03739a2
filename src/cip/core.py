"""Domain types, treebank / score-file I/O, and UAS evaluation.

Arc-indexed quantities (scores, probabilities) are stored as ``(n+1) x n``
float arrays: row ``i`` is the head position (0 is the artificial root),
column ``j-1`` is the dependent at position ``j``.  Self arcs keep a ``-inf``
(scores) or ``0`` (probabilities) sentinel so the arrays stay rectangular.
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import orjson

NEG_INF = float("-inf")
# JSON numbers parse to int or float; null (None) is accepted only on self
# positions: elsewhere it becomes NaN, which ScoreMatrix rejects.
_SCORE_TYPES = frozenset({int, float, type(None)})


class FormatError(ValueError):
    """Malformed CoNLL-U or score-file input."""


def is_tree(heads: Sequence[int]) -> bool:
    """True iff ``heads[j-1]`` assigns every token a head forming a directed
    spanning tree rooted at position 0."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for dep, head in enumerate(heads, start=1):
        if not 0 <= head <= n or head == dep:
            return False
        children[head].append(dep)
    reached = 0
    stack = [0]
    while stack:
        node = stack.pop()
        reached += 1
        stack.extend(children[node])
    return reached == n + 1


@dataclass(frozen=True)
class Sentence:
    """A POS-tagged sentence, optionally with gold heads and labels.

    Positions are 1-based; a gold head of 0 means the artificial root.
    Gold labels are carried through unchanged by every operation in this
    package.
    """

    forms: tuple[str, ...]
    upos: tuple[str, ...]
    sent_id: str = ""
    gold_heads: tuple[int, ...] | None = None
    gold_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.forms)
        if n < 1:
            raise ValueError("sentence must contain at least one token")
        if len(self.upos) != n:
            raise ValueError("forms and upos lengths differ")
        if self.gold_heads is not None:
            if len(self.gold_heads) != n:
                raise ValueError("gold heads length differs from token count")
            if not is_tree(self.gold_heads):
                raise ValueError("gold heads do not form a tree rooted at 0")
        if self.gold_labels is not None and len(self.gold_labels) != n:
            raise ValueError("gold labels length differs from token count")

    def __len__(self) -> int:
        return len(self.forms)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-sentence arc log-potentials.

    ``scores[i, j-1]`` is the score of the arc from head ``i`` to dependent
    ``j``.  Self positions are forced to ``-inf`` at construction; all other
    entries must be finite.
    """

    scores: np.ndarray
    sent_id: str = ""

    def __post_init__(self) -> None:
        s = np.array(self.scores, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] + 1 or s.shape[1] < 1:
            raise ValueError(f"expected (n+1) x n score array, got {s.shape}")
        n = s.shape[1]
        # Row j of s[1:] is head j + 1, so its diagonal holds the self arcs.
        np.fill_diagonal(s[1:], NEG_INF)
        if np.count_nonzero(np.isfinite(s)) != n * n:
            raise ValueError("non-finite score at a non-self position")
        s.flags.writeable = False
        object.__setattr__(self, "scores", s)

    @property
    def n(self) -> int:
        return self.scores.shape[1]

    def tree_score(self, heads: Sequence[int]) -> float:
        """Sum of the scores of the arcs selected by ``heads``."""
        idx = np.asarray(heads, dtype=int)
        return float(np.sum(self.scores[idx, np.arange(self.n)]))


@dataclass(frozen=True)
class ParseTree:
    """Head assignment per token; ``heads[j-1]`` is the head of position ``j``."""

    heads: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_tree(self.heads):
            raise ValueError(f"heads {self.heads} do not form a tree rooted at 0")

    def __len__(self) -> int:
        return len(self.heads)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield (head, dependent) pairs, dependents 1-based."""
        for dep, head in enumerate(self.heads, start=1):
            yield head, dep


@dataclass(frozen=True, eq=False)
class Corpus:
    """Ordered (Sentence, ScoreMatrix) pairs with matching dimensions."""

    entries: tuple[tuple[Sentence, ScoreMatrix], ...]

    def __post_init__(self) -> None:
        for k, (sentence, matrix) in enumerate(self.entries):
            if matrix.n != len(sentence):
                raise ValueError(
                    f"entry {k}: matrix is for {matrix.n} tokens, "
                    f"sentence has {len(sentence)}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Sentence, ScoreMatrix]]:
        return iter(self.entries)

    def __getitem__(self, k: int) -> tuple[Sentence, ScoreMatrix]:
        return self.entries[k]

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def matrices(self) -> tuple[ScoreMatrix, ...]:
        return tuple(m for _, m in self.entries)


def pair_corpus(sentences: Sequence[Sentence], matrices: Sequence[ScoreMatrix]) -> Corpus:
    """Zip sentences with their score matrices, checking counts and ids."""
    if len(sentences) != len(matrices):
        raise ValueError(
            f"{len(sentences)} sentences but {len(matrices)} score matrices"
        )
    for k, (s, m) in enumerate(zip(sentences, matrices)):
        if s.sent_id and m.sent_id and s.sent_id != m.sent_id:
            raise ValueError(
                f"entry {k}: sent_id mismatch ({s.sent_id!r} vs {m.sent_id!r})"
            )
    return Corpus(tuple(zip(sentences, matrices)))


# ---------------------------------------------------------------------------
# CoNLL-U
# ---------------------------------------------------------------------------

def _is_ascii_number(text: str) -> bool:
    """True iff ``text`` is nonempty and all ASCII digits.  ``int`` also
    takes signs, underscores, surrounding spaces and other scripts' digits
    (such as "١"), and ``str.isdecimal`` takes those digits too."""
    return text.isascii() and text.isdecimal()


def read_conllu(stream: IO[str] | Iterable[str]) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Only the ID, FORM, UPOS, HEAD and DEPREL columns are consumed.
    Multiword-token ranges and empty nodes are skipped; of the comments only
    ``# sent_id = ...`` is honored.  A HEAD value of ``_`` anywhere in a
    sentence leaves that sentence without gold heads.
    """
    sentences: list[Sentence] = []
    rows: list[tuple[int, list[str]]] = []
    sent_id = ""

    def flush() -> None:
        nonlocal rows, sent_id
        if not rows:
            return
        forms, upos, heads, labels = [], [], [], []
        annotated = True
        for expected, (lineno, cols) in enumerate(rows, start=1):
            if int(cols[0]) != expected:
                raise FormatError(
                    f"line {lineno}: malformed ID sequence "
                    f"(expected {expected}, got {cols[0]})"
                )
            forms.append(cols[1])
            upos.append(cols[3])
            if cols[6] == "_":
                annotated = False
                heads.append(0)
            elif _is_ascii_number(cols[6]):
                heads.append(int(cols[6]))
            else:
                raise FormatError(f"line {lineno}: HEAD {cols[6]!r} is not a nonnegative integer")
            labels.append(cols[7])
        n = len(rows)
        if annotated:
            for (lineno, _), head in zip(rows, heads):
                if not 0 <= head <= n:
                    raise FormatError(f"line {lineno}: HEAD {head} out of range [0, {n}]")
        try:
            sentence = Sentence(
                forms=tuple(forms),
                upos=tuple(upos),
                sent_id=sent_id,
                gold_heads=tuple(heads) if annotated else None,
                gold_labels=tuple(labels) if annotated else None,
            )
        except ValueError:
            # The rows fix every length, so only the tree check can fail.
            raise FormatError(f"line {rows[0][0]}: gold heads not a tree rooted at 0") from None
        sentences.append(sentence)
        rows = []
        sent_id = ""

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            flush()
            continue
        if line.startswith("#"):
            if line[1:].split("=", 1)[0].strip() == "sent_id" and "=" in line:
                sent_id = line.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            raise FormatError(f"line {lineno}: expected >= 8 tab-separated columns")
        if "-" in cols[0] or "." in cols[0]:
            continue
        if not _is_ascii_number(cols[0]):
            raise FormatError(f"line {lineno}: malformed ID {cols[0]!r}")
        rows.append((lineno, cols))
    flush()
    return sentences


def write_conllu(
    sentences: Sequence[Sentence],
    stream: IO[str],
    trees: Sequence[ParseTree] | None = None,
) -> None:
    """Write sentences in CoNLL-U format.

    With ``trees`` given, the HEAD column carries the predicted heads while
    DEPREL passes the gold labels through unchanged; otherwise gold heads are
    written (``_`` when absent).
    """
    if trees is not None and len(trees) != len(sentences):
        raise ValueError("trees and sentences differ in length")
    for k, sentence in enumerate(sentences):
        if sentence.sent_id:
            stream.write(f"# sent_id = {sentence.sent_id}\n")
        heads: Sequence[int] | None
        heads = list(trees[k].heads) if trees is not None else sentence.gold_heads
        for j, (form, pos) in enumerate(zip(sentence.forms, sentence.upos), start=1):
            head = str(heads[j - 1]) if heads is not None else "_"
            label = sentence.gold_labels[j - 1] if sentence.gold_labels else "_"
            stream.write(f"{j}\t{form}\t_\t{pos}\t_\t_\t{head}\t{label}\t_\t_\n")
        stream.write("\n")


# ---------------------------------------------------------------------------
# Score files (JSON lines)
# ---------------------------------------------------------------------------

def _load_json_line(line: str, lineno: int) -> Any:
    """Parse one JSON line: orjson for RFC 8259 text, ``json`` for the rest.

    orjson rejects ``NaN``, ``±Infinity``, numbers that overflow a double and
    lone surrogates, all of which ``json`` takes; a line that neither takes
    raises with ``json``'s message.
    """
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None


def _score_matrix(obj: Any, lineno: int) -> ScoreMatrix:
    """Check one parsed score line and build its matrix."""
    try:
        n = obj["n"]
        rows = obj["scores"]
    except (KeyError, TypeError):
        raise FormatError(f"line {lineno}: expected object with 'n' and 'scores'") from None
    if type(n) is not int:
        raise FormatError(f"line {lineno}: 'n' is not an integer")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError(f"line {lineno}: 'scores' is not a list of rows")
    if len(rows) != n + 1:
        raise FormatError(f"line {lineno}: expected {n + 1} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError(
                f"line {lineno}: row {i} has {len(row)} entries, expected {n}"
            )
    if not _SCORE_TYPES.issuperset(map(type, chain.from_iterable(rows))):
        raise FormatError(f"line {lineno}: non-numeric score entry")
    # Self positions go before conversion, so any number may stand there.
    for dep in range(1, n + 1):
        rows[dep][dep - 1] = NEG_INF
    try:
        scores = np.asarray(rows, dtype=float)
    except OverflowError:
        raise FormatError(f"line {lineno}: score entry out of double range") from None
    try:
        return ScoreMatrix(scores, sent_id=str(obj.get("sent_id", "")))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def read_scores(stream: IO[str] | Iterable[str]) -> list[ScoreMatrix]:
    """Parse a JSON-lines score file: one object per sentence with keys
    ``sent_id``, ``n`` (an integer) and ``scores`` ((n+1) rows of n numbers).

    Self positions may hold any number, ``null``, ``NaN`` or ``±Infinity``;
    they are overwritten with ``-inf`` regardless of file content.
    """
    matrices: list[ScoreMatrix] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            matrices.append(_score_matrix(_load_json_line(line, lineno), lineno))
        except RecursionError:
            # json.loads, or str() of a deeply nested sent_id
            raise FormatError(f"line {lineno}: JSON nested too deeply") from None
    return matrices


def write_scores(matrices: Sequence[ScoreMatrix], stream: IO[str]) -> None:
    """Write score matrices as JSON lines with full double precision.

    Self positions are serialized as 0.0 placeholders (readers overwrite
    them with ``-inf``).
    """
    for matrix in matrices:
        n = matrix.n
        grid = matrix.scores.copy()
        deps = np.arange(1, n + 1)
        grid[deps, deps - 1] = 0.0
        obj = {"sent_id": matrix.sent_id, "n": n, "scores": grid.tolist()}
        stream.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Fields of JSON objects (config, spec, constraint, template and ratio-report files)
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _field(obj: Mapping, key: str, convert: Callable, where: str, default: Any = _REQUIRED) -> Any:
    """``convert`` of ``obj[key]`` (of ``default`` when absent); a missing or
    unconvertible value raises ``ValueError`` naming ``where`` and ``key``."""
    if key not in obj and default is _REQUIRED:
        raise ValueError(f"{where}: missing key {key!r}")
    try:
        return convert(obj.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {key}: {exc}") from None


def _json_type(kind: type, name: str) -> Callable:
    """A converter that passes only the JSON values of ``kind``; ``true``
    and ``false`` are no integers."""

    def convert(value: Any) -> Any:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"expected {name}, got {value!r}")
        return value

    return convert


_boolean = _json_type(bool, "true or false")
_integer = _json_type(int, "an integer")
_string = _json_type(str, "a string")
_object = _json_type(dict, "a JSON object")
_array = _json_type(list, "a JSON array")


def _number(value: Any) -> float:
    """A finite JSON number, as a float: ``json.load`` also yields NaN and ±Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(number := float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


_CONVERTERS: dict[Any, Callable] = {bool: _boolean, int: _integer, float: _number, str: _string}


@dataclass(frozen=True)
class _Range:
    """A numeric range: ``test`` states what a value must satisfy, so NaN
    fails it, and ``phrase`` completes the error ``f"{name} {phrase}"``."""

    phrase: str
    test: Callable[[Any], bool]

    def holds(self, value: Any) -> bool:
        """``test`` of ``value``, finite too unless an int (huge ints overflow ``isfinite``)."""
        return self.test(value) and (isinstance(value, int) or math.isfinite(value))

    def check(self, name: str, value: Any) -> None:
        """Raise ``ValueError`` naming ``name`` unless ``value`` holds."""
        if not self.holds(value):
            raise ValueError(f"{name} {self.phrase}")


POSITIVE = _Range("must be positive", lambda x: x > 0)
NONNEGATIVE = _Range("must be nonnegative", lambda x: x >= 0)
AT_LEAST_1 = _Range("must be at least 1", lambda x: x >= 1)
UNIT = _Range("must lie in [0, 1]", lambda x: 0 <= x <= 1)
STEP = _Range("must lie in (0, 1]", lambda x: 0 < x <= 1)
HALF = _Range("must lie in [0, 0.5]", lambda x: 0 <= x <= 0.5)
FINITE = _Range("must be finite", lambda x: True)


def _check_ranges(obj: Any) -> None:
    """Check each ``metadata["range"]`` that a field of the dataclass ``obj``
    declares, in declaration order, raising ``ValueError`` at the first."""
    for f in fields(obj):
        if "range" in f.metadata:
            f.metadata["range"].check(f.name, getattr(obj, f.name))


@functools.cache
def _converters(cls: type) -> dict[str, Callable]:
    """The converter of each field of the dataclass ``cls``: its
    ``metadata["convert"]``, else the ``_CONVERTERS`` entry of its annotated
    type, ``_read`` for a dataclass, and either for ``X | None`` with null
    read as None.  Any other annotation raises ``KeyError``."""

    def of(hint: Any) -> Callable:
        inner = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(inner) == 1 < len(typing.get_args(hint)):
            convert = of(*inner)
            return lambda value: None if value is None else convert(value)
        return functools.partial(_read, hint) if is_dataclass(hint) else _CONVERTERS[hint]

    hints = typing.get_type_hints(cls)
    return {f.name: f.metadata.get("convert") or of(hints[f.name]) for f in fields(cls)}


def _read(cls: type, obj: Any, where: str | None = None, **defaults: Any) -> Any:
    """The frozen dataclass ``cls`` of the JSON object ``obj``, each key read
    by its field's converter; an absent field takes ``defaults``, else the
    dataclass default.  An unknown key, a missing required field, a badly
    typed value or one ``cls`` rejects raises ``ValueError`` naming the key,
    after ``where`` if given (a nested read leaves that to its caller)."""
    converters = _converters(cls)
    try:
        values = dict(defaults)
        for key, value in _object(obj).items():
            if key not in converters:
                raise ValueError(f"unknown key {key!r}")
            try:
                values[key] = converters[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        for f in fields(cls):
            required = f.default is MISSING and f.default_factory is MISSING
            if required and f.name not in values:
                raise ValueError(f"missing key {f.name!r}")
        return cls(**values)
    except (TypeError, ValueError) as exc:
        if where is None:
            raise
        raise ValueError(f"{where}: {exc}") from None


def _read_each(cls: type, objs: Iterable, where: str, **defaults: Any) -> list:
    """``_read`` of each object as entry ``f"{where} {k}"``; an ``id`` that
    an earlier entry holds raises ``ValueError`` naming the later one."""
    items: dict[str, Any] = {}
    for k, obj in enumerate(objs):
        item = _read(cls, obj, f"{where} {k}", **defaults)
        if item.id in items:
            raise ValueError(f"{where} {k}: repeated id {item.id!r}")
        items[item.id] = item
    return list(items.values())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def uas(predicted: Sequence[ParseTree], gold: Sequence[Sentence]) -> float:
    """Unlabeled attachment score, micro-averaged over tokens; ``ValueError``
    when there are none."""
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold differ in sentence count")
    correct = 0
    total = 0
    for k, (tree, sentence) in enumerate(zip(predicted, gold)):
        if sentence.gold_heads is None:
            raise ValueError(f"sentence {k} has no gold heads")
        if len(tree) != len(sentence):
            raise ValueError(f"sentence {k}: tree and sentence lengths differ")
        correct += sum(p == g for p, g in zip(tree.heads, sentence.gold_heads))
        total += len(sentence)
    if total == 0:
        raise ValueError("no tokens to score")
    return correct / total
