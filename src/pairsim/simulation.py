"""Simulated annotation pools with controllable annotator-composition bias.

Each item carries a gold agreement proportion: the fraction of a
reference annotator panel that labeled it positive. Annotator strata
shift that proportion down or up by a bias offset (clamped to [0, 1])
before Bernoulli label draws, so pools that over-represent one stratum
produce systematically shifted label distributions.

The module also builds the four-recipe dataset family used by the
experiment harness, with two annotator types A (shifted down) and B
(shifted up):

    representative  12 annotations per item (6 A, 6 B)
    nonrep1          9 per item (6 A, 3 B): representative minus 3 B
    nonrep2         12 per item (9 A, 3 B): nonrep1 plus 3 fresh A draws
    adjusted        12 per item: nonrep1 with every B record replicated
                    (produced by pairsim.adjust, not here)

A :class:`Dataset` is stored as numpy columns, one entry per annotation
record: the record's item code, stratum code, label (int8), the index
of the record it replicates (-1 for an original) and its annotation id.
The item and stratum codes index two small tables of ids, and however a
dataset is made, its constructor checks it. A dataset is just these
columns: :class:`Annotation` rows are the form of hand-built data,
which :meth:`Dataset.from_records` codes. A sweep builds no dataset at all.
A :class:`GoldTable` is columns too, one entry per item. Its texts are a
:class:`TextColumn`: a vocabulary of distinct tokens and every item's
tokens as integer codes into it. Its ``entries`` (:class:`GoldEntry`
rows) and per-item token tuples are likewise made only when asked for.
A gold or dataset file is one JSON object of these columns, on one line.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache, cached_property, wraps
from itertools import chain
from pathlib import Path
from types import MappingProxyType, NoneType, UnionType
from typing import Union, get_origin, get_type_hints

import numpy as np

from .rng import bounded_draws, check_key_int, doubles, philox_words, stream, stream_keys

MINUS = "minus"
PLUS = "plus"

TYPE_A = "A"  # shifted down: less likely to label an item positive
TYPE_B = "B"  # shifted up

RECIPE_REPRESENTATIVE = "representative"
RECIPE_NONREP1 = "nonrep1"
RECIPE_NONREP2 = "nonrep2"
RECIPE_ADJUSTED = "adjusted"
RECIPES = (RECIPE_REPRESENTATIVE, RECIPE_NONREP1, RECIPE_NONREP2, RECIPE_ADJUSTED)

REPRESENTATIVE_COUNTS = {TYPE_A: 6, TYPE_B: 6}
NONREP1_B_DELETIONS = 3
NONREP2_EXTRA_A = 3

#: size of the reference panel synthetic proportions are quantized to
GOLD_PANEL_SIZE = 12
#: the agreement proportions of a difficult (ambiguous) item, bounds included
DIFFICULT_BAND = (0.4, 0.6)


def check_task(task: str) -> None:
    """Reject a task other than OL (offensive language) or HS (hate speech)."""
    if task not in ("OL", "HS"):
        raise ValueError(f"task must be 'OL' or 'HS', got {task!r}")


def check_beta(beta: float) -> None:
    """Reject a bias offset that is not a number in [0, 0.5] (NaN is not)."""
    if not 0.0 <= typed(beta, float, "beta") <= 0.5:
        raise ValueError(f"beta {beta} outside [0, 0.5]")


# ---------------------------------------------------------------------------
# domain types


class ReadOnlyValue:
    """A dataclass whose constructor makes its arrays and mappings
    read-only, checking them first where it checks: a copy or an unpickled
    value is rebuilt from its fields by that constructor, so it is
    read-only and checked again. A read-only mapping goes as a dict."""

    def __reduce__(self):
        return type(self), tuple(
            dict(value) if isinstance(value := getattr(self, f.name), MappingProxyType) else value
            for f in fields(self)
        )


@dataclass(frozen=True)
class GoldEntry:
    item_id: str
    text: tuple[str, ...]
    p_gold: float
    k_reference: int


@dataclass(frozen=True, eq=False, repr=False)
class TextColumn(ReadOnlyValue):
    """Item texts as integer codes into a vocabulary of distinct tokens.

    Item k's tokens are ``vocab[c]`` for ``c`` in
    ``codes[offsets[k]:offsets[k + 1]]``; both arrays are read-only. As a
    sequence, item k is the tuple of its tokens, and these tuples are
    built on first use. Columns are equal when their texts are, whatever
    the order of their vocabularies. Build one from token sequences with
    :meth:`of`.
    """

    vocab: tuple[str, ...]
    codes: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, texts: Sequence[Sequence[str]]) -> "TextColumn":
        """The column of ``texts``; the vocabulary is in order of first use.
        A text that is a str is an error naming its index; tokens are not checked."""
        first = next((k for k, text in enumerate(texts) if isinstance(text, str)), None)
        if first is not None:  # it would be coded as its characters
            raise ValueError(f"text {first}: {_text_error(texts[first])}")
        vocab, codes = _first_use_codes(chain.from_iterable(texts))
        lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
        return cls(vocab, codes, _offsets(lengths))

    def __post_init__(self) -> None:
        vocab = tuple(self.vocab)
        codes, offsets = np.asarray(self.codes), np.asarray(self.offsets)
        for name, array in (("codes", codes), ("offsets", offsets)):
            if array.size and array.dtype.kind not in "iu":  # [] is a float array
                raise ValueError(f"text {name} must be integers, got {array.dtype}")
        codes, offsets = codes.astype(np.intp, copy=False), offsets.astype(np.intp, copy=False)
        if (
            offsets.ndim != 1 or not len(offsets) or offsets[0] != 0
            or offsets[-1] != len(codes) or (np.diff(offsets) < 0).any()
        ):
            raise ValueError("text offsets must rise from 0 to the number of codes")
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(vocab):
            raise ValueError(f"text codes must index the {len(vocab)} vocabulary entries")
        if len(set(vocab)) < len(vocab):
            raise ValueError("text vocabulary repeats a token")
        codes.flags.writeable = offsets.flags.writeable = False
        for name, value in (("vocab", vocab), ("codes", codes), ("offsets", offsets)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def _tuples(self) -> tuple[tuple[str, ...], ...]:
        tokens = np.array(self.vocab, dtype=object)[self.codes].tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(tokens[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __getitem__(self, k: int) -> tuple[str, ...]:
        return self._tuples[k]

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self._tuples)

    def __repr__(self) -> str:
        return f"TextColumn.of({self._tuples!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TextColumn):
            return NotImplemented
        return self._tuples == other._tuples

    def take(self, rows: np.ndarray) -> "TextColumn":
        """The texts of the items at indices ``rows``, in that order, coded
        in this vocabulary."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = _offsets(lengths)
        # a kept token's code sits at its run's old start plus its place in the run
        index = np.repeat(starts - offsets[:-1], lengths)
        index += np.arange(len(index))
        return TextColumn(self.vocab, self.codes[index], offsets)


class _Vocabulary(dict):
    """Name to code; a name's first lookup gives it the next code."""

    def __missing__(self, name: str) -> int:
        self[name] = code = len(self)
        return code


def _first_use_codes(names: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct ``names`` in order of first use, and each name's code:
    its index in them. ``names`` is coded as it is iterated."""
    vocab = _Vocabulary()
    codes = np.fromiter(map(vocab.__getitem__, names), dtype=np.intp)
    return tuple(vocab), codes


def _first_repeat(values: Sequence[str]) -> str | None:
    """The first of ``values`` that equals an earlier one, or None."""
    seen: set[str] = set()  # seen.add(v) is None: the test adds each value it has not seen
    unique = len(set(values)) == len(values)
    return None if unique else next(v for v in values if v in seen or seen.add(v))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The offsets of runs of ``lengths``: 0, then their running sums."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False, repr=False)
class GoldTable(ReadOnlyValue):
    """Per-item reference agreement proportions, stored as columns with
    one entry per item.

    Item k has id ``item_id[k]`` (a str), tokens ``text[k]``, agreement
    proportion ``p_gold[k]`` (float64) and reference panel size
    ``k_reference[k]`` (int64); both arrays are read-only. ``text`` is a
    :class:`TextColumn`; token sequences given in its place are coded
    once. The table is checked once when it is made; :attr:`entries` is
    built on first use, and tables are equal when their entries are.
    Build a table from :class:`GoldEntry` rows with :meth:`from_entries`.
    """

    item_id: tuple[str, ...]
    text: TextColumn
    p_gold: np.ndarray
    k_reference: np.ndarray

    @classmethod
    def from_entries(cls, entries: Iterable[GoldEntry]) -> "GoldTable":
        """The table of ``entries``, in their order."""
        rows = [(e.item_id, e.text, e.p_gold, e.k_reference) for e in entries]
        return cls(*(zip(*rows) if rows else ((),) * 4))

    def __post_init__(self) -> None:
        """Check the columns, casting nothing, and store them as a tuple, a
        text column and read-only arrays: the first item that
        :func:`_entry_error` faults, or whose id an earlier item has, is an
        error naming it. Numeric arrays (``k_reference`` of a kind that
        int64 holds) and a text column are checked without an item loop,
        each vocabulary entry once, and the ids by one scan of their types."""
        item_id, text = tuple(self.item_id), self.text
        p_gold, k_reference = self.p_gold, self.k_reference
        n = len(item_id)
        coded = isinstance(text, TextColumn)
        texts = text if coded else tuple(text)
        if not n == len(texts) == len(p_gold) == len(k_reference):
            raise ValueError(
                f"gold columns differ in length: {n} item ids, {len(texts)} texts, "
                f"{len(p_gold)} p_gold, {len(k_reference)} k_reference"
            )
        if (
            isinstance(p_gold, np.ndarray) and p_gold.dtype.kind in "fiu"
            and isinstance(k_reference, np.ndarray) and k_reference.dtype.kind in "iu"
            and np.can_cast(k_reference.dtype, np.int64) and coded
        ):
            bad = np.flatnonzero(~((0.0 <= p_gold) & (p_gold <= 1.0)) | (k_reference < 1))
            first = min(int(bad[0]) if len(bad) else n, _first_bad_token_item(text))
            if not {str}.issuperset(map(type, item_id)):
                first = min(first, next(k for k, i in enumerate(item_id) if type(i) is not str))
        else:  # values whose type does not vouch for them: check item by item
            rows = enumerate(zip(item_id, texts, p_gold, k_reference))
            first = next((k for k, row in rows if _entry_error(*row)), n)
        if (repeat := _first_repeat(item_id[:first])) is not None:
            raise ValueError(f"duplicate item_id {repeat!r} in gold table")
        if first < n:
            row = item_id[first], texts[first], p_gold[first], k_reference[first]
            raise ValueError(_entry_error(*row))
        if not coded:
            text = TextColumn.of(texts)
        p_gold = np.asarray(p_gold, dtype=np.float64)
        k_reference = np.asarray(k_reference, dtype=np.int64)
        p_gold.flags.writeable = k_reference.flags.writeable = False
        for f, value in zip(fields(self), (item_id, text, p_gold, k_reference)):
            object.__setattr__(self, f.name, value)

    def __len__(self) -> int:
        return len(self.item_id)

    @cached_property
    def entries(self) -> tuple[GoldEntry, ...]:
        """The items as :class:`GoldEntry` rows, built on first use."""
        return tuple(
            map(GoldEntry, self.item_id, self.text, self.p_gold.tolist(), self.k_reference.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GoldTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"GoldTable.from_entries({self.entries!r})"

    def take(self, rows: np.ndarray) -> "GoldTable":
        """The items at the distinct indices ``rows``, in that order."""
        return GoldTable(
            [self.item_id[k] for k in rows.tolist()],
            self.text.take(rows),
            self.p_gold[rows],
            self.k_reference[rows],
        )

    def item_ids(self) -> tuple[str, ...]:
        return self.item_id

    def texts(self) -> dict[str, tuple[str, ...]]:
        return dict(zip(self.item_id, self.text))


def _first_bad_token_item(text: TextColumn) -> int:
    """The first item of ``text`` with a token that :func:`_text_error`
    faults, or ``len(text)``; each vocabulary entry is checked once."""
    vocab = text.vocab
    if {str}.issuperset(map(type, vocab)):
        try:
            "".join(vocab).encode("utf-8")
            return len(text)
        except UnicodeEncodeError:
            pass
    bad = np.array([_text_error((token,)) is not None for token in vocab], dtype=bool)
    used = np.flatnonzero(bad[text.codes])
    if not len(used):
        return len(text)
    return int(np.searchsorted(text.offsets, used[0], side="right")) - 1


def _entry_error(item_id, text, p_gold, k_reference) -> str | None:
    """What is wrong with a gold item, by the first of its checks that
    fails, or None. A bool is neither a number nor an integer here."""
    where = f"item {item_id!r}:"
    if type(item_id) is not str:
        return f"{where} item_id must be a string"
    if isinstance(p_gold, bool) or not isinstance(p_gold, numbers.Real):
        return f"{where} p_gold must be a number, got {p_gold!r}"
    if not 0.0 <= p_gold <= 1.0:
        return f"{where} p_gold {p_gold} outside [0, 1]"
    if isinstance(k_reference, bool) or not isinstance(k_reference, numbers.Integral):
        return f"{where} k_reference must be an integer, got {k_reference!r}"
    if k_reference < 1:
        return f"{where} k_reference must be positive"
    if k_reference >= 2**63:
        return f"{where} k_reference {k_reference} must be below 2**63"
    return f"{where} {error}" if (error := _text_error(text)) else None


def _text_error(text) -> str | None:
    """What is wrong with ``text`` as an item's text, or None: a text is a
    sequence (not a str) of str tokens that UTF-8 can encode."""
    if isinstance(text, str) or not isinstance(text, Sequence):
        return f"text must be a sequence of tokens, got {text!r}"
    for token in text:
        if type(token) is not str:
            return f"token {token!r} is not a string"
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:
            return f"token {token!r} cannot be encoded as UTF-8"
    return None


@dataclass(frozen=True)
class BiasSpec:
    """Bias offset and the shift direction of each annotator stratum."""

    beta: float
    direction_by_stratum: Mapping[str, str]

    def __post_init__(self) -> None:
        check_fields(self)
        check_beta(self.beta)
        for s, d in self.direction_by_stratum.items():
            if d not in (MINUS, PLUS):
                raise ValueError(f"stratum {s!r}: direction must be {MINUS!r} or {PLUS!r}")

    @classmethod
    def two_type(cls, beta: float) -> "BiasSpec":
        """The standard design: type A shifted down, type B shifted up."""
        return cls(beta, {TYPE_A: MINUS, TYPE_B: PLUS})


@dataclass(frozen=True)
class PoolComposition:
    """Annotations per item contributed by each stratum."""

    counts: Mapping[str, int]

    def __post_init__(self) -> None:
        check_fields(self)
        for s, n in self.counts.items():
            if n < 0:
                raise ValueError(f"stratum {s!r}: negative annotation count")
        if sum(self.counts.values()) < 1:
            raise ValueError("pool composition must provide at least one annotation per item")


@dataclass(frozen=True)
class Annotation:
    annotation_id: str
    item_id: str
    stratum_id: str
    label: int
    source: str = "original"
    replica_of: str | None = None


@dataclass(frozen=True)
class DatasetMeta:
    """A dataset's task, recipe (one of :data:`RECIPES`, or ``"custom"``
    for any other pool), bias offset and seed; each error names the field."""

    task: str
    recipe: str
    beta: float
    seed: int

    def __post_init__(self) -> None:
        check_fields(self)
        check_task(self.task)
        if self.recipe not in (*RECIPES, "custom"):
            raise ValueError(f"recipe must be one of {RECIPES} or 'custom', got {self.recipe!r}")
        check_beta(self.beta)
        check_key_int(self.seed, "seed")


@dataclass(frozen=True, eq=False, repr=False)
class Dataset(ReadOnlyValue):
    """Multiset of stratum-tagged annotations with replication provenance,
    stored as columns with one entry per record.

    ``item_ids[item[k]]`` and ``stratum_ids[stratum[k]]`` are record k's
    item and stratum, ``label[k]`` its label, and ``original[k]`` the
    index of the record it replicates, or -1 for an original, and
    ``annotation_ids[k]`` its annotation id. The tables may name items
    or strata that no record has (a restricted dataset keeps its
    parent's). However a dataset is made, its constructor checks it.
    Build a dataset from :class:`Annotation` rows with :meth:`from_records`.
    Datasets have no ``==``: compare their columns.
    """

    meta: DatasetMeta
    item_ids: tuple[str, ...]
    stratum_ids: tuple[str, ...]
    item: np.ndarray
    stratum: np.ndarray
    label: np.ndarray
    original: np.ndarray
    annotation_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        """Check the columns, casting nothing, and store them read-only (codes
        intp, labels int8): a :class:`DatasetMeta`, one-dimensional integer
        codes, columns of one length, str ids; then, naming the first record
        at fault, codes in their tables (``original`` -1 or a record), binary
        labels, unique ids and acyclic, agreeing replicas."""
        if not isinstance(self.meta, DatasetMeta):
            raise ValueError(f"dataset meta must be a DatasetMeta, got {self.meta!r}")
        types = {"item": np.intp, "stratum": np.intp, "original": np.intp, "label": np.int8}
        codes = {name: np.asarray(getattr(self, name)) for name in types}
        for name, array in codes.items():
            if array.ndim != 1:
                raise ValueError(
                    f"dataset column {name} must be one-dimensional, got shape {array.shape}"
                )
            if array.dtype.kind not in "iu":
                if array.size:
                    raise ValueError(f"dataset column {name} must be integers, got {array.dtype}")
                codes[name] = array.astype(types[name])  # [] is a float array
        n = len(self.item)
        for name in ("stratum", "label", "original", "annotation_ids"):
            if (length := len(getattr(self, name))) != n:
                raise ValueError(f"dataset column {name} is of length {length}, item of length {n}")
        keys = ("item_ids", "stratum_ids", "annotation_ids")
        tables = {key: tuple(getattr(self, key)) for key in keys}
        for key, values in tables.items():
            if not {str}.issuperset(map(type, values)):
                k = next(k for k, v in enumerate(values) if type(v) is not str)
                raise ValueError(f"dataset {key}[{k}] must be a string, got {values[k]!r}")
        ids = tables["annotation_ids"]
        bounds = (0, len(tables["item_ids"])), (0, len(tables["stratum_ids"])), (-1, n), (0, 2)
        for (name, array), (low, high) in zip(codes.items(), bounds):
            if len(bad := np.flatnonzero((array < low) | (array >= high))):
                what = "not binary" if name == "label" else f"outside [{low}, {high})"
                raise ValueError(f"annotation {ids[bad[0]]!r}: {name} {array[bad[0]]} {what}")
        for key, values in tables.items():
            if (repeat := _first_repeat(values)) is not None:
                at = "annotation_id" if key == "annotation_ids" else f"{key} entry"
                raise ValueError(f"duplicate {at} {repeat!r}")
        item, stratum, original, label = codes.values()
        replicas = np.flatnonzero(original >= 0)
        triples = np.stack((item, stratum, label))
        disagree = (triples[:, replicas] != triples[:, original[replicas]]).any(axis=0)
        if disagree.any():
            k = int(replicas[np.argmax(disagree)])
            raise ValueError(
                f"replica {ids[k]!r} disagrees with its original "
                f"{ids[original[k]]!r} on (item, stratum, label)"
            )
        # pointer doubling: after s steps, end[k] is the record 2**s links down
        # k's chain (a link per replica at most), or the original it stops at
        end = np.where(original < 0, np.arange(n), original)
        for _ in range(len(replicas).bit_length()):
            end = end[end]
        if (cyclic := original[end] >= 0).any():
            at = f"replica {ids[np.argmax(cyclic)]!r}"
            raise ValueError(f"{at} has no original: its replica_of chain ends in a cycle")
        for name, value in (*codes.items(), *tables.items()):
            if name in types:
                (value := value.astype(types[name], copy=False)).flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, records: Iterable[Annotation], meta: DatasetMeta) -> "Dataset":
        """The dataset of ``records``, in their order; item and stratum codes
        follow first appearance. The first record that :func:`_check_record`
        faults is an error, then the first replica whose ``replica_of``
        names no record, then what the constructor finds."""
        records = tuple(records)
        for r in records:
            _check_record(r)
        ids = tuple(r.annotation_id for r in records)
        original = np.full(len(ids), -1, dtype=np.intp)
        replicas = [k for k, r in enumerate(records) if r.source == "replica"]
        if replicas:
            index = dict(zip(ids, range(len(ids))))
            targets = [index.get(records[k].replica_of, -1) for k in replicas]
            if -1 in targets:
                k = replicas[targets.index(-1)]
                raise ValueError(f"replica {ids[k]!r} does not reference an existing annotation")
            original[replicas] = targets
        item_ids, item = _first_use_codes(r.item_id for r in records)
        stratum_ids, stratum = _first_use_codes(r.stratum_id for r in records)
        label = [r.label for r in records]
        return cls(meta, item_ids, stratum_ids, item, stratum, label, original, ids)

    def __len__(self) -> int:
        return len(self.label)

    def take(self, rows: np.ndarray, meta: DatasetMeta | None = None) -> "Dataset":
        """The records at the distinct indices ``rows``, in that order, with
        ``meta`` or else this dataset's. A kept replica's original must be kept."""
        ids = self.annotation_ids
        original = self.original[rows]
        replica = original >= 0
        if replica.any():
            position = np.full(len(self), -1, dtype=np.intp)
            position[rows] = np.arange(len(rows))
            original = np.where(replica, position[original], -1)
            lost = np.flatnonzero(replica & (original < 0))
            if len(lost):
                k = int(rows[lost[0]])
                raise ValueError(
                    f"replica {ids[k]!r} is kept without its original {ids[self.original[k]]!r}"
                )
        return replace(
            self, meta=self.meta if meta is None else meta, item=self.item[rows],
            stratum=self.stratum[rows], label=self.label[rows], original=original,
            annotation_ids=tuple(map(ids.__getitem__, rows.tolist())),
        )

    def restrict(self, item_ids: Iterable[str]) -> "Dataset":
        """Keep the records of the given items (meta unchanged): replicas with their originals."""
        wanted = set(item_ids)
        keep = np.fromiter(
            (i in wanted for i in self.item_ids), dtype=bool, count=len(self.item_ids)
        )
        return self.take(np.flatnonzero(keep[self.item]))


def _check_record(r: Annotation) -> None:
    """Raise the error of a record that is wrong on its own: an id other
    than a str (``replica_of`` may be None), a label other than the
    integer 0 or 1 (not ``True`` or ``1.0``), a source other than
    "original" or "replica", or a ``replica_of`` that is not a replica's."""
    aid = r.annotation_id
    for key in ("annotation_id", "item_id", "stratum_id", "replica_of"):
        value = getattr(r, key)
        if type(value) is not str and (value is not None or key != "replica_of"):
            raise ValueError(f"annotation {aid!r}: {key} must be a string, got {value!r}")
    if type(r.label) is not int or r.label not in (0, 1):
        raise ValueError(f"annotation {aid!r}: label {r.label!r} not binary")
    if r.source not in ("original", "replica"):
        raise ValueError(f"annotation {aid!r}: bad source {r.source!r}")
    if r.source == "replica" and r.replica_of is None:
        raise ValueError(f"replica {aid!r} has no replica_of")
    if r.source == "original" and r.replica_of is not None:
        raise ValueError(f"original {aid!r} carries replica_of")


@dataclass(frozen=True)
class Suite:
    """The sampled recipes for one (beta, seed) cell.

    The adjusted dataset is not part of the suite: it is derived from
    nonrep1 by pairsim.adjust.apply_pair.
    """

    representative: Dataset
    nonrep1: Dataset
    nonrep2: Dataset


# ---------------------------------------------------------------------------
# gold-table construction


def subsample_indices(item_index: int, n: int) -> tuple[int, ...]:
    """Which ``GOLD_PANEL_SIZE`` of the ``n`` reference annotations of the item
    at ``item_index`` its seed-0 draw keeps: uniform without replacement, ascending."""
    gen = stream(0, "subsample", item_index)
    return tuple(sorted(gen.choice(n, size=GOLD_PANEL_SIZE, replace=False).tolist()))


def annotation_row(
    item_id: str, text: Union[str, Sequence[str]], labels: Sequence[int]
) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
    """One item's reference annotations as ``(item_id, tokens, labels)``;
    a string text is split on whitespace.

    Raises ValueError when the id is not a str, when the text, split if
    a str, breaks :func:`_text_error`'s rule, or when the labels are
    empty, not each the integer 0 or 1 (``True`` and ``1.0`` compare
    equal to 1 but are not labels), or fewer than ``GOLD_PANEL_SIZE``
    (a draw of that many without replacement).
    """
    if type(item_id) is not str:
        raise ValueError(f"item {item_id!r}: item_id must be a string")
    labels = tuple(labels)
    if not labels:
        raise ValueError(f"item {item_id!r} has no annotations")
    bad = [l for l in labels if type(l) is not int or l not in (0, 1)]
    if bad:
        raise ValueError(f"item {item_id!r} has non-binary labels: {bad}")
    if len(labels) < GOLD_PANEL_SIZE:
        raise ValueError(
            f"item {item_id!r} has {len(labels)} annotations, "
            f"cannot draw {GOLD_PANEL_SIZE} without replacement"
        )
    tokens = text.split() if isinstance(text, str) else text
    if error := _text_error(tokens):
        raise ValueError(f"item {item_id!r}: {error}")
    return item_id, tuple(tokens), labels


def derive_gold(raw: Iterable[tuple]) -> GoldTable:
    """Turn ``(item_id, text, labels)`` rows into a gold agreement table.

    Each row is checked by :func:`annotation_row`. An item's proportion
    is over exactly ``GOLD_PANEL_SIZE`` of its labels, those that
    :func:`subsample_indices` keeps at the row's position.
    """
    rows = [annotation_row(*row) for row in raw]
    p_gold = []
    for i, (_, _, labels) in enumerate(rows):
        if len(labels) > GOLD_PANEL_SIZE:
            keep = subsample_indices(i, len(labels))
            labels = tuple(labels[j] for j in keep)
        p_gold.append(sum(labels) / len(labels))
    item_id, text, _ = zip(*rows) if rows else ((),) * 3
    return GoldTable(
        item_id, TextColumn.of(text), np.array(p_gold), np.full(len(rows), GOLD_PANEL_SIZE)
    )


def filter_difficult(gold: GoldTable, lo: float, hi: float) -> GoldTable:
    """Keep items whose agreement proportion lies in [lo, hi], inclusive."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"bounds ({lo}, {hi}) must satisfy 0 <= lo <= hi <= 1")
    return gold.take(np.flatnonzero((lo <= gold.p_gold) & (gold.p_gold <= hi)))


@dataclass(frozen=True)
class Uniform:
    """Agreement proportions uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(f"uniform bounds ({self.low}, {self.high}) invalid")


@dataclass(frozen=True)
class Rare:
    """Skewed proportions with the given mean and most mass near zero.

    Draws Beta(2m, 2(1-m)), a J-shaped distribution for small means,
    mimicking a rare positive class.
    """

    mean: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.mean < 1.0:
            raise ValueError(f"rare mean {self.mean} outside (0, 1)")


GoldShape = Union[Uniform, Rare]


def synth_gold(n: int, shape: GoldShape, seed: int, id_prefix: str = "item") -> GoldTable:
    """Synthesize a gold table of ``n`` items with empty texts.

    Proportions are quantized to the nearest multiple of 1/12 so every
    value is attainable by a 12-annotator reference panel (quantization
    may land just outside tight uniform bounds).
    """
    if n < 1:
        raise ValueError("need at least one item")
    typed(shape, GoldShape, "shape", from_json=False)
    tag = f"gold:{id_prefix}"
    if isinstance(shape, Uniform):
        u = doubles(philox_words(stream_keys(seed, tag, count=n), 1))[:, 0]
        p = shape.low + (shape.high - shape.low) * u
    else:  # numpy's beta sampler has no array form: one generator per item
        a, b = 2 * shape.mean, 2 * (1 - shape.mean)
        p = np.array([stream(seed, tag, i).beta(a, b) for i in range(n)])
    grid = np.minimum(np.floor(p * GOLD_PANEL_SIZE + 0.5), GOLD_PANEL_SIZE)
    return GoldTable(
        [f"{id_prefix}{i:05d}" for i in range(n)],
        TextColumn.of(((),) * n),
        grid / GOLD_PANEL_SIZE,
        np.full(n, GOLD_PANEL_SIZE),
    )


def synth_text(
    gold: GoldTable, vocab_size: int, tokens_per_item: int, seed: int
) -> GoldTable:
    """Fill item texts so they carry signal about the gold proportion.

    The vocabulary is split into a toxic-indicative half and a
    benign-indicative half; each of an item's tokens comes from the
    toxic half with probability p_gold. The text column's vocabulary is
    every toxic token, then every benign one, whether an item uses it or
    not.
    """
    if tokens_per_item < 1:
        raise ValueError("tokens_per_item must be at least 1")
    if vocab_size < 2:
        raise ValueError("vocab_size must be at least 2 (one token per half)")
    n_tox = vocab_size // 2
    n_ben = vocab_size - n_tox
    names = tuple([f"tox{i}" for i in range(n_tox)] + [f"ben{i}" for i in range(n_ben)])
    # item i's stream: the toxic mask from words [0, T), then T tox ids
    # and T ben ids from the 32-bit halves of the following words; a half
    # of size 1 draws nothing
    t = tokens_per_item
    ben_start = t if n_tox > 1 else 0
    n_halves = ben_start + (t if n_ben > 1 else 0)
    n_words = t + (n_halves + 1) // 2
    keys = stream_keys(seed, "text", count=len(gold))
    codes = np.empty((len(gold), t), dtype=np.intp)  # codes into names
    for start in range(0, len(gold), _TEXT_BLOCK):
        p = gold.p_gold[start : start + _TEXT_BLOCK]
        words = philox_words(keys[start : start + len(p)], n_words)
        toxic = doubles(words[:, :t]) < p[:, None]
        ids = [
            bounded_draws(words[:, t:], size - 1)[:, first : first + t] if size > 1 else 0
            for size, first in ((n_tox, 0), (n_ben, ben_start))
        ]
        codes[start : start + len(p)] = np.where(toxic, ids[0], n_tox + ids[1])
    text = TextColumn(names, codes.ravel(), np.arange(0, len(gold) * t + 1, t))
    return GoldTable(gold.item_id, text, gold.p_gold, gold.k_reference)


#: items per synth_text block, which bounds the block's Philox words
_TEXT_BLOCK = 256


# ---------------------------------------------------------------------------
# annotation sampling


def shift_probability(p, beta: float, direction: str):
    """Shift an agreement proportion, or an array of them, by ``beta``,
    clamped to [0, 1]."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"p {p} outside [0, 1]")
    check_beta(beta)
    if direction == MINUS:
        return np.maximum(p - beta, 0.0)
    if direction == PLUS:
        return np.minimum(p + beta, 1.0)
    raise ValueError(f"unknown direction {direction!r}")


def sample_pool(
    gold: GoldTable,
    comp: PoolComposition,
    bias: BiasSpec,
    seed: int,
    task: str = "OL",
) -> Dataset:
    """Draw a full annotation pool: per item, ``comp.counts[s]`` labels per stratum.

    Labels are independent Bernoulli draws at the stratum-shifted
    proportion. Records run item by item, and within an item stratum by
    stratum in sorted order, slot by slot; the record of slot k of
    stratum s of an item is named ``"<item_id>:<s><k>"``. The pool's
    recipe is ``"custom"``. Deterministic given (gold order, comp, bias,
    seed, task).

    The draws do not depend on the bias: this is :func:`label_pool` of
    :func:`draw_pool`, and a caller that needs the pool at several betas
    draws once and labels once per beta.
    """
    return label_pool(draw_pool(gold, comp, seed, task), bias)


@dataclass(frozen=True, eq=False)
class PoolDraws(ReadOnlyValue):
    """The bias-free part of an annotation pool.

    ``u[i]`` holds item i's slot doubles, stratum by stratum in the order
    of ``strata`` with ``counts[k]`` slots for ``strata[k]``, and ``p[i]``
    its gold proportion. The arrays are read-only, since the pools of
    every beta are labelled from them.
    """

    task: str
    seed: int
    item_ids: tuple[str, ...]
    strata: tuple[str, ...]
    counts: tuple[int, ...]
    p: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        self.p.flags.writeable = False
        self.u.flags.writeable = False


def draw_pool(gold: GoldTable, comp: PoolComposition, seed: int, task: str = "OL") -> PoolDraws:
    """The slot doubles of ``sample_pool(gold, comp, bias, seed, task)``.

    Slot k of stratum s of item i is double k of the stream
    ``stream(seed, f"{task}:annot:{s}", i)``; the doubles of every item of
    a stratum come from one Philox pass (``rng.philox_words``), not from a
    generator per item. Slot k has the same double whatever the
    stratum's count is.
    """
    if not len(gold):
        raise ValueError("gold table is empty")
    strata = tuple(sorted(comp.counts))
    counts = tuple(comp.counts[s] for s in strata)
    n = len(gold)
    u = np.concatenate(
        [
            doubles(philox_words(stream_keys(seed, f"{task}:annot:{s}", count=n), c))
            for s, c in zip(strata, counts)
        ],
        axis=1,
    )
    return PoolDraws(task, seed, gold.item_id, strata, counts, gold.p_gold, u)


def pool_labels(draws: PoolDraws, bias: BiasSpec) -> np.ndarray:
    """The labels of the slots of ``draws`` at ``bias``, laid out as
    ``draws.u``: a slot is labelled 1 when its double falls below the
    item's stratum-shifted proportion."""
    missing = sorted(set(draws.strata) - set(bias.direction_by_stratum))
    if missing:
        raise ValueError(f"no bias direction for strata: {', '.join(missing)}")
    label = np.empty(draws.u.shape, dtype=np.int8)
    start = 0
    for s, count in zip(draws.strata, draws.counts):
        p_shifted = shift_probability(draws.p, bias.beta, bias.direction_by_stratum[s])
        label[:, start : start + count] = draws.u[:, start : start + count] < p_shifted[:, None]
        start += count
    return label


def label_pool(draws: PoolDraws, bias: BiasSpec) -> Dataset:
    """The pool of ``draws`` at ``bias``, labelled by :func:`pool_labels`."""
    label = pool_labels(draws, bias)
    n, per_item = label.shape
    item_ids = draws.item_ids
    slots = [f"{s}{k}" for s, count in zip(draws.strata, draws.counts) for k in range(count)]
    return Dataset(
        DatasetMeta(draws.task, "custom", bias.beta, draws.seed),
        item_ids,
        draws.strata,
        np.repeat(np.arange(n), per_item),
        np.tile(np.repeat(np.arange(len(draws.strata)), draws.counts), n),
        label.ravel(),
        np.full(n * per_item, -1, dtype=np.intp),
        tuple(f"{item_id}:{slot}" for item_id in item_ids for slot in slots),
    )


@dataclass(frozen=True, eq=False)
class SuiteDraws(ReadOnlyValue):
    """The beta-free part of a suite: its pool's 9 A and 6 B slot doubles
    and ``rows``, per recipe (representative, nonrep1, nonrep2), the
    indices of the pool records that the recipe keeps. The mapping and
    its arrays are read-only, like the doubles."""

    pool: PoolDraws
    rows: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for rows in self.rows.values():
            rows.flags.writeable = False
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))


def build_suite(gold: GoldTable, beta: float, seed: int, task: str = "OL") -> Suite:
    """Build the representative, nonrep1 and nonrep2 datasets for one cell:
    the pool of ``draws = draw_suite(gold, seed, task)`` labelled once at
    ``beta``, then the records of ``draws.rows[recipe]`` for each recipe.
    Slot values do not depend on how many slots are drawn, so
    representative equals ``sample_pool`` with 6 A and 6 B per item.

    The draws do not depend on beta; a caller that needs several betas
    draws once and labels the draws at each beta.
    """
    draws = draw_suite(gold, seed, task)
    pool = label_pool(draws.pool, BiasSpec.two_type(beta))
    return Suite(**{
        recipe: pool.take(rows, replace(pool.meta, recipe=recipe))
        for recipe, rows in draws.rows.items()
    })


def draw_suite(gold: GoldTable, seed: int, task: str = "OL") -> SuiteDraws:
    """The draws every beta's suite of (gold, seed, task) is made from: a
    pool of 9 A and 6 B slots per item, and the records each recipe keeps,
    which do not depend on beta either. representative keeps A slots 0-5
    and every B slot; nonrep1 drops 3 uniformly-chosen B slots per item
    from representative, keeping the surviving annotation ids unchanged;
    nonrep2 adds A slots 6-8, 3 fresh A draws per item, on top of nonrep1.

    Item i's deleted B slots are the set
    ``stream(seed, f"{task}:nonrep1-delete", i).choice(6, 3, replace=False)``
    selects where numpy accepts its draws (``_nonrep1_deletions``).
    """
    n_a, n_b = REPRESENTATIVE_COUNTS[TYPE_A], REPRESENTATIVE_COUNTS[TYPE_B]
    comp = PoolComposition({TYPE_A: n_a + NONREP2_EXTRA_A, TYPE_B: n_b})
    pool = draw_pool(gold, comp, seed, task)
    # label_pool lays out each item's records as A0..A8, B0..B5: one row
    # of these masks per item, one column per slot
    n, first_b = len(gold), n_a + NONREP2_EXTRA_A
    extra_a = np.zeros((n, first_b + n_b), dtype=bool)
    extra_a[:, n_a:first_b] = True
    deleted_b = np.zeros_like(extra_a)
    deleted_b[np.arange(n)[:, None], first_b + _nonrep1_deletions(n, n_b, seed, task)] = True
    rows = {
        RECIPE_REPRESENTATIVE: np.flatnonzero(~extra_a),
        RECIPE_NONREP1: np.flatnonzero(~(extra_a | deleted_b)),
        RECIPE_NONREP2: np.flatnonzero(~deleted_b),
    }
    return SuiteDraws(pool, rows)


def _nonrep1_deletions(n: int, n_b: int, seed: int, task: str) -> np.ndarray:
    """The B slots nonrep1 drops from each of ``n`` items, one row per item:
    Floyd's algorithm on one bounded draw in [0, j] from item i's stream
    for each j from n_b - 3 to n_b - 1. numpy's ``choice(n_b, size=3,
    replace=False)`` runs the same algorithm wherever it accepts the
    draws, then shuffles the chosen slots, which changes their order but
    not which they are.
    """
    tag = f"{task}:nonrep1-delete"
    first = n_b - NONREP1_B_DELETIONS
    words = philox_words(stream_keys(seed, tag, count=n), -(-NONREP1_B_DELETIONS // 2))
    chosen: list[np.ndarray] = []
    for d, j in enumerate(range(first, n_b)):
        value = bounded_draws(words, j)[:, d]
        taken = np.zeros(n, dtype=bool)
        for c in chosen:
            taken |= c == value
        chosen.append(np.where(taken, j, value))
    return np.stack(chosen, axis=1)


# ---------------------------------------------------------------------------
# checked JSON values


# The types a value may have, by its kind, its kind's container or (from
# JSON) a dataclass, and how errors name them.
_FORMS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    (tuple, False): ((tuple,), "a tuple"),
    (tuple, True): ((list,), "a list"),
    (Mapping, False): ((Mapping,), "a mapping"),
    (Mapping, True): ((dict,), "a JSON object"),
    (dataclass, True): ((dict,), "a JSON object"),
}


@cache
def _form(kind, from_json: bool) -> tuple[tuple[type, ...], str]:
    container = get_origin(kind) or (dataclass if is_dataclass(kind) else None)
    return _FORMS.get(kind) or _FORMS.get((container, from_json)) or ((kind,), f"a {kind.__name__}")


def typed(value, kind, where: str, from_json: bool = True):
    """``value`` as a ``kind``, or an error naming ``where``: the one kind
    rule of configs built in Python and read from JSON (``from_json``).

    ``kind`` is bool, int, float, str, a class, ``tuple[t, ...]``, a fixed
    ``tuple[t, u]`` (entry i named ``where[i]``), ``Mapping[k, v]`` (key
    s's value named ``where[s!r]``, from JSON ``where.s``) or a union of
    these, checked as its first member of the value's type. A bool is not
    a number, and an int for a float is widened; nothing else is cast.
    From JSON a tuple is a list and a dataclass an object that
    :func:`typed_object` reads; from Python either is an error."""
    if (origin := get_origin(kind)) in (Union, UnionType):
        members = [t for t in kind.__args__ if t is not NoneType]
        if value is None and len(members) < len(kind.__args__):
            return None
        forms = [_form(t, from_json) for t in members]
        of_type = [t for t, (types, _) in zip(members, forms) if isinstance(value, types)]
        if not of_type and len(members) > 1:
            names = [name for _, name in forms] + ["None"] * (len(members) < len(kind.__args__))
            names = f"{', '.join(names[:-1])} or {names[-1]}"
            raise ValueError(f"{where} must be {names}, got {value!r}")
        kind = (of_type or members)[0]
        origin = get_origin(kind)
    if from_json and is_dataclass(kind):
        return typed_object(value, kind, where)
    types, name = _form(kind, from_json)
    # bool is a subclass of int in Python but not a number in JSON
    if not isinstance(value, types) or (isinstance(value, bool) and kind in (int, float)):
        raise ValueError(f"{where} must be {name}, got {value!r}")
    if origin is tuple:
        kinds = kind.__args__
        if kinds[-1] is Ellipsis:
            if {kinds[0]}.issuperset(map(type, value)):  # nothing to check or widen
                return tuple(value)
            kinds = kinds[:1] * len(value)
        elif len(value) != len(kinds):
            raise ValueError(f"{where} must have {len(kinds)} entries, got {value!r}")
        entries = enumerate(zip(value, kinds))
        return tuple(typed(v, t, f"{where}[{i}]", from_json) for i, (v, t) in entries)
    if origin is Mapping:
        keys, values = kind.__args__
        at = "{}.{}" if from_json else "{}[{!r}]"
        return {
            typed(k, keys, f"{where} key"): typed(v, values, at.format(where, k), from_json)
            for k, v in value.items()
        }
    return float(value) if kind is float else value


@cache
def _schema(cls: type) -> tuple[dict, frozenset]:
    """The types of dataclass ``cls``'s init fields, and those without a default."""
    hints, init = get_type_hints(cls), [f for f in fields(cls) if f.init]
    required = (f.name for f in init if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in init}, frozenset(required)


def check_fields(self) -> None:
    """Check each init field of the dataclass ``self`` against its annotation
    by :func:`typed`, and store what typed returns: every config calls this first."""
    for name, kind in _schema(type(self))[0].items():
        object.__setattr__(self, name, typed(getattr(self, name), kind, name, from_json=False))


def typed_object(d, cls: type, where: str, /, **parsers):
    """A ``cls`` dataclass from the JSON object ``d``.

    Each key must name a field; its value is read by :func:`typed`
    against the field's type, or by ``parsers[key](value, where.key)``
    for a field whose JSON form is not its type. Unknown keys and absent
    fields without a default are errors naming ``where``; other absent
    fields keep their default, so defaults are stated once.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    types, required = _schema(cls)
    if not d.keys() <= types.keys():
        raise ValueError(f"unknown key {min(d.keys() - types.keys())!r} in {where}")
    if not required <= d.keys():
        raise ValueError(f"{where}.{min(required - d.keys())} is missing")
    kwargs = {}
    for key, value in d.items():
        at = f"{where}.{key}"
        kwargs[key] = parsers[key](value, at) if key in parsers else typed(value, types[key], at)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# file formats: one JSON object of columns per file


GOLD_FORMAT = "pairsim-gold"
DATASET_FORMAT = "pairsim-dataset"
DATA_VERSION = 1


def reads_file(reader):
    """``reader(path, ...)`` with every ValueError it raises naming the file:
    a message that does not contain the path gets it as a prefix."""

    @wraps(reader)
    def read(path: Union[str, Path], *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except ValueError as err:  # JSON and UTF-8 decoding errors included
            if str(path) in str(err):
                raise
            raise ValueError(f"{path}: {err}") from None

    return read


@dataclass(frozen=True)
class _GoldFile:
    """A gold file's keys, in write_gold's order: the columns of a
    :class:`GoldTable`, its text as those of a :class:`TextColumn`."""

    format: str
    version: int
    item_id: tuple[str, ...]
    vocab: tuple[str, ...]
    codes: tuple[int, ...]
    offsets: tuple[int, ...]
    p_gold: tuple[float, ...]
    k_reference: tuple[int, ...]


@dataclass(frozen=True)
class _DatasetFile:
    """A dataset file's keys, in write_dataset's order: the fields of a
    :class:`Dataset`."""

    format: str
    version: int
    meta: DatasetMeta
    item_ids: tuple[str, ...]
    stratum_ids: tuple[str, ...]
    item: tuple[int, ...]
    stratum: tuple[int, ...]
    label: tuple[int, ...]
    original: tuple[int, ...]
    annotation_ids: tuple[str, ...]


def _write_file(path: Union[str, Path], form: str, **columns) -> None:
    """One line: a JSON object of the format ``form``, the version, then
    ``columns``, arrays as lists and a dataclass as its fields."""
    def listed(value):
        return value.tolist() if isinstance(value, np.ndarray) else vars(value)

    # one-shot dumps runs json's C encoder; dump runs the pure-Python one
    payload = json.dumps({"format": form, "version": DATA_VERSION, **columns}, default=listed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")


def _read_file(path: Union[str, Path], form: str, cls: type, **parsers):
    """The ``cls`` of a file that :func:`_write_file` wrote in the format
    ``form``: its one line is read by :func:`typed_object` with
    ``parsers``, after the format and the version are checked. Any text
    but whitespace after it is an error."""
    with open(path, encoding="utf-8") as fh:
        payload = json.loads(fh.readline())
        if not isinstance(payload, dict) or payload.get("format") != form:
            raise ValueError(f"not a {form} file")
        if payload.get("version") != DATA_VERSION:
            raise ValueError(f"unsupported {form} version {payload.get('version')!r}")
        if fh.read().strip():
            raise ValueError(f"text after the {form} object")
    return typed_object(payload, cls, f"{path}: {form.removeprefix('pairsim-')}", **parsers)


def write_gold(gold: GoldTable, path: Union[str, Path]) -> None:
    """The :class:`_GoldFile` of ``gold``."""
    text = gold.text
    _write_file(
        path, GOLD_FORMAT, item_id=gold.item_id, vocab=text.vocab, codes=text.codes,
        offsets=text.offsets, p_gold=gold.p_gold, k_reference=gold.k_reference,
    )


@reads_file
def read_gold(path: Union[str, Path]) -> GoldTable:
    """The gold table of a :class:`_GoldFile`, which its constructor
    checks; a table of no items is an error."""
    file = _read_file(path, GOLD_FORMAT, _GoldFile)
    text = TextColumn(file.vocab, np.array(file.codes), np.array(file.offsets))
    k_reference = np.array(file.k_reference)
    if k_reference.dtype != np.int64:  # a value beyond int64: check the ints item by item
        k_reference = file.k_reference
    gold = GoldTable(file.item_id, text, np.array(file.p_gold), k_reference)
    if not len(gold):
        raise ValueError("gold table has no entries")
    return gold


def write_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """The :class:`_DatasetFile` of ``dataset``."""
    _write_file(path, DATASET_FORMAT, **{f.name: getattr(dataset, f.name) for f in fields(Dataset)})


def _file_meta(value, at: str) -> DatasetMeta:
    """A dataset file's meta, read at ``at``: the range errors of
    :class:`DatasetMeta`, which name a field, name its place too."""
    try:
        return typed_object(value, DatasetMeta, at)
    except ValueError as err:
        if at in str(err):
            raise
        raise ValueError(f"{at}.{err}") from None


@reads_file
def read_dataset(path: Union[str, Path]) -> Dataset:
    """The dataset of a :class:`_DatasetFile`, which its constructor
    checks; a dataset of no records is an error."""
    file = _read_file(path, DATASET_FORMAT, _DatasetFile, meta=_file_meta)
    dataset = Dataset(*(getattr(file, f.name) for f in fields(Dataset)))
    if not len(dataset):
        raise ValueError("dataset has no records")
    return dataset
