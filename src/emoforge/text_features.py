"""Transcript normalization and TFIDF vectors.

Weights follow the plain definition: raw term count times ln(N / df), no
smoothing, no stop words, unigrams only. Terms absent from the fitted
vocabulary are skipped at transform time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError

_NON_TOKEN = re.compile(r"[^a-z0-9']+")


def normalize_text(raw: str) -> list[str]:
    """Lowercase, strip everything outside [a-z0-9'], split on whitespace."""
    return [tok for tok in _NON_TOKEN.sub(" ", raw.lower()).split() if tok]


@dataclass(frozen=True)
class Vocabulary:
    """Term table: contiguous indices in first-appearance order plus document
    frequencies, with N the number of fitted documents."""

    terms: tuple[str, ...]
    document_frequencies: tuple[int, ...]
    n_documents: int

    def __post_init__(self):
        counts = (*self.document_frequencies, self.n_documents)
        if not all(type(t) is str for t in self.terms) or not all(type(c) is int for c in counts):
            raise ParameterError("terms must be strings, and frequencies and counts integers")
        if len(self.terms) != len(self.document_frequencies):
            raise ParameterError("terms and document frequencies must align")
        if len(set(self.terms)) != len(self.terms):
            raise ParameterError("terms must be distinct")
        if self.n_documents < 1 or any(df < 1 for df in self.document_frequencies):
            raise ParameterError("document count and frequencies must be >= 1")
        if any(df > self.n_documents for df in self.document_frequencies):
            raise ParameterError("document frequency cannot exceed document count")

    def __len__(self) -> int:
        return len(self.terms)

    def _index_map(self) -> dict[str, int]:
        cached = getattr(self, "_cached_index", None)
        if cached is None:
            cached = {t: i for i, t in enumerate(self.terms)}
            object.__setattr__(self, "_cached_index", cached)
        return cached

    def idf(self) -> np.ndarray:
        df = np.asarray(self.document_frequencies, dtype=np.float64)
        return np.log(self.n_documents / df)


def fit_vocabulary(corpus: list[list[str]]) -> Vocabulary:
    """Build a vocabulary over tokenized documents.

    Indices follow first appearance while scanning documents in order;
    document frequency counts documents containing a term at least once.
    """
    if not corpus:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    dfs: dict[str, int] = {}  # insertion order doubles as the index order
    for doc in corpus:
        seen = set()
        for tok in doc:
            if tok not in seen:
                seen.add(tok)
                dfs[tok] = dfs.get(tok, 0) + 1
    return Vocabulary(
        terms=tuple(dfs),
        document_frequencies=tuple(dfs.values()),
        n_documents=len(corpus),
    )


def tfidf_transform(doc: list[str], vocab: Vocabulary) -> np.ndarray:
    """Dense TFIDF vector for one tokenized document: ``tfidf_matrix``'s row."""
    return tfidf_matrix([doc], vocab)[0]


def tfidf_matrix(docs: list[list[str]], vocab: Vocabulary) -> np.ndarray:
    """Dense TFIDF matrix, a row per tokenized document and a column per
    term, filled in place: entry [n, i] = count(term_i in docs[n]) *
    ln(N / df(term_i)); out-of-vocabulary tokens contribute nothing."""
    out = np.zeros((len(docs), len(vocab)), dtype=np.float64)
    index = vocab._index_map()
    for row, doc in enumerate(docs):
        for tok in doc:
            i = index.get(tok)
            if i is not None:
                out[row, i] += 1.0
    out *= vocab.idf()
    return out


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write ``N=<count>`` then tab-separated ``term<TAB>df`` lines by index."""
    for term in vocab.terms:
        if "\t" in term or "\n" in term:
            raise ParameterError(f"term not serializable: {term!r}")
    lines = [f"N={vocab.n_documents}"]
    lines.extend(f"{t}\t{df}" for t, df in zip(vocab.terms, vocab.document_frequencies))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a ``save_vocabulary`` file; raise DataError for anything else."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read vocabulary {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: vocabulary is not UTF-8 text ({exc})") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or not lines[0].startswith("N="):
        raise DataError(f"{path}: missing N= header")
    terms: list[str] = []
    dfs: list[int] = []
    try:
        n_documents = int(lines[0][2:])
        for ln in lines[1:]:
            term, tab, df = ln.partition("\t")
            if not tab:
                raise DataError(f"{path}: malformed vocabulary line {ln!r}")
            terms.append(term)
            dfs.append(int(df))
    except ValueError as exc:
        raise DataError(f"{path}: non-integer document count or frequency ({exc})") from exc
    try:
        return Vocabulary(terms=tuple(terms), document_frequencies=tuple(dfs),
                          n_documents=n_documents)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc
