import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoforge.errors import DataError, ParameterError
from emoforge.text_features import (
    Vocabulary,
    fit_vocabulary,
    load_vocabulary,
    normalize_text,
    save_vocabulary,
    tfidf_matrix,
    tfidf_transform,
)


def test_normalize_strips_symbols_and_lowercases():
    assert normalize_text("This is AWESOME!!") == ["this", "is", "awesome"]


def test_normalize_empty():
    assert normalize_text("") == []
    assert normalize_text("  \t\n ") == []


def test_normalize_keeps_apostrophes():
    assert normalize_text("don't stop") == ["don't", "stop"]


def test_normalize_digits_and_punctuation():
    assert normalize_text("Call 911, now-ish?") == ["call", "911", "now", "ish"]


def test_fit_vocabulary_counts_documents_not_tokens():
    vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
    assert vocab.n_documents == 2
    assert vocab.terms == ("a", "b", "c")
    assert vocab.document_frequencies == (1, 2, 1)
    single = fit_vocabulary([["a", "a", "a"]])
    assert single.document_frequencies == (1,)


def test_fit_vocabulary_first_appearance_order_deterministic():
    corpus = [["zebra", "apple"], ["apple", "mango", "zebra"]]
    v1 = fit_vocabulary(corpus)
    v2 = fit_vocabulary(corpus)
    assert v1.terms == v2.terms == ("zebra", "apple", "mango")


def test_fit_vocabulary_empty_corpus():
    with pytest.raises(DataError):
        fit_vocabulary([])


def test_tfidf_hand_computed():
    vocab = fit_vocabulary([["a", "b"], ["b", "c"]])
    vec = tfidf_transform(["a", "a", "b"], vocab)
    assert vec[0] == pytest.approx(2 * math.log(2), abs=1e-12)
    assert vec[1] == 0.0  # df == N
    assert vec[2] == 0.0  # absent from doc


def test_tfidf_oov_only_doc_is_zero():
    vocab = fit_vocabulary([["a"], ["b"]])
    assert np.array_equal(tfidf_transform(["zzz", "qqq"], vocab), np.zeros(2))


def test_tfidf_term_in_every_document_is_zero():
    vocab = fit_vocabulary([["the", "a"], ["the", "b"], ["the", "c"]])
    vec = tfidf_transform(["the"] * 50, vocab)
    assert vec[vocab.terms.index("the")] == 0.0


def test_tfidf_linear_in_term_frequency():
    vocab = fit_vocabulary([["x", "y"], ["y"]])
    one = tfidf_transform(["x"], vocab)
    two = tfidf_transform(["x", "x"], vocab)
    assert np.allclose(two, 2 * one)


def test_tfidf_nonnegative_and_zero_iff():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(30)]
    corpus = [[words[int(j)] for j in rng.integers(0, 30, size=8)] for _ in range(20)]
    vocab = fit_vocabulary(corpus)
    matrix = tfidf_matrix(corpus, vocab)
    assert (matrix >= 0).all()
    idf = vocab.idf()
    for i, doc in enumerate(corpus):
        for term in set(doc):
            j = vocab.terms.index(term)
            if vocab.document_frequencies[j] < vocab.n_documents:
                assert matrix[i, j] > 0
            else:
                assert matrix[i, j] == 0


def _tfidf_rows(docs, vocab):
    """The per-document definition: each document's term counts times ln(N / df)."""
    idf = np.log(vocab.n_documents / np.asarray(vocab.document_frequencies, dtype=np.float64))
    index = {term: i for i, term in enumerate(vocab.terms)}
    rows = []
    for doc in docs:
        counts = np.zeros(len(vocab))
        for tok in doc:
            if tok in index:
                counts[index[tok]] += 1.0
        rows.append(counts * idf)
    return np.vstack(rows)


def test_tfidf_matrix_is_the_per_document_rows_in_one_buffer():
    # Zipfian documents: a few terms occur in most of them, most terms in few
    rng = np.random.default_rng(3)
    corpus = [[f"w{k % 2000}" for k in rng.zipf(1.3, size=10)] for _ in range(600)]
    vocab = fit_vocabulary(corpus)
    docs = [*corpus, ["unseen", "w1"], []]
    matrix = tfidf_matrix(docs, vocab)
    assert matrix.tobytes() == _tfidf_rows(docs, vocab).tobytes()
    assert tfidf_transform(docs[0], vocab).tobytes() == matrix[0].tobytes()
    tracemalloc.start()
    try:
        tfidf_matrix(docs, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result itself, with no copy of its rows beside it
    assert peak <= 1.2 * matrix.nbytes


def test_tfidf_over_an_empty_vocabulary_has_no_column():
    vocab = Vocabulary(terms=(), document_frequencies=(), n_documents=2)
    assert tfidf_matrix([["a"], []], vocab).shape == (2, 0)
    assert tfidf_transform(["a"], vocab).shape == (0,)


def test_vocabulary_serialization_roundtrip(tmp_path):
    vocab = fit_vocabulary([["don't", "stop", "me"], ["stop", "now"]])
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    text = path.read_text()
    assert text.startswith("N=2\n")
    assert "don't\t1" in text
    loaded = load_vocabulary(path)
    assert loaded == vocab


@pytest.mark.parametrize("text", ["N=abc\nhello\t1\n", "N=3\nhello\tx\n"],
                         ids=["count", "frequency"])
def test_load_vocabulary_non_integer_is_data_error(tmp_path, text):
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError):
        load_vocabulary(path)


@pytest.mark.parametrize("data", [b"N=2\ncaf\xe9\t1\n", b"N=1\nhello\t2\n", b"N=1\nhello\t0\n",
                                  b"N=2\nhello\t1\nhello\t2\n", b"N=0\n", b"N=-3\n"],
                         ids=["latin1-byte", "df-above-count", "df-zero", "duplicate-term",
                              "no-documents", "negative-documents"])
def test_load_vocabulary_bad_file_is_data_error(tmp_path, data):
    path = tmp_path / "vocab.tsv"
    path.write_bytes(data)
    with pytest.raises(DataError):
        load_vocabulary(path)
    with pytest.raises(DataError):
        load_vocabulary(tmp_path / "missing.tsv")


@st.composite
def _mutated_vocabulary(draw):
    """A saved vocabulary with lines replaced by drawn bytes or numbers and
    single bytes replaced."""
    lines = [b"N=3", b"hello\t2", b"don't\t1", b"stop\t3"]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        number = str(draw(st.integers(-2, 5))).encode()
        lines[at] = draw(st.sampled_from([b"N=" + number, b"stop\t" + number, b"\t" + number]) |
                         st.binary(max_size=10))
    data = bytearray(b"\n".join(lines) + b"\n")
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=_mutated_vocabulary())
def test_mutated_vocabulary_raises_only_data_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-vocab.tsv"
    path.write_bytes(data)
    try:
        vocab = load_vocabulary(path)
    except DataError:
        return
    assert np.isfinite(tfidf_transform(["hello", "stop"], vocab)).all()


def test_vocabulary_invariant_validation():
    with pytest.raises(ParameterError):
        Vocabulary(terms=("a",), document_frequencies=(0,), n_documents=1)
    with pytest.raises(ParameterError):
        Vocabulary(terms=("a",), document_frequencies=(3,), n_documents=2)
    with pytest.raises(ParameterError):
        Vocabulary(terms=("a", "a"), document_frequencies=(1, 1), n_documents=2)
