"""Text vectorization: tokenizing, POS tagging, pattern n-grams and binary bag-of-words.

Two vocabulary modes are supported: plain unigrams, and unigrams plus
n-grams whose part-of-speech tag sequence matches one of a fixed set of
patterns (e.g. ADJ-NOUN).  Captions are encoded as sparse binary vectors
over the vocabulary.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .atomic import atomic_write

MODE_UNIGRAM = "unigram"
MODE_NGRAM = "ngram"
MODES = (MODE_UNIGRAM, MODE_NGRAM)

POS_TAGS = frozenset({"NOUN", "VERB", "ADJ", "PRT", "NUM", "OTHER"})

# Contiguous tag sequences that qualify a token window as an n-gram term.
NGRAM_PATTERNS: tuple[tuple[str, ...], ...] = (
    ("NOUN", "VERB"),
    ("NOUN", "VERB", "VERB"),
    ("ADJ", "NOUN"),
    ("VERB", "PRT"),
    ("VERB", "VERB"),
    ("NUM", "NOUN"),
    ("NOUN", "NOUN"),
)

# NGRAM_PATTERNS by first tag, each group in NGRAM_PATTERNS order.
_PATTERNS_BY_FIRST_TAG = {p[0]: tuple(q for q in NGRAM_PATTERNS if q[0] == p[0])
                          for p in NGRAM_PATTERNS}

NGRAM_JOINER = "_"

DEFAULT_MIN_CAPTION_FREQ_UNIGRAM = 5
DEFAULT_MIN_CAPTION_FREQ_NGRAM = 10

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
# The terms that tokenize and extract_ngrams can produce, and those of each mode.
# Each term is matched on its own: one match of all the terms joined would grow
# the regex engine's backtracking stack to about 3 MB at 10k terms.
_UNIGRAM = re.compile(r"[a-z0-9]+")
_TERM = re.compile(rf"{_UNIGRAM.pattern}(?:_{_UNIGRAM.pattern})*")
_MODE_TERM = {MODE_UNIGRAM: _UNIGRAM, MODE_NGRAM: _TERM}


@dataclass(frozen=True)
class BowVector:
    """Sparse binary vector: the sorted indices of active vocabulary terms."""

    dim: int
    on_indices: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 or i >= self.dim for i in self.on_indices):
            raise ValueError("bag-of-words index out of range")
        if list(self.on_indices) != sorted(set(self.on_indices)):
            raise ValueError("on_indices must be sorted and unique")


def tokenize(text: str) -> list[str]:
    """Lowercase, then split on every run of characters outside ASCII a-z and 0-9."""
    parts = _TOKEN_SPLIT.split(text.lower())
    return [p for p in parts if p]


def load_lexicon(path) -> dict[str, str]:
    """Read a ``word<TAB>TAG`` lexicon file into a dict."""
    lexicon: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, tag = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'word<TAB>TAG', got {line!r}")
            if tag not in POS_TAGS:
                raise ValueError(f"{path}:{lineno}: unknown tag {tag!r}")
            lexicon[word] = tag
    return lexicon


@lru_cache(maxsize=1)
def default_lexicon() -> dict[str, str]:
    """The bundled most-frequent-tag lexicon."""
    with resources.as_file(resources.files("text2vis") / "lexicon.tsv") as path:
        return load_lexicon(path)


def pos_tag(tokens: Sequence[str]) -> list[str]:
    """Each token's coarse tag by lookup in the bundled lexicon; unknown words get OTHER.

    Tokens made of digits only are tagged NUM.
    """
    lexicon = default_lexicon()
    return ["NUM" if tok.isdigit() else lexicon.get(tok, "OTHER") for tok in tokens]


def extract_ngrams(tokens: Sequence[str], tags: Sequence[str]) -> list[str]:
    """All (possibly overlapping) token windows whose tags match one of
    NGRAM_PATTERNS; tags[i] is the tag of tokens[i].

    Each match is emitted as the tokens joined with underscores, in scan order.
    """
    if len(tags) != len(tokens):
        raise ValueError(f"{len(tags)} tags for {len(tokens)} tokens")
    out = []
    for start, tag in enumerate(tags):
        for pattern in _PATTERNS_BY_FIRST_TAG.get(tag, ()):
            end = start + len(pattern)
            if end <= len(tags) and tuple(tags[start:end]) == pattern:
                out.append(NGRAM_JOINER.join(tokens[start:end]))
    return out


def caption_terms(tokens: Sequence[str], mode: str) -> list[str]:
    """The terms a caption contributes: unigrams, plus pattern n-grams in ngram mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    terms = list(tokens)
    if mode == MODE_NGRAM:
        terms.extend(extract_ngrams(tokens, pos_tag(tokens)))
    return terms


def _term_problem(terms: list[str], mode: str) -> tuple[int, str] | None:
    """(index, reason) of the first term that a caption tokenized under mode
    cannot produce, or that repeats an earlier term; None if there is none.
    A term's index is its line in a saved vocabulary, counted from 0."""
    if all(map(_MODE_TERM[mode].fullmatch, terms)) and len(set(terms)) == len(terms):
        return None
    first: dict[str, int] = {}
    for i, term in enumerate(terms):
        if not term:  # a skipped line would shift every later term's index
            return i, "empty term"
        if not _TERM.fullmatch(term):
            return i, f"term {term!r} cannot come from a tokenized caption"
        if mode == MODE_UNIGRAM and NGRAM_JOINER in term:
            return i, f"term {term!r} is an n-gram, which a unigram vocabulary cannot hold"
        if first.setdefault(term, i) != i:
            return i, (f"term {term!r} repeats line {first[term] + 1}; "
                       "vocabulary terms must be unique")
    return None


class Vocabulary:
    """Immutable term -> index map over unigrams and (optionally) pattern n-grams.

    Every term must be one that a caption tokenized under the mode can
    produce, and no term may repeat; so each vocabulary that can be built
    saves to a file that loads back to the same terms and encodings.
    """

    def __init__(self, terms: Sequence[str], mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("vocabulary is empty")
        problem = _term_problem(self.terms, mode)
        if problem is not None:
            raise ValueError(problem[1])
        self.index = {term: i for i, term in enumerate(self.terms)}
        self.mode = mode

    def __len__(self) -> int:
        return len(self.terms)

    def encode_terms(self, terms: Iterable[str]) -> BowVector:
        """Binary encoding of the given terms; out-of-vocabulary terms are dropped."""
        hits = {self.index[t] for t in terms if t in self.index}
        return BowVector(dim=len(self.terms), on_indices=tuple(sorted(hits)))

    def encode_text(self, text: str) -> BowVector:
        """Tokenize a raw caption and encode it under this vocabulary's mode."""
        return self.encode_terms(caption_terms(tokenize(text), self.mode))

    def save(self, path) -> None:
        """One term per line; the line number is the term's index."""
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for term in self.terms:
                fh.write(term + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Load a saved vocabulary of distinct terms a caption can produce; the mode is inferred."""
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        terms = text.removesuffix("\n").split("\n") if text else []
        # The tokenizer strips underscores, so only joined n-grams contain them.
        mode = MODE_NGRAM if any(NGRAM_JOINER in t for t in terms) else MODE_UNIGRAM
        try:
            return cls(terms, mode)
        except ValueError:
            problem = _term_problem(terms, mode)
            if problem is None:
                raise
            raise ValueError(f"{path}:{problem[0] + 1}: {problem[1]}") from None


def build_vocabulary(corpus: Iterable[Sequence[str]], mode: str,
                     min_caption_freq_unigram: int = DEFAULT_MIN_CAPTION_FREQ_UNIGRAM,
                     min_caption_freq_ngram: int = DEFAULT_MIN_CAPTION_FREQ_NGRAM) -> Vocabulary:
    """Build a vocabulary from tokenized captions by caption-frequency thresholding.

    A term's caption frequency is the number of distinct captions containing it.
    In unigram mode, unigrams with frequency >= min_caption_freq_unigram are
    kept.  In ngram mode, unigrams and pattern n-grams alike are kept at
    frequency >= min_caption_freq_ngram.  Terms are ordered lexicographically,
    so the construction is deterministic.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    caption_freq: Counter[str] = Counter()
    n_captions = 0
    for tokens in corpus:
        n_captions += 1
        caption_freq.update(set(caption_terms(tokens, mode)))
    if n_captions == 0:
        raise ValueError("corpus is empty")

    threshold = min_caption_freq_unigram if mode == MODE_UNIGRAM else min_caption_freq_ngram
    kept = sorted(t for t, c in caption_freq.items() if c >= threshold)
    if not kept:
        raise ValueError(
            f"no term appears in at least {threshold} captions; vocabulary is empty")
    return Vocabulary(kept, mode)
