from __future__ import annotations

import re
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from text2vis import textvec
from text2vis.textvec import (BowVector, Vocabulary, build_vocabulary,
                              caption_terms, extract_ngrams,
                              load_lexicon, pos_tag, tokenize)


class TestTokenize:
    def test_basic_caption(self):
        assert tokenize("A woman cutting a pizza.") == \
            ["a", "woman", "cutting", "a", "pizza"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_becomes_separator(self):
        assert tokenize("Stop-sign, red!") == ["stop", "sign", "red"]

    def test_digits_survive(self):
        assert tokenize("2 dogs") == ["2", "dogs"]

    def test_only_ascii_letters_and_digits_survive(self):
        # lowercased non-ASCII letters and underscores split like punctuation
        assert tokenize("Café Über naïve 3rd") == ["caf", "ber", "na", "ve", "3rd"]
        assert tokenize("snake_case ÉCOLE") == ["snake", "case", "cole"]

    def test_tokens_carry_no_pos(self):
        assert all(type(t) is str for t in tokenize("a dog"))  # plain words, no tag


class TestPosTag:
    def test_lexicon_lookup(self):
        assert pos_tag(tokenize("woman cutting pizza")) == ["NOUN", "VERB", "NOUN"]

    def test_empty(self):
        assert pos_tag([]) == []

    def test_number_word(self):
        assert pos_tag(tokenize("two dogs")) == ["NUM", "NOUN"]

    def test_unknown_word_gets_other(self):
        assert pos_tag(["zzyzxq"]) == ["OTHER"]

    def test_digit_token_gets_num(self):
        assert pos_tag(["42"]) == ["NUM"]


class TestLexiconFile:
    def test_roundtrip_format(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\tNOUN\nruns\tVERB\n", encoding="utf-8")
        assert load_lexicon(path) == {"dog": "NOUN", "runs": "VERB"}

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\tDOGGO\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown tag"):
            load_lexicon(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog NOUN\n", encoding="utf-8")
        with pytest.raises(ValueError, match="word<TAB>TAG"):
            load_lexicon(path)


def tagged(*pairs):
    """(tokens, tags) from (token, tag) pairs."""
    return [s for s, _ in pairs], [p for _, p in pairs]


class TestExtractNgrams:
    def test_noun_verb(self):
        assert extract_ngrams(*tagged(("woman", "NOUN"), ("cutting", "VERB"))) == \
            ["woman_cutting"]

    def test_adj_noun_only(self):
        toks = tagged(("red", "ADJ"), ("sign", "NOUN"), ("two", "NUM"))
        assert extract_ngrams(*toks) == ["red_sign"]

    def test_no_match(self):
        assert extract_ngrams(*tagged(("a", "OTHER"), ("a", "OTHER"))) == []

    def test_all_patterns_fire(self):
        cases = {
            ("NOUN", "VERB"): "a_b",
            ("NOUN", "VERB", "VERB"): "a_b_c",
            ("ADJ", "NOUN"): "a_b",
            ("VERB", "PRT"): "a_b",
            ("VERB", "VERB"): "a_b",
            ("NUM", "NOUN"): "a_b",
            ("NOUN", "NOUN"): "a_b",
        }
        for pattern, expect in cases.items():
            toks = tagged(*zip("abc", pattern))
            assert expect in extract_ngrams(*toks), pattern

    def test_overlapping_windows(self):
        # NOUN VERB VERB matches NOUN-VERB, NOUN-VERB-VERB and VERB-VERB
        toks = tagged(("dog", "NOUN"), ("sits", "VERB"), ("staring", "VERB"))
        assert sorted(extract_ngrams(*toks)) == \
            ["dog_sits", "dog_sits_staring", "sits_staring"]

    @pytest.mark.parametrize("n_tags", [1, 3])
    def test_length_mismatch_rejected(self, n_tags):
        with pytest.raises(ValueError, match=f"{n_tags} tags for 2 tokens"):
            extract_ngrams(["dog", "sits"], ["NOUN", "VERB", "VERB"][:n_tags])

    @given(st.lists(st.sampled_from(["NOUN", "VERB", "ADJ", "PRT", "NUM", "OTHER"]),
                    max_size=12))
    def test_count_bound(self, tags):
        toks = [f"w{i}" for i in range(len(tags))]
        bound = max(0, len(tags) - 1) * len(textvec.NGRAM_PATTERNS)
        assert len(extract_ngrams(toks, tags)) <= bound


def scan_every_pattern(tokens, tags):
    """Reference extract_ngrams: every pattern tried at every start."""
    out = []
    for start in range(len(tokens)):
        for pattern in textvec.NGRAM_PATTERNS:
            end = start + len(pattern)
            if end <= len(tokens) and tuple(tags[start:end]) == pattern:
                out.append(textvec.NGRAM_JOINER.join(tokens[start:end]))
    return out


class TestExtractNgramsMatchesFullScan:
    """extract_ngrams tries only the patterns that begin with the current tag;
    its output, order included, must be that of trying every pattern."""

    @given(st.lists(st.tuples(st.sampled_from(["dog", "sits", "red", "up", "2"]),
                              st.sampled_from(sorted(textvec.POS_TAGS))), max_size=30))
    def test_random_tag_sequences(self, pairs):
        toks = tagged(*pairs)
        assert extract_ngrams(*toks) == scan_every_pattern(*toks)

    def test_synthetic_captions(self, synth_default):
        images, _ = synth_default
        for img in images[:300]:
            for caption in img.captions:
                tokens = tokenize(caption)
                tags = pos_tag(tokens)
                assert extract_ngrams(tokens, tags) == scan_every_pattern(tokens, tags)


# A reference pipeline with one object per word: a token carries its surface
# and, once tagged, its POS tag.  caption_terms over plain strings must give
# the same terms, in the same order.

@dataclass(frozen=True)
class _RefToken:
    surface: str
    pos: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.pos is not None and self.pos not in textvec.POS_TAGS:
            raise ValueError(f"unknown POS tag {self.pos!r}")


def _ref_tokenize(text):
    parts = re.split(r"[^a-z0-9]+", text.lower())
    return [_RefToken(p) for p in parts if p]


def _ref_pos_tag(tokens, lexicon=None):
    if lexicon is None:
        lexicon = textvec.default_lexicon()
    tagged_tokens = []
    for tok in tokens:
        if tok.surface.isdigit():
            tag = "NUM"
        else:
            tag = lexicon.get(tok.surface, "OTHER")
        tagged_tokens.append(_RefToken(tok.surface, tag))
    return tagged_tokens


def _ref_extract_ngrams(tagged_tokens):
    tags = [t.pos for t in tagged_tokens]
    if any(tag is None for tag in tags):
        raise ValueError("extract_ngrams requires POS-tagged tokens")
    out = []
    for start, tag in enumerate(tags):
        for pattern in textvec.NGRAM_PATTERNS:
            if pattern[0] != tag:
                continue
            end = start + len(pattern)
            if end <= len(tagged_tokens) and tuple(tags[start:end]) == pattern:
                out.append(textvec.NGRAM_JOINER.join(
                    t.surface for t in tagged_tokens[start:end]))
    return out


def _ref_caption_terms(tokens, mode, lexicon=None):
    if mode not in textvec.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    terms = [t.surface for t in tokens]
    if mode == textvec.MODE_NGRAM:
        if any(t.pos is None for t in tokens):
            tokens = _ref_pos_tag(tokens, lexicon)
        terms.extend(_ref_extract_ngrams(tokens))
    return terms


_LEXICON_WORDS = sorted(textvec.default_lexicon())

# Caption-like text: lexicon words, numbers and punctuation, in any case.
_captions = st.lists(
    st.one_of(st.sampled_from(_LEXICON_WORDS),
              st.sampled_from(_LEXICON_WORDS).map(str.upper),
              st.integers(min_value=0, max_value=10**6).map(str),
              st.sampled_from([" ", " ", ".", ",", "-", "_", "!", "'", "/", " 2 "])),
    max_size=40).map("".join)


class TestCaptionTermsMatchTokenObjects:
    """caption_terms over plain-string tokens equals the one-object-per-word
    reference pipeline, in both modes."""

    @pytest.mark.parametrize("mode", textvec.MODES)
    def test_default_synthetic_captions(self, synth_default, mode):
        images, _ = synth_default
        captions = [c for img in images for c in img.captions]
        assert len(captions) == 10_000
        for caption in captions:
            assert caption_terms(tokenize(caption), mode) == \
                _ref_caption_terms(_ref_tokenize(caption), mode)

    @pytest.mark.parametrize("mode", textvec.MODES)
    @settings(max_examples=300)
    @given(text=_captions)
    def test_random_text(self, mode, text):
        assert tokenize(text) == [t.surface for t in _ref_tokenize(text)]
        assert caption_terms(tokenize(text), mode) == \
            _ref_caption_terms(_ref_tokenize(text), mode)


def corpus_of(*captions):
    return [tokenize(c) for c in captions]


class TestBuildVocabulary:
    def test_threshold_boundary(self):
        captions = ["pizza here"] * 4 + ["pizza zebra"] + ["zebra there"] * 3
        vocab = build_vocabulary(corpus_of(*captions), textvec.MODE_UNIGRAM,
                                 min_caption_freq_unigram=5)
        assert "pizza" in vocab.index  # 5 captions
        assert "zebra" not in vocab.index  # 4 captions

    def test_caption_frequency_not_occurrences(self):
        # one caption repeating a word three times still counts once
        vocab_corpus = corpus_of("dog dog dog", "dog runs")
        vocab = build_vocabulary(vocab_corpus, textvec.MODE_UNIGRAM,
                                 min_caption_freq_unigram=2)
        assert "dog" in vocab.index and "runs" not in vocab.index

    def test_lexicographic_order(self):
        vocab = build_vocabulary(corpus_of("b a c", "c a b"), textvec.MODE_UNIGRAM,
                                 min_caption_freq_unigram=2)
        assert vocab.terms == sorted(vocab.terms)

    def test_deterministic(self):
        caps = ["red sign here", "red sign there", "dog runs fast"] * 3
        v1 = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM,
                              min_caption_freq_ngram=2)
        v2 = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM,
                              min_caption_freq_ngram=2)
        assert v1.terms == v2.terms

    def test_ngram_mode_keeps_both_kinds(self):
        caps = ["red sign"] * 10
        vocab = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM)
        assert "red" in vocab.index and "sign" in vocab.index and "red_sign" in vocab.index

    def test_ngram_threshold_applies_to_unigrams_too(self):
        caps = ["red sign"] * 10 + ["zebra walks"] * 9
        vocab = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM,
                                 min_caption_freq_ngram=10)
        assert "zebra" not in vocab.index

    def test_ngram_superset_at_equal_thresholds(self):
        caps = ["red sign stands there", "two dogs walking out"] * 6
        uni = build_vocabulary(corpus_of(*caps), textvec.MODE_UNIGRAM,
                               min_caption_freq_unigram=3)
        ng = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM,
                              min_caption_freq_ngram=3)
        assert set(uni.terms) <= set(ng.terms)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocabulary(corpus_of("one off caption"), textvec.MODE_UNIGRAM)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocabulary([], textvec.MODE_UNIGRAM)

    @given(st.integers(min_value=1, max_value=3))
    def test_threshold_monotonicity(self, threshold):
        caps = ["dog runs", "dog sits", "cat sits", "bird flies", "dog naps"]
        lo = build_vocabulary(corpus_of(*caps), textvec.MODE_UNIGRAM,
                              min_caption_freq_unigram=threshold)
        try:
            hi = build_vocabulary(corpus_of(*caps), textvec.MODE_UNIGRAM,
                                  min_caption_freq_unigram=threshold + 1)
            assert set(hi.terms) <= set(lo.terms)
        except ValueError:
            pass  # raising the threshold may empty the vocabulary entirely


class TestEncodeBow:
    """Vocabulary.encode_terms: terms to a binary bag-of-words vector."""

    @pytest.fixture
    def vocab(self):
        return Vocabulary(["a", "cat", "dog"], textvec.MODE_UNIGRAM)

    def test_direct(self, vocab):
        assert vocab.encode_terms(["a", "dog"]).on_indices == (0, 2)

    def test_all_oov(self, vocab):
        assert vocab.encode_terms(["unicorn"]).on_indices == ()

    def test_binary_not_counts(self, vocab):
        assert vocab.encode_terms(["dog", "dog"]).on_indices == (2,)

    def test_encode_text_pipeline(self, vocab):
        assert vocab.encode_text("A dog!").on_indices == (0, 2)

    @given(st.lists(st.sampled_from(["a", "cat", "dog", "pony", "x"]), max_size=8))
    def test_indices_sorted_and_in_range(self, terms):
        bow = Vocabulary(["a", "cat", "dog"], textvec.MODE_UNIGRAM).encode_terms(terms)
        assert list(bow.on_indices) == sorted(set(bow.on_indices))
        assert all(0 <= i < bow.dim for i in bow.on_indices)


class TestVocabularyObject:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(["a", "a"], textvec.MODE_UNIGRAM)

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary(["cat", "dog", "red_sign"], textvec.MODE_NGRAM)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.terms == vocab.terms
        assert loaded.mode == textvec.MODE_NGRAM  # inferred from the joined term

    def test_mode_inferred_unigram(self, tmp_path):
        path = tmp_path / "vocab.txt"
        Vocabulary(["cat", "dog"], textvec.MODE_UNIGRAM).save(path)
        assert Vocabulary.load(path).mode == textvec.MODE_UNIGRAM

    def test_line_number_is_index(self, tmp_path):
        path = tmp_path / "vocab.txt"
        Vocabulary(["cat", "dog"], textvec.MODE_UNIGRAM).save(path)
        assert path.read_text(encoding="utf-8") == "cat\ndog\n"

    def test_empty_line_rejected(self, tmp_path):
        # skipping it would load "dog" at index 1, against the checkpoint's row 2
        path = tmp_path / "vocab.txt"
        path.write_text("cat\n\ndog\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"vocab\.txt:2: empty term"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("text, line, term", [
        ("\ufeffdog\ncat\n", 1, "\ufeffdog"),  # a UTF-8 byte order mark
        ("cat\ndog \n", 2, "dog "),
        ("cat\nDog\n", 2, "Dog"),
        ("cat\nred__bus\n", 2, "red__bus"),
        ("cat\n_dog\n", 2, "_dog"),
        ("cat\ndog\tNOUN\n", 2, "dog\tNOUN"),
    ])
    def test_term_a_caption_cannot_produce_rejected(self, tmp_path, text, line, term):
        # such a term can never be active: its dimension would be dead
        path = tmp_path / "vocab.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            Vocabulary.load(path)
        assert str(err.value) == (f"{path}:{line}: term {term!r} cannot come from a "
                                  "tokenized caption")
        for mode in textvec.MODES:  # the same rule, without a file to name
            with pytest.raises(ValueError) as err:
                Vocabulary(text.removesuffix("\n").split("\n"), mode)
            assert str(err.value) == f"term {term!r} cannot come from a tokenized caption"

    def test_duplicate_term_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("cat\ndog\nred_bus\ndog\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"vocab\.txt:4: term 'dog' repeats line 2; "
                                             r"vocabulary terms must be unique"):
            Vocabulary.load(path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.from_regex(r"[a-z0-9]{1,3}(_[a-z0-9]{1,3}){0,2}", fullmatch=True),
                              st.text(max_size=4)), min_size=1, max_size=5),
           st.sampled_from(textvec.MODES))
    @example(["Dog", "cat"], textvec.MODE_UNIGRAM)
    @example(["red_bus", "bus"], textvec.MODE_UNIGRAM)
    @example(["dog", "cat"], textvec.MODE_NGRAM)
    def test_every_accepted_vocabulary_round_trips(self, tmp_path_factory, terms, mode):
        try:
            vocab = Vocabulary(terms, mode)
        except ValueError:
            return
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.terms == vocab.terms
        captions = [" ".join(terms).replace("_", " "), "a dog", "Dog and red bus"]
        assert [loaded.encode_text(c) for c in captions] == [vocab.encode_text(c)
                                                             for c in captions]

    @pytest.mark.parametrize("final_newline", ["", "\n"])
    def test_crlf_loads_as_lf(self, tmp_path, final_newline):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(("cat\ndog\nred_bus" + final_newline).encode())
        crlf.write_bytes(("cat\r\ndog\r\nred_bus" + final_newline.replace("\n", "\r\n"))
                         .encode())
        assert Vocabulary.load(crlf).terms == Vocabulary.load(lf).terms == [
            "cat", "dog", "red_bus"]
        assert Vocabulary.load(crlf).mode == textvec.MODE_NGRAM

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["red ", "bus ", "dog ", "runs ", "two ", "3 ",
                                              "a", "Z", "_", "-", "\u00e9", "\t", "."]))
                    .map("".join), min_size=1, max_size=4))
    def test_every_term_a_caption_produces_loads(self, tmp_path_factory, captions):
        corpus = [tokenize(c) for c in captions]
        if not any(corpus):
            return
        vocab = build_vocabulary(corpus, textvec.MODE_NGRAM, min_caption_freq_ngram=1)
        path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path).terms == vocab.terms


class TestTypes:
    def test_bow_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BowVector(2, (0, 2))

    def test_bow_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BowVector(3, (2, 0))


def test_caption_terms_ngram_mode_tags_automatically():
    terms = caption_terms(tokenize("woman cutting pizza"), textvec.MODE_NGRAM)
    assert "woman" in terms and "woman_cutting" in terms and "cutting_pizza" not in terms
