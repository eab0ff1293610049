import pytest
from hypothesis import given, strategies as st

from text2vis import textvec
from text2vis.textvec import (BowVector, Token, Vocabulary, build_vocabulary,
                              caption_terms, extract_ngrams,
                              load_lexicon, pos_tag, tokenize)


def surfaces(tokens):
    return [t.surface for t in tokens]


class TestTokenize:
    def test_basic_caption(self):
        assert surfaces(tokenize("A woman cutting a pizza.")) == \
            ["a", "woman", "cutting", "a", "pizza"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_becomes_separator(self):
        assert surfaces(tokenize("Stop-sign, red!")) == ["stop", "sign", "red"]

    def test_digits_survive(self):
        assert surfaces(tokenize("2 dogs")) == ["2", "dogs"]

    def test_tokens_carry_no_pos(self):
        assert all(t.pos is None for t in tokenize("a dog"))


class TestPosTag:
    def test_lexicon_lookup(self):
        tags = [t.pos for t in pos_tag(tokenize("woman cutting pizza"))]
        assert tags == ["NOUN", "VERB", "NOUN"]

    def test_empty(self):
        assert pos_tag([]) == []

    def test_number_word(self):
        tags = [t.pos for t in pos_tag(tokenize("two dogs"))]
        assert tags == ["NUM", "NOUN"]

    def test_unknown_word_gets_other(self):
        (tok,) = pos_tag([Token("zzyzxq")])
        assert tok.pos == "OTHER"

    def test_digit_token_gets_num(self):
        (tok,) = pos_tag([Token("42")])
        assert tok.pos == "NUM"

    def test_custom_lexicon(self):
        (tok,) = pos_tag([Token("frobnicate")], lexicon={"frobnicate": "VERB"})
        assert tok.pos == "VERB"


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
    return [Token(s, p) for s, p in pairs]


class TestExtractNgrams:
    def test_noun_verb(self):
        assert extract_ngrams(tagged(("woman", "NOUN"), ("cutting", "VERB"))) == \
            ["woman_cutting"]

    def test_adj_noun_only(self):
        toks = tagged(("red", "ADJ"), ("sign", "NOUN"), ("two", "NUM"))
        assert extract_ngrams(toks) == ["red_sign"]

    def test_no_match(self):
        assert extract_ngrams(tagged(("a", "OTHER"), ("a", "OTHER"))) == []

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
            assert expect in extract_ngrams(toks), pattern

    def test_overlapping_windows(self):
        # NOUN VERB VERB matches NOUN-VERB, NOUN-VERB-VERB and VERB-VERB
        toks = tagged(("dog", "NOUN"), ("sits", "VERB"), ("staring", "VERB"))
        assert sorted(extract_ngrams(toks)) == \
            ["dog_sits", "dog_sits_staring", "sits_staring"]

    def test_untagged_rejected(self):
        with pytest.raises(ValueError, match="POS-tagged"):
            extract_ngrams([Token("dog")])

    @given(st.lists(st.sampled_from(["NOUN", "VERB", "ADJ", "PRT", "NUM", "OTHER"]),
                    max_size=12))
    def test_count_bound(self, tags):
        toks = [Token(f"w{i}", tag) for i, tag in enumerate(tags)]
        bound = max(0, len(tags) - 1) * len(textvec.NGRAM_PATTERNS)
        assert len(extract_ngrams(toks)) <= bound


def scan_every_pattern(tagged_tokens):
    """Reference extract_ngrams: every pattern tried at every start."""
    tags = [t.pos for t in tagged_tokens]
    out = []
    for start in range(len(tagged_tokens)):
        for pattern in textvec.NGRAM_PATTERNS:
            end = start + len(pattern)
            if end <= len(tagged_tokens) and tuple(tags[start:end]) == pattern:
                out.append(textvec.NGRAM_JOINER.join(t.surface
                                                     for t in tagged_tokens[start:end]))
    return out


class TestExtractNgramsMatchesFullScan:
    """extract_ngrams tries only the patterns that begin with the current tag;
    its output, order included, must be that of trying every pattern."""

    @given(st.lists(st.tuples(st.sampled_from(["dog", "sits", "red", "up", "2"]),
                              st.sampled_from(sorted(textvec.POS_TAGS))), max_size=30))
    def test_random_tag_sequences(self, pairs):
        toks = tagged(*pairs)
        assert extract_ngrams(toks) == scan_every_pattern(toks)

    def test_synthetic_captions(self, synth_default):
        images, _ = synth_default
        for img in images[:300]:
            for caption in img.captions:
                toks = pos_tag(tokenize(caption))
                assert extract_ngrams(toks) == scan_every_pattern(toks)


def corpus_of(*captions):
    return [tokenize(c) for c in captions]


class TestBuildVocabulary:
    def test_threshold_boundary(self):
        captions = ["pizza here"] * 4 + ["pizza zebra"] + ["zebra there"] * 3
        vocab = build_vocabulary(corpus_of(*captions), textvec.MODE_UNIGRAM,
                                 min_caption_freq_unigram=5)
        assert "pizza" in vocab  # 5 captions
        assert "zebra" not in vocab  # 4 captions

    def test_caption_frequency_not_occurrences(self):
        # one caption repeating a word three times still counts once
        vocab_corpus = corpus_of("dog dog dog", "dog runs")
        vocab = build_vocabulary(vocab_corpus, textvec.MODE_UNIGRAM,
                                 min_caption_freq_unigram=2)
        assert "dog" in vocab and "runs" not in vocab

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
        assert "red" in vocab and "sign" in vocab and "red_sign" in vocab

    def test_ngram_threshold_applies_to_unigrams_too(self):
        caps = ["red sign"] * 10 + ["zebra walks"] * 9
        vocab = build_vocabulary(corpus_of(*caps), textvec.MODE_NGRAM,
                                 min_caption_freq_ngram=10)
        assert "zebra" not in vocab

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


class TestTypes:
    def test_token_requires_surface(self):
        with pytest.raises(ValueError):
            Token("")

    def test_token_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            Token("dog", "WOOF")

    def test_bow_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BowVector(2, (0, 2))

    def test_bow_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BowVector(3, (2, 0))

    def test_bow_to_dense(self):
        dense = BowVector(4, (1, 3)).to_dense()
        assert dense.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_caption_terms_ngram_mode_tags_automatically():
    terms = caption_terms(tokenize("woman cutting pizza"), textvec.MODE_NGRAM)
    assert "woman" in terms and "woman_cutting" in terms and "cutting_pizza" not in terms
