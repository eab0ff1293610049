import csv
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from text2vis import evaluation, nn, textvec
from text2vis.data import CaptionedImage
from text2vis.evaluation import (EvalReport, Query, collection_queries, dcg, evaluate,
                                 lcs_length, predict_and_rank, rank_functions,
                                 relevance, rouge_l, rrank_ranking, vissim_ranking)
from text2vis.retrieval import build_index, query
from text2vis.textvec import BowVector, Vocabulary


class TestLcs:
    def test_identical(self):
        assert lcs_length("abc", "abc") == 3

    def test_empty(self):
        assert lcs_length("abc", "") == 0
        assert lcs_length("", "") == 0

    def test_caption_pair(self):
        a = ["a", "woman", "cuts", "pizza"]
        b = ["a", "woman", "cutting", "a", "pizza"]
        assert lcs_length(a, b) == 3

    def test_subsequence_not_substring(self):
        assert lcs_length(["x", "a", "y", "b", "z"], ["a", "b"]) == 2


class TestRougeL:
    def test_identical(self):
        assert rouge_l(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert rouge_l(["a"], ["b"]) == 0.0

    def test_empty_sides(self):
        assert rouge_l([], ["a"]) == 0.0
        assert rouge_l(["a"], []) == 0.0

    def test_hand_value(self):
        # LCS 3, recall 3/5, precision 3/4, beta 1.2
        got = rouge_l(["a", "woman", "cuts", "pizza"],
                      ["a", "woman", "cutting", "a", "pizza"], beta=1.2)
        r, p, b2 = 3 / 5, 3 / 4, 1.2**2
        assert got == pytest.approx((1 + b2) * r * p / (r + b2 * p), abs=1e-15)
        assert got == pytest.approx(0.6535714285714286, abs=1e-12)

    def test_asymmetric_for_beta_not_one(self):
        a, b = ["a", "b", "c", "d"], ["a", "b"]
        assert rouge_l(a, b, beta=1.2) != rouge_l(b, a, beta=1.2)
        assert rouge_l(a, b, beta=1.0) == pytest.approx(rouge_l(b, a, beta=1.0))

    def test_range(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdef")
        for _ in range(200):
            x = list(rng.choice(alphabet, size=rng.integers(0, 8)))
            y = list(rng.choice(alphabet, size=rng.integers(0, 8)))
            assert 0.0 <= rouge_l(x, y) <= 1.0


class TestRelevance:
    def test_exact_match_among_references(self):
        refs = [("a", "dog"), ("the", "cat", "sat")]
        assert relevance(("the", "cat", "sat"), refs) == 1.0

    def test_disjoint(self):
        assert relevance(("x",), [("a",), ("b",)]) == 0.0

    def test_max_of_two(self):
        refs = [("a", "b"), ("a", "b", "c")]
        q = ("a", "b", "c")
        assert relevance(q, refs) == max(rouge_l(q, refs[0]), rouge_l(q, refs[1]))

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError):
            relevance(("a",), [])


def dp_lcs_length(a, b):
    """Reference LCS length: the classic two-row dynamic programme."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def dp_relevance(query_tokens, reference_captions, beta):
    """Reference relevance: ROUGE-L on dp_lcs_length, in the float expression
    and evaluation order the scores have always had."""
    scores = []
    for ref in reference_captions:
        lcs = dp_lcs_length(query_tokens, ref)
        if lcs == 0:
            scores.append(0.0)
            continue
        recall = lcs / len(ref)
        precision = lcs / len(query_tokens)
        scores.append(((1 + beta**2) * recall * precision) / (recall + beta**2 * precision))
    return max(scores)


def token_lists(alphabet_size, max_size):
    return st.lists(st.integers(0, alphabet_size - 1).map(lambda i: f"t{i}"),
                    max_size=max_size)


class TestBitParallelLcsIsExact:
    """lcs_length and relevance run a bit-parallel LCS; each must equal the
    dynamic programme exactly, scores bit for bit."""

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(token_lists(k, 40),
                                                         token_lists(k, 40))))
    def test_small_alphabets_heavy_repetition(self, pair):
        a, b = pair
        assert lcs_length(a, b) == lcs_length(b, a) == dp_lcs_length(a, b)

    @given(token_lists(4, 200), token_lists(4, 200))
    def test_lengths_past_machine_words(self, a, b):
        assert lcs_length(a, b) == dp_lcs_length(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 300])
    def test_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = [f"t{i}" for i in rng.integers(0, 3, n)]
            b = [f"t{i}" for i in rng.integers(0, 3, int(rng.integers(0, 2 * n)))]
            assert lcs_length(a, b) == lcs_length(b, a) == dp_lcs_length(a, b)
        assert lcs_length(["x"] * n, ["x"] * n) == n
        assert lcs_length(["x"] * n, ["y"] * n) == 0

    @given(token_lists(5, 15))
    def test_empty_sides(self, a):
        assert lcs_length(a, []) == lcs_length([], a) == 0

    @pytest.mark.parametrize("beta", [1.0, 1.2, 3.0])
    @given(query=token_lists(6, 14),
           refs=st.lists(token_lists(6, 14), min_size=1, max_size=5))
    def test_relevance_bitwise(self, beta, query, refs):
        got = relevance(tuple(query), [tuple(r) for r in refs], beta)
        assert repr(got) == repr(dp_relevance(query, refs, beta))

    @given(token_lists(6, 14), token_lists(6, 14))
    def test_rouge_l_bitwise(self, a, b):
        assert repr(rouge_l(a, b)) == repr(dp_relevance(a, [b], 1.2))


class TestDcg:
    def test_all_zero(self):
        assert dcg([0.0, 0.0, 0.0]) == 0.0

    def test_single_one(self):
        assert dcg([1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        expect = 1.0 + (2**0.5 - 1) / math.log2(3)
        assert dcg([1.0, 0.5, 0.0], p=25) == pytest.approx(expect, abs=1e-12)
        assert dcg([1.0, 0.5, 0.0], p=25) == pytest.approx(1.26134, abs=1e-4)

    def test_cutoff(self):
        rels = [1.0] * 30
        assert dcg(rels, p=25) == pytest.approx(dcg(rels[:25], p=25))

    def test_bad_p(self):
        with pytest.raises(ValueError):
            dcg([1.0], p=0)

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=9), st.floats(min_value=0, max_value=1))
    def test_monotone_in_relevance(self, rels, pos, bump):
        pos = pos % len(rels)
        higher = list(rels)
        higher[pos] = min(1.0, higher[pos] + bump)
        assert dcg(higher, p=10) >= dcg(rels, p=10) - 1e-12

    def test_sorted_descending_is_maximal(self):
        rng = np.random.default_rng(1)
        for size in range(1, 6):
            rels = list(rng.uniform(0, 1, size))
            best = dcg(sorted(rels, reverse=True), p=size)
            assert all(dcg(list(p), p=size) <= best + 1e-12 for p in permutations(rels))

    def test_upper_bound(self):
        bound = sum(1 / math.log2(i + 1) for i in range(1, 26))
        rng = np.random.default_rng(2)
        for _ in range(50):
            rels = list(rng.uniform(0, 1, 25))
            assert 0.0 <= dcg(rels, p=25) <= bound + 1e-12


class TestRRank:
    def test_full_draw_is_permutation(self):
        ids = list(range(30))
        ranking = rrank_ranking(ids, np.random.default_rng(0), k=30)
        assert sorted(ranking.ids()) == ids

    def test_seed_reproducible(self):
        ids = list(range(50))
        a = rrank_ranking(ids, np.random.default_rng(7), k=10)
        b = rrank_ranking(ids, np.random.default_rng(7), k=10)
        assert a.ids() == b.ids()

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            rrank_ranking([1, 2], np.random.default_rng(0), k=3)

    def test_distances_are_monotone_placeholders(self):
        d = rrank_ranking(list(range(10)), np.random.default_rng(0), k=5).distances()
        assert d == sorted(d)


class TestVisSim:
    def test_wraps_query_with_exclusion(self):
        idx = build_index([1, 2, 3], np.array([[1.0, 0], [0.9, 0.1], [0, 1]]))
        feature = np.array([1.0, 0.0])
        got = vissim_ranking(idx, feature, query_image_id=1, k=3)
        direct = query(idx, feature, 3, exclude_id=1)
        assert got.ids() == direct.ids() and 1 not in got.ids()

    def test_without_exclusion_self_ranks_first(self):
        idx = build_index([1, 2], np.array([[1.0, 0], [0, 1]]))
        got = query(idx, np.array([1.0, 0.0]), 2)
        assert got.ids()[0] == 1 and got.distances()[0] == 0.0

    def test_none_keeps_self(self):
        idx = build_index([1, 2], np.array([[1.0, 0], [0, 1]]))
        got = vissim_ranking(idx, np.array([1.0, 0.0]), None, 2)
        assert got.ids() == query(idx, np.array([1.0, 0.0]), 2).ids() == [1, 2]


def one_hot_model(vocab=2, visual=2):
    """Input term i lights hidden unit i, which predicts visual unit i."""
    eye = np.eye(vocab, visual)
    return nn.Model(w_hid=np.eye(vocab), b_hid=np.zeros(vocab), w_txt=None, b_txt=None,
                    w_vis=eye.T.copy(), b_vis=np.zeros(visual))


class TestPredictAndRank:
    def setup_method(self):
        self.idx = build_index([30, 10, 20], np.array([[0.0, 1], [1, 0], [1, 1]]))

    def test_nonzero_prediction_is_exact_query(self):
        model = one_hot_model()
        got = predict_and_rank(model, BowVector(2, (0,)), self.idx, 3)
        want = query(self.idx, nn.forward(model, BowVector(2, (0,))).visual_pred, 3)
        assert got == want

    def test_zero_prediction_ties_every_candidate(self):
        got = predict_and_rank(one_hot_model(), BowVector(2, ()), self.idx, 5)
        assert got.ids() == [10, 20, 30] and got.distances() == [1.0, 1.0, 1.0]

    def test_zero_prediction_respects_k(self):
        # exclusion from a zero query: tests/test_retrieval.py's zero-query test
        got = predict_and_rank(one_hot_model(), BowVector(2, ()), self.idx, 1)
        assert got.ids() == [10]

    def test_zero_prediction_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be"):
            predict_and_rank(one_hot_model(), BowVector(2, ()), self.idx, 0)


class TestRankFunctions:
    def setup_method(self):
        self.collection = [
            CaptionedImage(1, ["a red bus", "a bus"], np.array([1.0, 0.0])),
            CaptionedImage(2, ["a blue car"], np.array([0.9, 0.1])),
            CaptionedImage(3, ["green car"], np.array([0.0, 1.0]))]
        self.vocab = Vocabulary(["bus", "car"], "unigram")

    def rank(self, names, **kw):
        return rank_functions(names, self.collection, self.vocab,
                              lambda name: one_hot_model(), p=3, **kw)

    def test_queries_are_first_captions(self):
        queries, toks = collection_queries(self.collection)
        assert [(q.image_id, q.tokens) for q in queries] == [
            (1, ("a", "red", "bus")), (2, ("a", "blue", "car")), (3, ("green", "car"))]
        assert toks[1] == [("a", "red", "bus"), ("a", "bus")]

    def test_methods_in_requested_order(self):
        assert list(self.rank(["rrank", "vissim", "text2vis", "visreg"])) == [
            "rrank", "vissim", "text2vis", "visreg"]

    def test_model_method_gets_its_own_model(self):
        asked = []
        rank_functions(["visreg", "text2vis"], self.collection, self.vocab,
                       lambda name: asked.append(name) or one_hot_model())
        assert asked == ["visreg", "text2vis"]

    def test_self_excluded_unless_included(self):
        queries, _ = collection_queries(self.collection)
        for include_self in (False, True):
            for name, fn in self.rank(["text2vis", "vissim", "rrank"],
                                      include_self=include_self).items():
                ids = fn(queries[:1])[0].ids()
                assert (1 in ids) == include_self, name
                assert len(ids) == 3 - (not include_self), name

    def test_vissim_ranks_by_own_feature(self):
        queries, _ = collection_queries(self.collection)
        vissim = self.rank(["vissim"], include_self=True)["vissim"]
        assert vissim(queries[:1])[0].ids() == [1, 2, 3]

    def test_unknown_and_empty_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            self.rank(["vissim", "bogus"])
        with pytest.raises(ValueError, match="no methods"):
            self.rank([])


class TestBatchedModelRankings:
    """A model method predicts for all its queries in chunks of nn.BATCH_CHUNK;
    each ranking must be that of the query's own forward pass, ranked alone."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(30)]
        self.vocab = Vocabulary(words, "unigram")
        self.collection = [
            CaptionedImage(i, [" ".join(rng.choice(words, 4))], rng.uniform(0, 1, 12))
            for i in range(11)]
        # fully out of vocabulary: a zero prediction in the middle of a batch
        self.collection.insert(5, CaptionedImage(99, ["purple zebra"], rng.uniform(0, 1, 12)))
        self.model = nn.init_model(30, 8, 12, seed=21)
        self.model.b_vis[:] = -10.0  # every prediction is zero without input
        self.queries, _ = collection_queries(self.collection)
        self.index = build_index([img.image_id for img in self.collection],
                                 np.stack([img.feature for img in self.collection]))

    def rankings(self, include_self=False):
        return rank_functions(["text2vis"], self.collection, self.vocab,
                              lambda name: self.model, p=6,
                              include_self=include_self)["text2vis"](self.queries)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 512])
    def test_chunking_keeps_every_ranking(self, monkeypatch, chunk):
        monkeypatch.setattr(nn, "BATCH_CHUNK", chunk)
        for include_self in (False, True):
            got = self.rankings(include_self)
            assert len(got) == len(self.queries)
            for q, img, ranking in zip(self.queries, self.collection, got):
                pred = nn.forward(self.model, self.vocab.encode_text(img.captions[0]))
                want = query(self.index, pred.visual_pred, 6,
                             exclude_id=None if include_self else q.image_id)
                assert ranking.ids() == want.ids()
                assert np.abs(np.subtract(ranking.distances(), want.distances())).max() <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 4, 512])
    def test_zero_prediction_inside_a_batch(self, monkeypatch, chunk):
        monkeypatch.setattr(nn, "BATCH_CHUNK", chunk)
        zero = self.rankings()[5]
        assert self.queries[5].image_id == 99
        assert zero.ids() == [0, 1, 2, 3, 4, 5] and zero.distances() == [1.0] * 6

    def test_each_query_encoded_once_for_every_model(self, monkeypatch):
        encoded = []
        encode = Vocabulary.encode_terms
        monkeypatch.setattr(Vocabulary, "encode_terms",
                            lambda vocab, terms: encoded.append(tuple(terms)) or
                            encode(vocab, terms))
        methods = rank_functions(["text2vis", "visreg"], self.collection, self.vocab,
                                 lambda name: self.model, p=6)
        got = {name: fn(self.queries) for name, fn in methods.items()}
        assert sorted(encoded) == sorted(q.tokens for q in self.queries)
        assert [r.ids() for r in got["text2vis"]] == [r.ids() for r in got["visreg"]]

    def test_ngram_queries_use_their_tokens(self, monkeypatch):
        # eval tokenizes each query caption once, in collection_queries; the
        # model methods encode from those tokens, POS-tagging each query once
        # (its n-grams need the tags) for all models together
        words = ["red", "blue", "bus", "car", "dog", "runs", "two", "small"]
        rng = np.random.default_rng(5)
        collection = [CaptionedImage(i, [" ".join(rng.choice(words, 4))], rng.uniform(0, 1, 12))
                      for i in range(9)]
        collection.append(CaptionedImage(9, [collection[0].captions[0].upper()],
                                         rng.uniform(0, 1, 12)))  # same tokens as query 0
        vocab = textvec.build_vocabulary(
            (textvec.tokenize(img.captions[0]) for img in collection), textvec.MODE_NGRAM,
            min_caption_freq_ngram=1)
        assert any(textvec.NGRAM_JOINER in t for t in vocab.terms)
        model = nn.init_model(len(vocab), 8, 12, seed=5)
        index = build_index([img.image_id for img in collection],
                            np.stack([img.feature for img in collection]))
        want = [query(index, nn.forward(model, vocab.encode_text(img.captions[0])).visual_pred,
                      6, exclude_id=img.image_id).ids() for img in collection]
        queries, _ = collection_queries(collection)
        methods = rank_functions(["text2vis", "visreg"], collection, vocab,
                                 lambda name: model, p=6)

        def refuse(*args):
            raise AssertionError("query caption tokenized again")

        tagged = []
        pos_tag = textvec.pos_tag
        monkeypatch.setattr(textvec, "tokenize", refuse)
        monkeypatch.setattr(textvec, "pos_tag", lambda tokens: tagged.append(tuple(tokens))
                            or pos_tag(tokens))
        assert [r.ids() for r in methods["text2vis"](queries)] == want
        assert sorted(tagged) == sorted({q.tokens for q in queries})
        monkeypatch.setattr(textvec, "pos_tag", refuse)
        assert [r.ids() for r in methods["visreg"](queries)] == want

    def test_rankings_count_must_match_queries(self):
        with pytest.raises(ValueError, match="gave 0 rankings for 1 queries"):
            evaluate({"m": lambda queries: []}, self.queries[:1], {})


def constant_method(ranking):
    return lambda queries: [ranking] * len(queries)


class TestEvaluate:
    def setup_method(self):
        self.captions = {1: [("a", "dog")], 2: [("a", "cat")], 3: [("blue", "bus")]}
        self.queries = [Query(1, ("a", "dog"))]
        idx = build_index([1, 2, 3], np.eye(3))
        self.ranking = query(idx, np.array([1.0, 0.0, 0.0]), k=3)

    def test_single_method_single_query(self):
        report = evaluate({"m": constant_method(self.ranking)}, self.queries,
                          self.captions, p=3)
        rels = [relevance(("a", "dog"), self.captions[i]) for i in self.ranking.ids()]
        assert report.dcg_by_method["m"] == [pytest.approx(dcg(rels, 3))]
        assert report.mean_dcg("m") == pytest.approx(dcg(rels, 3))

    def test_identical_methods_tie_at_half(self):
        methods = {"a": constant_method(self.ranking),
                   "b": constant_method(self.ranking)}
        report = evaluate(methods, self.queries, self.captions, p=3)
        assert report.win_rate("a", "b") == 0.5
        assert report.win_rate("a", "b") + report.win_rate("b", "a") == 1.0

    def test_unknown_image_reported(self):
        from text2vis.retrieval import RankedList, RankEntry
        bad = RankedList([RankEntry(99, 0.0)])
        with pytest.raises(ValueError, match="99"):
            evaluate({"m": constant_method(bad)}, self.queries, self.captions, p=1)

    def test_csv_outputs(self, tmp_path):
        methods = {"a": constant_method(self.ranking),
                   "b": constant_method(self.ranking)}
        report = evaluate(methods, self.queries, self.captions, p=3)
        report.write_summary_csv(tmp_path / "summary.csv")
        report.write_per_query_csv(tmp_path / "per_query.csv")
        report.write_diff_cdf_csvs(tmp_path)

        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "mean_dcg", "p"]
        assert len(rows) == 3 and rows[1][2] == "3"

        with open(tmp_path / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_id", "method", "dcg"]
        assert len(rows) == 3

        assert sorted(p.name for p in tmp_path.glob("diff_cdf_*")) == ["diff_cdf_a_vs_b.csv"]
        with open(tmp_path / "diff_cdf_a_vs_b.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta", "cumulative_fraction"]
        assert float(rows[-1][1]) == 1.0

    def test_diff_cdf_is_monotone(self):
        report = EvalReport(p=5, query_ids=[1, 2, 3],
                            dcg_by_method={"a": [1.0, 2.0, 0.5], "b": [0.5, 2.5, 0.5]})
        cdf = report.diff_cdf("a", "b")
        deltas = [d for d, _ in cdf]
        fracs = [f for _, f in cdf]
        assert deltas == sorted(deltas)
        assert fracs == sorted(fracs) and fracs[-1] == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, self.queries, self.captions)
        with pytest.raises(ValueError):
            evaluate({"m": constant_method(self.ranking)}, [], self.captions)


class TestRelevanceCallContract:
    """evaluate calls relevance through the module global, once per distinct
    (query, retrieved image): a wrapper put there sees every scoring."""

    def test_one_call_per_distinct_query_and_image(self, monkeypatch):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(8)]
        captions = {i: [tuple(rng.choice(words, size=5)) for _ in range(2)]
                    for i in range(12)}
        queries = [Query(i, captions[i][0]) for i in range(6)]
        ids = np.arange(12)

        def fixed(seed, k):
            r = np.random.default_rng(seed)
            return lambda qs: [rrank_ranking(ids, r, k) for _ in qs]

        def methods():
            return {"a": fixed(1, 7), "b": fixed(2, 9), "c": fixed(1, 7)}

        want = evaluate(methods(), queries, captions, p=8)
        query_of = {id(q.tokens): q.image_id for q in queries}
        image_of = {id(refs): i for i, refs in captions.items()}
        calls = []
        real = evaluation.relevance

        def counting(query_tokens, refs, *args):
            calls.append((query_of[id(query_tokens)], image_of[id(refs)]))
            return real(query_tokens, refs, *args)

        monkeypatch.setattr(evaluation, "relevance", counting)
        got = evaluate(methods(), queries, captions, p=8)
        assert got.dcg_by_method == want.dcg_by_method
        assert got.query_ids == want.query_ids
        distinct = {(q.image_id, image_id) for fn in methods().values()
                    for q, ranking in zip(queries, fn(queries))
                    for image_id in ranking.ids()[:8]}
        assert calls
        assert sorted(calls) == sorted(distinct)


class TestRRankEstimatesCorpusPrior:
    def test_mean_dcg_insensitive_to_query_half(self):
        # RRank's mean DCG reflects the collection, not the queries
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        captions = {i: [tuple(rng.choice(words, size=6))] for i in range(120)}
        ids = np.arange(120)
        queries = [Query(int(i), captions[int(i)][0]) for i in ids]

        def rrank(qs):
            return [rrank_ranking(ids[ids != q.image_id], rng, k=25) for q in qs]

        report = evaluate({"rrank": rrank}, queries, captions, p=25)
        values = report.dcg_by_method["rrank"]
        first, second = np.mean(values[:60]), np.mean(values[60:])
        spread = np.std(values) / np.sqrt(60)
        assert abs(first - second) < 4 * spread + 1e-9
