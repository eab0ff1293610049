"""Retrieval evaluation: ROUGE-L caption relevance, DCG@p, the rank functions
of the compared methods (model prediction, VisSim, RRank), and per-method
comparison reports (means, win rates, difference CDFs)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import nn, retrieval, textvec
from .data import CaptionedImage, write_csv
from .retrieval import RankedList, RankEntry, VisualIndex

DEFAULT_RANK_CUTOFF = 25
DEFAULT_ROUGE_BETA = 1.2
MODEL_METHODS = ("text2vis", "visreg")  # rank by a trained model's prediction
METHODS = (*MODEL_METHODS, "vissim", "rrank")


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence."""
    return _lcs_against(_position_masks(a), len(a), b)


def _position_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Each token's positions in the sequence, as the set bits of an int."""
    masks: dict[str, int] = {}
    for i, x in enumerate(tokens):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def _lcs_against(masks: dict[str, int], n: int, other: Sequence[str]) -> int:
    """LCS length of other and the n tokens whose _position_masks are given,
    by the bit-parallel recurrence of Allison & Dix (1986) as Hyyro (2004)
    states it: after each token of other, v has one zero bit per LCS token."""
    full = (1 << n) - 1
    v = full
    for x in other:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def _rouge_from_lcs(lcs: int, n_candidate: int, n_reference: int, beta: float) -> float:
    if lcs == 0:
        return 0.0
    recall = lcs / n_reference
    precision = lcs / n_candidate
    return ((1 + beta**2) * recall * precision) / (recall + beta**2 * precision)


def rouge_l(candidate: Sequence[str], reference: Sequence[str],
            beta: float = DEFAULT_ROUGE_BETA) -> float:
    """LCS-based F-measure between a candidate and a reference token sequence.

    Recall is taken against the reference, precision against the candidate;
    beta weights recall (the argument order matters unless beta == 1).
    """
    return _rouge_from_lcs(lcs_length(candidate, reference), len(candidate),
                           len(reference), beta)


def relevance(query_tokens: Sequence[str], reference_captions: Sequence[Sequence[str]],
              beta: float = DEFAULT_ROUGE_BETA) -> float:
    """Relevance of a retrieved image to a query caption: the best ROUGE-L
    score of the query against any of the image's captions."""
    if not reference_captions:
        raise ValueError("relevance needs at least one reference caption")
    n, masks = len(query_tokens), _position_masks(query_tokens)  # LCS is symmetric
    return max([_rouge_from_lcs(_lcs_against(masks, n, ref), n, len(ref), beta)
                for ref in reference_captions])


def dcg(rels: Sequence[float], p: int = DEFAULT_RANK_CUTOFF) -> float:
    """Discounted cumulative gain: sum of (2^rel - 1)/log2(i + 1) up to rank p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return sum(((2.0 ** rel - 1.0) / math.log2(i + 1)
                for i, rel in enumerate(rels[:p], start=1)), 0.0)


def rrank_ranking(ids: Sequence[int], rng: np.random.Generator, k: int) -> RankedList:
    """Random ranking baseline: k ids drawn uniformly without replacement.

    Rank positions double as monotone placeholder distances.
    """
    if k > len(ids):
        raise ValueError(f"cannot sample {k} of {len(ids)} ids")
    picks = rng.choice(len(ids), size=k, replace=False)
    entries = [RankEntry(int(ids[i]), float(rank)) for rank, i in enumerate(picks)]
    return RankedList(entries=entries)


def vissim_ranking(index: VisualIndex, query_feature: np.ndarray,
                   query_image_id: int | None, k: int) -> RankedList:
    """Similarity baseline: rank by the query caption's own image feature,
    leaving that image out of the candidates unless query_image_id is None."""
    return retrieval.query(index, query_feature, k, exclude_id=query_image_id)


def predict_and_rank(model: nn.Model, bow: textvec.BowVector, index: VisualIndex,
                     k: int) -> RankedList:
    """Top-k of the index by distance to the model's visual prediction for bow;
    retrieval.query ranks a zero prediction with every candidate tied."""
    return retrieval.query(index, nn.visual_predictions(model, [bow])[0], k)


@dataclass(frozen=True)
class Query:
    """One evaluation query: a tokenized caption and the image it describes."""

    image_id: int
    tokens: tuple[str, ...]


@dataclass
class EvalReport:
    p: int
    query_ids: list[int]
    dcg_by_method: dict[str, list[float]]

    @property
    def methods(self) -> list[str]:
        return list(self.dcg_by_method)

    def mean_dcg(self, method: str) -> float:
        return float(np.mean(self.dcg_by_method[method]))

    def win_rate(self, method_a: str, method_b: str) -> float:
        """Fraction of queries where A beats B on DCG; ties count half."""
        a = self.dcg_by_method[method_a]
        b = self.dcg_by_method[method_b]
        score = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x, y in zip(a, b))
        return score / len(a)

    def diff_cdf(self, method_a: str, method_b: str) -> list[tuple[float, float]]:
        """Empirical CDF of per-query DCG(A) - DCG(B)."""
        deltas = sorted(x - y for x, y in zip(self.dcg_by_method[method_a],
                                              self.dcg_by_method[method_b]))
        n = len(deltas)
        return [(d, (i + 1) / n) for i, d in enumerate(deltas)]

    def write_summary_csv(self, path) -> None:
        write_csv(path, ["method", "mean_dcg", "p"],
                  ([method, repr(self.mean_dcg(method)), self.p] for method in self.methods))

    def write_per_query_csv(self, path) -> None:
        write_csv(path, ["query_id", "method", "dcg"],
                  ([query_id, method, repr(value)]
                   for method, values in self.dcg_by_method.items()
                   for query_id, value in zip(self.query_ids, values)))

    def write_diff_cdf_csvs(self, out_dir) -> None:
        """One `delta,cumulative_fraction` CSV per method pair, named
        diff_cdf_<a>_vs_<b>.csv."""
        for method_a, method_b in combinations(self.methods, 2):
            write_csv(Path(out_dir) / f"diff_cdf_{method_a}_vs_{method_b}.csv",
                      ["delta", "cumulative_fraction"],
                      ([repr(delta), repr(frac)]
                       for delta, frac in self.diff_cdf(method_a, method_b)))


# A method's rank function: the ranking of each query, in query order.
RankFn = Callable[[Sequence[Query]], list[RankedList]]


def collection_queries(
        collection: Sequence[CaptionedImage]) -> tuple[list[Query], dict[int, list[tuple[str, ...]]]]:
    """One query per image (its first caption), and every image's tokenized captions."""
    captions_tokens = {
        img.image_id: [tuple(textvec.tokenize(c)) for c in img.captions]
        for img in collection}
    queries = [Query(image_id=img.image_id, tokens=captions_tokens[img.image_id][0])
               for img in collection]
    return queries, captions_tokens


def rank_functions(names: Sequence[str], collection: Sequence[CaptionedImage],
                   vocab: textvec.Vocabulary, load_model: Callable[[str], nn.Model],
                   p: int = DEFAULT_RANK_CUTOFF, include_self: bool = False,
                   seed: int = 0) -> dict[str, RankFn]:
    """The rank function of each named method over the collection's features.

    text2vis and visreg rank by the prediction of the model that
    load_model(name) returns, made for all the queries in one batched pass;
    vissim by the query image's own feature; and rrank at random (seeded once
    for all queries, drawn in query order).  Unless include_self, the query's
    own image is left out of the candidates.
    """
    index = retrieval.build_index([img.image_id for img in collection],
                                  np.stack([img.feature for img in collection]))
    feature_by_id = {img.image_id: img.feature for img in collection}
    rng = np.random.default_rng(seed)

    def excluded(q: Query) -> int | None:
        return None if include_self else q.image_id

    bows: dict[tuple, textvec.BowVector] = {}  # each query's tokens, encoded once for every model

    def model_rank(model: nn.Model) -> RankFn:
        def rank(queries: Sequence[Query]) -> list[RankedList]:
            for q in queries:
                if q.tokens not in bows:
                    bows[q.tokens] = vocab.encode_terms(textvec.caption_terms(q.tokens, vocab.mode))
            rankings = []
            for start in range(0, len(queries), nn.BATCH_CHUNK):
                chunk = queries[start:start + nn.BATCH_CHUNK]
                preds = nn.visual_predictions(model, [bows[q.tokens] for q in chunk])
                rankings += [retrieval.query(index, pred, p, exclude_id=excluded(q))
                             for pred, q in zip(preds, chunk)]
            return rankings
        return rank

    def vissim(queries: Sequence[Query]) -> list[RankedList]:
        return [vissim_ranking(index, feature_by_id[q.image_id], excluded(q), p)
                for q in queries]

    def rrank(queries: Sequence[Query]) -> list[RankedList]:
        rankings = []
        for q in queries:
            ids = index.ids if include_self else index.ids[index.ids != q.image_id]
            rankings.append(rrank_ranking(ids, rng, min(p, len(ids))))
        return rankings

    baselines = {"vissim": vissim, "rrank": rrank}
    methods: dict[str, RankFn] = {}
    for name in names:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}")
        methods[name] = model_rank(load_model(name)) if name in MODEL_METHODS else baselines[name]
    if not methods:
        raise ValueError("no methods selected")
    return methods


def evaluate(methods: dict[str, RankFn], queries: Sequence[Query],
             captions_tokens: dict[int, list[tuple[str, ...]]],
             p: int = DEFAULT_RANK_CUTOFF, beta: float = DEFAULT_ROUGE_BETA) -> EvalReport:
    """Score every method on every query with DCG@p under ROUGE-L relevance.

    captions_tokens maps each retrievable image id to its tokenized captions.
    Each method is asked for all of its rankings at once, and only the top p
    ids of each are kept.  All methods must rank the same collection, so
    per-query relevance scores are cached and shared across methods.
    """
    if not methods:
        raise ValueError("no methods to evaluate")
    if not queries:
        raise ValueError("no queries to evaluate")
    ranked_ids: dict[str, list[list[int]]] = {}
    for name, rank_fn in methods.items():
        rankings = rank_fn(queries)
        if len(rankings) != len(queries):
            raise ValueError(f"method {name!r} gave {len(rankings)} rankings "
                             f"for {len(queries)} queries")
        ranked_ids[name] = [ranking.ids()[:p] for ranking in rankings]
    dcg_by_method: dict[str, list[float]] = {name: [] for name in methods}
    for i, q in enumerate(queries):
        rel_cache: dict[int, float] = {}
        for name, ids in ranked_ids.items():
            rels = []
            for image_id in ids[i]:
                rel = rel_cache.get(image_id)
                if rel is None:
                    try:
                        refs = captions_tokens[image_id]
                    except KeyError:
                        raise ValueError(
                            f"method {name!r} retrieved image {image_id}, "
                            f"which has no captions") from None
                    rel = relevance(q.tokens, refs, beta)
                    rel_cache[image_id] = rel
                rels.append(rel)
            dcg_by_method[name].append(dcg(rels, p))
    return EvalReport(p=p, query_ids=[q.image_id for q in queries],
                      dcg_by_method=dcg_by_method)
