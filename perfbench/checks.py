"""Output checks the benchmark computes itself.

Rankings are checked against a brute-force exact ranking computed here from
the files the program was given: this module parses the feature and
checkpoint files itself and scores every candidate.  Relevance and DCG are
recomputed here too.  Only the mapping of query text to vocabulary indices is
taken from the program (`Vocabulary.encode_text`).
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

from text2vis import evaluation, nn, retrieval, textvec

DISTANCE_TOL = 1e-12
# `search` prints distances with six decimals.
PRINTED_DISTANCE_TOL = 5e-7 + 1e-12
DCG_TOL = 1e-9
RANK_CUTOFF = 25  # eval's default p
SEARCH_K = 10  # search's default k
EVAL_SAMPLE = 20  # eval queries checked per method and command

_SEARCH_LINE = re.compile(r"^\s*(\d+)\.\s+(\d+)\s+distance=(\S+)$")
_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def read_features(path) -> tuple[np.ndarray, np.ndarray]:
    """ids and float32 matrix of a T2VF file (header <4sIQQ, u64 ids, f32 rows)."""
    blob = Path(path).read_bytes()
    magic, _, n, d = struct.unpack_from("<4sIQQ", blob)
    if magic != b"T2VF":
        raise ValueError(f"{path}: not a feature file")
    ids = np.frombuffer(blob, "<u8", n, 24).astype(np.int64)
    return ids, np.frombuffer(blob, "<f4", n * d, 24 + 8 * n).reshape(n, d)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Arrays of a T2VM file (header <4sIIQQQ, then f32 arrays in field order)."""
    blob = Path(path).read_bytes()
    magic, _, flags, vocab, hidden, visual = struct.unpack_from("<4sIIQQQ", blob)
    if magic != b"T2VM":
        raise ValueError(f"{path}: not a checkpoint")
    shapes = [("w_hid", (hidden, vocab)), ("b_hid", (hidden,))]
    if flags & 1:
        shapes += [("w_txt", (vocab, hidden)), ("b_txt", (vocab,))]
    shapes += [("w_vis", (visual, hidden)), ("b_vis", (visual,))]
    out, offset = {}, struct.calcsize("<4sIIQQQ")
    for name, shape in shapes:
        count = math.prod(shape)
        out[name] = np.frombuffer(blob, "<f4", count, offset).reshape(shape)
        offset += 4 * count
    return out


def predict(weights: dict[str, np.ndarray], on_indices) -> np.ndarray:
    """Visual prediction for one bag of words, in float64."""
    pre = weights["b_hid"].astype(np.float64)
    if len(on_indices):
        pre = pre + weights["w_hid"][:, list(on_indices)].astype(np.float64).sum(axis=1)
    hidden = np.maximum(pre, 0.0)
    return np.maximum(weights["w_vis"].astype(np.float64) @ hidden
                      + weights["b_vis"].astype(np.float64), 0.0)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    unit = rows.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    return unit


def exact_ranking(ids: np.ndarray, unit: np.ndarray, q: np.ndarray, k: int,
                  exclude: int | None = None) -> tuple[list[int], np.ndarray]:
    """Top-k by Euclidean distance between unit vectors, ties by ascending id."""
    qn = q / np.linalg.norm(q)
    dists = np.empty(len(ids))
    for start in range(0, len(ids), 1024):  # blocks keep the temporaries small
        dists[start:start + 1024] = np.sqrt(((unit[start:start + 1024] - qn) ** 2).sum(axis=1))
    if exclude is not None:
        keep = ids != exclude
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return [int(i) for i in ids[order]], dists[order]


def tokens(text: str) -> tuple[str, ...]:
    return tuple(t for t in _TOKEN_SPLIT.split(text.lower()) if t)


def _lcs(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def relevance(query: tuple[str, ...], refs: list[tuple[str, ...]], beta: float = 1.2) -> float:
    """Max ROUGE-L F-measure of the query against an image's captions."""
    best = 0.0
    for ref in refs:
        lcs = _lcs(query, ref) if query and ref else 0
        if lcs:
            r, p = lcs / len(ref), lcs / len(query)
            best = max(best, (1 + beta**2) * r * p / (r + beta**2 * p))
    return best


def dcg(rels: list[float]) -> float:
    return sum((2.0**rel - 1.0) / math.log2(i + 1) for i, rel in enumerate(rels, start=1))


def _finite(x) -> bool:
    return x is None or math.isfinite(x)


class Checker:
    """Checks ops in place: a failed check clears `op.ok` and sets `op.error`.

    Files are parsed once and kept; run this after the timed loop.  With
    `require_descent`, a trainer's final validation loss must be below its
    iteration-0 value.
    """

    def __init__(self, require_descent: bool):
        self.require_descent = require_descent
        self._features: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._unit: dict[str, np.ndarray] = {}
        self._weights: dict[str, dict[str, np.ndarray]] = {}
        self._vocab: dict[str, textvec.Vocabulary] = {}
        self.failed = 0

    def features(self, path) -> tuple[np.ndarray, np.ndarray]:
        if str(path) not in self._features:
            self._features[str(path)] = read_features(path)
        return self._features[str(path)]

    def unit(self, path) -> np.ndarray:
        if str(path) not in self._unit:
            self._unit[str(path)] = unit_rows(self.features(path)[1])
        return self._unit[str(path)]

    def weights(self, path) -> dict[str, np.ndarray]:
        if str(path) not in self._weights:
            self._weights[str(path)] = read_checkpoint(path)
        return self._weights[str(path)]

    def vocab(self, path) -> textvec.Vocabulary:
        if str(path) not in self._vocab:
            self._vocab[str(path)] = textvec.Vocabulary.load(path)
        return self._vocab[str(path)]

    def check_all(self, ops) -> None:
        for op in ops:
            self.check(op)

    def check(self, op) -> None:
        if not op.ok:
            return  # already failed: nothing to check
        if op.kind.startswith("train."):
            problem = self._train(op)
        elif op.kind == "eval":
            problem = self._eval(op)
        else:
            problem = self._search(op)
        if problem:
            op.ok, op.error = False, f"check failed: {problem}"
            self.failed += 1

    # -- per kind ----------------------------------------------------------

    def _train(self, op) -> str:
        d = op.detail
        if d["iterations_run"] != d["max_iterations"]:
            return f"ran {d['iterations_run']} of {d['max_iterations']} iterations"
        for point in d["points"]:
            if not all(_finite(x) for x in point):
                return f"non-finite loss in {point}"
        if self.require_descent and not d["points"][-1][3] < d["points"][0][3]:
            return (f"validation loss {d['points'][-1][3]} did not fall below its "
                    f"iteration-0 value {d['points'][0][3]}")
        return ""

    def _search(self, op) -> str:
        d = op.detail
        features = d["features"]
        bow = self.vocab(d["vocab"]).encode_text(d["query"])
        q = predict(self.weights(d["checkpoint"]), bow.on_indices)
        if not q.any():
            return ""  # an all-zero prediction has no ranking to compare
        want_ids, want_d = exact_ranking(self.features(features)[0], self.unit(features),
                                         q, SEARCH_K)
        got = [_SEARCH_LINE.match(line) for line in d["stdout"].splitlines()]
        if not all(got):
            return f"unparsable search output {d['stdout']!r}"
        got_ids = [int(m.group(2)) for m in got]
        if got_ids != want_ids:
            return f"search ids {got_ids} != exact {want_ids}"
        gap = max(abs(float(m.group(3)) - w) for m, w in zip(got, want_d))
        if gap > PRINTED_DISTANCE_TOL:
            return f"search distance off by {gap}"
        return ""

    def _eval(self, op) -> str:
        d = op.detail
        out = Path(d["out"])
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            summary = {row["method"]: float(row["mean_dcg"]) for row in csv.DictReader(fh)}
        d["mean_dcg"] = summary
        for method in d["methods"]:
            if method not in summary or not math.isfinite(summary[method]):
                return f"summary.csv lacks a finite mean DCG for {method!r}"
        per_query: dict[tuple[int, str], float] = {}
        with open(out / "per_query.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                per_query[(int(row["query_id"]), row["method"])] = float(row["dcg"])

        with open(d["captions"], encoding="utf-8") as fh:
            records = {r["id"]: r["captions"] for r in json.load(fh)}
        all_ids, all_rows = self.features(d["features"])
        row_in_file = {int(i): n for n, i in enumerate(all_ids)}
        ids = np.array(sorted(records), dtype=np.int64)
        rows = all_rows[[row_in_file[int(i)] for i in ids]]
        unit = unit_rows(rows)
        row_of = {int(i): n for n, i in enumerate(ids)}
        refs = {int(i): [tokens(c) for c in records[int(i)]] for i in ids}
        vocab = self.vocab(d["vocab"])
        index = retrieval.build_index(ids, rows)
        sample = ids[np.linspace(0, len(ids) - 1, min(EVAL_SAMPLE, len(ids))).astype(int)]

        for method in d["methods"]:
            if method == "rrank":
                continue  # random by design: nothing exact to compare
            model = (nn.load_checkpoint(d["checkpoints"][method])
                     if method in d["checkpoints"] else None)
            weights = (self.weights(d["checkpoints"][method])
                       if method in d["checkpoints"] else None)
            for qid in (int(i) for i in sample):
                text = records[qid][0]
                if weights is None:  # vissim: the query image's own feature
                    q = rows[row_of[qid]].astype(np.float64)
                    got = evaluation.vissim_ranking(index, q, qid, RANK_CUTOFF)
                else:
                    bow = vocab.encode_text(text)
                    q = predict(weights, bow.on_indices)
                    if not q.any():
                        continue
                    got = retrieval.query(index, nn.forward(model, bow).visual_pred,
                                          RANK_CUTOFF, exclude_id=qid)
                want_ids, want_d = exact_ranking(ids, unit, q, RANK_CUTOFF, exclude=qid)
                if got.ids() != want_ids:
                    return f"{method} query {qid}: ids {got.ids()} != exact {want_ids}"
                gap = float(np.max(np.abs(np.array(got.distances()) - want_d)))
                if gap > DISTANCE_TOL:
                    return f"{method} query {qid}: distance off by {gap}"
                want = dcg([relevance(tokens(text), refs[i]) for i in want_ids])
                have = per_query.get((qid, method))
                if have is None or abs(have - want) > DCG_TOL:
                    return f"{method} query {qid}: DCG {have} != recomputed {want}"
        return ""
