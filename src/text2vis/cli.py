"""Command-line pipeline: gen-synth, build-vocab, train, eval, search.

Every flag can also come from a JSON config file (--config); explicit flags
win.  Commands that create a run directory echo the fully resolved config
into <out>/config.json so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import data, evaluation, nn, optim, retrieval, textvec
from .atomic import atomic_write


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge CLI values over config-file values over defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        file_cfg = {str(k).replace("-", "_"): v for k, v in raw.items()}
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _echo_config(out_dir: Path, command: str, cfg: dict) -> None:
    doc = {"command": command}
    doc.update(cfg)
    with atomic_write(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_dataset(cfg: dict) -> list[data.CaptionedImage]:
    records = data.load_captions(cfg["captions"])
    ids, matrix = data.load_features(cfg["features"])
    return data.join_captions_features(records, ids, matrix)


def _load_model(path, vocab: textvec.Vocabulary) -> nn.Model:
    """A checkpoint, checked against the vocabulary it will be fed from."""
    model = nn.load_checkpoint(path)
    if len(vocab) != model.vocab_dim:
        raise ValueError(f"vocabulary size {len(vocab)} does not match "
                         f"checkpoint vocab dim {model.vocab_dim}")
    return model


def _split_for(cfg: dict, images: list[data.CaptionedImage]) -> data.DatasetSplit:
    fractions = (1.0 - cfg["val_frac"] - cfg["test_frac"], cfg["val_frac"], cfg["test_frac"])
    if fractions[0] <= 0:
        raise ValueError("val-frac + test-frac leave no training data")
    return data.split_dataset(images, fractions, cfg["split_seed"])


# ---------------------------------------------------------------------------
# gen-synth
# ---------------------------------------------------------------------------

_GEN_DEFAULTS = dict(out=None, seed=0, topics=10, vocab_size=200, visual_dim=64,
                     images=2000, captions_per_image=5, caption_len_min=6,
                     caption_len_max=12, topics_min=1, topics_max=3, noise_sigma=0.15)


def cmd_gen_synth(args) -> int:
    cfg = _resolve(args, _GEN_DEFAULTS)
    _require(cfg, "out")
    synth = data.SynthConfig(
        num_topics=cfg["topics"], vocab_size=cfg["vocab_size"],
        visual_dim=cfg["visual_dim"], num_images=cfg["images"],
        captions_per_image=cfg["captions_per_image"],
        caption_length=(cfg["caption_len_min"], cfg["caption_len_max"]),
        topics_per_image=(cfg["topics_min"], cfg["topics_max"]),
        noise_sigma=cfg["noise_sigma"], seed=cfg["seed"])
    images, truth = data.generate_synthetic(synth)

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    data.save_captions(out_dir / "captions.json",
                       [(img.image_id, img.captions) for img in images])
    data.save_features(out_dir / "features.t2vf",
                       [img.image_id for img in images],
                       np.stack([img.feature for img in images]))
    with atomic_write(out_dir / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json(), fh)
        fh.write("\n")
    _echo_config(out_dir, "gen-synth", cfg)
    print(f"wrote {len(images)} images x {synth.captions_per_image} captions, "
          f"{synth.visual_dim}-d features to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# build-vocab
# ---------------------------------------------------------------------------

_VOCAB_DEFAULTS = dict(captions=None, mode=textvec.MODE_UNIGRAM, out=None,
                       min_freq_unigram=textvec.DEFAULT_MIN_CAPTION_FREQ_UNIGRAM,
                       min_freq_ngram=textvec.DEFAULT_MIN_CAPTION_FREQ_NGRAM)


def cmd_build_vocab(args) -> int:
    cfg = _resolve(args, _VOCAB_DEFAULTS)
    _require(cfg, "captions", "out")
    records = data.load_captions(cfg["captions"])
    corpus = (textvec.tokenize(caption) for _, captions in records for caption in captions)
    vocab = textvec.build_vocabulary(
        corpus, cfg["mode"],
        min_caption_freq_unigram=cfg["min_freq_unigram"],
        min_caption_freq_ngram=cfg["min_freq_ngram"])
    vocab.save(cfg["out"])
    print(f"vocabulary of {len(vocab)} terms ({cfg['mode']} mode) -> {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_DEFAULTS = dict(captions=None, features=None, vocab=None, strategy="sl",
                       lambda_text=1.0, sl_prob_visual=0.5, batch_size=100,
                       max_iters=300_000, eval_every=500, patience=10, hidden=1024,
                       seed=0, learning_rate=0.001, val_frac=0.1, test_frac=0.1,
                       split_seed=0, out=None)


def cmd_train(args) -> int:
    cfg = _resolve(args, _TRAIN_DEFAULTS)
    _require(cfg, "captions", "features", "vocab", "out")
    trainers = {"sl": optim.sl_train, "visreg": optim.visreg_train,
                "aggregated": partial(optim.aggregated_train, text_weight=cfg["lambda_text"])}
    if cfg["strategy"] not in trainers:
        raise ValueError(f"unknown strategy {cfg['strategy']!r}")

    vocab = textvec.Vocabulary.load(cfg["vocab"])
    images = _load_dataset(cfg)
    split = _split_for(cfg, images)
    if not split.train or not split.validation:
        raise ValueError("split leaves an empty train or validation set")
    train_set = optim.encode_dataset(split.train, vocab)
    val_set = optim.encode_dataset(split.validation, vocab)

    model = nn.init_model(vocab_dim=len(vocab), hidden_dim=cfg["hidden"],
                          visual_dim=train_set.visual_dim,
                          has_text_branch=cfg["strategy"] != "visreg",
                          seed=cfg["seed"])
    train_cfg = optim.TrainConfig(
        batch_size=cfg["batch_size"], max_iterations=cfg["max_iters"],
        eval_every=cfg["eval_every"], patience=cfg["patience"],
        sl_prob_visual=cfg["sl_prob_visual"], seed=cfg["seed"],
        learning_rate=cfg["learning_rate"])

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir, "train", cfg)

    def progress(point: optim.HistoryPoint) -> None:
        t = "" if point.train_loss_t is None else f" train_t={point.train_loss_t:.5f}"
        vt = "" if point.val_loss_t is None else f" val_t={point.val_loss_t:.5f}"
        print(f"iter {point.iteration}: train_v={point.train_loss_v:.5f}"
              f"{t} val_v={point.val_loss_v:.5f}{vt}", flush=True)

    result = trainers[cfg["strategy"]](train_set, val_set, model, train_cfg,
                                       progress=progress)

    nn.save_checkpoint(result.model, out_dir / "checkpoint.t2vm")
    result.history.to_csv(out_dir / "history.csv")
    print(f"{cfg['strategy']}: {result.iterations_run} iterations "
          f"({'stopped early' if result.stopped_early else 'budget exhausted'}), "
          f"best val_v={result.best_val_loss_v:.5f} at iteration {result.best_iteration}")
    print(f"checkpoint and history written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_DEFAULTS = dict(captions=None, features=None, vocab=None, methods="vissim,rrank",
                      checkpoint=None, p=evaluation.DEFAULT_RANK_CUTOFF,
                      beta=evaluation.DEFAULT_ROUGE_BETA, seed=0, val_frac=0.1,
                      test_frac=0.1, split_seed=0, split="test", include_self=False,
                      out=None)


def cmd_eval(args) -> int:
    cfg = _resolve(args, _EVAL_DEFAULTS)
    _require(cfg, "captions", "features", "vocab", "out")

    checkpoints: dict[str, str] = {}
    for item in cfg["checkpoint"] or []:
        name, sep, path = item.partition("=")
        if not sep:
            raise ValueError(f"--checkpoint wants NAME=PATH, got {item!r}")
        checkpoints[name] = path

    vocab = textvec.Vocabulary.load(cfg["vocab"])
    images = _load_dataset(cfg)
    if cfg["split"] == "all":
        collection = images
    else:
        split = _split_for(cfg, images)
        collection = {"train": split.train, "validation": split.validation,
                      "test": split.test}.get(cfg["split"])
        if collection is None:
            raise ValueError(f"unknown split {cfg['split']!r}")
    if not collection:
        raise ValueError(f"split {cfg['split']!r} is empty")

    def load_model(name: str) -> nn.Model:
        if name not in checkpoints:
            raise ValueError(f"method {name!r} requires --checkpoint {name}=PATH")
        return _load_model(checkpoints[name], vocab)

    p = cfg["p"]
    methods = evaluation.rank_functions(
        [m.strip() for m in cfg["methods"].split(",") if m.strip()], collection, vocab,
        load_model, p=p, include_self=cfg["include_self"], seed=cfg["seed"])
    queries, captions_tokens = evaluation.collection_queries(collection)
    report = evaluation.evaluate(methods, queries, captions_tokens,
                                 p=p, beta=cfg["beta"])

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir, "eval", cfg)
    report.write_summary_csv(out_dir / "summary.csv")
    report.write_per_query_csv(out_dir / "per_query.csv")
    report.write_diff_cdf_csvs(out_dir)

    print(f"{len(queries)} queries over {len(collection)} images "
          f"(split={cfg['split']}, p={p}, exclude_self={not cfg['include_self']})")
    for name in report.methods:
        print(f"  {name:10s} mean DCG@{p} = {report.mean_dcg(name):.4f}")
    for a, b in [(a, b) for i, a in enumerate(report.methods)
                 for b in report.methods[i + 1:]]:
        print(f"  win rate {a} vs {b}: {report.win_rate(a, b):.3f}")
    print(f"reports written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

_SEARCH_DEFAULTS = dict(checkpoint=None, vocab=None, features=None, k=10)


def cmd_search(args) -> int:
    cfg = _resolve(args, _SEARCH_DEFAULTS)
    cfg["query"] = " ".join(args.query)
    _require(cfg, "checkpoint", "vocab", "features")

    vocab = textvec.Vocabulary.load(cfg["vocab"])
    model = _load_model(cfg["checkpoint"], vocab)
    ids, matrix = data.load_features(cfg["features"])
    index = retrieval.build_index(ids, matrix)

    bow = vocab.encode_text(cfg["query"])
    if not bow.on_indices:
        print("warning: query is fully out-of-vocabulary; "
              "ranking from the bias-only representation", file=sys.stderr)
    ranking = evaluation.predict_and_rank(model, bow, index, cfg["k"])
    for rank, entry in enumerate(ranking.entries, start=1):
        print(f"{rank:4d}. {entry.image_id}  distance={entry.distance:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="text2vis",
        description="Map short texts into a visual feature space; search and "
                    "evaluate image retrieval.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON file of defaults; flags override")

    p = sub.add_parser("gen-synth", help="generate a synthetic captioned dataset")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--topics", type=int)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--visual-dim", type=int)
    p.add_argument("--images", type=int)
    p.add_argument("--captions-per-image", type=int)
    p.add_argument("--caption-len-min", type=int)
    p.add_argument("--caption-len-max", type=int)
    p.add_argument("--topics-min", type=int)
    p.add_argument("--topics-max", type=int)
    p.add_argument("--noise-sigma", type=float)
    add_config(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("build-vocab", help="build a vocabulary from captions")
    p.add_argument("--captions")
    p.add_argument("--mode", choices=[textvec.MODE_UNIGRAM, textvec.MODE_NGRAM])
    p.add_argument("--out")
    p.add_argument("--min-freq-unigram", type=int)
    p.add_argument("--min-freq-ngram", type=int)
    add_config(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--captions")
    p.add_argument("--features")
    p.add_argument("--vocab")
    p.add_argument("--strategy", choices=["sl", "aggregated", "visreg"])
    p.add_argument("--lambda", dest="lambda_text", type=float,
                   help="text-loss weight for the aggregated strategy")
    p.add_argument("--sl-prob-visual", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--val-frac", type=float)
    p.add_argument("--test-frac", type=float)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out")
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare retrieval methods")
    p.add_argument("--captions")
    p.add_argument("--features")
    p.add_argument("--vocab")
    p.add_argument("--methods",
                   help="comma list from: text2vis, visreg, vissim, rrank")
    p.add_argument("--checkpoint", action="append",
                   help="NAME=PATH, for the text2vis/visreg methods")
    p.add_argument("--p", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-frac", type=float)
    p.add_argument("--test-frac", type=float)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--split", choices=["train", "validation", "test", "all"])
    p.add_argument("--include-self", action="store_const", const=True,
                   help="keep the query's own image among the candidates")
    p.add_argument("--out")
    add_config(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="retrieve images for a text query")
    p.add_argument("query", nargs="+", help="the query text")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--features")
    p.add_argument("--k", type=int)
    add_config(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
