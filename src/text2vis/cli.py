"""Command-line pipeline: gen-synth, build-vocab, train, eval, search.

Each command's flags are declared once, as a table of `Flag`s in COMMANDS;
the argparse parser, config-file resolution, range checks and the echoed
config all come from it.  Every flag can also come from a JSON config file
(--config) under its key; explicit flags win.  Every value is checked before
any input is read, and commands that create a run directory echo the fully
resolved config into <out>/config.json so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import data, evaluation, nn, optim, retrieval, textvec
from .atomic import atomic_write


@dataclass(frozen=True)
class Flag:
    """One option of a command.  Its type comes from its default: int, float,
    bool (a switch that sets True), or a string when the default is None; such
    a flag is required unless it repeats."""

    key: str  # the config key and the name in the resolved config
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    name: str | None = None  # the flag, when it is not the key with dashes
    repeat: bool = False  # each use appends one string to a list
    low: int | None = None  # the least legal value

    @property
    def kind(self) -> type:
        return str if self.default is None else type(self.default)

    @property
    def flag(self) -> str:
        return "--" + (self.name or self.key.replace("_", "-"))

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Add the flag with default None, so an unset flag is told from a set one."""
        if self.kind is bool:
            action = dict(action="store_const", const=True)
        elif self.repeat:
            action = dict(action="append")
        else:
            action = dict(type=self.kind, choices=self.choices)
        parser.add_argument(self.flag, dest=self.key, help=self.help, **action)

    def check(self, value, source):
        """A config-file value, held to the type and choices argparse enforces
        on the flag.  null leaves a flag without a default unset."""
        if value is None and self.default is None:
            return None
        if self.repeat:
            ok = isinstance(value, list) and all(type(v) is str for v in value)
            want = "a list of strings"
        elif self.choices:
            ok, want = value in self.choices, f"one of {', '.join(self.choices)}"
        else:  # an int is a number, but a bool is not an int
            ok = type(value) in ((int, float) if self.kind is float else (self.kind,))
            want = f"of type {self.kind.__name__}"
        if not ok:
            raise ValueError(f"{source}: config key {self.key!r} must be {want}, got {value!r}")
        return float(value) if self.kind is float else value

    def check_range(self, value) -> None:
        """Reject a float that is not finite, or a value below low."""
        label = self.name or self.key
        if self.kind is float and not math.isfinite(value):
            raise ValueError(f"{label} must be finite")
        if self.low is not None and value < self.low:
            raise ValueError(f"{label} must be >= {self.low}")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI values over config-file values over defaults; check each one."""
    flags = COMMANDS[args.command][1]
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        file_cfg = {str(k).replace("-", "_"): v for k, v in raw.items()}
    unknown = set(file_cfg) - {flag.key for flag in flags}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for flag in flags:
        if getattr(args, flag.key) is not None:
            resolved[flag.key] = getattr(args, flag.key)
        elif flag.key in file_cfg:
            resolved[flag.key] = flag.check(file_cfg[flag.key], args.config)
        else:
            resolved[flag.key] = flag.default
        if resolved[flag.key] is None and not flag.repeat:
            raise ValueError(f"missing required option {flag.flag}")
        flag.check_range(resolved[flag.key])
    return resolved


def _echo_config(command: str, cfg: dict) -> Path:
    """Make the --out directory, echo the config into it and return it."""
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"command": command, **cfg}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out_dir


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


def _check_visual_dim(model: nn.Model, feature_dim: int) -> nn.Model:
    """A checkpoint's model, checked against the features it ranks."""
    if model.visual_dim != feature_dim:
        raise ValueError(f"checkpoint visual dim {model.visual_dim} does not match "
                         f"feature dim {feature_dim}")
    return model


def _split_fractions(cfg: dict) -> tuple[float, float, float]:
    """The (train, validation, test) fractions, checked before any input is read."""
    fractions = (1.0 - cfg["val_frac"] - cfg["test_frac"], cfg["val_frac"], cfg["test_frac"])
    if not fractions[0] > 0:
        raise ValueError("val-frac + test-frac leave no training data")
    return fractions


# ---------------------------------------------------------------------------
# gen-synth
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    cfg = _resolve(args)
    synth = data.SynthConfig(
        num_topics=cfg["topics"], vocab_size=cfg["vocab_size"],
        visual_dim=cfg["visual_dim"], num_images=cfg["images"],
        captions_per_image=cfg["captions_per_image"],
        caption_length=(cfg["caption_len_min"], cfg["caption_len_max"]),
        topics_per_image=(cfg["topics_min"], cfg["topics_max"]),
        noise_sigma=cfg["noise_sigma"], seed=cfg["seed"])
    images, truth = data.generate_synthetic(synth)

    out_dir = _echo_config("gen-synth", cfg)
    data.save_captions(out_dir / "captions.json",
                       [(img.image_id, img.captions) for img in images])
    data.save_features(out_dir / "features.t2vf",
                       [img.image_id for img in images],
                       np.stack([img.feature for img in images]))
    with atomic_write(out_dir / "ground_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json(), fh)
        fh.write("\n")
    print(f"wrote {len(images)} images x {synth.captions_per_image} captions, "
          f"{synth.visual_dim}-d features to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# build-vocab
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    cfg = _resolve(args)
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

def cmd_train(args) -> int:
    cfg = _resolve(args)
    train_cfg = optim.TrainConfig(
        batch_size=cfg["batch_size"], max_iterations=cfg["max_iters"],
        eval_every=cfg["eval_every"], patience=cfg["patience"],
        sl_prob_visual=cfg["sl_prob_visual"], seed=cfg["seed"],
        learning_rate=cfg["learning_rate"])
    train_cfg.validate()
    fractions = _split_fractions(cfg)
    trainers = {"sl": optim.sl_train, "visreg": optim.visreg_train,
                "aggregated": partial(optim.aggregated_train, text_weight=cfg["lambda_text"])}

    vocab = textvec.Vocabulary.load(cfg["vocab"])
    images = _load_dataset(cfg)
    split = data.split_dataset(images, fractions, cfg["split_seed"])
    if not split.train or not split.validation:
        raise ValueError("split leaves an empty train or validation set")
    train_set = optim.encode_dataset(split.train, vocab)
    val_set = optim.encode_dataset(split.validation, vocab)

    model = nn.init_model(vocab_dim=len(vocab), hidden_dim=cfg["hidden"],
                          visual_dim=train_set.visual_dim,
                          has_text_branch=cfg["strategy"] != "visreg",
                          seed=cfg["seed"])

    out_dir = _echo_config("train", cfg)

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

def _eval_methods(cfg: dict) -> tuple[list[str], dict[str, str]]:
    """The --methods names and each --checkpoint NAME's path, checked against
    evaluation.METHODS before any input is read.  Every NAME must be a selected
    model method; the checkpoints are checked in sorted order, not flag order."""
    names = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    given = sorted(item.partition("=") for item in cfg["checkpoint"] or [])
    for name in names:
        if name not in evaluation.METHODS:
            raise ValueError(f"unknown method {name!r}")
        if name in evaluation.MODEL_METHODS and name not in {n for n, _, _ in given}:
            raise ValueError(f"method {name!r} requires --checkpoint {name}=PATH")
    if not names:
        raise ValueError("no methods selected")
    checkpoints: dict[str, str] = {}
    for name, sep, path in given:
        if not sep:
            raise ValueError(f"--checkpoint wants NAME=PATH, got {name!r}")
        if name not in names or name not in evaluation.MODEL_METHODS:
            raise ValueError(f"--checkpoint names {name!r}, which is not a selected model method")
        if name in checkpoints:
            raise ValueError(f"--checkpoint gives method {name!r} two checkpoints")
        checkpoints[name] = path
    return names, checkpoints


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    fractions = None if cfg["split"] == "all" else _split_fractions(cfg)
    names, checkpoints = _eval_methods(cfg)

    vocab = textvec.Vocabulary.load(cfg["vocab"])
    images = _load_dataset(cfg)
    collection = (images if fractions is None else
                  getattr(data.split_dataset(images, fractions, cfg["split_seed"]), cfg["split"]))
    if not collection:
        raise ValueError(f"split {cfg['split']!r} is empty")

    p = cfg["p"]
    feature_dim = collection[0].feature.size
    methods = evaluation.rank_functions(
        names, collection, vocab,
        lambda name: _check_visual_dim(_load_model(checkpoints[name], vocab), feature_dim),
        p=p, include_self=cfg["include_self"], seed=cfg["seed"])
    queries, captions_tokens = evaluation.collection_queries(collection)
    report = evaluation.evaluate(methods, queries, captions_tokens,
                                 p=p, beta=cfg["beta"])

    out_dir = _echo_config("eval", cfg)
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

def cmd_search(args) -> int:
    cfg = _resolve(args)
    vocab = textvec.Vocabulary.load(cfg["vocab"])
    model = _load_model(cfg["checkpoint"], vocab)
    ids, matrix = data.load_features(cfg["features"])
    _check_visual_dim(model, matrix.shape[1])
    index = retrieval.build_index(ids, matrix)

    bow = vocab.encode_text(" ".join(args.query))
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

_DATASET = (Flag("captions"), Flag("features"), Flag("vocab"))
_SPLIT = (Flag("val_frac", 0.1, low=0), Flag("test_frac", 0.1, low=0),
          Flag("split_seed", 0, low=0))

# Each command's help and flags; its function is cmd_<name>, dashes as underscores.
COMMANDS = {
    "gen-synth": ("generate a synthetic captioned dataset", (
        Flag("out"), Flag("seed", 0, low=0), Flag("topics", 10), Flag("vocab_size", 200),
        Flag("visual_dim", 64), Flag("images", 2000), Flag("captions_per_image", 5),
        Flag("caption_len_min", 6), Flag("caption_len_max", 12), Flag("topics_min", 1),
        Flag("topics_max", 3), Flag("noise_sigma", 0.15))),
    "build-vocab": ("build a vocabulary from captions", (
        Flag("captions"), Flag("mode", textvec.MODE_UNIGRAM, textvec.MODES), Flag("out"),
        Flag("min_freq_unigram", textvec.DEFAULT_MIN_CAPTION_FREQ_UNIGRAM,
             help="least number of captions a term appears in; read only with --mode unigram"),
        Flag("min_freq_ngram", textvec.DEFAULT_MIN_CAPTION_FREQ_NGRAM,
             help="least number of captions a unigram or n-gram appears in; "
                  "read only with --mode ngram"))),
    "train": ("train a model", (
        *_DATASET, Flag("strategy", "sl", ("sl", "aggregated", "visreg")),
        Flag("lambda_text", 1.0, name="lambda",
             help="text-loss weight for the aggregated strategy"),
        Flag("sl_prob_visual", 0.5), Flag("batch_size", 100), Flag("max_iters", 300_000),
        Flag("eval_every", 500), Flag("patience", 10), Flag("hidden", 1024, low=1),
        Flag("seed", 0, low=0), Flag("learning_rate", 0.001), *_SPLIT, Flag("out"))),
    "eval": ("compare retrieval methods", (
        *_DATASET,
        Flag("methods", "vissim,rrank", help="comma list from: " + ", ".join(evaluation.METHODS)),
        Flag("checkpoint", repeat=True, help="NAME=PATH, for the text2vis/visreg methods"),
        Flag("p", evaluation.DEFAULT_RANK_CUTOFF, low=1),
        Flag("beta", evaluation.DEFAULT_ROUGE_BETA), Flag("seed", 0, low=0), *_SPLIT,
        Flag("split", "test", ("train", "validation", "test", "all")),
        Flag("include_self", False, help="keep the query's own image among the candidates"),
        Flag("out"))),
    "search": ("retrieve images for a text query", (
        Flag("checkpoint"), Flag("vocab"), Flag("features"), Flag("k", 10, low=1))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="text2vis",
        description="Map short texts into a visual feature space; search and "
                    "evaluate image retrieval.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "search":
            p.add_argument("query", nargs="+", help="the query text")
        for flag in flags:
            flag.add_to(p)
        p.add_argument("--config", help="JSON file of defaults; flags override")
        # Looked up on the module now, not when COMMANDS was built, so a
        # wrapper put in place of a cmd_* function is the one called.
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def _join_float_values(argv: list[str]) -> list[str]:
    """`--flag -inf` as `--flag=-inf` for every float flag.  argparse reads a
    word that starts with `-` as an option unless it looks like `-3` or `-0.1`,
    so `-inf`, `-nan` and `-1e5` would otherwise not reach the flag."""
    floats = {f.flag for _, flags in COMMANDS.values() for f in flags if f.kind is float}
    out: list[str] = []
    for word in argv:
        if out and out[-1] in floats and word.startswith("-") and not word.startswith("--"):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = _join_float_values(sys.argv[1:] if argv is None else list(argv))
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
