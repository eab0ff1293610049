import csv
import json
import math

import numpy as np
import pytest

from text2vis import cli, data, evaluation, nn, textvec
from text2vis.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small generated dataset plus vocab and one trained checkpoint per strategy."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-synth", "--out", str(root / "ds"), "--images", "120",
                 "--topics", "4", "--vocab-size", "80", "--visual-dim", "16",
                 "--seed", "5"]) == 0
    assert main(["build-vocab", "--captions", str(root / "ds" / "captions.json"),
                 "--mode", "unigram", "--out", str(root / "vocab.txt"),
                 "--min-freq-unigram", "2"]) == 0
    common = ["--captions", str(root / "ds" / "captions.json"),
              "--features", str(root / "ds" / "features.t2vf"),
              "--vocab", str(root / "vocab.txt")]
    train_common = common + ["--hidden", "16", "--batch-size", "16",
                             "--max-iters", "300", "--eval-every", "100",
                             "--patience", "1000", "--val-frac", "0.2",
                             "--test-frac", "0.2", "--seed", "0"]
    for strategy in ("sl", "aggregated", "visreg"):
        assert main(["train", *train_common, "--strategy", strategy,
                     "--out", str(root / f"run_{strategy}")]) == 0
    return root, common


def run_ok(argv):
    assert main(argv) == 0


def sample_value(flag):
    """A non-default value for `flag`: (command-line words, config-file value).
    A float flag gets an int in the file, which must resolve to a float."""
    if flag.repeat:
        return [flag.flag, "a=b", flag.flag, "c=d"], ["a=b", "c=d"]
    if flag.kind is bool:
        return [flag.flag], True
    if flag.choices:
        return [flag.flag, flag.choices[-1]], flag.choices[-1]
    if flag.kind is str:
        return [flag.flag, "some/path"], "some/path"
    value = int(flag.default) + 2
    return [flag.flag, str(value)], value


def fresh_checkpoint(path, vocab_dim, visual_dim=16):
    """An untrained model: zero biases, so a fully out-of-vocabulary query
    predicts the zero vector."""
    nn.save_checkpoint(nn.init_model(vocab_dim, 8, visual_dim, seed=0), path)
    return path


class TestGenSynth:
    def test_outputs_loadable(self, workspace):
        root, _ = workspace
        records = data.load_captions(root / "ds" / "captions.json")
        ids, matrix = data.load_features(root / "ds" / "features.t2vf")
        assert len(records) == 120
        assert all(len(caps) == 5 for _, caps in records)
        assert matrix.shape == (120, 16)
        assert [i for i, _ in records] == ids
        truth = json.loads((root / "ds" / "ground_truth.json").read_text())
        assert set(truth) == {"topics_by_image", "topic_words", "prototypes"}
        assert (root / "ds" / "config.json").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        for sub in ("a", "b"):
            run_ok(["gen-synth", "--out", str(tmp_path / sub), "--images", "30",
                    "--seed", "7"])
        for name in ("captions.json", "features.t2vf", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


class TestBuildVocab:
    def test_one_term_per_line(self, workspace):
        root, _ = workspace
        lines = (root / "vocab.txt").read_text().splitlines()
        assert lines and all(lines)
        assert lines == sorted(lines)

    def test_ngram_mode_at_least_as_large(self, workspace, tmp_path):
        root, _ = workspace
        captions = str(root / "ds" / "captions.json")
        run_ok(["build-vocab", "--captions", captions, "--mode", "unigram",
                "--out", str(tmp_path / "uni.txt"), "--min-freq-unigram", "3"])
        run_ok(["build-vocab", "--captions", captions, "--mode", "ngram",
                "--out", str(tmp_path / "ng.txt"), "--min-freq-ngram", "3"])
        uni = set((tmp_path / "uni.txt").read_text().splitlines())
        ng = set((tmp_path / "ng.txt").read_text().splitlines())
        assert uni <= ng

    def test_unreadable_path_fails(self, tmp_path, capsys):
        code = main(["build-vocab", "--captions", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "v.txt")])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["build-vocab"]) != 0
        assert "--captions" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_written(self, workspace):
        root, _ = workspace
        for strategy in ("sl", "aggregated", "visreg"):
            run = root / f"run_{strategy}"
            assert (run / "checkpoint.t2vm").exists()
            assert (run / "history.csv").exists()
            cfg = json.loads((run / "config.json").read_text())
            assert cfg["command"] == "train" and cfg["strategy"] == strategy

    def test_visreg_checkpoint_has_no_text_branch(self, workspace):
        root, _ = workspace
        model = nn.load_checkpoint(root / "run_visreg" / "checkpoint.t2vm")
        assert not model.has_text_branch
        assert nn.load_checkpoint(root / "run_sl" / "checkpoint.t2vm").has_text_branch

    def test_history_schema(self, workspace):
        root, _ = workspace
        with open(root / "run_visreg" / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "train_loss_t", "train_loss_v",
                           "val_loss_t", "val_loss_v"]
        assert rows[1][0] == "0" and rows[1][1] == "" and rows[1][3] == ""

    def test_same_seed_identical_outputs(self, workspace, tmp_path):
        root, common = workspace
        argv = ["train", *common, "--strategy", "sl", "--hidden", "8",
                "--batch-size", "8", "--max-iters", "120", "--eval-every", "60",
                "--seed", "3"]
        run_ok(argv + ["--out", str(tmp_path / "r1")])
        run_ok(argv + ["--out", str(tmp_path / "r2")])
        for name in ("history.csv", "checkpoint.t2vm"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name

    def test_unknown_strategy_fails(self, workspace, tmp_path, capsys):
        root, common = workspace
        assert main(["train", *common, "--strategy", "sgd",
                     "--out", str(tmp_path / "x")]) != 0


class TestEval:
    def test_rrank_only_single_row(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "eval_rrank"
        run_ok(["eval", *common, "--methods", "rrank", "--p", "10",
                "--val-frac", "0.2", "--test-frac", "0.2", "--out", str(out)])
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][0] == "rrank" and rows[1][2] == "10"

    def test_all_methods(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "eval_all"
        run_ok(["eval", *common,
                "--methods", "text2vis,visreg,vissim,rrank",
                "--checkpoint", f"text2vis={root / 'run_sl' / 'checkpoint.t2vm'}",
                "--checkpoint", f"visreg={root / 'run_visreg' / 'checkpoint.t2vm'}",
                "--val-frac", "0.2", "--test-frac", "0.2",
                "--out", str(out)])
        with open(out / "summary.csv", newline="") as fh:
            rows = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
        assert set(rows) == {"text2vis", "visreg", "vissim", "rrank"}
        assert rows["text2vis"] > rows["rrank"]
        assert (out / "per_query.csv").exists()
        assert len(list(out.glob("diff_cdf_*_vs_*.csv"))) == 6

    def test_default_p_is_25(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "eval_p"
        run_ok(["eval", *common, "--methods", "rrank", "--val-frac", "0.2",
                "--test-frac", "0.2", "--out", str(out)])
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["p"] == 25
        with open(out / "summary.csv", newline="") as fh:
            assert list(csv.reader(fh))[1][2] == "25"

    def test_model_method_without_checkpoint_fails(self, workspace, tmp_path, capsys):
        root, common = workspace
        code = main(["eval", *common, "--methods", "text2vis",
                     "--out", str(tmp_path / "x")])
        assert code != 0
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_include_self_changes_vissim(self, workspace, tmp_path):
        root, common = workspace
        args = ["eval", *common, "--methods", "vissim", "--val-frac", "0.2",
                "--test-frac", "0.2"]
        run_ok(args + ["--out", str(tmp_path / "excl")])
        run_ok(args + ["--include-self", "--out", str(tmp_path / "incl")])

        def mean_of(path):
            with open(path / "summary.csv", newline="") as fh:
                return float(list(csv.reader(fh))[1][1])

        # retrieving your own image (relevance 1 at rank 1) can only help
        assert mean_of(tmp_path / "incl") > mean_of(tmp_path / "excl")


    def test_checkpoint_vocab_mismatch_fails(self, workspace, tmp_path, capsys):
        root, common = workspace
        wrong = fresh_checkpoint(tmp_path / "wrong.t2vm", vocab_dim=3)
        code = main(["eval", *common, "--methods", "vissim,text2vis",
                     "--checkpoint", f"text2vis={wrong}", "--val-frac", "0.2",
                     "--test-frac", "0.2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "does not match checkpoint vocab dim" in capsys.readouterr().err

    def test_checkpoint_visual_dim_mismatch_fails(self, workspace, tmp_path, capsys):
        root, common = workspace
        vocab = textvec.Vocabulary.load(root / "vocab.txt")
        wrong = fresh_checkpoint(tmp_path / "wrong.t2vm", len(vocab), visual_dim=64)
        code = main(["eval", *common, "--methods", "vissim,text2vis",
                     "--checkpoint", f"text2vis={wrong}", "--val-frac", "0.2",
                     "--test-frac", "0.2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: checkpoint visual dim 64 does not match feature dim 16\n")
        assert not (tmp_path / "x").exists()

    def test_empty_ranking_scores_float_zero(self, tmp_path):
        # the one test image has no other candidate, so every ranking is empty
        run_ok(["gen-synth", "--out", str(tmp_path / "ds"), "--images", "12", "--seed", "1"])
        run_ok(["build-vocab", "--captions", str(tmp_path / "ds" / "captions.json"),
                "--out", str(tmp_path / "vocab.txt"), "--min-freq-unigram", "1"])
        vocab = textvec.Vocabulary.load(tmp_path / "vocab.txt")
        model = fresh_checkpoint(tmp_path / "m.t2vm", len(vocab), visual_dim=64)
        out = tmp_path / "ev"
        run_ok(["eval", "--captions", str(tmp_path / "ds" / "captions.json"),
                "--features", str(tmp_path / "ds" / "features.t2vf"),
                "--vocab", str(tmp_path / "vocab.txt"), "--methods", "text2vis,vissim,rrank",
                "--checkpoint", f"text2vis={model}", "--test-frac", "0.09",
                "--val-frac", "0.1", "--out", str(out)])
        with open(out / "per_query.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[1:] for r in rows] == [["text2vis", "0.0"], ["vissim", "0.0"],
                                         ["rrank", "0.0"]]
        cdfs = sorted(out.glob("diff_cdf_*.csv"))
        assert len(cdfs) == 3
        for path in cdfs:
            assert path.read_text().splitlines()[1:] == ["0.0,1.0"]

    def test_oov_queries_on_fresh_model(self, workspace, tmp_path):
        root, common = workspace
        # none of the captions uses this term: every query is fully out-of-vocabulary
        vocab = tmp_path / "oov_vocab.txt"
        textvec.Vocabulary(["zzyzxq"], textvec.MODE_UNIGRAM).save(vocab)
        fresh = fresh_checkpoint(tmp_path / "fresh.t2vm", vocab_dim=1)
        out = tmp_path / "eval_oov"
        run_ok(["eval", "--captions", str(root / "ds" / "captions.json"),
                "--features", str(root / "ds" / "features.t2vf"), "--vocab", str(vocab),
                "--methods", "text2vis", "--checkpoint", f"text2vis={fresh}",
                "--split", "all", "--out", str(out)])
        with open(out / "per_query.csv", newline="") as fh:
            got = {int(r["query_id"]): float(r["dcg"]) for r in csv.DictReader(fh)}
        # each zero prediction ranks all other images by ascending id
        images = data.join_captions_features(
            data.load_captions(root / "ds" / "captions.json"),
            *data.load_features(root / "ds" / "features.t2vf"))
        queries, toks = evaluation.collection_queries(images)
        ids = sorted(toks)
        assert len(got) == len(queries) == 120
        for q in queries:
            ranked = [i for i in ids if i != q.image_id][:25]
            want = evaluation.dcg([evaluation.relevance(q.tokens, toks[i]) for i in ranked])
            assert got[q.image_id] == pytest.approx(want, abs=1e-12)


class TestSearch:
    def test_k_one_single_line(self, workspace, capsys):
        root, common = workspace
        run_ok(["search", "good", "query", "--checkpoint",
                str(root / "run_sl" / "checkpoint.t2vm"),
                "--vocab", str(root / "vocab.txt"),
                "--features", str(root / "ds" / "features.t2vf"), "--k", "1"])
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].lstrip().startswith("1.")
        assert "distance=" in out[0]

    def test_repeatable(self, workspace, capsys):
        root, _ = workspace
        argv = ["search", "one", "two", "--checkpoint",
                str(root / "run_sl" / "checkpoint.t2vm"),
                "--vocab", str(root / "vocab.txt"),
                "--features", str(root / "ds" / "features.t2vf"), "--k", "5"]
        run_ok(argv)
        first = capsys.readouterr().out
        run_ok(argv)
        assert capsys.readouterr().out == first

    def test_oov_query_warns(self, workspace, capsys):
        root, _ = workspace
        run_ok(["search", "zzyzxq", "--checkpoint",
                str(root / "run_sl" / "checkpoint.t2vm"),
                "--vocab", str(root / "vocab.txt"),
                "--features", str(root / "ds" / "features.t2vf"), "--k", "3"])
        captured = capsys.readouterr()
        assert "out-of-vocabulary" in captured.err
        assert len(captured.out.strip().splitlines()) == 3

    def test_vocab_with_empty_line_fails(self, workspace, tmp_path, capsys):
        root, _ = workspace
        terms = (root / "vocab.txt").read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "vocab.txt"
        bad.write_text("\n".join([terms[0], "", *terms[1:]]) + "\n", encoding="utf-8")
        assert main(["search", terms[0], "--checkpoint",
                     str(root / "run_sl" / "checkpoint.t2vm"), "--vocab", str(bad),
                     "--features", str(root / "ds" / "features.t2vf")]) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: empty term\n"

    def test_image_id_beyond_int64_fails(self, workspace, tmp_path, capsys):
        root, _ = workspace
        vocab = textvec.Vocabulary.load(root / "vocab.txt")
        features = tmp_path / "f.t2vf"
        data.FEATURE_FORMAT.write(features, (2, 16), [("u8", [7, 2**63]),
                                                      ("f4", np.ones((2, 16)))])
        assert main(["search", "zzyzxq", "--checkpoint",
                     str(fresh_checkpoint(tmp_path / "m.t2vm", len(vocab))),
                     "--vocab", str(root / "vocab.txt"), "--features", str(features)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {features}: image id {2**63} does not fit in a "
                                "signed 64-bit integer\n")

    def test_checkpoint_visual_dim_mismatch_fails(self, workspace, tmp_path, capsys):
        root, _ = workspace
        vocab = textvec.Vocabulary.load(root / "vocab.txt")
        wrong = fresh_checkpoint(tmp_path / "wrong.t2vm", len(vocab), visual_dim=64)
        assert main(["search", "zzyzxq", "--checkpoint", str(wrong),
                     "--vocab", str(root / "vocab.txt"),
                     "--features", str(root / "ds" / "features.t2vf")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checkpoint visual dim 64 does not match feature dim 16\n"

    def test_oov_query_on_fresh_model_ranks_by_id(self, workspace, tmp_path, capsys):
        root, _ = workspace
        vocab = textvec.Vocabulary.load(root / "vocab.txt")
        fresh = fresh_checkpoint(tmp_path / "fresh.t2vm", vocab_dim=len(vocab))
        run_ok(["search", "zzyzxq", "--checkpoint", str(fresh),
                "--vocab", str(root / "vocab.txt"),
                "--features", str(root / "ds" / "features.t2vf"), "--k", "3"])
        ids, _ = data.load_features(root / "ds" / "features.t2vf")
        captured = capsys.readouterr()
        assert "out-of-vocabulary" in captured.err
        assert captured.out.splitlines() == [
            f"{rank:4d}. {i}  distance=1.000000" for rank, i in enumerate(sorted(ids)[:3], 1)]


class TestValueRanges:
    @pytest.mark.parametrize("command, words, message", [
        ("search", ["--k", "0"], "k must be >= 1"),
        ("search", ["--k", "-3"], "k must be >= 1"),
        ("eval", ["--p", "0"], "p must be >= 1"),
        ("eval", ["--p", "-1"], "p must be >= 1"),
        ("train", ["--learning-rate", "0"], "learning_rate must be > 0"),
        ("train", ["--learning-rate", "nan"], "learning_rate must be finite"),
        ("train", ["--batch-size", "0"], "batch_size must be >= 1"),
        ("train", ["--max-iters", "0"], "max_iterations and eval_every must be >= 1"),
        ("train", ["--eval-every", "0"], "max_iterations and eval_every must be >= 1"),
        ("train", ["--sl-prob-visual", "2"], "sl_prob_visual must lie in [0, 1]"),
        ("train", ["--patience", "-1"], "patience must be >= 0"),
        ("train", ["--hidden", "0"], "hidden must be >= 1"),
        ("train", ["--seed", "-1"], "seed must be >= 0"),
        ("train", ["--lambda", "nan", "--strategy", "aggregated"], "lambda must be finite"),
        ("train", ["--lambda", "inf"], "lambda must be finite"),
        ("train", ["--val-frac", "-0.1"], "val_frac must be >= 0"),
        ("train", ["--test-frac", "nan"], "test_frac must be finite"),
        ("train", ["--val-frac", "0.5", "--test-frac", "0.5"],
         "val-frac + test-frac leave no training data"),
        ("eval", ["--test-frac", "-0.2"], "test_frac must be >= 0"),
        ("eval", ["--val-frac", "0.9", "--test-frac", "0.2"],
         "val-frac + test-frac leave no training data"),
        ("gen-synth", ["--noise-sigma", "nan"], "noise_sigma must be finite"),
        ("gen-synth", ["--noise-sigma", "inf"], "noise_sigma must be finite"),
        ("gen-synth", ["--noise-sigma=-inf"], "noise_sigma must be finite"),
        ("gen-synth", ["--noise-sigma", "-inf"], "noise_sigma must be finite"),
        ("eval", ["--beta", "nan"], "beta must be finite"),
        ("eval", ["--beta", "inf"], "beta must be finite"),
        ("eval", ["--beta=-inf"], "beta must be finite"),
        ("eval", ["--beta", "-inf"], "beta must be finite"),
        ("train", ["--learning-rate", "inf"], "learning_rate must be finite"),
        ("train", ["--learning-rate=-inf"], "learning_rate must be finite"),
        ("train", ["--learning-rate", "-inf"], "learning_rate must be finite"),
        ("train", ["--lambda=-inf"], "lambda must be finite"),
        ("train", ["--lambda", "-inf"], "lambda must be finite"),
        ("train", ["--lambda", "-1e400"], "lambda must be finite"),
        ("gen-synth", ["--seed", "-1"], "seed must be >= 0"),
        ("eval", ["--seed", "-1"], "seed must be >= 0"),
        ("train", ["--split-seed", "-1"], "split_seed must be >= 0"),
        ("eval", ["--split-seed", "-1"], "split_seed must be >= 0"),
        ("eval", ["--methods", "foo"], "unknown method 'foo'"),
        ("eval", ["--methods", " , "], "no methods selected"),
        ("eval", ["--methods", "visreg"], "method 'visreg' requires --checkpoint visreg=PATH"),
        ("eval", ["--checkpoint", "text2vis=other.t2vm"],
         "--checkpoint gives method 'text2vis' two checkpoints"),
        ("eval", ["--methods", "vissim", "--checkpoint", "bogus=x"],
         "--checkpoint names 'bogus', which is not a selected model method"),
        ("eval", ["--methods", "vissim", "--checkpoint", "text2vis=x"],
         "--checkpoint names 'text2vis', which is not a selected model method"),
        ("eval", ["--checkpoint", "vissim=x"],
         "--checkpoint names 'vissim', which is not a selected model method"),
    ])
    def test_rejected_before_any_input_is_read(self, tmp_path, capsys, command, words,
                                               message):
        # none of these exists: reading any of them would fail with another message
        missing = tmp_path / "missing"
        assert main(self.argv(command, missing) + words) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not missing.exists()

    @staticmethod
    def argv(command, missing):
        """A command line whose every input and output lies under ``missing``."""
        m = lambda name: str(missing / name)
        return {"build-vocab": ["build-vocab", "--captions", m("c.json"), "--out", m("v.txt")],
                "eval": ["eval", "--captions", m("c.json"), "--features", m("f.t2vf"),
                         "--vocab", m("v.txt"), "--checkpoint", f"text2vis={m('m.t2vm')}",
                         "--methods", "text2vis,vissim", "--out", m("out")],
                "gen-synth": ["gen-synth", "--out", m("out")],
                "search": ["search", "dog", "--checkpoint", m("m.t2vm"), "--vocab", m("v.txt"),
                           "--features", m("f.t2vf")],
                "train": ["train", "--captions", m("c.json"), "--features", m("f.t2vf"),
                          "--vocab", m("v.txt"), "--out", m("out")]}[command]

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, (_, flags) in cli.COMMANDS.items()
        for flag in flags
        for value in ([flag.low - 1] if flag.low is not None else [])
        + ([math.nan, math.inf, -math.inf] if flag.kind is float else [])],
        ids=lambda v: getattr(v, "key", str(v)))
    def test_every_declared_range_from_flag_and_file(self, tmp_path, capsys, command, flag,
                                                     value):
        label = flag.name or flag.key
        message = (f"{label} must be finite" if flag.kind is float and not math.isfinite(value)
                   else f"{label} must be >= {flag.low}")
        missing = tmp_path / "missing"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({flag.key: value}))
        for words in ([flag.flag, str(value)], ["--config", str(cfg_path)]):
            assert main(self.argv(command, missing) + words) == 1, words
            assert capsys.readouterr().err == f"error: {message}\n", words
            assert not missing.exists()

    def test_declared_ranges(self):
        lows = {(command, flag.key): flag.low for command, (_, flags) in cli.COMMANDS.items()
                for flag in flags if flag.low is not None}
        assert lows == {("gen-synth", "seed"): 0, ("train", "hidden"): 1, ("train", "seed"): 0,
                        ("train", "val_frac"): 0, ("train", "test_frac"): 0,
                        ("train", "split_seed"): 0, ("eval", "p"): 1, ("eval", "seed"): 0,
                        ("eval", "val_frac"): 0, ("eval", "test_frac"): 0,
                        ("eval", "split_seed"): 0, ("search", "k"): 1}

    def test_eval_split_all_ignores_the_fractions(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(self.argv("eval", missing) + ["--split", "all", "--val-frac", "2"]) == 1
        assert "v.txt" in capsys.readouterr().err

    def test_config_file_value_checked_alike(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k": 0}))
        missing = tmp_path / "missing"
        assert main(["search", "dog", "--checkpoint", str(missing / "m.t2vm"),
                     "--vocab", str(missing / "v.txt"), "--features", str(missing / "f.t2vf"),
                     "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.strip() == "error: k must be >= 1"

    def test_train_config_file_value_checked_alike(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"batch_size": 0}))
        missing = tmp_path / "missing"
        assert main(self.argv("train", missing) + ["--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.strip() == "error: batch_size must be >= 1"
        assert not missing.exists()


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, workspace, tmp_path, capsys):
        root, _ = workspace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "captions": str(root / "ds" / "captions.json"),
            "mode": "unigram", "min-freq-unigram": 2}))
        out = tmp_path / "v.txt"
        run_ok(["build-vocab", "--config", str(cfg_path), "--out", str(out)])
        assert out.read_text().splitlines()
        # an explicit flag beats the file value: a sky-high threshold now empties
        # the vocabulary, which is an error
        assert main(["build-vocab", "--config", str(cfg_path), "--out", str(out),
                     "--min-freq-unigram", "100000"]) != 0
        assert "empty" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"bogus": 1}')
        assert main(["build-vocab", "--config", str(cfg_path),
                     "--captions", "x", "--out", "y"]) != 0
        assert "unknown config keys" in capsys.readouterr().err

    def test_echoed_config_reproduces_run(self, workspace, tmp_path):
        root, common = workspace
        cfg = json.loads((root / "run_sl" / "config.json").read_text())
        cfg.pop("command")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(cfg))
        run_ok(["train", "--config", str(cfg_path), "--out", str(tmp_path / "replay")])
        assert (tmp_path / "replay" / "history.csv").read_bytes() == \
            (root / "run_sl" / "history.csv").read_bytes()

    @pytest.mark.parametrize("command, values, key", [
        ("eval", {"include_self": "false"}, "include_self"),
        ("search", {"k": "3"}, "k"),
        ("train", {"hidden": 16.5}, "hidden"),
        ("train", {"strategy": "sgd"}, "strategy"),
    ])
    def test_bad_value_rejected_before_any_work(self, tmp_path, capsys, command, values, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        # none of these exists: reading any of them would fail with another message
        missing = tmp_path / "missing"
        m = lambda name: str(missing / name)
        dataset = ["--captions", m("c.json"), "--features", m("f.t2vf"), "--vocab", m("v.txt")]
        argv = {"eval": ["eval", *dataset, "--out", m("out")],
                "train": ["train", *dataset, "--out", m("out")],
                "search": ["search", "dog", "--checkpoint", m("m.t2vm"), "--vocab", m("v.txt"),
                           "--features", m("f.t2vf")]}[command]
        argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in cli.COMMANDS.items() for flag in flags],
        ids=lambda v: getattr(v, "key", v))
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command, flag):
        words, file_value = sample_value(flag)
        base = [command, "dog"] if command == "search" else [command]
        for other in cli.COMMANDS[command][1]:  # every other required flag
            if other.default is None and not other.repeat and other is not flag:
                base += [other.flag, f"x/{other.key}"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({flag.key: file_value}))
        parser = cli.build_parser()
        from_flag = cli._resolve(parser.parse_args(base + words))
        from_file = cli._resolve(parser.parse_args(base + ["--config", str(cfg_path)]))
        assert from_flag == from_file
        assert from_flag[flag.key] != flag.default
        assert type(from_flag[flag.key]) is type(from_file[flag.key])

    def test_null_leaves_optional_flag_unset(self, tmp_path):
        # eval echoes "checkpoint": null when no checkpoint was given
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"checkpoint": null}')
        args = cli.build_parser().parse_args(
            ["eval", "--captions", "c", "--features", "f", "--vocab", "v", "--out", "o",
             "--config", str(cfg_path)])
        assert cli._resolve(args)["checkpoint"] is None


def test_command_is_required(capsys):
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err
