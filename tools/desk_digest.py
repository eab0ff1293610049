"""Hash every output of a fixed desk-scale text2vis pipeline.

Runs gen-synth, a unigram and an ngram build-vocab, seven trainings, three
evals and four searches with fixed flags in a temporary directory, then
prints `sha256  relative/path` for each file it wrote, sorted by path.  With
--expect FILE it compares the listing against FILE (same format) and exits 1
on any difference, so a change meant to keep every output byte-identical can
be checked in one command:

    python3 tools/desk_digest.py > listing.txt
    python3 tools/desk_digest.py --expect tools/desk_sha256.txt

Checkpoint bytes can depend on the BLAS build and its thread count, so a
listing is a check between two commits on one machine, not a portable file.
Continuous integration runs the tool twice and compares the two listings:
each command is a fresh process with its own string-hash seed, so any set or
dict order that leaks into an output shows up as a difference.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_INPUTS = ["--captions", "ds/captions.json", "--features", "ds/features.t2vf"]
_DATA = [*_INPUTS, "--vocab", "vocab.txt"]
_DATA_NGRAM = [*_INPUTS, "--vocab", "vocab_ngram.txt"]
_TRAIN_FLAGS = ["--hidden", "128", "--max-iters", "600", "--eval-every", "100", "--seed", "3"]
_TRAIN = ["train", *_DATA, *_TRAIN_FLAGS]
# A budget off its eval interval, so the last eval point is the budget's end.
_TRAIN_OFF_INTERVAL = ["train", *_DATA, "--strategy", "sl", "--hidden", "128",
                       "--max-iters", "250", "--eval-every", "20", "--seed", "3"]
_SEARCH = ["--checkpoint", "sl/checkpoint.t2vm", "--vocab", "vocab.txt",
           "--features", "ds/features.t2vf"]
_SEARCH_NGRAM = ["--checkpoint", "sl_ngram/checkpoint.t2vm", "--vocab", "vocab_ngram.txt",
                 "--features", "ds/features.t2vf"]

COMMANDS = [
    ["gen-synth", "--out", "ds"],
    ["build-vocab", "--captions", "ds/captions.json", "--out", "vocab.txt"],
    [*_TRAIN, "--strategy", "sl", "--out", "sl"],
    [*_TRAIN, "--strategy", "aggregated", "--lambda", "1", "--out", "agg1"],
    [*_TRAIN, "--strategy", "aggregated", "--lambda", "0", "--out", "agg0"],
    [*_TRAIN, "--strategy", "visreg", "--out", "visreg"],
    [*_TRAIN_OFF_INTERVAL, "--out", "sl_250"],
    [*_TRAIN_OFF_INTERVAL, "--patience", "1", "--learning-rate", "0.01", "--out", "sl_stop"],
    ["eval", *_DATA, "--methods", "text2vis,visreg,vissim,rrank",
     "--checkpoint", "text2vis=sl/checkpoint.t2vm",
     "--checkpoint", "visreg=visreg/checkpoint.t2vm", "--out", "eval"],
    ["eval", *_DATA, "--methods", "text2vis,vissim,rrank",
     "--checkpoint", "text2vis=sl/checkpoint.t2vm", "--include-self",
     "--split", "all", "--out", "eval_self"],
    ["build-vocab", "--captions", "ds/captions.json", "--mode", "ngram",
     "--out", "vocab_ngram.txt"],
    ["train", *_DATA_NGRAM, *_TRAIN_FLAGS, "--strategy", "sl", "--out", "sl_ngram"],
    ["eval", *_DATA_NGRAM, "--methods", "text2vis,vissim,rrank",
     "--checkpoint", "text2vis=sl_ngram/checkpoint.t2vm", "--out", "eval_ngram"],
]


def _text2vis(argv: list[str], cwd: Path) -> str:
    """Run one text2vis command in cwd; its stdout, or exit on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "text2vis.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"text2vis {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_pipeline(work: Path, text2vis=_text2vis) -> None:
    """Write every output of the command set under work; text2vis(argv, cwd)
    runs one command and returns its stdout."""
    for argv in COMMANDS:
        text2vis(argv, work)
    terms = (work / "vocab.txt").read_text(encoding="utf-8").split()
    searches = [text2vis(["search", terms[0], *_SEARCH, "--k", "10"], work),
                text2vis(["search", terms[0], terms[4], *_SEARCH, "--k", "5"], work)]
    (work / "search.txt").write_text("".join(searches), encoding="utf-8")
    # k at least the collection size, so every candidate takes the full formula.
    (work / "search_all.txt").write_text(
        text2vis(["search", terms[0], terms[4], *_SEARCH, "--k", "2000"], work),
        encoding="utf-8")
    # The first unigram and the first n-gram term of the ngram vocabulary.
    ngram_terms = (work / "vocab_ngram.txt").read_text(encoding="utf-8").split()
    first_unigram = next(t for t in ngram_terms if "_" not in t)
    first_ngram = next(t for t in ngram_terms if "_" in t)
    (work / "search_ngram.txt").write_text(
        text2vis(["search", first_unigram, first_ngram, *_SEARCH_NGRAM, "--k", "5"], work),
        encoding="utf-8")


def digest(work: Path) -> list[str]:
    """`sha256  relative/path` for every file under work, sorted by path."""
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
            for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", help="listing to compare against; exit 1 on any difference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="desk_digest_") as tmp:
        run_pipeline(Path(tmp))
        lines = digest(Path(tmp))
    print("\n".join(lines))
    if args.expect is None:
        return 0
    expected = Path(args.expect).read_text(encoding="utf-8").splitlines()
    missing, extra = sorted(set(expected) - set(lines)), sorted(set(lines) - set(expected))
    for line in missing:
        print(f"expected: {line}", file=sys.stderr)
    for line in extra:
        print(f"got:      {line}", file=sys.stderr)
    print(f"{len(lines)} files, {len(missing)} expected lines not matched", file=sys.stderr)
    return 1 if missing or extra else 0


if __name__ == "__main__":
    sys.exit(main())
