"""List the lines of the text2vis package that production traffic never runs.

Runs the desk command set of tools/desk_digest.py (gen-synth, both
build-vocab modes, the trainings, evals and searches) plus one fully
out-of-vocabulary search, all in this process and in a temporary directory,
with a line tracer set by the standard library's `sys.settrace`.  Then, for
each module of src/text2vis, it prints `path:line: source` for every
executable line that never ran, and a count per module:

    python3 tools/traffic.py

A listed line is either code only tests or other callers reach, or a check
that rejects input the command set never gives.  The listing is for reading;
the exit status is 0 whenever every command succeeds.

The `trace` module is not used: its ignore list is keyed on a module's bare
name, so once any ignored package's `__init__` has run, text2vis/__init__.py
is ignored too.
"""

from __future__ import annotations

import contextlib
import dis
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

import desk_digest

PACKAGE = desk_digest.SRC / "text2vis"
OOV_QUERY = "zzyzxq"  # no gen-synth caption word has a doubled z


def _in_process(argv: list[str], cwd: Path) -> str:
    """Run one text2vis command in this process with cwd as the working
    directory; its stdout, or exit on failure."""
    from text2vis import cli  # imported under the tracer, so module lines count

    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    if code != 0:
        sys.exit(f"text2vis {' '.join(argv)} exited {code}:\n{err.getvalue()}")
    return out.getvalue()


def run_traffic(work: Path) -> None:
    """The desk command set, then a search whose every word is out of
    vocabulary, against an untrained checkpoint as in the benchmark's search
    workload: its biases are zero, so the query's prediction is the zero vector."""
    from text2vis import data, nn

    desk_digest.run_pipeline(work, _in_process)
    terms = (work / "vocab.txt").read_text(encoding="utf-8").split()
    if OOV_QUERY in terms:
        sys.exit(f"{OOV_QUERY!r} is in the desk vocabulary")
    visual_dim = data.load_features(work / "ds" / "features.t2vf")[1].shape[1]
    nn.save_checkpoint(nn.init_model(len(terms), 8, visual_dim), work / "fresh.t2vm")
    _in_process(["search", OOV_QUERY, "--checkpoint", "fresh.t2vm", "--vocab", "vocab.txt",
                 "--features", "ds/features.t2vf", "--k", "5"], work)


def lines_run(fn, *args) -> set[tuple[str, int]]:
    """(real path, line) of every line of a text2vis module that fn(*args) runs."""
    files = {os.path.realpath(p) for p in PACKAGE.glob("*.py")}
    real: dict[str, str] = {}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((real[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        return local if real[name] in files else None

    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return ran


def executable_lines(path: Path) -> set[int]:
    """The line numbers at which some bytecode of the module's source starts."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: no line
        todo.extend(const for const in code.co_consts if inspect.iscode(const))
    return lines


def main() -> int:
    sys.path.insert(0, str(desk_digest.SRC))
    with tempfile.TemporaryDirectory(prefix="traffic_") as tmp:
        ran = lines_run(run_traffic, Path(tmp))
    root = desk_digest.SRC.parent
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        real = os.path.realpath(path)
        missed = sorted(line for line in lines if (real, line) not in ran)
        rel = path.relative_to(root).as_posix()
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        print(f"{rel}: {len(missed)} of {len(lines)} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
