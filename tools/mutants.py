"""Operator-flip mutation sweep over chosen functions of the package.

Each mutant replaces one comparison (<, <=, >, >=, ==, !=) by another of
the six, or one arithmetic operator (+, -, *, /, //, %, plain or augmented
as in ``+=``) by another of the six.  A site is an AST node, so nested
operators on one line are told apart, and only the operator's own
characters change in the source.  Each mutant is written into a private
copy of the repository, and the test suite runs against it with
``-x``: a failing or timed-out run kills the mutant, a passing run lets it
survive.  Survivors are the operators no test pins.

Run by hand from the repository root; pytest does not collect this file.

    python tools/mutants.py src/fedbft/fl.py:accuracy,pooled_mean_loss \\
        src/fedbft/sim.py:run_training --jobs 2

``--list`` prints the mutants without running them, and arguments after
``--`` go to pytest in place of the default ``tests``.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parents[1]

COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}
ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
         ast.FloorDiv: "//", ast.Mod: "%"}
# longest first, so "//=" is not read as "/"
TOKENS = sorted({*COMPARE.values(), *ARITH.values(),
                 *(op + "=" for op in ARITH.values())}, key=len, reverse=True)


@dataclass(frozen=True)
class Mutant:
    path: str        # relative to the repository root
    function: str
    line: int
    start: int       # character offsets of the operator in the file
    end: int
    old: str
    new: str

    def describe(self, text: str) -> str:
        src = text.splitlines()[self.line - 1].strip()
        return f"{self.path}:{self.line} {self.function}: {self.old} -> {self.new}  | {src}"


def _offset(line_starts: list[int], lineno: int, col: int) -> int:
    return line_starts[lineno - 1] + col


def _operator_at(text: str, start: int, end: int) -> tuple[int, str]:
    """The first operator token in text[start:end], skipping blanks,
    parentheses, line continuations and comments."""
    i = start
    while i < end:
        ch = text[i]
        if ch in " \t\r\n\\()":
            i += 1
        elif ch == "#":
            i = text.index("\n", i)
        else:
            for tok in TOKENS:
                if text.startswith(tok, i):
                    return i, tok
            raise ValueError(f"no operator at offset {i}: {text[i:i + 20]!r}")
    raise ValueError(f"no operator between offsets {start} and {end}")


def _gaps(node: ast.AST):
    """(left operand, right operand, operator kinds) for each operator."""
    if isinstance(node, ast.BinOp) and type(node.op) in ARITH:
        yield node.left, node.right, ARITH
    elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH:
        yield node.target, node.value, ARITH
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for left, right, op in zip(operands, operands[1:], node.ops):
            if type(op) in COMPARE:
                yield left, right, COMPARE


def mutants_of(path: str, functions: set[str]) -> list[Mutant]:
    text = (ROOT / path).read_text()
    line_starts = [0]
    for line in text.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    out = []
    tree = ast.parse(text)
    found = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name in functions):
            continue
        found.add(fn.name)
        for node in ast.walk(fn):
            for left, right, kinds in _gaps(node):
                start, tok = _operator_at(
                    text, _offset(line_starts, left.end_lineno, left.end_col_offset),
                    _offset(line_starts, right.lineno, right.col_offset))
                augmented = isinstance(node, ast.AugAssign)
                old = tok[:-1] if augmented else tok
                for new in kinds.values():
                    if new != old:
                        out.append(Mutant(path, fn.name, node.lineno, start,
                                          start + len(tok), tok,
                                          new + "=" if augmented else new))
    missing = functions - found
    if missing:
        raise SystemExit(f"{path}: no function named {', '.join(sorted(missing))}")
    return sorted(set(out), key=lambda m: (m.path, m.start, m.new))


def _copy_tree(dest: Path) -> None:
    # the tests read the README, configs/ and perfbench/ as well as src/
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".hypothesis", ".perfbench_work",
        "BENCH_*.json"))


def _passes(copy: Path, pytest_args: list[str], timeout: float) -> bool:
    """True when the suite passes in the copy; bytecode is never cached,
    so a mutant of the same size and mtime as the source is still read."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *pytest_args], cwd=copy, env=env, capture_output=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _run(mutant: Mutant, copy: Path, pytest_args: list[str],
         timeout: float) -> bool:
    """True when the suite passes against the mutant: it survives."""
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(original[:mutant.start] + mutant.new
                      + original[mutant.end:])
    try:
        return _passes(copy, pytest_args, timeout)
    finally:
        target.write_text(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+",
                        help="path:function[,function...] relative to the root")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants run at once, each in its own copy")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds one suite run may take")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and stop")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1:] or ["tests"]
    mutants = []
    for target in args.targets:
        path, _, names = target.partition(":")
        mutants += mutants_of(path, set(filter(None, names.split(","))))
    texts = {m.path: (ROOT / m.path).read_text() for m in mutants}
    if args.list:
        for m in mutants:
            print(m.describe(texts[m.path]))
        print(f"{len(mutants)} mutants")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        copies: Queue = Queue()
        for j in range(max(1, args.jobs)):
            copy = Path(work) / f"copy{j}"
            _copy_tree(copy)
            copies.put(copy)

        def attempt(m: Mutant) -> bool:
            copy = copies.get()
            try:
                return _run(m, copy, pytest_args, args.timeout)
            finally:
                copies.put(copy)

        t0 = time.monotonic()
        if not _passes(copies.queue[0], pytest_args, args.timeout):
            raise SystemExit("the suite fails without a mutant")
        survivors = []
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            for m, survived in zip(mutants, pool.map(attempt, mutants)):
                verdict = "SURVIVED" if survived else "killed  "
                print(f"{verdict} {m.describe(texts[m.path])}", flush=True)
                if survived:
                    survivors.append(m)
    print(f"{len(mutants)} mutants, {len(survivors)} survived, "
          f"{time.monotonic() - t0:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
