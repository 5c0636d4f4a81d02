"""Every ``fedbft`` command in the README's sh blocks runs, at a small size,
and every flag the README names exists."""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from fedbft import sim
from fedbft.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
# appended after the README's own flags, so argparse keeps these values
SIZE_OVERRIDES = {"simulate": ["--reps", "20"], "sweep": ["--reps", "20"],
                  "fl-run": ["--cycle-cap", "2"]}


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("fedbft ")]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the commands name configs/ relative to the root
    argv = shlex.split(command)[1:]
    out = tmp_path / "out.csv"
    code = main(argv + SIZE_OVERRIDES.get(argv[0], []) + ["--out", str(out)])
    assert code == 0, capsys.readouterr().err
    header, *rows = out.read_text().splitlines()
    assert re.fullmatch(r"[a-z_]+(,[a-z_]+)+", header), header
    assert rows


def test_readme_flags_are_options_of_some_command():
    text = (ROOT / "README.md").read_text()
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    named = {flag for span in re.findall(r"`([^`\n]+)`", prose)
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    assert named  # the pattern still finds the README's flags
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in commands.values()
               for flag in sub._option_string_actions}
    assert sorted(named - options) == []


def test_readme_chunk_size_is_the_simulators():
    text = (ROOT / "README.md").read_text()
    stated = re.findall(r"The chunk size\s+R\s+=\s+(\d+)", text)
    assert stated == [str(sim._CHUNK_REPS)]
