"""The README's examples, run as written.

Each ``$ luk3 ...`` line of an ``sh`` block runs through ``main`` in a
directory holding the README's theory files (the plain blocks that start
with ``% name.dl3``); the lines after it, up to the next ``$`` line or the
end of the block, are its standard output.  Trailing ``# ...`` comments are
not part of a command or its output, except that ``exit N`` in the comments
of an example gives its exit code, which is 0 otherwise.  The ``python``
block runs as a script.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from luk3.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
COMMENT = re.compile(r"\s+#\s*(.*)$")


def _blocks(tag: str) -> list[str]:
    return [body for t, body in FENCE.findall(README.read_text(encoding="utf-8")) if t == tag]


def _uncomment(line: str) -> tuple[str, str]:
    """``line`` without its trailing comment, and the comment."""
    m = COMMENT.search(line)
    return (line[:m.start()], m.group(1)) if m else (line, "")


def _examples() -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of each ``$ luk3`` line."""
    out = []
    for body in _blocks("sh"):
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if not chunk.startswith("$ luk3 "):
                continue
            lines = [_uncomment(line) for line in chunk.splitlines()]
            codes = re.findall(r"\bexit (\d)\b", " ".join(comment for _, comment in lines))
            argv = shlex.split(lines[0][0].removeprefix("$ luk3 "))
            stdout = "".join(text + "\n" for text, _ in lines[1:])
            out.append((argv, stdout, int(codes[0]) if codes else 0))
    return out


THEORIES = {m.group(1): body for body in _blocks("")
            if (m := re.match(r"% (\S+\.dl3)\n", body))}
EXAMPLES = _examples()


def test_examples_cover_every_command():
    assert set(THEORIES) == {"fork.dl3", "none.dl3"}
    assert {argv[0] for argv, _, _ in EXAMPLES} == {
        "eval", "valid", "prove", "refute", "extensions", "brave", "skeptical"}


@pytest.mark.parametrize("argv, stdout, code", EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_cli_example(argv, stdout, code, tmp_path, monkeypatch, capsys):
    for name, text in THEORIES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


def test_library_use():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
