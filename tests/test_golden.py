"""Golden ``--json`` documents: the stable CLI schema, byte for byte.

Each argv below is a README command-line example (plus the four ``poly``
operations the README does not show, a contact query on a quintic with a
large rational coefficient, and a de Jonquieres count with two kinds of
multiple points); its ``--json`` output must equal the stored
document in ``tests/golden/`` exactly.  The commands that print record
tables (``invariants``, ``verify plucker``, ``poly developable``) also have
their text-mode output pinned, in a ``.txt`` document next to the JSON one.
After an intended output change, regenerate the documents with
``python tests/test_golden.py``.
"""

import shlex
import sys
from pathlib import Path

import pytest

from polarcalc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = [
    "invariants surface --degree 4",
    "invariants branch --degree 3",
    "invariants developable --degree 4",
    "invariants projected --n 4 --pi 0 --pa 0 --ksq 9",
    "verify all",
    "verify all --degree-range 3..12",
    "verify all --modp 1048583",
    "verify models",
    "verify plucker --chars degree=4,class=12,nodes=0,cusps=0,bitangents=28,flexes=24",
    'poly hessian --expr "x^3+y^3+z^3+w^3"',
    'poly line-mult --expr "x^3+y^3+z^3+w^3" --point 1,-1,0,0 --dir 0,0,1,0',
    'poly polar --expr "x^3+y^3+z^3+w^3" --point 1,1,1,1 --order 1',
    'poly tangent-cone --expr "y^2*w-x^3" --point 0,0,0,1',
    'poly classify --expr "x*w-y*z" --point 1,0,0,0',
    'poly flecnodal --expr "x^3+y^3+z^3+w^3" --point 1,-1,1,-1',
    'poly covariants --expr "x^3+y^3+z^3+w^3"',
    "poly dejonquieres --m 4 --genus 0 --mult 2:1",
    "poly rank-profile --m 3 --genus 0 --k 0,0,0",
    "poly developable --chars m=3,genus=0,alpha=0,beta=0",
    'poly polar-kic --expr "x^3+y^3+z^3+w^3" --point 1,1,1,1 --order 2',
    'poly tangent-plane --expr "x^3+y^3+z^3+w^3" --point 1,-1,0,0',
    'poly second-form --expr "x*w-y*z" --point 1,0,0,0',
    'poly contact --expr "x*w-y*z" --point 1,0,0,0',
    'poly contact --expr="-324781/3125*x^5 - 2*x^3*y^2 - x^2*y^3 - 4*x^3*y*z - 2*y*z^4'
    ' + 7*x^3*z*w + 8*x*w^4" --point=5,-8,-7,-9',
    "invariants branch --degree 2",
    "invariants surface --degree 3",
    "invariants surface --degree 1000000000000000000000",
    "poly rank-profile --m 6 --genus 2 --k 0,2,32",
    "poly rank-profile --m 4 --genus 1 --k 0,12 --dim 2",
    "invariants developable --degree 1000000000000000000000",
    "poly dejonquieres --m 16 --genus 3 --mult 2:4,3:1",
]

TEXT_CASES = [
    (index, command)
    for index, command in enumerate(COMMANDS)
    if command.startswith(("invariants ", "verify plucker ", "poly developable "))
]


def golden_path(index: int, command: str, suffix: str = ".json") -> Path:
    words = shlex.split(command)
    return GOLDEN_DIR / f"{index:02d}_{words[0]}_{words[1]}{suffix}"


def json_output(capsys, command: str) -> str:
    code = main(shlex.split(command) + ["--json"])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("index, command", list(enumerate(COMMANDS)), ids=COMMANDS)
def test_json_document_is_unchanged(capsys, index, command):
    assert json_output(capsys, command) == golden_path(index, command).read_text(
        encoding="utf-8"
    )


@pytest.mark.parametrize("index, command", TEXT_CASES, ids=[c for _, c in TEXT_CASES])
def test_text_document_is_unchanged(capsys, index, command):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == golden_path(index, command, ".txt").read_text(
        encoding="utf-8"
    )


if __name__ == "__main__":
    import contextlib
    import io

    def write_document(index, command, extra, suffix):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(shlex.split(command) + extra) != 0:
                sys.exit(f"nonzero exit: {command}")
        golden_path(index, command, suffix).write_text(out.getvalue(), encoding="utf-8")

    GOLDEN_DIR.mkdir(exist_ok=True)
    for index, command in enumerate(COMMANDS):
        write_document(index, command, ["--json"], ".json")
    for index, command in TEXT_CASES:
        write_document(index, command, [], ".txt")
