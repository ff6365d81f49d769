"""Exit code, stdout and stderr of every CLI error path and a few answers.

Each row runs `cli.main` in a directory holding the input files below and
pins the exit code, a SHA-256 prefix of stdout, and stderr verbatim, so
a change to where the CLI handles its errors keeps the same bytes.  After
an intended change, print the current rows with

    PYTHONPATH=src python tests/test_exit_codes.py
"""

import hashlib
import os
import tempfile

import pytest

from outerspatial import generators as gen
from outerspatial.cli import main
from outerspatial.fileformat import format_complex

FILES = {
    "multi": "vertex a\nvertex b\nedge e a b\nedge f a b\nedge l a a\nfacee q e f\n",
    "bad": "vertex a\nedge e a b\n",
    "g": ("vertex a\nvertex b\nvertex c\nvertex d\n"
          "edge ab a b\nedge bc b c\nedge cd c d\nedge da d a\nedge ac a c\n"),
    "c1": "cycle x a b c d\n",
    "badcyc": "cycle x a\n",
    "missing": "cycle x a b z\n",
    "tetra": format_complex(gen.tetra()),
    "torus7": format_complex(gen.torus7()),
    "prism5": format_complex(gen.prism(5)),
    "cone-k23": format_complex(gen.cone_over_graph(gen.named_graph("k23"))),
}

# (argv, exit code, SHA-256 of stdout (first 16 hex digits), stderr)
ROWS = [
    ('decide nofile', 3, 'e3b0c44298fc1c14',
     "error: [Errno 2] No such file or directory: 'nofile'\n"),
    ('decide bad', 3, 'e3b0c44298fc1c14',
     'error: bad: line 2: edge e references undeclared vertex b\n'),
    ('decide multi', 3, 'e3b0c44298fc1c14',
     'error: input complex is not validated: loop l at a\n'),
    ('decide cone-k23', 1, 'a04934676f5599b4',
     ''),
    ('decide torus7', 1, '3ddb348bdd896dd9',
     ''),
    ('decide', 3, 'e3b0c44298fc1c14',
     'usage: outerspatial decide [-h] file\nerror: the following arguments are required: file\n'),
    ('oracle multi', 3, 'e3b0c44298fc1c14',
     'error: loop l at a\n'),
    ('oracle tetra', 0, '97ffeb97bcceae8e',
     ''),
    ('oracle torus7 --cap 3', 1, 'b982ccd604ee1b0b',
     ''),
    ('oracle prism5 --cap 3', 4, 'e3b0c44298fc1c14',
     'error: 1024 rotation systems exceed the cap of 3\n'),
    ('render multi', 3, 'e3b0c44298fc1c14',
     'error: input complex is not validated: loop l at a\n'),
    ('render tetra --link zz', 3, 'e3b0c44298fc1c14',
     'error: unknown vertex zz\n'),
    ('render tetra --link a', 0, '556db07989d33763',
     ''),
    ('nested g c1 --cap 1', 2, '890df00278a36f3f',
     ''),
    ('nested g c1 --cap 1000', 0, '65c677229c1df27e',
     ''),
    ('nested g badcyc', 3, 'e3b0c44298fc1c14',
     'error: badcyc: line 1: cycle needs an id and at least three vertices\n'),
    ('nested g missing', 3, 'e3b0c44298fc1c14',
     'error: missing: cycle x: no edge between b and z\n'),
    ('nested multi c1', 3, 'e3b0c44298fc1c14',
     'error: c1: cycle x: ambiguous edge between a and b\n'),
    ('nested g nofile', 3, 'e3b0c44298fc1c14',
     "error: [Errno 2] No such file or directory: 'nofile'\n"),
    ('generate nosuch', 3, 'e3b0c44298fc1c14',
     "error: unknown generator 'nosuch'\n"),
    ('generate bipyramid x', 3, 'e3b0c44298fc1c14',
     "error: invalid literal for int() with base 10: 'x'\n"),
    ('generate cone', 3, 'e3b0c44298fc1c14',
     'error: cone needs a graph file\n'),
    ('generate cone nofile', 3, 'e3b0c44298fc1c14',
     "error: [Errno 2] No such file or directory: 'nofile'\n"),
    ('generate cone bad', 3, 'e3b0c44298fc1c14',
     'error: bad: line 2: edge e references undeclared vertex b\n'),
    ('generate random --vertices 3', 3, 'e3b0c44298fc1c14',
     'error: a random complex needs at least 4 vertices, not 3\n'),
    ('validate multi', 1, '989275de481d13ee',
     ''),
    ('links multi', 0, '10a35ba2f27e916e',
     ''),
    ('surface multi', 0, 'd30c470d4696b656',
     ''),
    ('links cone-k23', 0, 'e2a4873a9bed3302',
     ''),
    ('bogus', 3, 'e3b0c44298fc1c14',
     "usage: outerspatial [-h]\n"
     "                    {validate,links,decide,nested,oracle,surface,render,generate}\n"
     "                    ...\n"
     "error: argument command: invalid choice: 'bogus' (choose from 'validate', "
     "'links', 'decide', 'nested', 'oracle', 'surface', 'render', 'generate')\n"),
    ('--help', 0, '7f01d8e086511af1',
     ''),
]


def write_files(root: str) -> None:
    for name, text in FILES.items():
        with open(os.path.join(root, name), "w") as fh:
            fh.write(text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, code, out, err", ROWS, ids=[r[0] for r in ROWS])
def test_exit_code_and_output(argv, code, out, err, tmp_path, monkeypatch, capsys):
    write_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    got = main(argv.split())
    captured = capsys.readouterr()
    assert (got, digest(captured.out), captured.err) == (code, out, err)


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as root:
        write_files(root)
        os.chdir(root)
        for argv in [r[0] for r in ROWS]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv.split())
            print(f"    ({argv!r}, {code}, {digest(out.getvalue())!r},\n"
                  f"     {err.getvalue()!r}),")
