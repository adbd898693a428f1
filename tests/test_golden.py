"""Golden regression: fixed CLI invocations must keep their exact bytes.

Each case pins the sha256 of the CSV the command writes (None for ``run``,
which writes none) and of its stdout.  The command runs with the temporary
directory as its working directory and a relative ``--output``, so stdout
holds no varying path.  A change to any digest means the random stream, the
row order or the text format changed; that is a separate, declared decision,
not a side effect of a refactor.
"""

import hashlib

import pytest

from beepmis.cli import main

CASES = {
    # name: (argv, sha256 of the CSV or None, sha256 of stdout)
    "experiment-feedback": (
        ["experiment", "--graph", "er:0.5", "--policy", "feedback",
         "--n", "16", "32", "--trials", "4", "--seed", "11"],
        "e66020210ef277487c3c9da61a725870d7ab2816d978edeaf11413333a412b47",
        "8517da35865b6f480baf27e82a5845312cf76f2d45f51ca248a85e2d233ce1db",
    ),
    # n 10 and 16 both map to the 4x4 grid: rows keep spec order
    "experiment-feedback-general": (
        ["experiment", "--graph", "grid", "--policy", "feedback:f=3,init=0.3,cap=0.4",
         "--n", "10", "16", "--trials", "4", "--seed", "12"],
        "3c5eab13bde30513bc8b723fcebdeb2c9aa6cc6cb7aff37e6f5e6d804bd9d3c9",
        "9764ef6174859eb0f06138621f3096fab3c38657daf411bfd22ed8586c0a79dd",
    ),
    "experiment-const": (
        ["experiment", "--graph", "path", "--policy", "const:0.3",
         "--n", "8", "--trials", "4", "--seed", "13"],
        "63df60dc5c41f13f98019c434ae592ee35efb8f4ae1aba667734caf999fe740d",
        "a8f4ceca99f755c709bd495a0b21d356f39b29c09dbc219372e992d013a1fa97",
    ),
    "experiment-sweep": (
        ["experiment", "--graph", "clique", "--policy", "sweep",
         "--n", "8", "5", "--trials", "4", "--seed", "14"],
        "b98fb2432204f78169342cdc1157565866fc704e125a7de21d9a5c14a49ed9d6",
        "9fd3786d9138eab7368041cfd19bbe4a0ae0b92b31041ef5e004a6753c18d2df",
    ),
    "lowerbound": (
        ["lowerbound", "--m", "2", "3", "4", "--trials", "5", "--seed", "15"],
        "d672a84a1bf8badb267bce9d92b7d901e1a716b0c2f1f06204b3507c78281020",
        "9f8cf01eb33f7ffea4705dd2ef56d5bfb5b690ac02545ee94cc645e591d36328",
    ),
    "reproduce-fig3": (
        ["reproduce-fig3", "--n", "16", "32", "--seed", "16"],
        "0323911687f2a16e849876cab2215d294f17fab0f3c5ec29997e965295afd3b2",
        "39b2dad96f709cf92b2da43894cacc4627f4262263b6d4e1d2dbe5ee4a87ec61",
    ),
    "reproduce-fig5": (
        ["reproduce-fig5", "--n", "9", "--seed", "17"],
        "cf561f979ca45727481a52d79cf374598866f9803df47586c5a03f547c8f1172",
        "1657dd3502e7744832e46b994751e10d544a2965283db6b62c8b3d8479d01dac",
    ),
    "run-grid-trace": (
        ["run", "--graph", "grid:8,8", "--policy", "feedback", "--trace", "--seed", "18"],
        None,
        "de4fa848fe72bbfc540785bcae6adbdd28f95c9e03a72a39e9a06a85570e1357",
    ),
    "run-er-show-mis": (
        ["run", "--graph", "er:20,0.3", "--policy", "sweep", "--show-mis", "--seed", "19"],
        None,
        "09a2166a6196c550a54c12c80d2a4671fd51e755c57d3d60f68b70cfd319d45b",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, monkeypatch, capsys):
    argv, csv_digest, stdout_digest = CASES[name]
    monkeypatch.chdir(tmp_path)
    if csv_digest is not None:
        argv = argv + ["--output", "out.csv"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    if csv_digest is not None:
        assert sha256((tmp_path / "out.csv").read_bytes()) == csv_digest
