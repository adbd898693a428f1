"""Golden regression: fixed CLI invocations must keep their exact bytes.

Each case pins the sha256 of the CSV the command writes (None for ``run``,
which writes none) and of its stdout.  The command runs with the temporary
directory as its working directory and a relative ``--output``, so stdout
holds no varying path.  A change to any digest means the random stream, the
row order or the text format changed; that is a separate, declared decision,
not a side effect of a refactor.  ``GRAPHS`` pins the graph streams the
same way: the sha256 of each generator's edge-list text.
"""

import hashlib

import pytest

from beepmis import clique_family, complete_graph, erdos_renyi, grid_graph, path_graph, write_edge_list
from beepmis.cli import main

CASES = {
    # name: (argv, sha256 of the CSV or None, sha256 of stdout)
    "experiment-feedback": (
        ["experiment", "--graph", "er:0.5", "--policy", "feedback",
         "--n", "16", "32", "--trials", "4", "--seed", "11"],
        "e66020210ef277487c3c9da61a725870d7ab2816d978edeaf11413333a412b47",
        "8517da35865b6f480baf27e82a5845312cf76f2d45f51ca248a85e2d233ce1db",
    ),
    "experiment-feedback-general": (
        ["experiment", "--graph", "grid", "--policy", "feedback:f=3,init=0.3,cap=0.4",
         "--n", "10", "17", "--trials", "4", "--seed", "12"],
        "3dafc053ab3520759cfeee5538d92deafcfe64177eccf8262179fd679d2916b1",
        "1f446f779fbb5ed9716d3a9e35c2863109afbd6733e4f0e7d9c6e92ad6e50493",
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
    # three policies: the paired ratio lines need exactly two
    "lowerbound-three-policies": (
        ["lowerbound", "--m", "2", "3", "--policies", "feedback", "sweep", "const:0.5",
         "--trials", "3"],
        "ea578fa6a54435af11fb336f1d803184294fb2baefa882c01faa5e4630afdf2a",
        "54078871fcf042b4a42720761327ebcf0532e9ea9c6c843c980bdd005a07e0ac",
    ),
    # n = 1 has no reference curve, so it prints no line
    "reproduce-fig3-n1": (
        ["reproduce-fig3", "--n", "1", "16"],
        "538f1dcc2a36937194ef4bd21bf19df4a00a902f54b242a80d815710b3fbe69f",
        "423819b9e6ea644c0c60e557aaf0620df759e76ebfe624f64d8f6cf97d94573a",
    ),
    # every trial hits the round cap: the summary line has no statistics
    "experiment-none-terminated": (
        ["experiment", "--graph", "clique", "--policy", "const:1.0",
         "--n", "3", "--trials", "2", "--max-rounds", "2"],
        "48787ad46e0becd2247a050143bfea5c8a49646362a837f505db72bcfdab1173",
        "1c2511321a94a2dbb28d4c3d519e756274b9efddb809b2b82d007ff5151ddfee",
    ),
    "run-grid-trace": (
        ["run", "--graph", "grid:8,8", "--policy", "feedback", "--trace", "--seed", "18"],
        None,
        "de4fa848fe72bbfc540785bcae6adbdd28f95c9e03a72a39e9a06a85570e1357",
    ),
    # a numpy integer leaking into the result would print as np.int64(...)
    "run-grid-show-mis-trace": (
        ["run", "--graph", "grid:8,8", "--policy", "feedback", "--show-mis", "--trace", "--seed", "20"],
        None,
        "3890144268c81515f4f8b26cfad4f5b1a4eb1271ee5508acfca7001d34074c1e",
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
    monkeypatch.delenv("BEEPMIS_SEED", raising=False)  # cases without --seed use 0
    if csv_digest is not None:
        argv = argv + ["--output", "out.csv"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    if csv_digest is not None:
        assert sha256((tmp_path / "out.csv").read_bytes()) == csv_digest


GRAPHS = {
    # name: (graph constructor, sha256 of write_edge_list of the graph)
    "er-1-0.5-0": (lambda: erdos_renyi(1, 0.5, 0),
                   "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    "er-2-0.0-3": (lambda: erdos_renyi(2, 0.0, 3),
                   "4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51"),
    "er-50-1.0-3": (lambda: erdos_renyi(50, 1.0, 3),
                    "c57974c06fface1a7406774765100b71b81eaaa0f056b375ffc99ddeb3ef1868"),
    "er-64-0.1-7": (lambda: erdos_renyi(64, 0.1, 7),
                    "6cee064ebf536d9bb3795603873e93c4c7407ff7e9c72abf2bbe20e8516cbb35"),
    "er-300-0.5-11": (lambda: erdos_renyi(300, 0.5, 11),
                      "387533ebf410b57d9272eb860dcb84d41941d83eda14050d42addd9f4ab9f1bb"),
    "grid-7-9": (lambda: grid_graph(7, 9),
                 "4874af076d17ea87e385b7092ff43dee50500499ecddd29e42e9d1050da63d49"),
    "cliquefam-5": (lambda: clique_family(5),
                    "f375d3d0574965d7a2cf266283803fc28d093c1c3a6c4f7c59fa481148b9d35f"),
    "complete-6": (lambda: complete_graph(6),
                   "3855aca69894c94c7c28e83bbef2440f4b3b44f44fe8567de447989fceb3317e"),
    "path-10": (lambda: path_graph(10),
                "e2b30228e212fa45e8a5c33912630603b2212e2857e426b6e6a03313ff707a81"),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_golden_graph(name):
    build, digest = GRAPHS[name]
    assert sha256(write_edge_list(build()).encode()) == digest
