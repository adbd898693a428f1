"""The text-number rule at every place beepmis reads a number from text.

An integer is ASCII decimal (``errors.parse_decimal``), a real number an ASCII
decimal with an optional fraction and exponent (``errors.parse_real``).  Any
other spelling that ``int()`` or ``float()`` takes, such as ``1_0``, ``+7``,
a leading space, a non-ASCII digit, ``inf`` or ``nan``, is refused: the CLI
exits 1 with a message that names the flag, the field or the variable.
"""

import math

import pytest
from hypothesis import given, strategies as st

import beepmis.engine as engine
from beepmis import Constant, InvalidParameter, LocalFeedback, ParseError, parse_policy
from beepmis.cli import EXIT_OK, EXIT_USAGE, main
from beepmis.errors import parse_decimal, parse_real
from beepmis.metrics import format_float

# Spellings that int() and float() read, but the rule does not: 10, 7, 7 and
# 3 (an Arabic-Indic digit), or 0.5 (Arabic-Indic digits), 10, inf and nan.
BAD_INTEGERS = ("1_0", "+7", " 7", "٣")
BAD_REALS = ("٠.٥", "1_0", "inf", "nan")

BATCH = ["--graph", "path", "--policy", "sweep", "--n", "3", "--trials", "1"]
# (name, argv with {} for the refused text, what the error must name)
INTEGER_SITES = [
    ("run --seed", ["run", "--graph", "path:3", "--policy", "sweep", "--seed", "{}"], "argument --seed"),
    ("run --max-rounds", ["run", "--graph", "path:3", "--policy", "sweep", "--max-rounds", "{}"],
     "argument --max-rounds"),
    ("experiment --seed", ["experiment", *BATCH, "--seed", "{}"], "argument --seed"),
    ("experiment --jobs", ["experiment", *BATCH, "--jobs", "{}"], "argument --jobs"),
    ("experiment --trials", ["experiment", *BATCH, "--trials", "{}"], "argument --trials"),
    ("experiment --max-rounds", ["experiment", *BATCH, "--max-rounds", "{}"], "argument --max-rounds"),
    ("experiment --n", ["experiment", *BATCH, "--n", "{}"], "argument --n"),
    ("lowerbound --m", ["lowerbound", "--trials", "1", "--m", "{}"], "argument --m"),
    ("lowerbound --trials", ["lowerbound", "--m", "2", "--trials", "{}"], "argument --trials"),
    ("lowerbound --max-rounds", ["lowerbound", "--m", "2", "--trials", "1", "--max-rounds", "{}"],
     "argument --max-rounds"),
    ("reproduce-fig3 --n", ["reproduce-fig3", "--n", "{}"], "argument --n"),
    ("reproduce-fig5 --n", ["reproduce-fig5", "--n", "{}"], "argument --n"),
    ("run path", ["run", "--graph", "path:{}", "--policy", "sweep"], "path length"),
    ("run clique", ["run", "--graph", "clique:{}", "--policy", "sweep"], "clique size"),
    ("run cliquefam", ["run", "--graph", "cliquefam:{}", "--policy", "sweep"], "family parameter"),
    ("run grid rows", ["run", "--graph", "grid:{},2", "--policy", "sweep"], "rows"),
    ("run grid cols", ["run", "--graph", "grid:2,{}", "--policy", "sweep"], "cols"),
    ("run er n", ["run", "--graph", "er:{},0.5", "--policy", "sweep"], "er node count"),
]
REAL_SITES = [
    ("run er p", ["run", "--graph", "er:8,{}", "--policy", "sweep"], "er edge probability"),
    ("experiment er p", ["experiment", "--graph", "er:{}", "--policy", "sweep", "--n", "8", "--trials", "1"],
     "er edge probability"),
    ("const", ["run", "--graph", "path:3", "--policy", "const:{}"], "bad constant probability"),
    ("feedback f", ["run", "--graph", "path:3", "--policy", "feedback:f={}"], "bad feedback value"),
    ("feedback init", ["run", "--graph", "path:3", "--policy", "feedback:init={}"], "bad feedback value"),
    ("feedback cap", ["run", "--graph", "path:3", "--policy", "feedback:cap={}"], "bad feedback value"),
]
CASES = [pytest.param(argv, text, names, id=f"{name}-{text!a}")
         for sites, texts in ((INTEGER_SITES, BAD_INTEGERS), (REAL_SITES, BAD_REALS))
         for name, argv, names in sites for text in texts]


@pytest.mark.parametrize("argv, text, names", CASES)
def test_cli_refuses_other_spellings(argv, text, names, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a batch that ran would write here
    monkeypatch.delenv("BEEPMIS_SEED", raising=False)
    runs = []
    monkeypatch.setattr(engine, "run", lambda *a, **k: runs.append(a))
    assert main([arg.format(text) for arg in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and repr(text) in err
    assert runs == []


@pytest.mark.parametrize("text", BAD_INTEGERS, ids=ascii)
def test_env_seed_refuses_other_spellings(text, monkeypatch, capsys):
    monkeypatch.setenv("BEEPMIS_SEED", text)
    assert main(["run", "--graph", "path:3", "--policy", "sweep"]) == EXIT_USAGE
    assert "BEEPMIS_SEED" in capsys.readouterr().err


def test_graph_spec_with_a_space_is_refused(capsys):
    assert main(["run", "--graph", "path: 5", "--policy", "sweep"]) == EXIT_USAGE
    assert "path length must be int, got ' 5'" in capsys.readouterr().err


def test_spellings_in_use_still_read(monkeypatch, capsys):
    for text in ("-5", "0.50", "1.0", ".5", "5e-1", "1e-05"):
        assert parse_real(text) == float(text)
    assert parse_policy("const:.5").name == parse_policy("const:5e-1").name == "const:0.5"
    assert parse_policy("feedback:init=1e-05").initial == 1e-05
    monkeypatch.setenv("BEEPMIS_SEED", "-5")
    assert main(["run", "--graph", "er:8,0.50", "--policy", "const:.5"]) == EXIT_OK
    assert main(["run", "--graph", "path:3", "--policy", "sweep", "--seed", "-5"]) == EXIT_OK
    assert [line.split()[3] for line in capsys.readouterr().out.splitlines()] == ["seed=-5"] * 2


def test_overflowing_exponent_meets_the_range_check():
    assert parse_real("1e400") == math.inf
    for text, message in (("const:1e400", "probability must be in"),
                          ("feedback:f=1e400", "adjustment factor must be finite")):
        with pytest.raises(InvalidParameter, match=message):
            parse_policy(text)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_written_float_reads_back(x):
    for text in (format_float(x), f"{x:g}", repr(x)):
        assert parse_real(text) == float(text)


@given(st.integers())
def test_every_written_integer_reads_back(i):
    assert parse_decimal(str(i)) == i


@given(st.text(alphabet=st.sampled_from("0123456789+-._eEinfa ١")))
def test_readers_take_a_subset_of_int_and_float(text):
    for reader, convert in ((parse_decimal, int), (parse_real, float)):
        try:
            value = reader(text)
        except ParseError:
            continue
        assert value == convert(text)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_constant_name_round_trips(p):
    assert parse_policy(Constant(p).name).name == Constant(p).name


@given(st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
       st.floats(min_value=2.0 ** -64, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=1.0))
def test_feedback_name_round_trips(factor, cap, share):
    initial = min(max(cap * share, 2.0 ** -64), cap)
    policy = LocalFeedback(factor, initial, cap)
    assert parse_policy(policy.name).name == policy.name

