import math
import statistics

import pytest
from hypothesis import given, strategies as st

from beepmis import (
    CSV_HEADER,
    EmptySample,
    InvalidParameter,
    LocalFeedback,
    ParseError,
    TrialRecord,
    complete_graph,
    filter_terminated,
    read_records,
    record_from_run,
    reference_curves,
    run,
    summarize,
    write_records,
)


def make_record(**overrides):
    base = dict(
        policy="feedback", graph="er", n=16, param="0.5", trial=0, seed=1,
        rounds=4, terminated=True, total_beeps=24, beeps_per_node=1.5, mis_size=5,
    )
    base.update(overrides)
    return TrialRecord(**base)


class TestSummarize:
    def test_single_value(self):
        stats = summarize([make_record(rounds=4)], "rounds")
        assert stats.count == 1 and stats.mean == 4 and stats.stddev == 0
        assert stats.minimum == 4 and stats.maximum == 4

    def test_two_values(self):
        stats = summarize([make_record(rounds=2), make_record(rounds=4)], "rounds")
        assert stats.mean == 3
        assert stats.stddev == pytest.approx(math.sqrt(2))

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            summarize([], "rounds")

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=30),
           st.randoms())
    def test_permutation_invariant(self, values, rnd):
        records = [make_record(trial=i, rounds=v) for i, v in enumerate(values)]
        shuffled = list(records)
        rnd.shuffle(shuffled)
        assert summarize(records, "rounds") == summarize(shuffled, "rounds")

    def test_k2_feedback_mean_rounds(self):
        # K_2 terminates at round 1 with probability exactly 1/2; the
        # geometric picture puts the mean near 2 (the exact chain mean is
        # slightly higher because an all-beep round lowers both probabilities)
        g = complete_graph(2)
        records = []
        for seed in range(100):
            result = run(g, LocalFeedback(), seed=seed)
            records.append(record_from_run("feedback", "clique", "2", seed, seed, result))
        stats = summarize(records, "rounds")
        assert stats.mean == pytest.approx(2.0, abs=0.3)

    def test_filter_terminated(self):
        records = [make_record(terminated=True), make_record(trial=1, terminated=False)]
        kept = filter_terminated(records)
        assert len(kept) == 1 and kept[0].terminated


class TestReferenceCurves:
    def test_n_1024(self):
        assert reference_curves(1024) == (10, 100, 25)

    def test_n_2(self):
        assert reference_curves(2) == (1, 1, 2.5)

    def test_n_64(self):
        assert reference_curves(64) == (6, 36, 15)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameter):
            reference_curves(1)


class TestRecords:
    def test_record_from_run_exact_ratio(self):
        result = run(complete_graph(4), LocalFeedback(), seed=3)
        record = record_from_run("feedback", "clique", "4", 0, 3, result)
        assert record.n == 4
        assert record.beeps_per_node == record.total_beeps / 4
        assert record.rounds >= 1
        assert record.mis_size == 1

    def test_csv_roundtrip(self, tmp_path):
        # beeps_per_node values that fit in the 6-significant-digit format
        records = [
            make_record(trial=0, beeps_per_node=1.0),
            make_record(trial=1, terminated=False, beeps_per_node=1.3125),
        ]
        path = tmp_path / "out.csv"
        write_records(str(path), records)
        assert read_records(str(path)) == records

    def test_csv_format(self, tmp_path):
        path = tmp_path / "out.csv"
        write_records(str(path), [make_record(beeps_per_node=1.0 / 3.0)])
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "feedback,er,16,0.5,0,1,4,true,24,0.333333,5"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_boolean_encoding(self, tmp_path):
        path = tmp_path / "out.csv"
        write_records(str(path), [make_record(terminated=False)])
        assert ",false," in path.read_text()

    def test_float_six_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        write_records(str(path), [make_record(beeps_per_node=1.2345678901)])
        assert "1.23457" in path.read_text()

    @pytest.mark.parametrize("change", [
        lambda row: row + ",7",  # an extra column
        lambda row: row.rsplit(",", 1)[0],  # a short row
        lambda row: row.replace(",true,", ",True,"),  # a boolean other than true/false
        lambda row: row.replace(",4,true,", ",3.0,true,"),  # a float in an int column
        lambda row: row.replace(",1.5,", ",fast,"),  # a float column that does not parse
        # int columns that int() would read as 16, 1 and 1
        lambda row: row.replace(",er,16,", ",er,1_6,"),
        lambda row: row.replace(",0.5,1,1,", ",0.5,+1,1,"),
        lambda row: row.replace(",0.5,1,1,", ",0.5,1,\u0661,"),
        # float columns that float() would read as 15.0, 1.5 and nan
        lambda row: row.replace(",1.5,", ",1_5,"),
        lambda row: row.replace(",1.5,", ",\u0661.\u0665,"),
        lambda row: row.replace(",1.5,", ",nan,"),
    ], ids=["extra-column", "short-row", "bool", "int-column", "float-column",
            "int-underscore", "int-plus", "int-arabic-indic-digit", "float-underscore",
            "float-arabic-indic-digits", "float-nan"])
    def test_read_rejects_malformed_row_with_its_line(self, change, tmp_path):
        path = tmp_path / "bad.csv"
        write_records(str(path), [make_record(trial=0), make_record(trial=1)])
        header, first, second = path.read_text().splitlines()
        assert change(second) != second
        path.write_text("\n".join([header, first, change(second)]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 3: ") as info:
            read_records(str(path))
        assert info.value.line == 3

    @pytest.mark.parametrize("row, line", [(0, 1), (2, 3)], ids=["header", "second-data-row"])
    def test_read_names_the_line_of_a_byte_that_is_not_utf8(self, row, line, tmp_path):
        # rows longer than a text layer's decode chunk, on which csv's line_num names an earlier line
        path = tmp_path / "bad.csv"
        write_records(str(path), [make_record(trial=t, policy="f" * 5000) for t in range(3)])
        lines = path.read_bytes().split(b"\n")
        lines[row] = lines[row][:3] + b"\xff" + lines[row][3:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=f"^line {line}: not UTF-8: ") as info:
            read_records(str(path))
        assert info.value.line == line

    def test_read_rejects_alien_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("a,b,c\n1,2,3\n", ""):
            path.write_text(text)
            with pytest.raises(ParseError, match="^line 1: unexpected CSV header") as info:
                read_records(str(path))
            assert info.value.line == 1
