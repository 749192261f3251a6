import atexit
import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smoothwords import (Alphabet, Word, delta_inv, gamma, kolakoski_prefix, scan_powers,
                         smooth_chain, word_from_text, word_to_text)
from smoothwords.cli import _COMMANDS, _COMMON, _emit_report, _parse_plain, build_parser, main
from smoothwords.core import word_to_csv
from smoothwords.errors import WordParseError

from conftest import fresh_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# What the installed smoothwords script runs, as ``python -c`` source.
MAIN = "import sys; from smoothwords.cli import main; sys.exit(main())"


class TestParseWordText:
    def test_forms(self):
        assert word_from_text("31113") == (3, 1, 1, 1, 3)
        assert word_from_text("12,1,12") == (12, 1, 12)
        assert word_from_text("") == Word()

    def test_zero_digit(self):
        with pytest.raises(WordParseError):
            word_from_text("102")

    @given(st.lists(st.integers(min_value=1, max_value=25), max_size=10))
    def test_round_trip(self, letters):
        w = Word(letters)
        assert word_from_text(word_to_text(w)) == w


class TestWordCommands:
    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--alphabet", "1,2", "--word", "2211")
        assert code == 0 and out.strip() == "22"

    def test_closure(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--alphabet", "1,3",
                               "--word", "3311133313133311133")
        assert code == 0 and out.strip() == "333111333131333111333"

    def test_derive_and_rho(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--alphabet", "1,2", "--word", "121")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "rho", "--alphabet", "1,2", "--word", "22122")
        assert code == 0 and out.strip() == "212"

    def test_lift(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--alphabet", "2,4", "--word", "22",
                               "--alpha", "2", "-k", "1")
        assert code == 0 and out.strip() == "2244"

    def test_chain_text(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--alphabet", "1,3",
                               "--word", "3311133313133311133")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level 0: 3311133313133311133"
        assert lines[1] == "level 1: 333111333"
        assert lines[-1] == "verdict: smooth"

    def test_chain_json(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--alphabet", "1,2",
                               "--word", "22", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["levels"] == ["22", "2", ""]
        assert doc["verdict"] == "smooth"

    def test_chain_not_smooth_is_still_success(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--alphabet", "1,2", "--word", "111")
        assert code == 0
        assert "not-smooth" in out


def chain_text(w, ab) -> str:
    """The text of ``chain`` rendered from the collected :func:`smooth_chain`."""
    chain = smooth_chain(w, ab)
    lines = [f"level {i}: {word_to_text(level)}" for i, level in enumerate(chain.levels)]
    lines.append(f"verdict: {chain.verdict}")
    if chain.failure is not None:
        lines.append(f"failure: level {chain.failure.level} ({chain.failure.reason})")
    return "\n".join(lines) + "\n"


def call_main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@st.composite
def chain_inputs(draw):
    """An alphabet and a word over it: a few lifts of a short word, so chains
    run deep, then maybe one letter replaced, possibly by one outside the
    alphabet.  {10,12} renders in comma form; the empty word is included."""
    ab = draw(st.sampled_from([Alphabet(1, 2), Alphabet(1, 3), Alphabet(2, 3),
                               Alphabet(10, 12)]))
    w = Word(draw(st.lists(st.sampled_from(ab.letters), max_size=4)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if len(w) > 60:
            break
        w = delta_inv(w, draw(st.sampled_from(ab.letters)), ab)
    if w and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(w) - 1))
        w = w[:i] + Word([draw(st.sampled_from([*ab.letters, 1, 5, 11]))]) + w[i + 1:]
    return ab, w


class TestChainStreaming:
    @given(chain_inputs())
    def test_streamed_text_is_the_collected_chain(self, case):
        ab, w = case
        code, out = call_main("chain", "--alphabet", str(ab), "--word", word_to_text(w))
        assert code == 0
        assert out == chain_text(w, ab)

    @pytest.mark.parametrize("ab,text", [
        ("1,2", ""), ("1,2", "1211"), ("1,2", "21112"), ("1,3", "12"), ("1,2", "2211212212"),
        ("10,12", "10,12,12,10,10,12"), ("10,12", "12,"), ("2,3", "2233322233" * 3),
    ])
    def test_text_levels_equal_json_levels(self, ab, text):
        _, out = call_main("chain", "--alphabet", ab, "--word", text)
        _, doc = call_main("chain", "--alphabet", ab, "--word", text, "--format", "json")
        doc = json.loads(doc)
        lines = out.splitlines()
        levels = [line.split(": ", 1)[1] for line in lines if line.startswith("level ")]
        assert levels == doc["levels"]
        assert f"verdict: {doc['verdict']}" in lines

    def test_long_chain_holds_one_level_at_a_time(self):
        # Collecting every level of this prefix before printing them traced
        # a peak of 3.49 MB (CPython 3.11); streaming must stay under half.
        import smoothwords.calculus  # noqa: F401  (keep the import out of the trace)

        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        word = word_to_text(kolakoski_prefix(Alphabet(1, 2), 2, 50_000))
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                assert main(["chain", "--alphabet", "1,2", "--word", word]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_490_000 / 2, peak


class TestCensusCommands:
    def test_enumerate(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--alphabet", "1,2", "-n", "3")
        assert code == 0
        assert out.split() == ["112", "121", "122", "211", "212", "221"]

    def test_kolakoski(self, capsys):
        code, out, _ = run_cli(capsys, "kolakoski", "--alphabet", "1,2",
                               "--alpha", "1", "-n", "19")
        assert code == 0 and out.strip() == "1221121221221121122"

    def test_dsigma(self, capsys):
        code, out, _ = run_cli(capsys, "dsigma", "--alphabet", "2,5")
        assert code == 0
        lines = out.split("\n")[:-1]  # drop the final newline's empty tail
        assert lines[0] == ""  # epsilon renders as an empty line
        assert set(lines) == {"", "2", "5", "22", "25", "52", "55", "222"}
        assert len(lines) == 8

    def test_scan_powers_text(self, capsys):
        code, out, _ = run_cli(capsys, "scan-powers", "--alphabet", "1,2",
                               "-n", "3", "-L", "12")
        assert code == 0
        assert "0 witnesses" in out
        assert "gamma=0" in out

    def test_gamma_csv(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--alphabet", "1,2", "-n", "2",
                               "-L", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "base,base_length,power_length"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    @pytest.mark.parametrize("args,expected", [
        (("gamma", "--alphabet", "3,4", "-n", "2"), "alphabet 3,4  exponent 2  bound 60"),
        (("scan-powers", "--alphabet", "5,9", "-n", "3", "--format", "json"),
         '  "bound": 30,'),
    ], ids=["squares-60", "else-30"])
    def test_bound_defaults(self, capsys, args, expected):
        # Without -L the bound is 60 for squares and 30 for any other exponent.
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert expected in out.splitlines()

    @pytest.mark.parametrize("alphabet, n, L", [("1,3", "2", "20"), ("1,3", "4", "16"),
                                                ("2,4", "2", "16"), ("10,12", "2", "24")])
    def test_witness_fields_render_each_word(self, alphabet, n, L):
        # The power and primitive base are cut from the base's text; every
        # format must still print word_to_text of each word.
        witnesses = scan_powers(Alphabet.parse(alphabet), int(n), int(L)).witnesses
        args = ("gamma", "--alphabet", alphabet, "-n", n, "-L", L)
        for jobs in ("1", "2"):
            code, out = call_main(*args, "--jobs", jobs)
            assert code == 0
            assert out.splitlines()[4:] == [
                f"witness: base={word_to_text(w.base)} power={word_to_text(w.power)} "
                f"primitive={word_to_text(w.primitive_base)}" for w in witnesses]
            code, out = call_main(*args, "--jobs", jobs, "--format", "csv")
            assert code == 0
            assert list(csv.reader(io.StringIO(out)))[1:] == [
                [word_to_text(w.base), str(len(w.base)), str(len(w.power))] for w in witnesses]
            code, out = call_main(*args, "--jobs", jobs, "--format", "json")
            assert code == 0
            assert json.loads(out)["witnesses"] == [
                {"base": word_to_text(w.base), "base_length": len(w.base),
                 "power": word_to_text(w.power), "power_length": len(w.power),
                 "primitive_base": word_to_text(w.primitive_base)} for w in witnesses]

    def test_one_letter_comma_form_witness(self, capsys):
        # "10," is one letter: its square is "10,10", not the text "10," twice.
        code, out, _ = run_cli(capsys, "gamma", "--alphabet", "10,12", "-n", "2", "-L", "24")
        assert code == 0
        assert out.splitlines()[4] == "witness: base=10, power=10,10 primitive=10,"

    def test_csv_keeps_comma_form_words_in_one_field(self, capsys):
        # Letters above 9 render as "10,12"; such a word must stay one field.
        code, out, _ = run_cli(capsys, "scan-powers", "--alphabet", "10,12", "-n", "2",
                               "-L", "24", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["base", "base_length", "power_length"] and len(rows) > 1
        assert all(len(row) == 3 for row in rows)
        assert all(len(word_from_text(base)) == int(n) for base, n, _ in rows[1:])
        code, out, _ = run_cli(capsys, "enumerate", "--alphabet", "10,12", "-n", "12",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word"] and len(rows) > 1
        assert all(len(row) == 1 and len(word_from_text(row[0])) == 12 for row in rows[1:])

    def test_csv_keeps_the_empty_word(self, capsys):
        # An empty line would read as a row of no fields, or be skipped.
        code, out, _ = run_cli(capsys, "enumerate", "--alphabet", "1,2", "-n", "0",
                               "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [["word"], [""]]

    def test_gamma_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--alphabet", "2,4", "-n", "4",
                               "-L", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["alphabet"] == "2,4"
        assert doc["gamma"] == 2

    def test_power_decomp(self, capsys):
        code, out, _ = run_cli(capsys, "power-decomp", "--alphabet", "1,2",
                               "--word", "12", "-n", "2")
        assert code == 0
        assert "level 1: witness 11" in out

    def test_certify_concat_clean(self, capsys):
        code, out, _ = run_cli(capsys, "certify-concat", "--alphabet", "1,2",
                               "-L", "5")
        assert code == 0
        assert "0 violations" in out

    def test_certify_concat_violation_exits_1(self, capsys):
        # the stored {1,3} table is genuinely missing two middles, so the
        # certifier reports violations and the process exits 1
        code, out, _ = run_cli(capsys, "certify-concat", "--alphabet", "1,3",
                               "-L", "6")
        assert code == 1
        assert "middle-not-in-table" in out

    def test_certify_concat_explore_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "certify-concat", "--alphabet", "1,3",
                               "-L", "4", "--explore", "4")
        assert code == 0

    @pytest.mark.parametrize("args", [("scan-powers", "-n", "2", "-L", "10"),
                                      ("gamma", "-n", "1", "-L", "8")],
                             ids=["scan-powers", "gamma-n1"])
    def test_jobs_deterministic(self, capsys, args):
        args = (*args, "--alphabet", "1,2")
        _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_bad_alphabet(self, capsys):
        for alphabet, message in [
                ("2,2", "alphabet requires 1 <= a < b, got a=2, b=2"),
                ("1,2,3", "alphabet must be two comma-separated integers, got '1,2,3'")]:
            code, out, err = run_cli(capsys, "delta", "--alphabet", alphabet, "--word", "22")
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"

    def test_usage_error_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate", "--alphabet", "1,2")
        assert code == 2

    def test_usage_error_bad_word(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--alphabet", "1,2", "--word", "102")
        assert code == 2
        assert "zero" in err

    @pytest.mark.parametrize("text,message", [
        ("\u0661\u0662", "non-digit '\u0661' in '\u0661\u0662' at position 0"),
        ("1\u00b21", "non-digit '\u00b2' in '1\u00b21' at position 1"),
        ("12,\u00b2", "malformed letter '\u00b2' in '12,\u00b2' at position 3"),
    ])
    def test_usage_error_non_ascii_digit(self, capsys, text, message):
        code, out, err = run_cli(capsys, "delta", "--alphabet", "1,2", "--word", text)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_usage_error_csv_for_word_command(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--alphabet", "1,2",
                               "--word", "22", "--format", "csv")
        assert code == 2

    def test_usage_error_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "delta", "--word", "22")
        assert code == 2

    def test_precondition_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "power-decomp", "--alphabet", "1,2",
                               "--word", "12", "-n", "3")
        assert code == 2

    # 10**20 overflows a list repetition, so building u^n fails at once; the
    # power is tested copy by copy instead and is refuted within a few copies.
    @pytest.mark.parametrize("command", ["scan-powers", "gamma"])
    def test_huge_exponent_has_no_witnesses(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--alphabet", "1,2",
                                 "-n", str(10**20), "-L", "3")
        assert code == 0 and err == ""
        assert "0 witnesses" in out and "gamma=0 stable=true" in out

    def test_huge_exponent_power_decomp_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "power-decomp", "--alphabet", "1,2",
                                 "--word", "12", "-n", str(10**20))
        assert code == 2 and out == ""
        assert err == f"error: (12)^{10**20} must be smooth over 1,2\n"

    def test_negative_explore_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "certify-concat", "--alphabet", "1,2",
                                 "-L", "2", "--explore", "-1")
        assert code == 2 and out == ""
        assert err == "error: length bound must be >= 0\n"

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ("scan-powers", "-n", "2", "-L", "4"),
        ("gamma", "-n", "2", "-L", "4"),
        ("certify-concat", "-L", "2"),
    ])
    def test_jobs_below_one_is_usage_error(self, capsys, command, jobs):
        code, out, err = run_cli(capsys, *command, "--alphabet", "1,2", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --jobs must be >= 1")

    def test_closed_stdout_exits_141(self):
        # The read end is closed before the command starts, so its first
        # write to stdout always meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", MAIN, "gamma", "--alphabet", "1,2", "-n", "2", "-L", "12"],
                stdout=write_end, stderr=subprocess.PIPE, env=fresh_env())
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


KILLED_WORKER = """
import os, signal, sys
from smoothwords import concat
from smoothwords.cli import _COMMANDS, _COMMON, _parse_plain, build_parser, main
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()
scan_group = concat._scan_group
def dying(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan_group(*args)
concat._scan_group = dying
sys.exit(main(["certify-concat", "--alphabet", "1,2", "-L", "6", "--jobs", "2"]))
"""


def test_dead_worker_exits_3_with_one_line():
    # The forked share's task kills its own process, as the out-of-memory
    # killer would; 1 would read as "violations found".
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: a --jobs worker process died (")
    assert "Traceback" not in proc.stderr


class TestCensusStreaming:
    """A census report is written as it is rendered: JSON one witness dict
    at a time, CSV a batch of lines at a time."""

    @staticmethod
    def built_json(command, report):
        # The whole document at once, every witness's dict in one list.
        doc = {"schema_version": "1", "command": command, **report.to_json(),
               "witnesses": [w.to_json() for w in report.witnesses]}
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def built_csv(report):
        # The CSV text as one string, built from a list of its lines.
        lines = ["base,base_length,power_length"]
        for w in report.witnesses:
            lines.append(f"{word_to_csv(w.base)},{len(w.base)},{len(w.base) * w.exponent}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, alphabet, n, L", [
        ("gamma", "1,2", 1, 12), ("scan-powers", "1,3", 2, 30), ("scan-powers", "1,3", 3, 30),
        ("scan-powers", "1,3", 4, 30), ("gamma", "10,12", 2, 24)])
    def test_streamed_output_equals_the_built_document(self, command, alphabet, n, L, jobs):
        _, report = gamma(Alphabet.parse(alphabet), n, L)
        assert report.witnesses
        args = (command, "--alphabet", alphabet, "-n", str(n), "-L", str(L), "--jobs", jobs)
        assert call_main(*args, "--format", "json") == (0, self.built_json(command, report))
        assert call_main(*args, "--format", "csv") == (0, self.built_csv(report))

    def test_json_holds_one_witness_dict_at_a_time(self):
        # Rendering the whole witness-dict list first peaked above the list
        # itself (about 0.2 MB for these 850 witnesses, CPython 3.11).
        import types

        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        _, report = gamma(Alphabet(1, 3), 1, 16)
        args = types.SimpleNamespace(command="gamma", format="json")
        tracemalloc.start()
        try:
            built = [w.to_json() for w in report.witnesses]
            size = tracemalloc.get_traced_memory()[0]
            del built
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(Sink()):
                _emit_report(args, report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 2, (peak, size)


# ------------------------------------------------------- the report texts

# Every report command in each format it takes (text, JSON, CSV where
# defined, and one rejected CSV), certify-concat with its violation lines,
# chain failures of every reason and comma-form words over {10,12}: stdout,
# stderr and exit code, recorded from the CLI before each report record
# rendered its own text.
OUTPUT_GOLDEN = json.loads(Path(__file__).with_name("cli_output_golden.json").read_text())


@pytest.mark.parametrize("record", OUTPUT_GOLDEN,
                         ids=[" ".join(r["argv"]) for r in OUTPUT_GOLDEN])
def test_report_outputs_are_golden(capsys, record):
    assert run_cli(capsys, *record["argv"]) == (record["code"], record["stdout"],
                                                record["stderr"])


# ------------------------------------------------------- the two parsers

# --help, each command's --help, and per command one missing-required and one
# invalid-value error, recorded with COLUMNS=80 from the hand-built argparse
# parser that the flag table replaced.
GOLDEN = json.loads(Path(__file__).with_name("cli_usage_golden.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) or "(none)" for r in GOLDEN])
def test_help_and_usage_texts_are_golden(capsys, monkeypatch, record):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *record["argv"]) == (record["code"], record["stdout"],
                                                record["stderr"])


# ------------------------------------------------------- process exit

def golden_record(records, argv):
    return next(r for r in records if r["argv"] == argv)


# A fresh interpreter per status main() returns, each process left through
# the exit hook: 0 (a scan, --help), 1 (violations in table mode) and 2 (a
# usage error, a bad word).  test_dead_worker_exits_3_with_one_line and
# TestExitCodes.test_closed_stdout_exits_141 run the other two this way.
EXIT_RECORDS = [
    golden_record(OUTPUT_GOLDEN, ["scan-powers", "--alphabet", "1,2", "-n", "2", "-L", "10"]),
    golden_record(GOLDEN, ["--help"]),
    golden_record(OUTPUT_GOLDEN, ["certify-concat", "--alphabet", "1,3", "-L", "4"]),
    golden_record(GOLDEN, ["gamma", "--alphabet", "1,2"]),
    {"argv": ["delta", "--alphabet", "1,2", "--word", "102"], "code": 2, "stdout": "",
     "stderr": "error: zero digit in '102' at position 1\n"},
]


@pytest.mark.parametrize("record", EXIT_RECORDS, ids=[" ".join(r["argv"]) for r in EXIT_RECORDS])
def test_a_fresh_process_keeps_output_and_status(record):
    proc = subprocess.run([sys.executable, "-c", MAIN, *record["argv"]],
                          env=fresh_env(COLUMNS="80"), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (record["code"], record["stdout"],
                                                           record["stderr"])


class TestExitHook:
    """main() has the interpreter freeze its heap at exit, and only then."""

    ARGV = ["delta", "--alphabet", "1,2", "--word", "1122"]

    def test_repeated_calls_leave_one_hook(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(atexit, "register", lambda fn: calls.append(("register", fn)))
        monkeypatch.setattr(atexit, "unregister", lambda fn: calls.append(("unregister", fn)))
        for _ in range(3):
            assert main(self.ARGV) == 0
        # Each call takes back the hook of the call before it.
        assert calls == [("unregister", gc.freeze), ("register", gc.freeze)] * 3

    @pytest.mark.parametrize("argv", [
        ARGV, ["gamma", "--alphabet", "1,2", "-n", "2", "-L", "12", "--jobs", "2"],
        ["--help"], ["gamma", "--alphabet", "1,2"]],
        ids=["delta", "gamma --jobs 2", "--help", "usage error"])
    def test_nothing_is_frozen_after_main_returns(self, capsys, argv):
        main(argv)
        assert gc.get_freeze_count() == 0

    def test_a_fresh_process_freezes_its_heap_at_exit(self):
        # Hooks run last in, first out: one registered before main runs after main's.
        probe = ("import atexit, gc, os; atexit.register(lambda: os.write(2, "
                 "b'frozen %d' % (gc.get_freeze_count() > 0)))\n" + MAIN)
        proc = subprocess.run([sys.executable, "-c", probe, *self.ARGV], env=fresh_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "22\n", "frozen 1")


PARSER = build_parser()


def argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


VALUES = ["", "-1", "\u0663", "x", "json", "csv", "text", "1,2", "2", "12", "0", " 3",
          "1_0", "-", "--word"]


@st.composite
def command_lines(draw):
    """A command and its flags, mostly well-formed, with odd spellings mixed in."""
    name = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    flags = _COMMON + _COMMANDS.get(name, ("", ()))[1]
    options = [option for option_strings, _ in flags for option in option_strings]
    value = st.sampled_from(VALUES) | st.text(max_size=2)
    pieces = []
    for option_strings, spec in flags:
        if draw(st.integers(0, 9)) > 0 if spec.get("required") else draw(st.booleans()):
            good = st.sampled_from(spec.get("choices", ("3", "12", "\u0663")))
            text = draw(good if draw(st.integers(0, 3)) else value)
            pieces.append([draw(st.sampled_from(option_strings)), text])
    option = st.sampled_from(options)
    odd = st.one_of(
        st.tuples(option, value).map(list),  # maybe a repeat
        st.tuples(option, value).map(lambda p: ["=".join(p)]),
        st.tuples(option.filter(lambda o: o.startswith("--")), st.integers(3, 5),
                  value).map(lambda p: [p[0][:p[1]], p[2]]),  # an abbreviation
        st.tuples(option, value).map(lambda p: [p[0] + p[1]]),  # -n5
        st.sampled_from([["-h"], ["--help"], ["--"], ["--bogus", "1"]]),
        value.map(lambda v: [v]))  # a stray token
    pieces += [draw(odd) for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])))]
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_plain_parser_agrees_with_argparse(argv):
    plain = _parse_plain(argv)
    expected = argparse_vars(argv)
    if plain is not None:
        assert vars(plain) == expected
    if expected is None:
        assert plain is None


# Every command shape the benchmark runs, setup's --help aside.
@pytest.mark.parametrize("argv", [
    ["gamma", "--alphabet", "1,2", "-n", "2", "-L", "60", "--format", "text", "--jobs", "1"],
    ["scan-powers", "--alphabet", "1,3", "-n", "4", "-L", "50", "--format", "csv",
     "--jobs", "1"],
    ["enumerate", "--alphabet", "1,3", "-n", "60", "--format", "json"],
    ["scan-powers", "--alphabet", "1,3", "-n", "3", "-L", "60", "--format", "json",
     "--jobs", "2"],
    ["certify-concat", "--alphabet", "1,2", "-L", "16", "--format", "text", "--jobs", "1"],
    ["certify-concat", "--alphabet", "1,3", "-L", "12", "--format", "json", "--jobs", "1",
     "--explore", "5"],
    *[[op, "--alphabet", "2,5", "--word", "22552"] for op in ("delta", "closure", "derive",
                                                               "rho", "chain")],
    ["chain", "--alphabet", "1,2", "--word", "1211", "--format", "json"],
    ["lift", "--alphabet", "2,4", "--word", "22", "--alpha", "2", "-k", "3"],
    ["power-decomp", "--alphabet", "1,3", "--word", "3111313111", "-n", "4",
     "--format", "json"],
    ["kolakoski", "--alphabet", "1,2", "--alpha", "2", "-n", "100000"],
    ["dsigma", "--alphabet", "1,2", "--format", "text"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_benchmark_command_lines_take_the_plain_path(argv):
    plain = _parse_plain(argv)
    assert plain is not None
    assert vars(plain) == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], ["delta", "-h"], ["delta", "--alph", "1,2", "--word", "12"],
    ["delta", "--alphabet=1,2", "--word", "12"], ["enumerate", "--alphabet", "1,2", "-n5"],
    ["enumerate", "--alphabet", "1,2", "-n", "-1"],
    ["enumerate", "--alphabet", "1,2", "-n", "3", "-n", "4"],
    ["delta", "--alphabet", "1,2", "--word", "12", "-w", "21"],
    ["delta", "--alphabet", "1,2", "--", "--word", "12"], ["delta", "--alphabet", "1,2", "x"],
    ["delta", "--alphabet", "1,2", "--word", "12", "-n", "3"],
])
def test_other_spellings_are_left_to_argparse(argv):
    assert _parse_plain(argv) is None
