import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from smoothwords import Word, word_from_text, word_to_text
from smoothwords.cli import main
from smoothwords.errors import WordParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_jobs_deterministic(self, capsys):
        args = ("scan-powers", "--alphabet", "1,2", "-n", "2", "-L", "10")
        _, out1, _ = run_cli(capsys, *args, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *args, "--jobs", "2")
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_bad_alphabet(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--alphabet", "2,2", "--word", "22")
        assert code == 2

    def test_usage_error_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate", "--alphabet", "1,2")
        assert code == 2

    def test_usage_error_bad_word(self, capsys):
        code, _, err = run_cli(capsys, "delta", "--alphabet", "1,2", "--word", "102")
        assert code == 2
        assert "zero" in err

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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", "import sys; from smoothwords.cli import main; "
                 "sys.exit(main())", "gamma", "--alphabet", "1,2", "-n", "2", "-L", "12"],
                stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""
