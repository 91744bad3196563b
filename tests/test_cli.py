import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftables.cli import main

FAMILIES = ["vec", "mat", "alt", "sym", "symscaled"]
METHODS = ["brute", "recursion", "closed", "all"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_vec_brute_table(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == [[1, 2], [1, -1]]
        assert obj["labels"] == ["0", "1"]

    def test_readme_alt_document(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "alt", "--q", "3", "--n", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["orbit_sizes"] == [1, 260, 468]
        assert obj["entries"][0] == [1, 260, 468]

    def test_all_methods_cross_check(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "vec", "--q", "5", "--n", "2", "--method", "all")
        assert code == 0
        assert json.loads(out)["cross_checked"] is True

    def test_disagreeing_route_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("gftables.cli.closed_form_table", lambda *args: [[1, 2], [1, 0]])
        code, out, err = run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "1", "--method", "all")
        assert code == 1 and "cross-check FAILED" in err
        assert json.loads(out)["cross_checked"] is False

    def test_sym_blocks(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "sym", "--q", "3", "--n", "2", "--method", "all")
        assert code == 0
        obj = json.loads(out)
        assert obj["cross_checked"] is True
        assert obj["epsilon"] == -1
        assert obj["psi1"][0] == [{"a": 1, "b": 0}, {"a": 8, "b": 0}, {"a": 18, "b": 0}]

    def test_invalid_inputs_exit_2(self, capsys):
        assert run(capsys, "compute", "--family", "mat", "--q", "3", "--n", "2", "--m", "1")[0] == 2
        assert run(capsys, "compute", "--family", "vec", "--q", "6", "--n", "1")[0] == 2
        assert run(capsys, "compute", "--family", "alt", "--q", "4", "--n", "2")[0] == 2
        assert run(capsys, "compute", "--family", "sym", "--q", "3", "--n", "2", "--method", "recursion")[0] == 2
        assert run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "1", "--method", "closed", "--budget", "0")[0] == 2
        assert run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "1", "--method", "closed", "--budget", "-5")[0] == 2

    @pytest.mark.parametrize(
        "extra",
        [["--method", method] for method in METHODS] + [["--symbolic"], ["--format", "csv"]],
        ids=lambda extra: "-".join(a.lstrip("-") for a in extra),
    )
    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_n_exits_2(self, capsys, family, extra):
        code, out, err = run(capsys, "compute", "--family", family, "--q", "3", "--n", "-1", "--m", "2", *extra)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        q=st.sampled_from([1, 2, 3, 4, 5, 6, 9]),
        n=st.integers(-2, 3),
        m=st.none() | st.integers(-1, 4),
        method=st.sampled_from(METHODS),
        fmt=st.sampled_from(["json", "csv"]),
        twist=st.integers(0, 3),
        symbolic=st.booleans(),
    )
    def test_small_requests_exit_0_or_2(self, family, q, n, m, method, fmt, twist, symbolic):
        argv = ["compute", "--family", family, "--q", str(q), "--n", str(n), "--method", method]
        argv += ["--format", fmt, "--twist", str(twist), "--budget", "5000"]
        argv += ["--m", str(m)] if m is not None else []
        argv += ["--symbolic"] if symbolic else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2)

    def test_sym_csv_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "sym", "--q", "3", "--n", "2", "--format", "csv")
        assert code == 2 and "JSON" in err

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "2", "--format", "csv", "--method", "recursion")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,0,1,2"
        assert lines[1] == "0,1,4,4"

    def test_symbolic_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "2", "--symbolic")
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][1][1] == {"coeffs": [-2, 1]}  # q - 2

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "alt", "--q", "5", "--n", "5", "--budget", "100")
        assert code == 2 and "budget" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GFTABLES_BUDGET", "10")
        code, _, err = run(capsys, "compute", "--family", "vec", "--q", "3", "--n", "3")
        assert code == 2 and "budget" in err


class TestExport:
    def test_bit_stable_writes(self, tmp_path, capsys):
        for family in ("mat", "vec", "alt", "symscaled", "sym"):
            a, b = tmp_path / f"{family}-a.json", tmp_path / f"{family}-b.json"
            for path in (a, b):
                code, _, _ = run(capsys, "export", "--family", family, "--q", "3", "--n", "2", "--m", "2", "--method", "all", "--out", str(path))
                assert code == 0, family
            assert a.read_bytes() == b.read_bytes(), family
            assert b"\r" not in a.read_bytes()

    def test_requires_out(self, capsys):
        assert run(capsys, "export", "--family", "vec", "--q", "3", "--n", "1")[0] == 2

    @pytest.mark.parametrize("where,reason", [("missing/x.json", "No such file or directory"), (".", "Is a directory")])
    @pytest.mark.parametrize("command", ["compute", "export"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, where, reason):
        path = tmp_path / where  # a file in a missing directory, or the directory itself
        code, out, err = run(capsys, command, "--family", "vec", "--q", "3", "--n", "2", "--out", str(path))
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_format_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "export", "--family", "vec", "--q", "3", "--n", "1", "--format", "csv", "--format", "json", "--out", "/tmp/x")
        assert exc.value.code == 2

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, _, _ = run(capsys, "export", "--family", "symscaled", "--q", "3", "--n", "2", "--format", "csv", "--out", str(path))
        assert code == 0
        body = path.read_text()
        assert body.startswith("label,0,1,2+,2-\n")


class TestVerify:
    def test_gauss_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "gauss", "--q", "3,5,7,9,11")
        assert code == 0
        assert "FAIL" not in out and "[PASS] gauss/square-is-eps-q q=11" in out

    def test_q_not_a_prime_power(self, capsys):
        code, out, err = run(capsys, "verify", "gauss", "--q", "6")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("flag,value", [("--n", "99"), ("--q", "13")])
    def test_filter_selecting_no_check_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "orthogonality", flag, value)
        assert code == 2 and out == "" and err == "error: the filter selects no check\n"

    @pytest.mark.parametrize("argv", [("diagrams", "--n", "99"), ("diagrams", "--q", "5"), ("multi", "--m", "-3")])
    def test_diagrams_and_multi_read_the_filter(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and err == "error: the filter selects no check\n"

    def test_diagrams_and_multi_narrowed(self, capsys):
        code, out, _ = run(capsys, "verify", "diagrams", "--family", "vec", "--n", "2")
        assert code == 0 and "vec 2->1" in out and "vec 3->2" not in out and "sym" not in out
        code, out, _ = run(capsys, "verify", "multi", "--m", "2")
        assert code == 0 and "mat q=3" in out and "vec" not in out

    def test_limits_with_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "limits", "--family", "vec", "--n", "3")
        assert code == 0
        assert "[PASS] limits/alternating-binomial-pattern vec n=3" in out
        assert "mat" not in out

    def test_multi_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "multi")
        assert code == 0
        assert "0 failures" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "nonsense")
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "gauss", "--jobs", jobs)
        assert code == 2 and out == "" and err == "error: jobs must be at least 1\n"

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "diagrams", "--family", "foo")
        assert exc.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err
