"""Command-line interface tests."""

import pytest

from repro.cli import main

CORRECT = """
var x: int = 0;
thread A { x := x + 1; }
thread B { x := x + 1; }
post: x == 2;
"""

BUGGY = """
var x: int = 0;
thread A { assert x == 1; }
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.cprog"
    path.write_text(CORRECT)
    return str(path)


@pytest.fixture()
def buggy_file(tmp_path):
    path = tmp_path / "bug.cprog"
    path.write_text(BUGGY)
    return str(path)


class TestVerify:
    def test_correct_program_exit_zero(self, program_file, capsys):
        assert main(["verify", program_file]) == 0
        out = capsys.readouterr().out
        assert "correct" in out

    def test_incorrect_program_prints_cex(self, buggy_file, capsys):
        assert main(["verify", buggy_file]) == 0  # solved (incorrect)
        out = capsys.readouterr().out
        assert "incorrect" in out
        assert "assert-fail" in out

    def test_show_proof(self, program_file, capsys):
        main(["verify", program_file, "--show-proof"])
        assert "proof predicates" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["seq", "lockstep", "rand:3"])
    def test_orders(self, program_file, order, capsys):
        assert main(["verify", program_file, "--order", order]) == 0

    def test_unknown_order_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["verify", program_file, "--order", "sideways"])

    @pytest.mark.parametrize("mode", ["combined", "sleep", "persistent", "none"])
    def test_modes(self, program_file, mode):
        assert main(["verify", program_file, "--mode", mode]) == 0

    def test_timeout_gives_nonzero(self, program_file):
        assert main(["verify", program_file, "--timeout", "0"]) == 1

    def test_show_cache_stats(self, program_file, capsys):
        assert main(["verify", program_file, "--show-cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache stats:" in out
        assert "sat queries" in out
        assert "hit rate" in out
        assert "commutativity:" in out

    def test_show_cache_stats_on_timeout(self, program_file, capsys):
        assert (
            main(["verify", program_file, "--timeout", "0",
                  "--show-cache-stats"]) == 1
        )
        assert "cache stats:" in capsys.readouterr().out

    def test_portfolio_show_cache_stats(self, program_file, capsys):
        assert main(["portfolio", program_file, "--show-cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache stats:" in out
        assert "sat queries" in out


class TestProofStoreFlags:
    def test_flag_wins_over_env(self, program_file, tmp_path, monkeypatch):
        """Regression: --proof-store PATH must beat REPRO_PROOF_STORE."""
        from repro.store import reset_store_registry

        flag_dir = tmp_path / "flag-store"
        env_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_PROOF_STORE", str(env_dir))
        reset_store_registry()
        assert main(
            ["verify", program_file, "--proof-store", str(flag_dir)]
        ) == 0
        reset_store_registry()
        assert list(flag_dir.glob("segment-*"))
        assert not env_dir.exists()

    def test_env_used_without_flag(self, program_file, tmp_path, monkeypatch):
        from repro.store import reset_store_registry

        env_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_PROOF_STORE", str(env_dir))
        reset_store_registry()
        assert main(["verify", program_file]) == 0
        reset_store_registry()
        assert list(env_dir.glob("segment-*"))

    def test_no_proof_store_beats_both(
        self, program_file, tmp_path, monkeypatch
    ):
        from repro.store import reset_store_registry

        flag_dir = tmp_path / "flag-store"
        env_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_PROOF_STORE", str(env_dir))
        reset_store_registry()
        assert main(
            ["verify", program_file, "--proof-store", str(flag_dir),
             "--no-proof-store"]
        ) == 0
        reset_store_registry()
        assert not flag_dir.exists()
        assert not env_dir.exists()


class TestDeltaCommands:
    OLD = """
var x: int = 0;
var z: int = 0;
thread A { x := x + 1; assert x >= 1; }
thread C { z := z + 1; }
"""
    NEW = OLD.replace("z := z + 1;", "z := z + 2;")

    @pytest.fixture()
    def pair(self, tmp_path):
        old = tmp_path / "old.cprog"
        new = tmp_path / "new.cprog"
        old.write_text(self.OLD)
        new.write_text(self.NEW)
        return str(old), str(new)

    def test_diff_verify_requires_store(self, pair, monkeypatch):
        monkeypatch.delenv("REPRO_PROOF_STORE", raising=False)
        old, new = pair
        with pytest.raises(SystemExit, match="proof store"):
            main(["diff-verify", old, new])

    def test_diff_verify_end_to_end(self, pair, tmp_path, capsys):
        from repro.store import reset_store_registry

        old, new = pair
        store = str(tmp_path / "store")
        reset_store_registry()
        code = main(
            ["diff-verify", old, new, "--proof-store", store,
             "--show-cache-stats"]
        )
        reset_store_registry()
        assert code == 0
        out = capsys.readouterr().out
        assert "edit plan: threads: 1 unchanged, 1 edited" in out
        assert "baseline not in store; verifying OLD first" in out
        assert "delta:" in out

    def test_diff_verify_warm_baseline(self, pair, tmp_path, capsys):
        from repro.store import reset_store_registry

        old, new = pair
        store = str(tmp_path / "store")
        reset_store_registry()
        assert main(["verify", old, "--proof-store", store]) == 0
        reset_store_registry()
        assert main(["diff-verify", old, new, "--proof-store", store]) == 0
        reset_store_registry()
        out = capsys.readouterr().out
        assert "verifying OLD first" not in out

    def test_store_inspect(self, pair, tmp_path, capsys):
        from repro.store import reset_store_registry

        old, _ = pair
        store = str(tmp_path / "store")
        reset_store_registry()
        assert main(["verify", old, "--proof-store", store]) == 0
        reset_store_registry()
        assert main(["store", "inspect", store]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert "shape" in out
        assert "segments:" in out

    def test_store_inspect_json(self, pair, tmp_path, capsys):
        import json

        from repro.store import reset_store_registry

        old, _ = pair
        store = str(tmp_path / "store")
        reset_store_registry()
        assert main(["verify", old, "--proof-store", store]) == 0
        reset_store_registry()
        capsys.readouterr()  # drain the verify output
        assert main(["store", "inspect", store, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["total_entries"] > 0
        assert info["entries_by_kind"]["shape"] == 1


class TestOtherCommands:
    def test_check(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "2 threads" in out

    def test_check_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cprog"
        bad.write_text("thread { oops")
        assert main(["check", str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_reduce(self, program_file, capsys):
        assert main(["reduce", program_file]) == 0
        out = capsys.readouterr().out
        assert "full product states" in out

    def test_reduce_state_budget_is_an_error_line(self, program_file, capsys):
        assert main(["reduce", program_file, "--max-states", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "2 states" in err and "--max-states" in err

    def test_member_timeout_needs_parallel_portfolio(
        self, program_file, capsys
    ):
        argv = ["portfolio", program_file, "--member-timeout", "5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--member-timeout needs --parallel-portfolio" in captured.err

    @pytest.mark.parametrize(
        "command",
        [["verify"], ["reduce"], ["portfolio"], ["orders"], ["diff-verify"]],
    )
    def test_parse_error_is_an_error_line(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.cprog"
        bad.write_text("thread { oops")
        argv = command + [str(bad)]
        if command == ["diff-verify"]:
            argv += [str(bad), "--proof-store", str(tmp_path / "store")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "command",
        [["verify"], ["reduce"], ["portfolio"], ["orders"], ["diff-verify"]],
    )
    def test_missing_file_is_an_error_line(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.cprog")
        argv = command + [missing]
        if command == ["diff-verify"]:
            argv += [missing, "--proof-store", str(tmp_path / "store")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert missing in err

    def test_reduce_dot(self, program_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert main(["reduce", program_file, "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "->" in text

    def test_portfolio(self, program_file, capsys):
        assert main(["portfolio", program_file]) == 0
        out = capsys.readouterr().out
        assert "portfolio[" in out

    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "mutex-atomic(2)" in out
        assert "weaver" in out


class TestTriageCommands:
    def test_orders_prints_plan(self, program_file, capsys):
        assert main(["orders", program_file, "--timeout", "8"]) == 0
        out = capsys.readouterr().out
        assert "ranked members:" in out
        assert "seq" in out and "lockstep" in out
        assert "budget ladder:" in out
        assert "8.00s" in out  # the final rung is the full budget

    def test_orders_without_budget_has_single_rung(self, program_file, capsys):
        assert main(["orders", program_file]) == 0
        assert "budget ladder: [full]" in capsys.readouterr().out

    def test_portfolio_triage_counters_in_cache_stats(
        self, program_file, capsys
    ):
        assert main(
            ["portfolio", program_file, "--timeout", "8",
             "--show-cache-stats"]
        ) == 0
        assert "triage:" in capsys.readouterr().out
