"""Command-line contract: JSON payloads, determinism, and exit codes."""

from __future__ import annotations

import json

import pytest

from relmean import __version__
from relmean.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_samplesize_payload(capsys):
    code, out, err = run_cli(capsys, "samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["total"] == 1454
    assert payload["plan"]["n"] == 974
    assert payload["plan"]["k"] == 160
    assert payload["mode"] == "strict"
    assert payload["version"] == __version__


def test_samplesize_paper_mode_plan(capsys):
    code, out, _ = run_cli(
        capsys, "samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1", "--mode", "paper"
    )
    payload = json.loads(out)
    assert payload["plan"]["m"] == 3
    assert payload["plan"]["total_samples"] == 1454


def test_lowerbound_payload(capsys):
    code, out, _ = run_cli(capsys, "lowerbound", "--epsilon", "0.1", "--delta", "0.05", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lower_bound"] - 229.81737539818798) < 1e-6


def test_estimate_constant(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--dist", "constant:5",
        "--epsilon", "0.1",
        "--delta", "0.05",
        "--c", "1",
        "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mu_hat"] - 5.0) < 0.5
    assert payload["seed"] == 7
    assert payload["rng"] == "pcg64"
    assert payload["spec"] == {"epsilon": 0.1, "delta": 0.05, "c": 1.0}


def test_identical_invocations_byte_identical(capsys):
    argv = ["estimate", "--dist", "lognormal:1", "--epsilon", "0.2", "--delta", "0.1",
            "--c", "1.4", "--seed", "11"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_every_subcommand_reports_spec_mode_seed_version(capsys, tmp_path):
    poset = tmp_path / "p.txt"
    poset.write_text("3\n1 2\n", encoding="ascii")
    invocations = [
        ["samplesize", "--epsilon", "0.2", "--delta", "0.1", "--c", "1"],
        ["lowerbound", "--epsilon", "0.2", "--delta", "0.1", "--c", "1"],
        ["estimate", "--dist", "constant:2", "--epsilon", "0.2", "--delta", "0.1", "--c", "1"],
        ["coverage", "--dist", "constant:2", "--epsilon", "0.2", "--delta", "0.1", "--c", "1", "--reps", "100"],
        ["compare", "--dist", "constant:2", "--epsilon", "0.2", "--delta", "0.1", "--c", "1", "--reps", "100"],
        ["linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1"],
        ["gibbs", "--epsilon", "0.2", "--delta", "0.1"],
    ]
    for argv in invocations:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        payload = json.loads(out)
        for key in ["spec", "mode", "seed", "version"]:
            assert key in payload, (argv, key)


def test_coverage_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "cov.csv"
    code, out, _ = run_cli(
        capsys,
        "coverage",
        "--dist", "normal:100,50",
        "--epsilon", "0.2", "--delta", "0.1", "--c", "0.5",
        "--reps", "100", "--seed", "3",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["failures"] <= 100
    lines = out_path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("estimator,distribution,")


def test_compare_has_three_rows(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--dist", "constant:3", "--epsilon", "0.2", "--delta", "0.1",
        "--c", "1", "--reps", "100",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["estimator"] for row in payload["rows"]] == ["twostage", "mom", "naive"]
    assert len({row["samples_per_run"] for row in payload["rows"]}) == 1


def test_linext_estimate_and_exact(capsys, tmp_path):
    poset = tmp_path / "p.txt"
    poset.write_text("4\n1 2\n3 4\n", encoding="ascii")
    code, out, _ = run_cli(
        capsys, "linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 6
    assert abs(payload["estimate"] - 6.0) <= 0.2 * 6.0


def test_gibbs_synthetic_run(capsys):
    code, out, _ = run_cli(capsys, "gibbs", "--epsilon", "0.2", "--delta", "0.1", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["true_ratio"] == 2.0
    assert abs(payload["estimate"] - 2.0) <= 0.2 * 2.0
    assert abs(payload["eps_prime"] - 0.09901951359278482) < 1e-12


def test_lowerbound_at_top_of_domain_is_zero(capsys):
    code, out, err = run_cli(capsys, "lowerbound", "--epsilon", "0.1", "--delta", "0.3989422804014327", "--c", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["lower_bound"] == 0.0


def test_argument_errors_exit_2(capsys):
    cases = [
        ["samplesize", "--epsilon", "2", "--delta", "0.05", "--c", "1"],
        ["samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "-1"],
        ["estimate", "--dist", "bogus:1", "--epsilon", "0.1", "--delta", "0.05", "--c", "1"],
        ["linext", "--poset", "/nonexistent/p.txt", "--epsilon", "0.2", "--delta", "0.1"],
        ["coverage", "--dist", "constant:2", "--epsilon", "0.2", "--delta", "0.1", "--c", "1", "--reps", "5"],
        ["lowerbound", "--epsilon", "0.1", "--delta", "0.9", "--c", "1"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err != ""


def test_coverage_commands_reject_bad_configs_with_exit_2(capsys, tmp_path):
    values = tmp_path / "values.txt"
    values.write_text("".join(f"{v}.0\n" for v in range(1, 5000)), encoding="ascii")
    flags = ["--epsilon", "0.2", "--delta", "0.1", "--c", "1"]
    for command in ("coverage", "compare"):
        code, out, err = run_cli(capsys, command, "--dist", f"recorded:{values}", *flags, "--reps", "100")
        assert (code, out) == (2, ""), command
        assert "recorded:4999values" in err and "replays" in err
        code, out, err = run_cli(capsys, command, "--dist", "constant:2", *flags, "--reps", "99")
        assert (code, out) == (2, ""), command
        assert "at least 100 replications" in err


def test_unknown_flag_and_subcommand_exit_2(capsys):
    code, _, _ = run_cli(capsys, "samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1", "--bogus", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_runtime_error_exits_1(capsys, tmp_path):
    # a recorded source that is too short fails mid-run, not at argument time
    values = tmp_path / "short.txt"
    values.write_text("1.0\n2.0\n3.0\n", encoding="ascii")
    code, out, err = run_cli(
        capsys,
        "estimate",
        "--dist", f"recorded:{values}",
        "--epsilon", "0.2", "--delta", "0.1", "--c", "1",
    )
    assert code == 1
    assert "recorded source holds" in err


def test_cycle_in_poset_file_exits_2(capsys, tmp_path):
    poset = tmp_path / "cycle.txt"
    poset.write_text("3\n1 2\n2 3\n3 1\n", encoding="ascii")
    code, _, err = run_cli(capsys, "linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1")
    assert code == 2
    assert "cycle" in err
