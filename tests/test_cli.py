"""Command-line contract: JSON payloads, determinism, and exit codes."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from relmean import CoverageReport, __version__, counting, parse_distribution, sources, write_csv
from relmean.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


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


def test_compare_writes_csv_of_its_rows(capsys, tmp_path):
    out_path = tmp_path / "compare.csv"
    code, out, _ = run_cli(
        capsys, "compare", "--dist", "lognormal:0.5", "--epsilon", "0.2", "--delta", "0.1",
        "--c", "1", "--reps", "100", "--seed", "4", "--out", str(out_path),
    )
    assert code == 0
    rows = [CoverageReport(**row) for row in json.loads(out)["rows"]]
    write_csv(rows, tmp_path / "expected.csv")
    assert out_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert len(out_path.read_text(encoding="ascii").splitlines()) == 4


def test_linext_estimate_and_exact(capsys, tmp_path, monkeypatch):
    # the exact count builds the one completion table and the chain, built
    # here from an empty cache, builds none
    tables = []
    completion_counts = counting._completion_counts

    def counted(preds):
        tables.append(preds)
        return completion_counts(preds)

    monkeypatch.setattr(counting, "_completion_counts", counted)
    counting.linext_chain.cache_clear()
    poset = tmp_path / "p.txt"
    poset.write_text("4\n1 2\n3 4\n", encoding="ascii")
    code, out, _ = run_cli(
        capsys, "linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1", "--seed", "3"
    )
    assert code == 0
    assert len(tables) == 1
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


@pytest.mark.parametrize("command", ["samplesize", "lowerbound"])
@pytest.mark.parametrize("c", ["1e-200", "1e155"])
def test_c_whose_square_underflows_or_overflows_exits_2(capsys, command, c):
    # before ApproxSpec checked c^2: a division by zero (exit 1) at 1e-200,
    # a NaN draw count at 1e155
    code, out, err = run_cli(capsys, command, "--epsilon", "0.1", "--delta", "0.05", "--c", c)
    assert (code, out) == (2, "")
    assert f"c^2 must be a normal float, but c = {float(c)!r}" in err


def test_a_stage_beyond_sys_maxsize_exits_2(capsys):
    # ApproxSpec accepts the spec, with k = 1.09e308: the pairwise walk used
    # to exhaust the stack (exit 1) before its first take
    argv = ["estimate", "--dist", "normal:1,1", "--epsilon", "0.66", "--delta", "0.999", "--c", "3e153"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"relmean: stage 1: the draw count, a \d+-bit integer, exceeds sys.maxsize = {sys.maxsize}, .*\n", err)


@pytest.mark.parametrize(
    "epsilon, delta, c, message",
    [
        ("0.1", "0.05", "1e153", "c = 1e+153 give draw counts too large for a float"),
        ("1e-160", "0.05", "1", "epsilon^2 must be a normal float, but epsilon = 1e-160"),
        ("1e-200", "0.05", "1", "epsilon^2 must be a normal float, but epsilon = 1e-200"),
        ("0.1", "5e-324", "1", "delta / 2 must be a normal float, but delta = 5e-324"),
    ],
)
def test_spec_whose_plan_overflows_exits_2(capsys, epsilon, delta, c, message):
    # build_plan raised OverflowError or ZeroDivisionError here (exit 1)
    code, out, err = run_cli(capsys, "samplesize", "--epsilon", epsilon, "--delta", delta, "--c", c)
    assert (code, out) == (2, "")
    assert message in err


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
        assert "replications must be an integer in [100, 4294967296), got 99" in err


def test_negative_seed_exits_2_naming_seed(capsys, tmp_path):
    flags = ["--epsilon", "0.2", "--delta", "0.1", "--c", "1", "--seed", "-1"]
    poset = tmp_path / "poset.txt"
    poset.write_text("3\n1 2\n", encoding="ascii")
    for argv in (
        ["estimate", "--dist", "lognormal:1", *flags],
        ["coverage", "--dist", "lognormal:1", *flags, "--reps", "100"],
        ["compare", "--dist", "lognormal:1", *flags, "--reps", "100"],
        ["gibbs", "--epsilon", "0.2", "--delta", "0.1", "--seed", "-1"],
        ["linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1", "--seed", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "seed must be an integer in [0, inf), got -1" in err, argv


@pytest.mark.parametrize("dist", ["lognormal:27", "normal:1,1e200"])
def test_a_distribution_whose_facts_overflow_exits_2(capsys, dist):
    # math.expm1 and float ** raise OverflowError, which used to exit 1
    code, out, err = run_cli(
        capsys, "coverage", "--dist", dist, "--epsilon", "0.2", "--delta", "0.1", "--c", "1", "--reps", "100"
    )
    assert (code, out) == (2, "")
    assert err == "relmean: true_relvar must be finite and lie in [0, inf), got inf\n"


def test_unknown_flag_and_subcommand_exit_2(capsys):
    code, _, _ = run_cli(capsys, "samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1", "--bogus", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    # coverage certifies the two-stage estimator; the baselines are compare rows
    argv = ["coverage", "--dist", "normal:100,50", "--epsilon", "0.2", "--delta", "0.1", "--c", "0.5"]
    code, out, err = run_cli(capsys, *argv, "--reps", "100", "--estimator", "mom")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --estimator mom" in err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        # the spec's c must cover the distribution's c bound (lognormal:1 has 1.31)
        (["coverage", "--dist", "lognormal:1", "--epsilon", "0.2", "--delta", "0.1", "--c", "0.5",
          "--reps", "100"], "exceeds spec c"),
        (["compare", "--dist", "pareto:1.5", "--epsilon", "0.2", "--delta", "0.1", "--c", "1",
          "--reps", "100"], "Pareto shape must exceed 2"),
        (["linext", "--poset", "{poset}", "--epsilon", "0.2", "--delta", "0.1", "--m-per-level", "0"],
         "m_per_level must be an integer in [1, 1048576], got 0"),
        (["coverage", "--dist", "constant:2", "--epsilon", "0.2", "--delta", "0.1", "--c", "1",
          "--reps", "100", "--out", "{missing}/cov.csv"], "No such file or directory"),
    ],
    ids=["coverage-c-bound", "compare-pareto", "linext-m-per-level", "coverage-out-dir"],
)
def test_value_and_os_errors_exit_2(capsys, tmp_path, argv, message):
    # a ValueError or OSError is a bad argument, spec or file, wherever the
    # library raises it; test_runtime_error_exits_1 covers the other side
    poset = tmp_path / "p.txt"
    poset.write_text("3\n1 2\n", encoding="ascii")
    got = run_cli(capsys, *[arg.format(poset=poset, missing=tmp_path / "missing") for arg in argv])
    assert got[:2] == (2, ""), got
    assert message in got[2]


def test_linext_plan_over_the_indicator_budget_exits_2(capsys, tmp_path):
    # at m = 1, six incomparable elements plan 3.7e15 draws, refused by name
    # before any draw, on every host
    poset = tmp_path / "antichain6.txt"
    poset.write_text("6\n", encoding="ascii")
    argv = ["linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1", "--m-per-level", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "n = 6 elements at m_per_level = 1" in err and "exceed the budget of 68719476736" in err


@pytest.mark.parametrize("m", [2**20 + 1, 10**400])
def test_linext_m_per_level_above_its_range_exits_2(capsys, tmp_path, m):
    # a 401-digit m_per_level used to end in an OverflowError (exit 1); the
    # message gives its bit length, not its digits
    poset = tmp_path / "antichain4.txt"
    poset.write_text("4\n", encoding="ascii")
    argv = ["linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1", "--m-per-level", str(m)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    shown = {2**20 + 1: "1048577", 10**400: "a 1329-bit integer"}[m]
    assert err == f"relmean: m_per_level must be an integer in [1, 1048576], got {shown}\n"


def test_non_finite_draw_exits_2_naming_the_distribution(capsys):
    argv = ["estimate", "--dist", "normal:1e308,1e308", "--epsilon", "0.2", "--delta", "0.1", "--c", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "non-finite" in err and "normal:1e+308,1e+308" in err


@pytest.mark.parametrize(
    "content, argv",
    [
        (b"1.0\n2.0\ninf\n", ["estimate", "--dist", "recorded:{path}", "--c", "1"]),
        (b"1.0\n2.0\ncaf\xe9\n", ["estimate", "--dist", "recorded:{path}", "--c", "1"]),
        (b"3\n1 2\n2 \xe9\n", ["linext", "--poset", "{path}"]),
        (b"3\n1 2\nx y\n", ["linext", "--poset", "{path}"]),
        (b"3\n1 2\n2 9\n", ["linext", "--poset", "{path}"]),
    ],
    ids=["recorded-inf", "recorded-non-ascii", "poset-non-ascii", "poset-bad-pair", "poset-pair-out-of-range"],
)
def test_bad_input_file_exits_2_naming_its_file_and_line(capsys, tmp_path, content, argv):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    argv = [arg.format(path=path) for arg in argv] + ["--epsilon", "0.2", "--delta", "0.1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{path}: line 3" in err


def test_cycle_in_poset_file_exits_2(capsys, tmp_path):
    poset = tmp_path / "cycle.txt"
    poset.write_text("3\n1 2\n2 3\n3 1\n", encoding="ascii")
    code, _, err = run_cli(capsys, "linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1")
    assert code == 2
    assert f"{poset}: order contains a cycle" in err


def test_poset_over_the_size_cap_exits_2_before_its_pairs_are_read(capsys, tmp_path):
    # the second file would fail at its third line; the declared count is refused first
    for i, text in enumerate(["11\n1 2\n", "2000\n1 2\nnot a pair\n"]):
        poset = tmp_path / f"big{i}.txt"
        poset.write_text(text, encoding="ascii")
        code, out, err = run_cli(capsys, "linext", "--poset", str(poset), "--epsilon", "0.2", "--delta", "0.1")
        assert (code, out) == (2, ""), text
        assert "capped at 10" in err, text


# Exact stdout of one seeded invocation per subcommand, recorded before the
# public surface was cut: payloads must stay byte-stable across refactors.
PINNED_STDOUT = [
    (
        ["samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1"],
        '{"mode": "strict", "plan": {"epsilon1": 0.22360679774997896, "k": 160, "m": 5, "n": 974, '
        '"samples_stage1": 800, "samples_stage2": 974, "total_samples": 1774}, "seed": null, '
        '"spec": {"c": 1.0, "delta": 0.05, "epsilon": 0.1}, "total": 1454, "version": "0.1.0"}',
    ),
    (
        ["lowerbound", "--epsilon", "0.1", "--delta", "0.05", "--c", "1"],
        '{"lower_bound": 229.81737539818795, "mode": "strict", "seed": null, '
        '"spec": {"c": 1.0, "delta": 0.05, "epsilon": 0.1}, "version": "0.1.0"}',
    ),
    (
        ["estimate", "--dist", "lognormal:1", "--epsilon", "0.2", "--delta", "0.1", "--c", "1.4", "--seed", "11"],
        '{"alpha": 0.05794641437132777, "distribution": "lognormal:1", "mode": "strict", '
        '"mu1": 1.760951345024396, "mu_hat": 1.6697243763918743, "rng": "pcg64", "samples_stage1": 357, '
        '"samples_stage2": 452, "seed": 11, "spec": {"c": 1.4, "delta": 0.1, "epsilon": 0.2}, '
        '"total_samples": 809, "version": "0.1.0"}',
    ),
    (
        ["coverage", "--dist", "lognormal:0.5", "--epsilon", "0.2", "--delta", "0.1", "--c", "1",
         "--reps", "100", "--seed", "3"],
        '{"mode": "strict", "report": {"R": 100, "binomial_3sigma": 0.09000000000000001, "c": 1.0, '
        '"delta": 0.1, "distribution": "lognormal:0.5", "epsilon": 0.2, "estimator": "twostage", '
        '"failure_rate": 0.0, "failures": 0, "mean_abs_rel_error": 0.028919783890633634, "mode": "strict", '
        '"samples_per_run": 471, "seed": 3}, "rng": "pcg64", "seed": 3, '
        '"spec": {"c": 1.0, "delta": 0.1, "epsilon": 0.2}, "version": "0.1.0"}',
    ),
    (
        ["compare", "--dist", "pareto:3", "--epsilon", "0.2", "--delta", "0.1", "--c", "1",
         "--reps", "100", "--seed", "4"],
        '{"mode": "strict", "rng": "pcg64", "rows": ['
        '{"R": 100, "binomial_3sigma": 0.09000000000000001, "c": 1.0, "delta": 0.1, "distribution": "pareto:3", '
        '"epsilon": 0.2, "estimator": "twostage", "failure_rate": 0.0, "failures": 0, '
        '"mean_abs_rel_error": 0.025288421780528498, "mode": "strict", "samples_per_run": 471, "seed": 4}, '
        '{"R": 100, "binomial_3sigma": 0.09000000000000001, "c": 1.0, "delta": 0.1, "distribution": "pareto:3", '
        '"epsilon": 0.2, "estimator": "mom", "failure_rate": 0.0, "failures": 0, '
        '"mean_abs_rel_error": 0.033528539141198035, "mode": "strict", "samples_per_run": 471, "seed": 4}, '
        '{"R": 100, "binomial_3sigma": 0.09000000000000001, "c": 1.0, "delta": 0.1, "distribution": "pareto:3", '
        '"epsilon": 0.2, "estimator": "naive", "failure_rate": 0.0, "failures": 0, '
        '"mean_abs_rel_error": 0.021745135474539247, "mode": "strict", "samples_per_run": 471, "seed": 4}], '
        '"seed": 4, "spec": {"c": 1.0, "delta": 0.1, "epsilon": 0.2}, "version": "0.1.0"}',
    ),
    (
        ["linext", "--poset", "{poset}", "--epsilon", "0.2", "--delta", "0.1", "--seed", "3"],
        '{"estimate": 5.8416965661293085, "exact": 6, "m_per_level": 100, "mode": "strict", '
        '"poset_elements": 4, "rng": "pcg64", "seed": 3, '
        '"spec": {"c": 0.3570670127292294, "delta": 0.1, "epsilon": 0.2}, "version": "0.1.0"}',
    ),
    (
        ["gibbs", "--epsilon", "0.2", "--delta", "0.1", "--seed", "5"],
        '{"eps_prime": 0.09901951359278482, "estimate": 1.9128183353009804, "mode": "strict", '
        '"mu_v": 2.5302868635468743, "mu_w": 4.935829581541985, "rng": "pcg64", "samples_per_stream": 7999, '
        '"seed": 5, "spec": {"c": 2.331643981597124, "delta": 0.1, "epsilon": 0.2}, '
        '"stream_relvar": 5.43656365691809, "true_ratio": 2.0, "version": "0.1.0"}',
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT, ids=[argv[0] for argv, _ in PINNED_STDOUT])
def test_stdout_pinned(capsys, tmp_path, argv, expected):
    poset = tmp_path / "p.txt"
    poset.write_text("4\n1 2\n3 4\n", encoding="ascii")
    code, out, err = run_cli(capsys, *[arg.format(poset=poset) for arg in argv])
    assert (code, err) == (0, "")
    assert out == expected + "\n"


SPEC_FLAGS = {"--epsilon", "--delta", "--mode"}
SUBCOMMAND_FLAGS = {
    "samplesize": SPEC_FLAGS | {"--c"},
    "lowerbound": SPEC_FLAGS | {"--c"},
    "estimate": SPEC_FLAGS | {"--c", "--seed", "--dist"},
    "coverage": SPEC_FLAGS | {"--c", "--seed", "--dist", "--reps", "--out"},
    "compare": SPEC_FLAGS | {"--c", "--seed", "--dist", "--reps", "--out"},
    "linext": SPEC_FLAGS | {"--seed", "--poset", "--m-per-level"},
    "gibbs": SPEC_FLAGS | {"--seed"},
}
FLAG_CHOICES = {"--mode": "{paper,strict}"}
FLAG_DEFAULTS = {"--seed": 0, "--reps": 1000, "--m-per-level": 100}
REQUIRED_VALUES = {"--epsilon": "0.2", "--delta": "0.1", "--c": "1", "--dist": "constant:2", "--poset": "p.txt"}


@pytest.mark.parametrize("sub", SUBCOMMAND_FLAGS)
def test_subcommand_flags_pinned(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run_cli(capsys, sub, "--help")
    assert (code, err) == (0, "")
    usage = out.split("\n\n")[0]
    flags = SUBCOMMAND_FLAGS[sub]
    assert set(re.findall(r"--[a-z-]+", usage)) == flags
    for flag, choices in FLAG_CHOICES.items():
        assert (f"[{flag} {choices}]" in usage) == (flag in flags), flag
    # the help text states each default, and the parser applies it
    argv = [sub] + [arg for flag, value in REQUIRED_VALUES.items() if flag in flags for arg in (flag, value)]
    parsed = vars(build_parser().parse_args(argv))
    for flag, default in FLAG_DEFAULTS.items():
        dest = flag[2:].replace("-", "_")
        if flag in flags:
            assert re.search(rf"\n  {flag} [A-Z_]+\s+[^-]*\(default {default}\)", out), flag
            assert parsed[dest] == default, flag
        else:
            assert dest not in parsed, flag
    assert parsed["mode"] == "strict"
    assert "estimator" not in parsed


def test_readme_commands_parse():
    # every command of README's "Command line" block, continuations joined,
    # parses, so a removed flag cannot linger in the docs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("relmean ")]
    assert {argv[0] for argv in commands} == set(SUBCOMMAND_FLAGS)
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: relmean {shlex.join(argv)}")


def test_readme_distributions_parse():
    # every built-in example of README's distribution sentence parses, and
    # the sentence names every form of the parser's table
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("Distributions use a", 1)[1].split(". ", 1)[0]
    examples = [text for text in re.findall(r"`([^`]+)`", sentence) if text not in ("name:param,param", "recorded:PATH")]
    assert {text.split(":")[0] for text in examples} == set(sources._LAWS)
    for text in examples:
        assert parse_distribution(text).spec_string == text


def test_module_entry_point():
    # `python -m relmean.cli` runs main and exits with its code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "relmean.cli"]
    argv = ["samplesize", "--epsilon", "0.1", "--delta", "0.05", "--c", "1"]
    result = subprocess.run(command + argv, env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["total"] == 1454
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
