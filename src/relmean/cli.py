"""Command-line front end.

Each subcommand prints exactly one JSON object (keys sorted) to standard
output and exits 0.  Every payload carries mode, seed, spec and version;
a seeded subcommand's payload also carries rng.  The library checks every
argument it receives, so the exit code follows the exception type: a bad
argument, spec or file (ValueError, OSError) exits 2, any other failure
exits 1, both with a message on standard error and nothing on standard
output.  Identical invocations, including --seed, produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .counting import (
    Poset,
    _chain_c,
    _check_desk_scale,
    _poset_lines,
    eps_prime,
    gibbs_combine,
    linext_approx_count,
    linext_chain,
    linext_count_exact,
)
from .estimator import (
    ApproxSpec,
    Mode,
    build_plan,
    estimate_mean,
    lower_bound_samples,
    theorem1_total,
)
from .harness import CoverageConfig, compare_estimators, run_coverage, write_csv
from .sources import RNG_ALGORITHM, LogNormal, SampleSource, Scaled, _read_ascii, parse_distribution


def _payload(args, c: float, **fields) -> dict:
    """The subcommand's own fields plus those every payload carries: mode,
    seed, spec and version, and rng for a seeded subcommand."""
    payload = {
        "mode": args.mode,
        "seed": getattr(args, "seed", None),
        "spec": {"epsilon": args.epsilon, "delta": args.delta, "c": c},
        "version": __version__,
        **fields,
    }
    if "seed" in args:
        payload["rng"] = RNG_ALGORITHM
    return payload


def _plan_payload(plan) -> dict:
    return {
        "epsilon1": plan.epsilon1,
        "k": plan.k,
        "m": plan.m,
        "n": plan.n,
        "samples_stage1": plan.samples_stage1,
        "samples_stage2": plan.n,
        "total_samples": plan.total_samples,
    }


def _cmd_samplesize(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    plan = _plan_payload(build_plan(spec, args.mode))
    return _payload(args, args.c, total=theorem1_total(spec), plan=plan)


def _cmd_lowerbound(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    return _payload(args, args.c, lower_bound=lower_bound_samples(spec))


def _cmd_estimate(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    dist = parse_distribution(args.dist)
    report = estimate_mean(SampleSource(dist, args.seed), spec, args.mode)
    return _payload(
        args,
        args.c,
        distribution=dist.spec_string,
        mu1=report.mu1,
        alpha=report.alpha.alpha,
        mu_hat=report.mu_hat,
        samples_stage1=report.samples_stage1,
        samples_stage2=report.samples_stage2,
        total_samples=report.total_samples,
    )


def _cmd_coverage(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    dist = parse_distribution(args.dist)
    report = run_coverage(CoverageConfig(spec, dist, args.reps, args.seed, args.mode))
    if args.out:
        write_csv([report], args.out)
    return _payload(args, args.c, report=asdict(report))


def _cmd_compare(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    rows = compare_estimators(spec, parse_distribution(args.dist), args.reps, args.seed, args.mode)
    if args.out:
        write_csv(rows, args.out)
    return _payload(args, args.c, rows=[asdict(row) for row in rows])


def _cmd_linext(args) -> dict:
    text = _read_ascii(args.poset)
    try:
        _check_desk_scale(_poset_lines(text)[0])  # before the pairs are parsed and closed
        poset = Poset.from_text(text)
    except ValueError as exc:  # a bad line names its number, a cycle or size only the file
        raise type(exc)(f"{args.poset}: {exc}") from None
    estimate = linext_approx_count(
        poset, args.epsilon, args.delta, args.m_per_level, args.seed, args.mode
    )
    return _payload(
        args,
        _chain_c(linext_chain(poset), args.m_per_level),
        poset_elements=poset.n,
        m_per_level=args.m_per_level,
        estimate=estimate,
        exact=linext_count_exact(poset),
    )


def _cmd_gibbs(args) -> dict:
    """Exercise the quotient combiner on two synthetic streams with relative
    variance 2e and known means, at per-stream accuracy eps_prime(epsilon)."""
    relvar = 2.0 * math.e
    spec = ApproxSpec(args.epsilon, args.delta, math.sqrt(relvar))
    shape = math.sqrt(math.log1p(relvar))
    w_dist, v_dist = Scaled(LogNormal(shape), 2.0), LogNormal(shape)
    stream_eps = eps_prime(spec.epsilon)
    stream_spec = ApproxSpec(stream_eps, spec.delta / 2.0, spec.c)
    w_source = SampleSource(w_dist, args.seed, replicate_index=0)
    v_source = SampleSource(v_dist, args.seed, replicate_index=1)
    w_report = estimate_mean(w_source, stream_spec, args.mode)
    v_report = estimate_mean(v_source, stream_spec, args.mode)
    return _payload(
        args,
        spec.c,
        eps_prime=stream_eps,
        stream_relvar=relvar,
        mu_w=w_report.mu_hat,
        mu_v=v_report.mu_hat,
        estimate=gibbs_combine(w_report.mu_hat, v_report.mu_hat, spec.epsilon),
        true_ratio=w_dist.facts().true_mean / v_dist.facts().true_mean,
        samples_per_stream=w_report.total_samples,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmean",
        description="Mean estimation with a certified (epsilon, delta) guarantee "
        "under a relative-variance bound, plus counting applications.",
    )
    parser.add_argument("--version", action="version", version=f"relmean {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # parent parsers: each flag is declared once and shared by the subcommands listing it
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--epsilon", type=float, required=True, help="relative accuracy in (0,1)")
    spec.add_argument("--delta", type=float, required=True, help="failure probability in (0,1)")
    spec.add_argument(
        "--mode",
        choices=[mode.value for mode in Mode],
        default=Mode.STRICT.value,
        help="delta budgeting: paper (headline counts) or strict (union bound); default strict",
    )
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--c", type=float, required=True, help="bound on sigma/mean")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base seed in [0, inf) (default 0)")
    dist = argparse.ArgumentParser(add_help=False)
    dist.add_argument(
        "--dist",
        required=True,
        help="distribution as name:params, e.g. constant:5, normal:100,50, "
        "lognormal:1, bernoulli:0.2,1, pareto:2.5, recorded:PATH",
    )
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--reps", type=int, default=1000, help="replications in [100, 4294967296) (default 1000)")
    runs.add_argument("--out", default=None, help="also write the coverage rows as CSV")

    commands = [
        ("samplesize", _cmd_samplesize, "stage parameters and total draw count", [c]),
        ("lowerbound", _cmd_lowerbound, "information lower bound on the draw count", [c]),
        ("estimate", _cmd_estimate, "run the two-stage estimator on a seeded source", [c, seed, dist]),
        ("coverage", _cmd_coverage, "Monte Carlo failure-frequency certification", [c, seed, dist, runs]),
        ("compare", _cmd_compare, "coverage of all estimators at a matched budget", [c, seed, dist, runs]),
        ("linext", _cmd_linext, "approximate and exact linear-extension counts", [seed]),
        ("gibbs", _cmd_gibbs, "quotient estimation on synthetic streams (relvar 2e)", [seed]),
    ]
    subparsers = {}
    for name, handler, help_text, parents in commands:
        subparsers[name] = sub.add_parser(name, help=help_text, parents=[spec, *parents])
        subparsers[name].set_defaults(handler=handler)

    linext = subparsers["linext"]
    linext.add_argument("--poset", required=True, help="poset file: first line n, then `i j` pairs")
    linext.add_argument("--m-per-level", type=int, default=100, help="draws per chain level in [1, 1048576] (default 100)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except (ValueError, OSError) as exc:  # a bad argument, spec or file
        print(f"relmean: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"relmean: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, sort_keys=True))
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
