"""Command-line front end.

Each subcommand prints exactly one JSON object (keys sorted) to standard
output and exits 0.  The library checks every argument it receives, so
the exit code follows the exception type: a bad argument, spec or file
(ValueError, OSError) exits 2, any other failure exits 1, both with a
message on standard error and nothing on standard output.  Identical
invocations, including --seed, produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .counting import (
    Poset,
    _chain_c,
    _check_desk_scale,
    _poset_lines,
    eps_prime,
    gibbs_combine,
    linext_approx_count,
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
from .harness import CoverageConfig, EstimatorKind, compare_estimators, run_coverage, write_csv
from .sources import RNG_ALGORITHM, LogNormal, SampleSource, Scaled, parse_distribution


def _common_payload(args, c: float) -> dict:
    return {
        "mode": args.mode,
        "seed": getattr(args, "seed", None),
        "spec": {"epsilon": args.epsilon, "delta": args.delta, "c": c},
        "version": __version__,
    }


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
    payload = _common_payload(args, args.c)
    payload["total"] = theorem1_total(spec)
    payload["plan"] = _plan_payload(build_plan(spec, args.mode))
    return payload


def _cmd_lowerbound(args) -> dict:
    payload = _common_payload(args, args.c)
    payload["lower_bound"] = lower_bound_samples(ApproxSpec(args.epsilon, args.delta, args.c))
    return payload


def _cmd_estimate(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    dist = parse_distribution(args.dist)
    report = estimate_mean(SampleSource(dist, args.seed), spec, args.mode)
    payload = _common_payload(args, args.c)
    payload.update(
        {
            "distribution": dist.spec_string,
            "rng": RNG_ALGORITHM,
            "mu1": report.mu1,
            "alpha": report.alpha.alpha,
            "mu_hat": report.mu_hat,
            "samples_stage1": report.samples_stage1,
            "samples_stage2": report.samples_stage2,
            "total_samples": report.total_samples,
        }
    )
    return payload


def _cmd_coverage(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    dist = parse_distribution(args.dist)
    report = run_coverage(CoverageConfig(spec, dist, args.reps, args.seed, args.mode, args.estimator))
    if args.out:
        write_csv([report], args.out)
    payload = _common_payload(args, args.c)
    payload["rng"] = RNG_ALGORITHM
    payload["report"] = asdict(report)
    return payload


def _cmd_compare(args) -> dict:
    spec = ApproxSpec(args.epsilon, args.delta, args.c)
    rows = compare_estimators(spec, parse_distribution(args.dist), args.reps, args.seed, args.mode)
    if args.out:
        write_csv(rows, args.out)
    payload = _common_payload(args, args.c)
    payload["rng"] = RNG_ALGORITHM
    payload["rows"] = [asdict(row) for row in rows]
    return payload


def _cmd_linext(args) -> dict:
    text = Path(args.poset).read_text(encoding="ascii")
    _check_desk_scale(_poset_lines(text)[0])  # before the pairs are parsed and closed
    poset = Poset.from_text(text)
    estimate = linext_approx_count(
        poset, args.epsilon, args.delta, args.m_per_level, args.seed, args.mode
    )
    payload = _common_payload(args, _chain_c(poset.n, args.m_per_level))
    payload.update(
        {
            "rng": RNG_ALGORITHM,
            "poset_elements": poset.n,
            "m_per_level": args.m_per_level,
            "estimate": estimate,
            "exact": linext_count_exact(poset),
        }
    )
    return payload


def _cmd_gibbs(args) -> dict:
    """Exercise the quotient combiner on two synthetic streams with relative
    variance 2e and known means, at per-stream accuracy eps_prime(epsilon)."""
    relvar = 2.0 * math.e
    spec = ApproxSpec(args.epsilon, args.delta, math.sqrt(relvar))
    shape = math.sqrt(math.log1p(relvar))
    true_w = 2.0 * math.exp(0.5 * shape * shape)
    true_v = math.exp(0.5 * shape * shape)
    stream_eps = eps_prime(spec.epsilon)
    stream_spec = ApproxSpec(stream_eps, spec.delta / 2.0, spec.c)
    w_source = SampleSource(Scaled(LogNormal(shape), 2.0), args.seed, replicate_index=0)
    v_source = SampleSource(LogNormal(shape), args.seed, replicate_index=1)
    w_report = estimate_mean(w_source, stream_spec, args.mode)
    v_report = estimate_mean(v_source, stream_spec, args.mode)
    combined = gibbs_combine(w_report.mu_hat, v_report.mu_hat, spec.epsilon)
    payload = _common_payload(args, spec.c)
    payload.update(
        {
            "rng": RNG_ALGORITHM,
            "eps_prime": stream_eps,
            "stream_relvar": relvar,
            "mu_w": w_report.mu_hat,
            "mu_v": v_report.mu_hat,
            "estimate": combined,
            "true_ratio": true_w / true_v,
            "samples_per_stream": w_report.total_samples,
        }
    )
    return payload


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, required=True, help="relative accuracy in (0,1)")
    parser.add_argument("--delta", type=float, required=True, help="failure probability in (0,1)")


def _add_c_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--c", type=float, required=True, help="bound on sigma/mean")


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=[mode.value for mode in Mode],
        default=Mode.STRICT.value,
        help="delta budgeting: paper (headline counts) or strict (union bound); default strict",
    )


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmean",
        description="Mean estimation with a certified (epsilon, delta) guarantee "
        "under a relative-variance bound, plus counting applications.",
    )
    parser.add_argument("--version", action="version", version=f"relmean {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("samplesize", help="stage parameters and total draw count")
    _add_spec_flags(p)
    _add_c_flag(p)
    _add_mode_flag(p)
    p.set_defaults(handler=_cmd_samplesize)

    p = sub.add_parser("lowerbound", help="information lower bound on the draw count")
    _add_spec_flags(p)
    _add_c_flag(p)
    _add_mode_flag(p)
    p.set_defaults(handler=_cmd_lowerbound)

    p = sub.add_parser("estimate", help="run the two-stage estimator on a seeded source")
    _add_spec_flags(p)
    _add_c_flag(p)
    _add_mode_flag(p)
    _add_seed_flag(p)
    p.add_argument(
        "--dist",
        required=True,
        help="distribution as name:params, e.g. constant:5, normal:100,50, "
        "lognormal:1, bernoulli:0.2,1, pareto:2.5, recorded:PATH",
    )
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("coverage", help="Monte Carlo failure-frequency certification")
    _add_spec_flags(p)
    _add_c_flag(p)
    _add_mode_flag(p)
    _add_seed_flag(p)
    p.add_argument("--dist", required=True, help="distribution as name:params")
    p.add_argument("--reps", type=int, default=1000, help="replications (default 1000)")
    p.add_argument(
        "--estimator",
        choices=[kind.value for kind in EstimatorKind],
        default=EstimatorKind.TWO_STAGE.value,
        help="which estimator to certify (default twostage)",
    )
    p.add_argument("--out", default=None, help="also write the report as CSV")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("compare", help="coverage of all estimators at a matched budget")
    _add_spec_flags(p)
    _add_c_flag(p)
    _add_mode_flag(p)
    _add_seed_flag(p)
    p.add_argument("--dist", required=True, help="distribution as name:params")
    p.add_argument("--reps", type=int, default=1000, help="replications (default 1000)")
    p.add_argument("--out", default=None, help="also write the rows as CSV")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("linext", help="approximate and exact linear-extension counts")
    _add_spec_flags(p)
    _add_mode_flag(p)
    _add_seed_flag(p)
    p.add_argument("--poset", required=True, help="poset file: first line n, then `i j` pairs")
    p.add_argument("--m-per-level", type=int, default=100, help="draws per chain level (default 100)")
    p.set_defaults(handler=_cmd_linext)

    p = sub.add_parser("gibbs", help="quotient estimation on synthetic streams (relvar 2e)")
    _add_spec_flags(p)
    _add_mode_flag(p)
    _add_seed_flag(p)
    p.set_defaults(handler=_cmd_gibbs)

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
