"""Command-line front end.

Subcommands: generate (sequences in the export format), family (manifest
plus payload), correlate (exhaustive scan report), count (size report or
sweep table), verify (the full per-parameter-set verification suite).
Exit codes: 0 success, 1 verification failure, 2 parameter/usage error
(including an --out path that cannot be written).
"""

import argparse
import json
import sys

from .correlation import cyclic_inequivalence, max_correlation
from .counting import asymptotic_size, count_report, lambda_size_formula
from .errors import InternalCheckError, ParameterError, SeqfamError
from .family import build_family
from .fields import build_extension, build_field, table_limit
from .intmath import is_prime
from .sequences import format_sequence, sidelnikov_sequence, sidelnikov_sequence_ext
from .columns import column_sequence
from .verify import format_verification, run_verification

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfam",
        description="Build and verify low-correlation sequence families over finite fields.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="prime characteristic")
    common.add_argument("--n", type=int, default=1, help="degree over the prime field (q = p**n)")
    common.add_argument("--d", type=int, help="extension degree of the long sequence")
    common.add_argument("--M", type=int, required=True, help="alphabet size, must divide q-1")
    common.add_argument("--policy", choices=("strict", "relaxed-d2"), default="strict")
    common.add_argument("--column", type=int, help="column index for generate")
    common.add_argument("--tau", type=int, help="cyclic shift applied to generated sequences")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", help="output path (default stdout); family uses it as a prefix")
    common.add_argument("--jobs", type=int, help="FFT workers of the correlation scan (default: all cores); "
                        "GEMM threads follow OPENBLAS_NUM_THREADS")
    common.add_argument("--table-limit", dest="table_limit", type=int,
                        help="log-table size cap (overrides SEQFAM_TABLE_LIMIT)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common], help="write sequences in the export format")
    sub.add_parser("family", parents=[common], help="build the family; write manifest and payload")
    sub.add_parser("correlate", parents=[common], help="exhaustive correlation and equivalence scan")
    sub.add_parser("count", parents=[common], help="exact and asymptotic family size")
    sub.add_parser("verify", parents=[common], help="run the full verification suite")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fp:
            fp.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _require_d(args) -> int:
    if args.d is None or args.d < 2:
        raise ParameterError("--d must be given and >= 2 for this command")
    return args.d


def cmd_generate(args) -> int:
    ctx = build_field(args.p, args.n, args.table_limit)
    if args.column is not None:
        ext = build_extension(ctx, _require_d(args), args.table_limit)
        seq = column_sequence(ext, args.column, args.M)
    elif args.d is not None and args.d >= 2:
        ext = build_extension(ctx, args.d, args.table_limit)
        seq = sidelnikov_sequence_ext(ext, args.M)
    else:
        seq = sidelnikov_sequence(ctx, args.M)
    if args.tau:
        seq = seq.shifted(args.tau % seq.period)
    _emit(format_sequence(seq), args.out)
    return EXIT_OK


def cmd_family(args) -> int:
    ctx = build_field(args.p, args.n, args.table_limit)
    ext = build_extension(ctx, _require_d(args), args.table_limit)
    fam = build_family(ext, args.M, args.policy)
    manifest = json.dumps(fam.manifest(), indent=2)
    payload = "\n".join(format_sequence(s) for s in fam.sequences)
    if args.out:
        with open(args.out + ".manifest.json", "w") as fp:
            fp.write(manifest + "\n")
        with open(args.out + ".sequences.txt", "w") as fp:
            fp.write(payload + "\n")
        sys.stdout.write(f"{args.out}.manifest.json\n{args.out}.sequences.txt\n")
    else:
        sys.stdout.write(manifest + "\n" + payload + "\n")
    return EXIT_OK


def cmd_correlate(args) -> int:
    ctx = build_field(args.p, args.n, args.table_limit)
    ext = build_extension(ctx, _require_d(args), args.table_limit)
    fam = build_family(ext, args.M, args.policy)
    report = max_correlation(fam, jobs=args.jobs)
    inequivalent, witness = cyclic_inequivalence(fam)
    payload = report.to_dict()
    payload["cyclically_inequivalent"] = inequivalent
    payload["equivalence_witness"] = witness
    if args.fmt == "csv":
        _emit(report.histogram_csv(), args.out)
    elif args.fmt == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"family q={fam.q} d={fam.d} M={fam.M} policy={fam.policy}: {fam.size} sequences",
            f"delta_max = {report.delta_max:.6f} (bound {report.bound:.6f}) "
            f"{'OK' if report.bound_ok else 'VIOLATED'}",
            f"per-pair bounds: {'OK' if report.pair_bound_ok else 'VIOLATED'}",
            f"cyclically inequivalent: {inequivalent}",
            f"histogram bins: {len(report.histogram)} at resolution {report.histogram_resolution}",
            f"backend: {report.backend}, elapsed {report.elapsed:.2f}s",
        ]
        _emit("\n".join(lines), args.out)
    ok = report.bound_ok and report.pair_bound_ok and report.same_column_bound_ok and inequivalent
    return EXIT_OK if ok else EXIT_FAILURE


def _count_sweep_csv(args) -> str:
    """Exact vs asymptotic sizes swept over base-field degrees of the same p."""
    if args.M < 2:
        raise ParameterError("M must be >= 2")
    if not is_prime(args.p):
        raise ParameterError(f"p={args.p} is not prime")
    limit = table_limit(args.table_limit)
    rows = ["q,d,M,lambda,family_size,asymptotic,ratio"]
    n_prime = 1
    while (args.p ** n_prime) ** args.d <= limit:
        q = args.p**n_prime
        if (q - 1) % args.M == 0 and q > args.M:
            lam = lambda_size_formula(q, args.d)
            fam = (args.M - 1) * (lam - 1)
            asym = asymptotic_size(q, args.d, args.M)
            rows.append(f"{q},{args.d},{args.M},{lam},{fam},{asym:.4f},{fam / asym:.6f}")
        n_prime += 1
    return "\n".join(rows)


def cmd_count(args) -> int:
    d = _require_d(args)
    if args.fmt == "csv":
        _emit(_count_sweep_csv(args), args.out)
        return EXIT_OK
    ctx = build_field(args.p, args.n, args.table_limit)
    report = count_report(ctx.q, d, args.M, ctx)
    if args.fmt == "json":
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
    else:
        _emit(
            f"q={report.q} d={report.d} M={report.M}\n"
            f"lambda (closed form) = {report.lambda_formula}\n"
            f"lambda (coset partition) = {report.lambda_cosets}\n"
            f"family size = {report.family_size}\n"
            f"asymptotic = {report.asymptotic:.4f} (ratio {report.ratio:.6f})",
            args.out,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_verification(
        args.p,
        args.n,
        _require_d(args),
        args.M,
        policy=args.policy,
        jobs=args.jobs,
        table_limit=args.table_limit,
    )
    if args.fmt == "json":
        _emit(json.dumps(result, indent=2), args.out)
    else:
        _emit(format_verification(result), args.out)
    return EXIT_OK if result["ok"] else EXIT_FAILURE


_COMMANDS = {
    "generate": cmd_generate,
    "family": cmd_family,
    "correlate": cmd_correlate,
    "count": cmd_count,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except SeqfamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
