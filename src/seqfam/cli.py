"""Command-line front end.

Subcommands: generate (sequences in the export format), family (manifest
plus payload), correlate (exhaustive scan report), count (size report or
sweep table), verify (the full per-parameter-set verification suite).
Exit codes: 0 success, 1 verification failure, 2 parameter/usage error
(including an --out path that cannot be written, and running out of memory).
"""

import argparse
import json
import sys

from .correlation import max_correlation
from .counting import asymptotic_size, count_report, lambda_size_formula
from .errors import InternalCheckError, ParameterError, SeqfamError
from .family import POLICIES, SequenceFamily, build_family, check_family_parameters
from .fields import build_extension, build_field, check_extension, check_field_order, table_limit
from .sequences import check_alphabet, format_sequence, sidelnikov_sequence, sidelnikov_sequence_ext
from .columns import column_sequence
from .verify import format_verification, run_verification

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def degree(text: str) -> int:
    """The --d type: an extension degree, at least 2."""
    d = int(text)
    if d < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {d}")
    return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqfam",
        description="Build and verify low-correlation sequence families over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, help_text in (
        ("generate", "write sequences in the export format"),
        ("family", "build the family; write manifest and payload"),
        ("correlate", "exhaustive correlation and equivalence scan"),
        ("count", "exact and asymptotic family size"),
        ("verify", "run the full verification suite"),
    ):
        cmd = cmds[name] = sub.add_parser(name, help=help_text)
        cmd.add_argument("--p", type=int, required=True, help="prime characteristic")
        cmd.add_argument("--n", type=int, default=1, help="degree over the prime field (q = p**n)")
        cmd.add_argument("--d", type=degree, required=name != "generate",
                         help="extension degree of the long sequence, >= 2")
        cmd.add_argument("--M", type=int, required=True, help="alphabet size, must divide q-1")
        cmd.add_argument("--out", help="output path (default stdout); family uses it as a prefix")
        cmd.add_argument("--table-limit", dest="table_limit", type=int,
                         help="log-table size cap (overrides SEQFAM_TABLE_LIMIT)")
    cmds["generate"].add_argument("--column", type=int, help="column index (needs --d)")
    cmds["generate"].add_argument("--tau", type=int, help="cyclic shift applied to the sequence")
    for name in ("family", "correlate", "verify"):
        cmds[name].add_argument("--policy", choices=POLICIES, default="strict")
    for name, formats in (("correlate", "json csv text"), ("count", "json csv text"), ("verify", "json text")):
        cmds[name].add_argument("--format", dest="fmt", choices=formats.split(), default="text")
    for name in ("correlate", "verify"):  # the benchmark's command lines pass --jobs to these two
        cmds[name].add_argument("--jobs", type=int,
                                help="has no effect; scans and table passes run on every usable CPU")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fp:
            fp.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _field_order(args) -> int:
    """q = p**n, with q**d checked when --d is given, before any table is built."""
    q = check_field_order(args.p, args.n, args.table_limit)
    if args.d is not None:
        check_extension(q, args.d, args.table_limit)
    return q


def cmd_generate(args) -> int:
    q = _field_order(args)
    if args.d is None and args.column is not None:
        raise ParameterError("--column needs --d")
    check_alphabet(q, args.M)
    ctx = build_field(args.p, args.n, args.table_limit)
    if args.d is None:
        seq = sidelnikov_sequence(ctx, args.M)
    else:
        ext = build_extension(ctx, args.d, args.table_limit)
        if args.column is None:
            seq = sidelnikov_sequence_ext(ext, args.M)
        else:
            seq = column_sequence(ext, args.column, args.M)
    if args.tau:
        seq = seq.shifted(args.tau % seq.period)
    _emit(format_sequence(seq), args.out)
    return EXIT_OK


def _family(args) -> SequenceFamily:
    """The command line's family; parameters it would refuse are refused before GF(q) is built."""
    check_family_parameters(_field_order(args), args.d, args.M, args.policy)
    ctx = build_field(args.p, args.n, args.table_limit)
    return build_family(build_extension(ctx, args.d, args.table_limit), args.M, args.policy)


def cmd_family(args) -> int:
    fam = _family(args)
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
    fam = _family(args)
    report = max_correlation(fam)
    if args.fmt == "csv":
        _emit(report.histogram_csv(), args.out)
    elif args.fmt == "json":
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
    else:
        lines = [
            f"family q={fam.q} d={fam.d} M={fam.M} policy={fam.policy}: {fam.size} sequences",
            f"delta_max = {report.delta_max:.6f} (bound {report.bound:.6f}) "
            f"{'OK' if report.bound_ok else 'VIOLATED'}",
            f"per-pair bounds: {'OK' if report.pair_bound_ok else 'VIOLATED'}",
            f"cyclically inequivalent: {report.cyclically_inequivalent}",
            f"histogram bins: {len(report.histogram)} at resolution {report.histogram_resolution}",
            f"backend: {report.backend}, elapsed {report.elapsed:.2f}s",
        ]
        _emit("\n".join(lines), args.out)
    ok = report.bound_ok and report.pair_bound_ok and report.same_column_bound_ok and report.cyclically_inequivalent
    return EXIT_OK if ok else EXIT_FAILURE


def _count_sweep_csv(args) -> str:
    """Exact vs asymptotic sizes swept over q = p**n, p**(n+1), ... while q**d fits the table limit."""
    if args.M < 2:
        raise ParameterError("M must be >= 2")
    q = _field_order(args)
    limit = table_limit(args.table_limit)
    rows = ["q,d,M,lambda,family_size,asymptotic,ratio"]
    while q**args.d <= limit:
        if (q - 1) % args.M == 0 and q > args.M:
            lam = lambda_size_formula(q, args.d)
            fam = (args.M - 1) * (lam - 1)
            asym = asymptotic_size(q, args.d, args.M)
            rows.append(f"{q},{args.d},{args.M},{lam},{fam},{asym:.4f},{fam / asym:.6f}")
        q *= args.p
    return "\n".join(rows)


def cmd_count(args) -> int:
    if args.fmt == "csv":
        _emit(_count_sweep_csv(args), args.out)
        return EXIT_OK
    check_alphabet(_field_order(args), args.M)
    ctx = build_field(args.p, args.n, args.table_limit)
    report = count_report(ctx.q, args.d, args.M, ctx)
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
        args.d,
        args.M,
        policy=args.policy,
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
    except MemoryError as exc:  # numpy's message names the size asked for
        print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)
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
