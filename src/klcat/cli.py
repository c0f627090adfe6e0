"""Command-line interface: build groups, dump KL tables, report cells, run suites.

Exit codes: 0 success / all identities pass, 1 identity failure, 2 bad
group specification, 3 unusable cache (mismatched, malformed, unreadable
or unwritable), 4 bad input (word, bound, table overflow).  All output is
deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cells import build_cell_datum, verify_decomposition_identity
from .coxeter import (
    CoxeterMatrix,
    GroupTable,
    IncompleteTableError,
    build_group,
    parse_word,
    preset_matrix,
)
from .kl import (
    CacheMismatchError,
    TOOL_VERSION,
    canonical_json,
    compute_kl,
    kl_from_json_obj,
    kl_to_csv,
    kl_to_json_obj,  # noqa: F401  unused here; perfbench/tracing.py rebinds it by name
    kl_to_json_text,
    matrix_content_hash,
)
from .verify import SUITES, FailRecords, JsonStream, run_suite

DEFAULT_CAP = 10000

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_SPEC_ERROR = 2
EXIT_CACHE_ERROR = 3
EXIT_INPUT_ERROR = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _matrix_from_args(args) -> tuple[str, CoxeterMatrix]:
    if args.type and args.matrix:
        raise CliError(EXIT_SPEC_ERROR, "give either --type or --matrix, not both")
    if args.type:
        try:
            return args.type, preset_matrix(args.type)
        except ValueError as exc:
            raise CliError(EXIT_SPEC_ERROR, str(exc))
    if args.matrix:
        try:
            return "custom", CoxeterMatrix.from_json_obj(json.loads(args.matrix))
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise CliError(EXIT_SPEC_ERROR, f"bad matrix JSON: {exc}")
    raise CliError(EXIT_SPEC_ERROR, "a group is required: --type NAME or --matrix JSON")


def _group_from_args(args) -> tuple[str, GroupTable]:
    name, matrix = _matrix_from_args(args)
    try:
        return name, build_group(matrix, args.cap)
    except ValueError as exc:
        raise CliError(EXIT_SPEC_ERROR, str(exc))


def cmd_group(args, out) -> int:
    name, table = _group_from_args(args)
    counts = table.counts_by_length()
    out.write(f"type: {name}\n")
    out.write(f"rank: {table.rank}\n")
    if table.partial:
        out.write(f"order: >= {table.order} (partial, complete through length {table.complete_length})\n")
    else:
        out.write(f"order: {table.order}\n")
    out.write(f"longest length: {table.complete_length}\n")
    out.write("elements by length: " + ",".join(str(c) for c in counts) + "\n")
    return EXIT_OK


def _cache_path(args, matrix, bound: int) -> Path | None:
    if args.cache:
        return Path(args.cache)
    cache_dir = os.environ.get("KLCAT_CACHE_DIR")
    if cache_dir:
        return Path(cache_dir) / f"kl-{matrix_content_hash(matrix, bound)}.json"
    return None


def _write_replacing(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``, so a reader never sees a partly written cache.  The file is
    synced before the rename and the directory after it, so the new cache
    also survives a power loss."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_or_check(path: Path, kl, text: str) -> None:
    """Write ``text``, the table's canonical document, as the cache at
    ``path`` if there is none; otherwise check the cache against the table.

    A cache byte-equal to the text is accepted as it is, and any other
    layout goes through ``json.loads`` and :func:`kl_from_json_obj`.  The
    file is never rewritten, and the cached text is dropped on return.
    """
    if not path.exists():
        _write_replacing(path, text)
        return
    cached = path.read_text()
    if cached != text:
        kl_from_json_obj(kl, json.loads(cached))


def cmd_kl(args, out) -> int:
    _, table = _group_from_args(args)
    if args.up_to_length is not None and args.up_to_length < 0:
        raise CliError(EXIT_INPUT_ERROR, "--up-to-length must be nonnegative")
    bound = args.up_to_length if args.up_to_length is not None else table.complete_length
    if table.partial and bound > table.complete_length:
        raise CliError(
            EXIT_INPUT_ERROR,
            f"table is only complete through length {table.complete_length}",
        )
    bound = min(bound, table.complete_length)
    path = _cache_path(args, table.matrix, bound)
    kl = compute_kl(table, bound)
    # the canonical JSON document, encoded once
    text = kl_to_json_text(kl) if path is not None or args.format == "json" else None
    if path is not None:
        try:
            _write_or_check(path, kl, text)
        # text that is not JSON raises ValueError, or RecursionError when nested too deep
        except (CacheMismatchError, OSError, ValueError, RecursionError) as exc:
            raise CliError(EXIT_CACHE_ERROR, f"cache at {path}: {exc}")
    if args.format == "csv":
        text = None  # not alive while the CSV is built
        out.write(kl_to_csv(kl))
    else:
        out.write(text)
    return EXIT_OK


def cmd_cells(args, out) -> int:
    _, table = _group_from_args(args)
    try:
        word = parse_word(args.word, table.rank)
    except ValueError as exc:
        raise CliError(EXIT_INPUT_ERROR, str(exc))
    try:
        kl = compute_kl(table, min(len(word), table.complete_length))
        datum = build_cell_datum(kl, word)
    except (ValueError, IncompleteTableError) as exc:
        raise CliError(EXIT_INPUT_ERROR, str(exc))
    report = verify_decomposition_identity(datum)
    out.write(canonical_json(report))
    return EXIT_OK if report["pass"] else EXIT_IDENTITY_FAILURE


def cmd_verify(args, out) -> int:
    name, table = _group_from_args(args)
    bound = table.complete_length
    if args.max_length is not None:
        if args.max_length < 0:
            raise CliError(EXIT_INPUT_ERROR, "--max-length must be nonnegative")
        bound = min(bound, args.max_length)
    kl = compute_kl(table, bound)
    # JSON is written as the records come; text keeps only the FAIL records
    sink = JsonStream(out, args.suite) if args.format == "json" else FailRecords()
    report = run_suite(kl, args.suite, sink)
    if args.format == "json":
        sink.finish()
    else:
        out.write(f"group: {name} (order {'>= ' if table.partial else ''}{table.order})\n")
        out.write(f"suite: {args.suite}\n")
        for identity, counts in report["summary"].items():
            total = counts["pass"] + counts["fail"]
            out.write(f"check {identity}: {counts['pass']}/{total} pass\n")
        for rec in sink.records:
            spot = ",".join(f"{k}={rec[k]}" for k in ("word", "x", "u", "s") if k in rec)
            out.write(f"FAIL {rec['identity']} [{spot}] lhs={rec.get('lhs')} rhs={rec.get('rhs')}\n")
        out.write(f"RESULT: {'PASS' if report['pass'] else 'FAIL'}\n")
    return EXIT_OK if report["pass"] else EXIT_IDENTITY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcat",
        description="Exact Coxeter / Hecke / Kazhdan-Lusztig engine with verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"klcat {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("--type", help='preset name: A2, A3, A4, B3, I2(m), ...')
        p.add_argument("--matrix", help='explicit matrix JSON {"rank":n,"m":[[...]]} (0 = infinity)')
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="maximum element count")

    p_group = sub.add_parser("group", help="build a group table and print its shape")
    add_group_args(p_group)
    p_group.set_defaults(func=cmd_group)

    p_kl = sub.add_parser("kl", help="compute and dump the KL table")
    add_group_args(p_kl)
    p_kl.add_argument("--up-to-length", type=int, default=None)
    p_kl.add_argument("--format", choices=("csv", "json"), default="csv")
    p_kl.add_argument("--cache", help="cache file path (default: KLCAT_CACHE_DIR, else no cache)")
    p_kl.set_defaults(func=cmd_kl)

    p_cells = sub.add_parser("cells", help="cell data of one reduced word")
    add_group_args(p_cells)
    p_cells.add_argument("--word", required=True, help="comma-separated generators, e.g. s2,s1,s3,s2")
    p_cells.set_defaults(func=cmd_cells)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    add_group_args(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--jobs", type=int, default=1, help="ignored: suites run serially")
    p_verify.add_argument(
        "--max-length",
        type=int,
        default=None,
        help="restrict checks to elements/words up to this length (on an infinite group the number of "
        "reduced words grows without bound with length, exponentially on hyperbolic groups)",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except CliError as exc:
        print(f"klcat: {exc}", file=sys.stderr)
        return exc.code
    except IncompleteTableError as exc:
        print(f"klcat: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
