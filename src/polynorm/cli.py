"""Command-line interface: analyze, holes, check, explore, gen.

Exit codes: 0 success, 1 input or usage error or a closed output pipe, 2
property violation or an unmet requirement (--require-kp on a
non-very-ample polytope, safety cap reached, or a failed check).

`main(argv)` can be called repeatedly in one process: it returns the exit
code, and its argparse parser is built once, at import.  It parses a
command line once, with its command's own parser, and runs the top-level
parser only for top-level flags, an unknown command, `--`, an argument
starting with `--=`, or leftover arguments.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from itertools import chain
from pathlib import Path

from . import __version__
from . import invariants as inv
from .bounds import (
    PipelineError,
    REPORT_KEYS,
    dict_json_bytes,
    full_report,
    report_to_dict,
)
from .catalog import (
    FAMILIES,
    SplitMix64,
    parse_family,
    random_polytope,
)
from .invariants import SearchCapExceeded
from .polytope import (
    GeometryError,
    Polytope,
    from_points,
    integer,
    parse_points_json,
    parse_points_text,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

DEFAULT_MAX_K = 64
MAX_K_HELP = ("safety cap for k-normality scans "
              f"(default: $POLYNORM_MAX_K or {DEFAULT_MAX_K})")


class InputError(ValueError):
    """Unusable command-line input (missing file, bad family spec, ...)."""


# -- input handling ---------------------------------------------------------------


def _build(builder, params, text: str) -> Polytope:
    try:
        return builder(*params)
    except ValueError as e:  # GeometryError is a ValueError
        raise InputError(f"bad family parameters {text!r}: {e}") from e


def resolve_input(text: str) -> Polytope:
    """Interpret the input as a family spec, else as a vertex file path.
    Text that names no file but starts with a known family name is that
    family with bad parameters, and the error says what is wrong with them."""
    path = Path(text)
    try:
        builder, params = parse_family(text)
    except ValueError as e:
        try:
            is_file = path.is_file()
        except OSError:  # a name the OS refuses, such as a component over 255 bytes
            is_file = False
        if not is_file:
            if text.partition(":")[0].strip() in FAMILIES:
                raise InputError(str(e)) from e
            raise InputError(f"no such file or family: {text}") from None
    else:
        return _build(builder, params, text)
    try:
        content = path.read_text()
        if path.suffix == ".json":
            points, name = parse_points_json(content)
        else:
            points, name = parse_points_text(content)
        return from_points(points, name=name or path.stem)
    except (OSError, GeometryError, ValueError) as e:  # ValueError covers bad UTF-8
        raise InputError(f"{path}: {e}") from e


def _effective_max_k(args) -> int:
    """The k-normality safety cap: --max-k, else $POLYNORM_MAX_K, else the
    default; a cap below 1 is an input error."""
    if getattr(args, "max_k", None) is not None:
        max_k, source = args.max_k, "--max-k"
    else:
        env = os.environ.get("POLYNORM_MAX_K")
        if not env:
            return DEFAULT_MAX_K
        try:
            max_k, source = integer(env), "POLYNORM_MAX_K"
        except ValueError as e:
            raise InputError(f"POLYNORM_MAX_K must be an integer, got {env!r}") from e
    if max_k < 1:
        raise InputError(f"{source} must be >= 1, got {max_k}")
    return max_k


def _effective_cache_dir(args):
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    env = os.environ.get("POLYNORM_CACHE")
    return Path(env) if env else None


# -- cache -----------------------------------------------------------------------


def cache_key(p: Polytope) -> str:
    """Content hash of the literal sorted vertex list and the name.

    The stored report contains the name, so inputs with the same vertices
    and different names get different keys.  Deliberately no
    lattice-equivalence canonicalization: translated or rotated copies of a
    polytope miss the cache.
    """
    payload = repr((p.dim, sorted(p.vertices), p.name)).encode()
    return hashlib.sha256(payload).hexdigest()


def _read_cache_entry(path: Path, key: str) -> dict | None:
    """The stored report at path, or None for a miss.

    A missing, unreadable, truncated or foreign file is a miss, and so is an
    entry written under another key or tool version, or one whose value does
    not have exactly the report's keys in the report's order.
    """
    try:
        stored = json.loads(path.read_bytes())
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        return None
    if not isinstance(stored, dict):
        return None
    value = stored.get("value")
    if (stored.get("tool_version") != __version__ or stored.get("key") != key
            or not isinstance(value, dict) or tuple(value) != REPORT_KEYS):
        return None
    return value


def _write_cache_entry(path: Path, key: str, data: dict) -> None:
    """Store an entry atomically: readers see the old file or the whole new
    one, never a partial write.  Each writer, thread or process, fills its
    own temporary file in the cache directory before the rename."""
    # imported here: tempfile pulls in random and shutil, some 6 ms of
    # start-up that only a cache write needs
    import tempfile

    # compact, so json takes its C encoder; an indented entry reads the same
    payload = json.dumps({"key": key, "tool_version": __version__, "value": data},
                         separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def report_dict_for(p: Polytope, cache_dir: Path | None, max_k: int) -> dict:
    """Compute (or fetch) the serialized report; cached entries are reused
    only when the tool version matches.  On a miss the cache directory is
    created before the report is computed, so an unusable directory fails
    fast as an input error."""
    key = cache_key(p)
    path = cache_dir / f"{key}.json" if cache_dir else None
    if path is not None:
        cached = _read_cache_entry(path, key)
        if cached is not None:
            return cached
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise InputError(f"cannot use cache directory {cache_dir}: {e}") from e
    data = report_to_dict(full_report(p, max_k=max_k))
    if path is not None:
        _write_cache_entry(path, key, data)
    return data


# -- rendering --------------------------------------------------------------------

def render_table(data: dict) -> str:
    """One line per report key in report order: None prints as undefined,
    the bounds as an indented block, and each witness on its own line."""
    width = max(len(k) for k in data) + 2
    lines = []
    for key, value in data.items():
        if key == "bounds":
            lines.append("bounds:")
            targets = data["bound_targets"]
            for bname, bound in value.items():
                shown = "n/a" if bound is None else bound
                lines.append(f"  {bname:<18}{shown!s:<14}(bounds {targets[bname]})")
        elif key == "witnesses":
            lines += [f"witness {wname}: {json.dumps(witness)}"
                      for wname, witness in value.items() if witness is not None]
        elif key != "bound_targets":
            lines.append(f"{key:<{width}}{'undefined' if value is None else value}")
    return "\n".join(lines)


def render_csv(data: dict) -> str:
    """A header and one row in report order: each bound is a bounds.<name>
    column, None is empty, and the witnesses are left out."""
    header, row = [], []
    for key, value in data.items():
        if key == "bounds":
            header += [f"bounds.{bname}" for bname in value]
            row += value.values()
        elif key not in ("bound_targets", "witnesses"):
            header.append(key)
            row.append(value)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerow(["" if v is None else v for v in row])
    return out.getvalue()


# -- commands ---------------------------------------------------------------------


def cmd_analyze(args) -> int:
    p = resolve_input(args.input)
    data = report_dict_for(p, _effective_cache_dir(args), _effective_max_k(args))
    if args.format == "json":
        sys.stdout.buffer.write(dict_json_bytes(data))
    elif args.format == "csv":
        sys.stdout.write(render_csv(data))
    else:
        print(render_table(data))
    if args.require_kp and not data["very_ample"]:
        print("requirement failed: polytope is not very ample, k_P undefined",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_holes(args) -> int:
    """Write each level's holes as they are decoded, so that only one level
    is held at a time."""
    p = resolve_input(args.input)
    report = full_report(p, max_k=_effective_max_k(args))
    if report.k_P is None:
        limit = args.max_k if args.max_k is not None else report.d_P + 1
    else:
        limit = max(report.k_P, args.max_k or 1)
    k_P = "undefined" if report.k_P is None else report.k_P
    print(f"# holes of {p.name or 'polytope'} (k_P = {k_P})")
    normal_from = None
    for k in range(1, limit + 1):
        count = inv.hole_count(p, k)
        if not count:
            print(f"k={k}: no holes")
            if normal_from is None and k >= report.d_P:
                normal_from = k
            continue
        if normal_from is not None:
            raise AssertionError(f"normality lost from k={normal_from} to {k} (bug)")
        sys.stdout.write(f"k={k}: {count} hole(s):")
        listed = 0
        for hole in inv.iter_holes(p, k):
            sys.stdout.write(f" {hole}")
            listed += 1
        print()
        if listed != count:
            raise AssertionError(f"listed {listed} holes at k={k}, counted {count} (bug)")
    return EXIT_OK


def run_check_suite(p: Polytope, max_k: int | None = None):
    """The structural property suite behind `polynorm check`.

    Returns (results, ok) where results is a list of (status, name, detail)
    and status is PASS, FAIL, or SKIP.  Every FAIL of a certified property
    signals an implementation bug; the Eisenbud-Goto entry is a conjecture,
    reported but marked as such.
    """
    results = []

    def check(name, holds, detail):
        results.append(("PASS" if holds else "FAIL", name, detail))

    def skip(name, detail):
        results.append(("SKIP", name, detail))

    report = full_report(p, max_k=max_k)
    n = report.num_vertices
    check("thresholds_ordered", report.d_P <= report.nu_P <= max(report.dim, 1),
          f"d_P={report.d_P} nu_P={report.nu_P} n={n}")
    # full_report raises PipelineError("volume", ...) unless the triangulation
    # volume equals the interpolated one, so a report here has passed the check.
    vol = report.volume_normalized
    check("volume_dual_oracle", True, f"interpolation={vol} triangulation={vol}")
    check("degree_at_most_dim", report.degree <= report.dim,
          f"deg={report.degree} dim={report.dim}")

    # a unimodular simplex has d_P = 1 and degree 0
    if report.num_vertices == report.dim + 1 and report.volume_normalized == 1:
        skip("d_P_le_deg", "unimodular simplex")
    else:
        check("d_P_le_deg", report.d_P <= report.degree,
              f"d_P={report.d_P} deg={report.degree}")

    if not report.very_ample:
        skip("very_ample",
             f"not very ample; witness {report.witnesses['non_saturation']}; "
             "k_P-dependent checks skipped")
    else:
        check("chain_dP_mP_kP", report.d_P <= report.m_P <= report.k_P,
              f"d_P={report.d_P} m_P={report.m_P} k_P={report.k_P}")
        theorem = report.bounds["theorem"]
        check("theorem_bound_dominates", theorem >= report.k_P,
              f"bound={theorem} k_P={report.k_P}")
        check("theorem_equality_iff_normal", (theorem == report.k_P) == report.normal,
              f"bound={theorem} k_P={report.k_P} normal={report.normal}")
        if not report.normal:
            refined = report.bounds["refined"]
            check("refined_bound_dominates", report.k_P <= refined <= theorem,
                  f"k_P={report.k_P} refined={refined} theorem={theorem}")
        flags = {k: not inv.hole_count(p, k) for k in range(1, report.k_P + 2)}
        monotone = all(flags[k + 1] for k in range(report.d_P, report.k_P + 1) if flags[k])
        check("normality_monotone_beyond_dP", monotone, f"flags={flags}")
        if report.degree <= 1:
            check("low_degree_implies_normal", report.k_P == 1,
                  f"deg={report.degree} k_P={report.k_P}")
        check("eg_conjecture", report.eg_holds,
              f"k_P={report.k_P} <= {report.eg_rhs}? (conjecture, not a code bug)")
        check("d_P_le_volume_excess", report.d_P <= report.eg_rhs,
              f"d_P={report.d_P} rhs={report.eg_rhs}")
        if report.smooth:
            check("smooth_mP_le_dP_gamma", report.m_P <= report.d_P * report.gamma,
                  f"m_P={report.m_P} d_P*gamma={report.d_P * report.gamma}")
            check("smooth_mP_le_volume_form", report.m_P
                  <= report.dim * report.d_P ** report.dim * report.volume_normalized,
                  f"m_P={report.m_P}")
            check("smooth_gamma_le_dim_m_prime", report.gamma <= report.dim * report.m_prime,
                  f"gamma={report.gamma} dim*m_prime={report.dim * report.m_prime}")
            mumford = report.bounds["mumford_general"]
            if mumford is None:
                skip("mumford_bound_dominates", "degenerate embedding")
            else:
                check("mumford_bound_dominates", mumford >= report.regularity,
                      f"mumford_general={mumford} reg={report.regularity}")
        else:
            skip("mumford_bound_dominates", "certified only for smooth polytopes")

    if report.dim <= 3:
        flags = {m: inv.dilate_is_normal(p, m) for m in range(1, report.d_P + 1)}
        threshold = max((m for m, normal in flags.items() if not normal), default=0) + 1
        check("dilates_normal_from_dP", flags[report.d_P] and threshold == report.d_P,
              f"threshold={threshold} d_P={report.d_P} flags={flags}")
    else:
        skip("dilates_normal_from_dP", "asserted only for dim <= 3")

    ok = not any(status == "FAIL" for status, _, _ in results)
    return results, ok


def cmd_check(args) -> int:
    p = resolve_input(args.input)
    results, ok = run_check_suite(p, max_k=_effective_max_k(args))
    for status, name, detail in results:
        print(f"{status:<5} {name}" + (f"  [{detail}]" if detail else ""))
    print(f"# {'all checks passed' if ok else 'CHECK FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def explore_flags(p: Polytope, report) -> tuple[str, ...]:
    """Flags worth recording for a random sample."""
    flags = []
    if report.eg_holds is False:
        flags.append("eg_violation")
    if report.smooth and report.k_P is not None and report.k_P > 1:
        flags.append("oda_gap")
    # The least n with mP normal for all m >= n differs from d_P exactly
    # when (d_P - 1)P is normal: d_P·P and every larger dilate are normal
    # (peel units, (k+1)P∩M = P∩M + kP∩M for k >= d_P, then group them in
    # blocks of m), and P itself is not normal when d_P > 1.
    if report.d_P >= 3 and inv.dilate_is_normal(p, report.d_P - 1):
        flags.append("d_P_minimality_gap")
    return tuple(flags)


def _check_store(store: Path) -> None:
    """Reject a store that can never be written as a file, before any sample
    is computed and without creating anything.  A path the OS refuses, such
    as one with a component over 255 bytes, is rejected too."""
    try:
        nearest = next((a for a in chain((store,), store.parents) if a.exists()), None)
    except OSError as e:
        raise InputError(f"cannot write store {store}: {e}") from e
    if nearest == store and store.is_dir():
        raise InputError(f"cannot write store {store}: is a directory")
    if nearest not in (None, store) and not nearest.is_dir():
        raise InputError(f"cannot write store {store}: {nearest} is not a directory")


def cmd_explore(args) -> int:
    if not 2 <= args.dim <= 4:
        raise InputError("explore supports --dim 2..4")
    if args.bound < 1:
        raise InputError("explore needs --bound >= 1")
    if args.count < 0:
        raise InputError("explore needs --count >= 0")
    max_k = _effective_max_k(args)
    master = SplitMix64(args.seed)
    store = Path(args.store)
    _check_store(store)
    counts = {"eg_violation": 0, "oda_gap": 0, "d_P_minimality_gap": 0}
    errors = 0
    reverify_failures = 0
    flagged_records = []
    points_per_sample = args.dim + 5
    for _ in range(args.count):
        child = master.next_u64()
        spec = f"random:{args.dim},{args.bound},{points_per_sample},{child}"
        try:
            p = random_polytope(args.dim, args.bound, points_per_sample, child)
            report = full_report(p, max_k=max_k)
            flags = explore_flags(p, report)
        except (GeometryError, SearchCapExceeded, PipelineError) as e:
            errors += 1
            print(f"# skipped {spec}: {e}", file=sys.stderr)
            continue
        if not flags:
            continue
        for f in flags:
            counts[f] += 1
        record = {
            "spec": spec, "seed": child, "flags": list(flags),
            "summary": {"d_P": report.d_P, "nu_P": report.nu_P, "m_P": report.m_P,
                        "k_P": report.k_P, "volume_normalized": report.volume_normalized,
                        "degree": report.degree, "smooth": report.smooth},
            "report": report_to_dict(report),
        }
        fresh = report_to_dict(full_report(resolve_input(spec), max_k=max_k))
        if fresh != record["report"]:
            reverify_failures += 1
            print(f"# re-verification FAILED for {spec}", file=sys.stderr)
        flagged_records.append(record)
    if flagged_records:
        try:
            store.parent.mkdir(parents=True, exist_ok=True)
            with store.open("a") as fh:
                for record in flagged_records:
                    fh.write(json.dumps(record) + "\n")
        except OSError as e:
            raise InputError(f"cannot write store {store}: {e}") from e
    print(f"explored {args.count} samples (dim={args.dim}, seed={args.seed}, "
          f"bound={args.bound}): flagged={len(flagged_records)} "
          f"(eg_violation={counts['eg_violation']}, oda_gap={counts['oda_gap']}, "
          f"d_P_minimality_gap={counts['d_P_minimality_gap']}), "
          f"errors_skipped={errors}, reverify_failures={reverify_failures}")
    return EXIT_OK if reverify_failures == 0 else EXIT_VIOLATION


def cmd_gen(args) -> int:
    try:
        builder, params = parse_family(args.family)
    except ValueError as e:
        raise InputError(str(e)) from e
    p = _build(builder, params, args.family)
    print(f"# {p.name}")
    for v in p.vertices:
        print(" ".join(str(c) for c in v))
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polynorm",
        description="Exact k-normality, very-ampleness, and regularity "
                    "invariants of lattice polytopes.")
    parser.add_argument("--version", action="version", version=f"polynorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp, max_k_help=MAX_K_HELP):
        sp.add_argument("input", help="family spec (e.g. bruns:4) or vertex file path")
        sp.add_argument("--max-k", type=integer, default=None, help=max_k_help)

    ap = sub.add_parser("analyze", help="compute all invariants and bounds")
    add_input(ap)
    ap.add_argument("--format", choices=("table", "json", "csv"), default="table")
    ap.add_argument("--cache-dir", default=None,
                    help="report cache directory (default: $POLYNORM_CACHE)")
    ap.add_argument("--require-kp", action="store_true",
                    help="exit 2 when the polytope is not very ample")

    hp = sub.add_parser("holes", help="list unreachable lattice points per dilation")
    add_input(hp, "list k = 1 .. max(k_P, N) and exit 2 if k_P > N (default: "
                  f"list through k_P, capped by $POLYNORM_MAX_K or {DEFAULT_MAX_K})")

    cp = sub.add_parser("check", help="run the structural property suite")
    add_input(cp)

    ep = sub.add_parser("explore", help="sample random polytopes and record flagged ones")
    ep.add_argument("--dim", type=integer, required=True)
    ep.add_argument("--count", type=integer, default=100)
    ep.add_argument("--seed", type=integer, default=0)
    ep.add_argument("--bound", type=integer, default=3)
    ep.add_argument("--store", default="explore_records.jsonl",
                    help="append-only JSONL store for flagged records")
    ep.add_argument("--max-k", type=integer, default=None, help=MAX_K_HELP)

    gp = sub.add_parser("gen", help="print a family's vertex file (plain text)")
    gp.add_argument("family")
    return parser


# Built once, at import: its help text is formatted when printed, and it
# holds no command function, so main dispatches through the current bindings.
_PARSER = build_parser()
# The parser of each command, by name: the choices of the subparsers action.
_COMMAND_PARSERS = next(action.choices for action in _PARSER._actions
                        if isinstance(action, argparse._SubParsersAction))


def main(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code.
    A usage error returns 1; --help and --version raise SystemExit(0).

    A command line whose first word names a command is parsed once, by that
    command's parser.  This gives what `_PARSER.parse_args(argv)` gives: the
    subparsers action has nargs PARSER, so the top-level pass hands exactly
    argv[1:] to the same parser object and copies its namespace, and a
    leftover argument makes it a usage error.  Its only other work is to
    check each argument against -h, --help and --version, which ends in that
    same hand-off; the one exception is an argument starting with "--=", a
    prefix of both long options, which the top-level parser reports as
    ambiguous.  Such an argument, a "--" (which Python versions hand on
    differently), a leftover argument, an empty argv and a first word that
    names no command go to `_PARSER.parse_args(argv)`, so every usage error
    and all --help and --version text still come from argparse's own code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    one_pass = argv and not any(a == "--" or a.startswith("--=") for a in argv)
    sub = _COMMAND_PARSERS.get(argv[0]) if one_pass else None
    try:
        if sub is not None:
            args, extras = sub.parse_known_args(argv[1:])
            args.command = argv[0]
        if sub is None or extras:
            args = _PARSER.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 on --help
        if e.code != 2:
            raise
        return EXIT_INPUT
    command = {"analyze": cmd_analyze, "holes": cmd_holes, "check": cmd_check,
               "explore": cmd_explore, "gen": cmd_gen}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # Python's SIGPIPE recipe: the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except SearchCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InputError, GeometryError, inv.InvariantError, PipelineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
