"""Command-line interface: generate, solve, bound, verify, bench.

Exit codes: 0 success, 1 semantic failure (infeasible schedule),
2 usage or precondition error.

``gen --out`` and ``solve --out`` write their file in place, as UTF-8: an
existing file is overwritten from its start and then cut to the new length,
never truncated to zero first.  A truncate-to-zero makes ext4 (by default),
XFS and btrfs flush the file when it is closed.  A symlink is written
through, and an existing file keeps its inode, mode and hard links, as with
``open(path, "w")``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import stat
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import generators
from .greedy import bounds_report, solve_greedy
from .instance import Instance, InstanceError, classify, parse_instance, serialize_instance
from .pd2 import NotD2Error, solve_pd2
from .exact import solve_exact
from .schedule import (
    check_feasible,
    makespan,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
)

# The one ``--alg`` name -> solver(instance) -> Schedule map.  Each entry looks
# its solver up when called, so a wrapper later set on these names is used.
_SOLVERS = {
    "greedy": lambda inst: solve_greedy(inst),
    "pd2": lambda inst: solve_pd2(inst)[0],
    "exact": lambda inst: solve_exact(inst).schedule,
}


class CliError(Exception):
    """Usage or precondition failure; maps to exit code 2."""


def _fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _read_text(path: str | Path) -> str:
    """A file's text as written: UTF-8, with no newline translation, so the
    parser sees every line end and rejects a lone carriage return."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, in place.  The file is opened
    without ``O_TRUNC`` and, if regular, cut at the end of the new bytes;
    a failed write cuts it to zero, so no tail of the old file is left
    behind part of the new text.  A device such as ``/dev/null`` cannot be
    cut, and is only written."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            rest = memoryview(data)
            while rest:  # os.write may write less than it is given
                rest = rest[os.write(fd, rest):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_instance(path: str) -> Instance:
    try:
        return parse_instance(_read_text(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except InstanceError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "random":
            inst = generators.gen_random(args.n, args.m, args.p, args.seed)
            cmd = f"gen random --n {args.n} --m {args.m} --p {args.p} --seed {args.seed}"
        elif args.kind == "d2":
            inst = generators.gen_d2(args.a, args.b, args.pendants, args.seed)
            cmd = f"gen d2 --a {args.a} --b {args.b} --pendants {args.pendants} --seed {args.seed}"
        else:
            params = generators.TightParams(k=args.k, l=args.l, s=args.s)
            inst = generators.gen_tight(params)
            cmd = f"gen tight --k {args.k} --l {args.l} --s {args.s}"
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    text = serialize_instance(inst, comments=[f"crossdock {cmd}"])
    cls = classify(inst)
    summary = (
        f"n={inst.n} m={inst.m} arcs={sum(inst.profile.out_deg)} "
        f"is_d2={str(cls.is_d2).lower()} has_pendant_b={str(cls.has_pendant_b).lower()}"
    )
    if args.out:
        _write_text(args.out, text)
        print(args.out)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.infile)
    try:
        sched = _SOLVERS[args.alg](inst)
    except NotD2Error as exc:
        raise CliError(f"pd2 requires every A out-degree 2: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    # The file is written first, so a failed write exits with nothing on stdout.
    if args.out:
        _write_text(args.out, schedule_to_json(sched))
    print(f"makespan {makespan(sched)}")
    if args.alg == "greedy":
        rep = bounds_report(inst)
        print(f"q {rep.q}")
        print(f"lower_bound {rep.lower_bound}")
        print(f"greedy_upper {rep.greedy_upper}")
        print(f"ratio_bound {_fraction(rep.ratio_bound)}")
    if args.gantt:
        sys.stdout.write(render_gantt(inst, sched))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    inst = _read_instance(args.infile)
    rep = bounds_report(inst)
    print(f"q {rep.q}")
    print(f"lower_bound {rep.lower_bound} (corrected, authoritative)")
    flag = " [exceeds corrected bound]" if rep.lower_bound_printed > rep.lower_bound else ""
    print(f"lower_bound_printed {rep.lower_bound_printed}{flag}")
    print(f"greedy_upper {rep.greedy_upper}")
    print(f"ratio_bound {_fraction(rep.ratio_bound)}")
    if classify(inst).is_d2:
        print(f"lemma1_bound {rep.lower_bound}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance(args.infile)
    try:
        sched = schedule_from_json(_read_text(args.schedule))
    except OSError as exc:
        raise CliError(f"cannot read {args.schedule}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{args.schedule}: {exc}") from exc
    report = check_feasible(inst, sched)
    if report.ok:
        print(f"feasible, makespan {makespan(sched)}")
        return 0
    for v in report.violations:
        print(v)
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    algs = [a.strip() for a in args.algs.split(",")]
    for a in algs:
        if not a:
            names = ", ".join(_SOLVERS)
            raise CliError(f"--algs {args.algs!r} has an empty item; give comma-separated names from {names}")
        if a not in _SOLVERS:
            raise CliError(f"unknown algorithm {a!r}")

    header = [
        "instance", "n", "m", "arcs", "algorithm", "makespan",
        "lower_bound", "greedy_upper", "ratio", "ratio_bound", "wall_time_ms",
    ]
    rows = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            inst = parse_instance(_read_text(path))
        except (OSError, UnicodeDecodeError, InstanceError) as exc:
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
            continue
        rep = bounds_report(inst)
        results: dict[str, tuple[int, float]] = {}
        for alg in sorted(set(algs)):
            t0 = time.perf_counter()
            try:
                mk = makespan(_SOLVERS[alg](inst))
            except NotD2Error:
                print(f"skipping pd2 on {path.name}: not in the two-successor class", file=sys.stderr)
                continue
            except ValueError as exc:
                print(f"skipping {alg} on {path.name}: {exc}", file=sys.stderr)
                continue
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            results[alg] = (mk, elapsed_ms)
        exact = results.get("exact")
        for alg, (mk, elapsed_ms) in sorted(results.items()):
            ratio = "" if exact is None else _fraction(Fraction(mk, exact[0]))
            rows.append([
                path.name, inst.n, inst.m, sum(inst.profile.out_deg), alg, mk, rep.lower_bound,
                rep.greedy_upper if alg == "greedy" else "", ratio,
                _fraction(rep.ratio_bound), f"{elapsed_ms:.3f}",
            ])

    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        sys.stdout.write(buf.getvalue())
    else:
        print("| " + " | ".join(header) + " |")
        print("| " + " | ".join("---" for _ in header) + " |")
        for row in rows:
            print("| " + " | ".join(map(str, row)) + " |")
    return 0


def _int_arg(text: str) -> int:
    """An integer option in ASCII digits only.  int() alone also takes a
    sign, "_", spaces and other scripts' digits, and the value used, which
    ``gen`` records, would not be the one typed."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(f"must be an integer of ASCII digits, got {text!r}")


def _p_arg(text: str) -> float:
    """``--p``: a float in ASCII without "_"; float() alone also takes
    other scripts' digits and "_"."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"must be a real number in ASCII without '_', got {text!r}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``crossdock`` command line."""
    parser = argparse.ArgumentParser(prog="crossdock")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_rand = gen_sub.add_parser("random", help="arc-Bernoulli instance")
    g_rand.add_argument("--n", type=_int_arg, required=True)
    g_rand.add_argument("--m", type=_int_arg, required=True)
    g_rand.add_argument("--p", type=_p_arg, required=True)
    g_rand.add_argument("--seed", type=_int_arg, required=True)
    g_rand.add_argument("--out")
    g_d2 = gen_sub.add_parser("d2", help="two-successor-class instance")
    g_d2.add_argument("--a", type=_int_arg, required=True)
    g_d2.add_argument("--b", type=_int_arg, required=True)
    g_d2.add_argument("--pendants", type=_int_arg, default=0)
    g_d2.add_argument("--seed", type=_int_arg, required=True)
    g_d2.add_argument("--out")
    g_tight = gen_sub.add_parser("tight", help="worst-case ratio family")
    g_tight.add_argument("--k", type=_int_arg, required=True)
    g_tight.add_argument("--l", type=_int_arg, required=True)
    g_tight.add_argument("--s", type=_int_arg, required=True)
    g_tight.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("--alg", choices=tuple(_SOLVERS), required=True)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out")
    solve.add_argument("--gantt", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    bound = sub.add_parser("bound", help="print bounds and the ratio certificate")
    bound.add_argument("--in", dest="infile", required=True)
    bound.set_defaults(func=_cmd_bound)

    verify = sub.add_parser("verify", help="check a schedule against an instance")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--schedule", required=True)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="solve a directory of instances")
    bench.add_argument("--dir", required=True)
    bench.add_argument("--algs", default=",".join(_SOLVERS))
    bench.add_argument("--format", choices=("csv", "md"), default="md")
    bench.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads with, built on its first call.  Parsing
    leaves a parser as it was, so one serves every call in a process;
    building it costs about a millisecond, as much as a small ``verify``."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
