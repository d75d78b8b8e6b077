"""Command-line surface: gen, rotmap, check, solve, shift, walk.

Exit codes are a stable scripting contract:

* 0 — success
* 2 — usage, format, or validation error, or an allocation the machine
  cannot hold
* 3 — solver finished without solving (budget exhausted or proven infeasible)
* 4 — walk refused an inconsistent rotation map (no --allow-inconsistent)

A command whose output pipe closes (its reader exits, as ``head`` does)
ends by SIGPIPE, silently, as other writers into a pipe do.

All vertex ids and coin labels on this surface are 1-based.  This module
lays out every JSON report, and each carries a top-level "version" field.
All randomness flows from --seed; two invocations with identical
arguments and input files produce byte-identical outputs (wall-clock
stats fields aside).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import stat
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, FormatError, RotwalkError
from .graphs import FAMILIES, generate_graph, parse_graph, serialize_graph
from .rotmap import (
    CHECKERS,
    CRITERIA,
    METHODS,
    WITNESS_FIELDS,
    check_permutation_consistent,
    greedy_rotation,
    parse_rotation,
    serialize_rotation,
    validate_against_graph,
)
from .textio import csv_chunks, joined_floats
from .version import REPORT_VERSION, __version__

# The operators, solvers and walk layers are imported by the commands
# that run them, so that a command loads only the layers it uses.
if TYPE_CHECKING:
    from .walk import TrajectoryRecord

# operators.COIN_KINDS, copied so that start-up does not import operators.
COINS = ("hadamard", "grover", "dft", "identity")


def _read(path: str) -> bytes:
    """The file's bytes, once they are known to be UTF-8 text."""
    data = Path(path).read_bytes()
    if not data.isascii():  # ASCII is UTF-8; anything else is decoded once to check
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return data


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write each chunk as soon as it exists, to ``path`` or to stdout.

    A path that leads to one of this process's descriptors
    (/proc/self/fd/N, which /dev/stdout, /dev/stderr and /dev/fd/N lead
    to) is written through a duplicate of that descriptor: at its offset,
    in its mode (appending, if it appends), and to the file it holds open
    even if that file is deleted.  A regular file, or a path where there
    is no file yet, is written through a temporary file beside it that
    replaces it only once every chunk is written, and is removed on any
    failure: a command that fails midway leaves no truncated output, and
    a file it would have replaced keeps its bytes.  Any other file
    (/dev/null, a FIFO) is written in place, since replacing it would
    swap it for a plain file.

    The temporary file of NAME is ``.NAME.PID.N.tmp``, N the first number
    whose name is free.  Only a run that is killed (SIGKILL, the kernel's
    out-of-memory killer) leaves one behind, holding a partial output; it
    is safe to delete.
    """
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    fd = _descriptor(path)
    if fd is not None:
        try:
            fd = os.dup(fd)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        with open(fd, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        return
    try:
        found = os.stat(path)
    except FileNotFoundError:
        found = None
    if found is not None and not stat.S_ISREG(found.st_mode):
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    for n in itertools.count():
        temporary = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            out = open(temporary, "x", encoding="utf-8")
            break
        except FileExistsError:  # left by a killed run that had this process id
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with out:
            if found is not None:
                os.chmod(temporary, stat.S_IMODE(found.st_mode))
            out.writelines(chunks)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def _descriptor(path: str) -> int | None:
    """N when ``path`` leads, through symbolic links, to this process's
    /proc/self/fd/N; else None.  The link /proc/self/fd/N itself is not
    followed: it names whatever the descriptor holds, a pipe or a deleted
    file among them."""
    fds = os.path.realpath("/proc/self/fd")
    for _ in range(40):  # the most links the kernel follows in one path
        head, tail = os.path.split(path)
        if tail.isascii() and tail.isdigit() and os.path.realpath(head) == fds:
            return int(tail)
        try:
            path = os.path.join(head, os.readlink(path))
        except OSError:  # not a link, or no such file
            return None
    return None


def _write_json(path: str | None, payload: dict) -> None:
    """Write the report of ``payload``, the "version" field first."""
    _write(path, [json.dumps({"version": REPORT_VERSION, **payload}, indent=2) + "\n"])


# A report's long list (the witnesses of a check, the steps of a walk) is
# never held as one string: json.dumps writes the report around this
# placeholder, and the list's items, already formatted at json.dumps's
# indent, are streamed in its place.
_LIST_MARK = "\0list"


def _spliced_json(payload: dict, items: Iterable[str]) -> Iterator[str]:
    """What _write_json writes of ``payload``, in chunks, where the one
    top-level value ``_LIST_MARK`` of ``payload`` stands for the list whose
    items (or runs of items joined by ",\n") ``items`` yields."""
    report = json.dumps({"version": REPORT_VERSION, **payload}, indent=2)
    head, tail = report.split(json.dumps(_LIST_MARK))
    yield head
    opening = "[\n"
    for item in items:
        yield opening
        yield item
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"
    yield tail + "\n"


# The witnesses of a check report, often 10^5, are written from one
# repeated item template, not one dict per witness, a fixed number at a time.
_VIOLATION_ITEM = (
    "    {\n" + ",\n".join(f'      "{field}": %d' for field in WITNESS_FIELDS) + "\n    }"
)
_VIOLATIONS_PER_CHUNK = 4096


def _violation_chunks(witnesses) -> Iterator[str]:
    """The items of a report's (k, 3) witness array, a chunk at a time."""
    for i in range(0, len(witnesses), _VIOLATIONS_PER_CHUNK):
        chunk = witnesses[i:i + _VIOLATIONS_PER_CHUNK]
        yield ",\n".join([_VIOLATION_ITEM] * len(chunk)) % tuple(chunk.ravel().tolist())


# One walk step of the JSON trajectory, as json.dumps(..., indent=2) writes
# the dict {"step", "norm2", "probabilities"}: the probabilities one per
# line, and NaN or Infinity where a float is not finite.
_STEP_ITEM = (
    '    {\n      "step": %s,\n      "norm2": %s,\n      "probabilities": [\n        %s\n      ]\n    }'
)
_PROBABILITY_SEPARATOR = ",\n        "


def _step_items(records: Iterable[TrajectoryRecord]) -> Iterator[str]:
    """The steps' items.  textio's float kernel writes the probabilities;
    json.dumps spells the values it leaves over, NaN and Infinity among them."""
    for rec in records:
        probabilities = joined_floats(rec.probabilities, _PROBABILITY_SEPARATOR, json.dumps)
        yield _STEP_ITEM % (json.dumps(rec.step), json.dumps(rec.norm2), probabilities)


def cmd_gen(args) -> int:
    graph = generate_graph(args.family, args.params, seed=args.seed, max_tries=args.max_tries)
    _write(args.out, [serialize_graph(graph)])
    return 0


def cmd_rotmap(args) -> int:
    graph = parse_graph(_read(args.graph))
    if args.map is None:
        rot = greedy_rotation(graph)
    else:
        rot = parse_rotation(_read(args.map))
        validate_against_graph(rot, graph)
    _write(args.out, [serialize_rotation(rot)])
    return 0


def cmd_check(args) -> int:
    from .operators import PRODUCT_DIM_LIMIT, unitarity_defect

    rot = parse_rotation(_read(args.map))
    report = CHECKERS[args.criterion](rot)
    unitarity = unitarity_defect(rot)
    payload = {
        "criterion": args.criterion,
        "n": rot.n,
        "d": rot.d,
        "consistent": report.consistent,
        "defect": unitarity.defect,
        "violations": _LIST_MARK,
    }
    if args.emit_product:
        if unitarity.product is None:
            print(
                f"note: product omitted, dimension {rot.n * rot.d} exceeds "
                f"{PRODUCT_DIM_LIMIT}",
                file=sys.stderr,
            )
        else:
            payload["product"] = unitarity.product.tolist()
    _write(args.out, _spliced_json(payload, _violation_chunks(report.violations)))
    return 0


def cmd_solve(args) -> int:
    from .solvers import SolverConfig, solve

    graph = parse_graph(_read(args.graph))
    config = SolverConfig(
        criterion=args.criterion,
        method=args.method,
        seed=args.seed,
        max_iterations=args.max_iterations,
        max_restarts=args.max_restarts,
        time_budget=args.time_budget,
        exhaustive_ceiling=args.exhaustive_ceiling,
    )
    outcome = solve(graph, config)
    if outcome.status == "solved" and args.out is not None:
        _write(args.out, [serialize_rotation(outcome.rotation_map)])
    stats = outcome.stats
    _write_json(args.stats, {
        "status": outcome.status,
        "criterion": outcome.criterion,
        "method": outcome.method,
        "seed": outcome.seed,
        "n": outcome.n,
        "d": outcome.d,
        "iterations": stats.iterations,
        "restarts": stats.restarts,
        "best_conflicts": stats.best_conflicts,
        "wall_ms": stats.wall_ms,
    })
    if outcome.status != "solved":
        if outcome.certificate:
            print(f"certificate: {outcome.certificate}", file=sys.stderr)
        return 3
    return 0


def cmd_shift(args) -> int:
    from .operators import PRODUCT_DIM_LIMIT, build_shift

    rot = parse_rotation(_read(args.map))
    dim = rot.n * rot.d
    if dim > PRODUCT_DIM_LIMIT:
        raise ConfigError(
            f"operator dump is for small instances only (dimension {dim} > {PRODUCT_DIM_LIMIT})"
        )
    dense = build_shift(rot).to_dense()
    payload = {
        "n": rot.n,
        "d": rot.d,
        "ordering": "coin-major",
        "matrix": [[[int(x), 0] for x in row] for row in dense],
    }
    _write_json(args.out, payload)
    return 0


def _parse_start(specs: list[str] | None, n: int, d: int):
    """Start-state syntax: LABEL:VERTEX[:AMPLITUDE], 1-based, repeatable;
    'up'/'down' alias labels 1/2 when d=2; a single 'uniform' spreads
    amplitude over every (label, vertex) pair."""
    if specs is None:
        specs = ["1:1"]
    if specs == ["uniform"]:
        return None
    support = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise FormatError(f"start spec {spec!r} must be LABEL:VERTEX[:AMPLITUDE]")
        label_text = parts[0].lower()
        aliases = {"up": 1, "down": 2} if d == 2 else {}
        if label_text in aliases:
            label = aliases[label_text]
        else:
            try:
                label = int(label_text)
            except ValueError:
                raise FormatError(f"start spec {spec!r}: bad coin label {parts[0]!r}") from None
        try:
            vertex = int(parts[1])
        except ValueError:
            raise FormatError(f"start spec {spec!r}: bad vertex {parts[1]!r}") from None
        amplitude = 1.0 + 0.0j
        if len(parts) == 3:
            try:
                amplitude = complex(parts[2])
            except ValueError:
                raise FormatError(
                    f"start spec {spec!r}: bad amplitude {parts[2]!r}"
                ) from None
        if not (1 <= label <= d):
            raise FormatError(f"start spec {spec!r}: label {label} out of range 1..{d}")
        if not (1 <= vertex <= n):
            raise FormatError(f"start spec {spec!r}: vertex {vertex} out of range 1..{n}")
        support.append((label - 1, vertex - 1, amplitude))
    return support


def cmd_walk(args) -> int:
    from .operators import build_coin, build_shift
    from .walk import init_state, stream_records, uniform_state

    graph = parse_graph(_read(args.graph))
    rot = parse_rotation(_read(args.map))
    validate_against_graph(rot, graph)
    report = check_permutation_consistent(rot)
    if not report.consistent and not args.allow_inconsistent:
        print(
            "error: rotation map violates the permutation criterion "
            f"({len(report.violations)} violations); the walk would not be "
            "norm-preserving.  Pass --allow-inconsistent to run it anyway.",
            file=sys.stderr,
        )
        return 4
    coin = build_coin(args.coin, rot.d)
    support = _parse_start(args.start, rot.n, rot.d)
    state = uniform_state(rot.n, rot.d) if support is None else init_state(rot.n, rot.d, support)
    # The walk's checks run here, before the output is opened.
    records = stream_records(state, coin, build_shift(rot), args.steps)
    if args.format == "csv":
        _write(args.out, csv_chunks(rot.n, records))
    else:
        payload = {"n": rot.n, "d": rot.d, "steps": _LIST_MARK}
        _write(args.out, _spliced_json(payload, _step_items(records)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotwalk",
        description="Coined quantum walks on regular graphs via rotation maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family as an edge list")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="+", type=int, help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=100)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rotmap", help="extract or validate a rotation map")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--map", default=None, help="rotation-map file to validate and echo (omitted: greedy)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rotmap)

    p = sub.add_parser("check", help="consistency and unitarity report for a map")
    p.add_argument("map", help="rotation-map file")
    p.add_argument("--criterion", choices=CRITERIA, default="permutation")
    p.add_argument("--emit-product", action="store_true", help="include dense S.S^T")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="search for a consistent rotation map")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--criterion", choices=CRITERIA, default="permutation")
    p.add_argument("--method", choices=METHODS, default="matching")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=5000)
    p.add_argument("--max-restarts", type=int, default=10)
    p.add_argument("--time-budget", type=float, default=30.0)
    p.add_argument("--exhaustive-ceiling", type=int, default=40)
    p.add_argument("--out", default=None, help="rotation-map output path (omitted: map discarded)")
    p.add_argument("--stats", default=None, help="stats JSON path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("shift", help="dump a shift operator as dense JSON (small instances)")
    p.add_argument("map", help="rotation-map file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("walk", help="run a coined walk and emit the trajectory")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("map", help="rotation-map file")
    p.add_argument("--coin", choices=COINS, default="grover")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument(
        "--start",
        action="append",
        default=None,
        help="LABEL:VERTEX[:AMPLITUDE] (1-based, repeatable) or 'uniform'; default 1:1",
    )
    p.add_argument("--allow-inconsistent", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RotwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Sizes under every ceiling can still ask for more memory than the
        # machine has: gen complete 46341 wants a 17 GB neighbor table.
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


def run() -> None:
    # A closed output pipe ends the command by SIGPIPE, silently (see the
    # module docstring); main() keeps Python's BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
