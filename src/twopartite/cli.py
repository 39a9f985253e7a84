"""Command-line interface.

Machine-readable verdicts go to standard output as JSON; prose and
diagnostics go to the error stream.  Exit codes: 0 for success or a
holding verdict, 1 for a negative mathematical verdict (not homogeneous,
extension check fails, not isomorphic, construction not achieved), 2 for
usage or input errors.  A standard output closed by its reader ends the
command with exit code 1 and no traceback.  All randomized
subcommands require an explicit, non-negative ``--seed``; nothing is
seeded from the clock.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import census as census_mod
from .backforth import uniqueness_demo
from .catalog import (
    ApproximantSpec,
    Direction,
    complement_matching_digraph,
    complete_bipartite_digraph,
    empty_digraph,
    generic_2partite_approx,
    generic_bipartite_approx,
    generic_orientation_approx,
    matching_complement_pair,
    matching_digraph,
    witness_closure,
)
from .classify import ClassCase, ClassLabel, classify_exact, classify_profile
from .core import Side, TwoPartiteDigraph, from_json_text, to_dot, to_json_obj, to_json_text
from .errors import (
    ApproximantNotFound,
    AutGroupTooLarge,
    CapExceeded,
    MalformedInput,
    OutcomeError,
    TwoPartiteError,
    ValidationError,
)
from .genericity import (
    GenericityReport,
    Mode,
    Requirement,
    check_generic_2partite,
    check_generic_bipartite,
    check_generic_orientation,
)
from .iso import (
    DEFAULT_AUT_CAP,
    HomogeneityVerdict,
    PartialMap,
    _StabiliserChain,
    are_isomorphic,
    is_homogeneous,
)

_DIRECTIONS = {"l2r": Direction.LEFT_TO_RIGHT, "r2l": Direction.RIGHT_TO_LEFT}
_MODES = {"bipartite": Mode.BIPARTITE, "2partite": Mode.TWO_PARTITE,
          "orientation": Mode.ORIENTATION}
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
# defect rows per write of a check-generic report: about 200 KB of text
_ROWS_PER_WRITE = 4096


# -- JSON shapes ------------------------------------------------------------

def _pmap_obj(pm: PartialMap | None):
    if pm is None:
        return None
    return {"pairs": pm.pairs}   # json writes the pair tuples as arrays


def _verdict_obj(v: HomogeneityVerdict):
    return {"holds": v.holds, "counterexample": _pmap_obj(v.counterexample)}


def _req_obj(req: Requirement | None):
    if req is None:
        return None
    return {"side": req.side.value, "a": sorted(req.a),
            "b": sorted(req.b), "c": sorted(req.c)}


class _Encoded(dict):
    """JSON text of each key, encoded on first lookup, so that a payload
    that repeats a few ids and id tuples many times encodes each once."""

    def __missing__(self, key):
        text = self[key] = _ENCODE(key)
        return text


def _write_report(out, report: GenericityReport) -> None:
    """Write the report's JSON line at most ``_ROWS_PER_WRITE`` rows at a
    time, so that the payload never exists whole.  A run's rows differ only
    in their last id, so the run is its ids joined by ``tail + "," + head``
    between ``head`` and ``tail``, the row text before and after that id.
    The bytes are those of ``_emit`` on a dict of ``mode``, ``level``,
    ``holds``, ``defects`` and ``nonadjacent``."""
    ids = _Encoded((side, _ENCODE(side.value)) for side in Side)
    out.write(f'{{"mode":{_ENCODE(report.mode.value)},"level":{_ENCODE(report.level)},'
              f'"holds":{_ENCODE(report.holds)},"defects":[')
    texts, rows = [], 0
    for side, a, b, c, slot, tails in report.runs:
        cells = [f'{{"side":{ids[side]},"a":', ids[a], ',"b":', ids[b], ',"c":', ids[c], "}"]
        k = 2 * slot + 1
        head = "".join(cells[:k]) + cells[k][:-1] + ("," if cells[k] != "[]" else "")
        tail = "]" + "".join(cells[k + 1:])
        quoted = [*map(ids.__getitem__, tails)] or [""]   # no tails: the prefix is the row
        for start in range(0, len(quoted), _ROWS_PER_WRITE):
            part = quoted[start:start + _ROWS_PER_WRITE]
            if rows + len(part) > _ROWS_PER_WRITE:
                out.write(",".join(texts) + ",")
                texts, rows = [], 0
            texts.append(head + (tail + "," + head).join(part) + tail)
            rows += len(part)
    nonadjacent = list(report.nonadjacent) if report.nonadjacent else None
    out.write(",".join(texts) + f'],"nonadjacent":{_ENCODE(nonadjacent)}}}\n')


def _label_obj(label: ClassLabel):
    return {
        "case": label.case.value,
        "subkind": label.subkind.value if label.subkind else None,
        "direction": label.direction.value if label.direction else None,
        "pair_size": label.pair_size,
        "reason": label.reason,
        "counterexample": _pmap_obj(label.counterexample),
    }


def _entry_obj(entry):
    return {
        "canonical": entry.canonical.hex(),
        "x": list(entry.representative.left),
        "y": list(entry.representative.right),
        "edges": [[u, v] for (u, v) in entry.representative.edges],
        "holds": entry.verdict.holds,
        "label": _label_obj(entry.label),
    }


def _emit(out, obj) -> None:
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _load(path: str) -> TwoPartiteDigraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        return from_json_text(text)
    except TwoPartiteError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# -- command handlers --------------------------------------------------------

def _cmd_gen(args, out, err) -> int:
    kind = args.kind
    direction = _DIRECTIONS[args.dir]
    if kind == "complete":
        structure = complete_bipartite_digraph(args.m, args.n, direction)
    elif kind == "empty":
        structure = empty_digraph(args.m, args.n)
    elif kind == "matching":
        structure = matching_digraph(args.size, direction)
    elif kind == "complement-matching":
        structure = complement_matching_digraph(args.size, direction)
    elif kind == "matching-complement":
        structure = matching_complement_pair(args.size, direction)
    elif kind == "closure":
        if args.infile is None:
            raise ValidationError("closure needs --in")
        base = _load(args.infile)
        try:
            structure = witness_closure(base, _MODES[args.mode], args.level, args.cap)
        except CapExceeded as exc:
            _emit(out, {"built": False, "error": "cap-exceeded",
                        "remaining_defects": len(exc.defects),
                        "partial": to_json_obj(exc.partial)})
            print(str(exc), file=err)
            return 1
    else:
        if args.seed is None:
            raise ValidationError(f"gen {kind} needs an explicit --seed")
        spec = ApproximantSpec(args.size, args.level, args.seed)
        try:
            if kind == "generic-bipartite":
                structure = generic_bipartite_approx(spec, direction)
            elif kind == "generic-2partite":
                structure = generic_2partite_approx(spec)
            else:
                structure = generic_orientation_approx(spec)
        except ApproximantNotFound as exc:
            _emit(out, {"built": False, "error": "approximant-not-found",
                        "best_level": exc.best_level})
            print(str(exc), file=err)
            return 1
    out.write(to_json_text(structure))
    return 0


def _cmd_check_hom(args, out, err) -> int:
    structure = _load(args.infile)
    k = None if args.exact else args.k
    verdict = is_homogeneous(structure, k)
    _emit(out, _verdict_obj(verdict))
    return 0 if verdict.holds else 1


def _cmd_check_generic(args, out, err) -> int:
    structure = _load(args.infile)
    # looked up at call time, so that a wrapper rebound on this module's
    # names (the benchmark's tracer) sees the call
    check = {"bipartite": check_generic_bipartite, "2partite": check_generic_2partite,
             "orientation": check_generic_orientation}[args.mode]
    report = check(structure, args.level)
    _write_report(out, report)
    return 0 if report.holds else 1


def _cmd_classify(args, out, err) -> int:
    structure = _load(args.infile)
    if args.level is not None:
        label = classify_profile(structure, args.level)
    else:
        label = classify_exact(structure)
    _emit(out, _label_obj(label))
    negative = label.case in (ClassCase.NOT_HOMOGENEOUS, ClassCase.INCONCLUSIVE)
    return 1 if negative else 0


def _cmd_iso(args, out, err) -> int:
    first = _load(args.infile1)
    second = _load(args.infile2)
    mapping = are_isomorphic(first, second)
    _emit(out, {"isomorphic": mapping is not None, "map": _pmap_obj(mapping)})
    return 0 if mapping is not None else 1


def _cmd_aut(args, out, err) -> int:
    structure = _load(args.infile)
    maps = _StabiliserChain(structure, args.cap).maps()
    vertices = structure.vertices()
    sources = sorted(range(len(vertices)), key=vertices.__getitem__)
    # the bytes of _emit on {"count", "automorphisms": [_pmap_obj(...)]}: rows[i][t]
    # is the [source, target] text of the i-th id in sorted order and position t
    rows = [[_ENCODE((vertices[s], t)) for t in vertices] for s in sources]
    body = ']},{"pairs":['.join([",".join(map(list.__getitem__, rows, map(g.__getitem__, sources)))
                                 for g in maps])
    out.write(f'{{"count":{len(maps)},"automorphisms":[{{"pairs":[{body}]}}]}}\n')
    return 0


def _cmd_baf(args, out, err) -> int:
    mode = _MODES[args.mode]
    report = uniqueness_demo(args.size, args.level, args.seed1, args.seed2,
                             mode, build_level=args.build_level)
    if report.trace is not None:
        for step in report.trace.steps:
            _emit(out, {"direction": step.direction, "vertex": step.vertex,
                        "requirement": _req_obj(step.requirement),
                        "witness": step.witness})
    _emit(out, {"status": report.status, "detail": report.detail,
                "result": _pmap_obj(report.result),
                "requirement": _req_obj(report.requirement)})
    return 0 if report.status == "success" else 1


def _cmd_enum(args, out, err) -> int:
    entries = census_mod.census_homogeneous(args.max_x, args.max_y)
    for entry in entries:
        _emit(out, _entry_obj(entry))
    print(f"{len(entries)} homogeneous classes", file=err)
    return 0


def _cmd_verify(args, out, err) -> int:
    report = census_mod.verify_classification(args.max_x, args.max_y)
    _emit(out, {
        "ok": report.ok,
        "max_x": report.max_left,
        "max_y": report.max_right,
        "classes_scanned": report.classes_scanned,
        "homogeneous_classes": report.homogeneous_classes,
        "discrepancies": [
            {"kind": d.kind, "message": d.message, "canonical": d.canonical_hex}
            for d in report.discrepancies
        ],
    })
    return 0 if report.ok else 1


def _cmd_convert(args, out, err) -> int:
    structure = _load(args.infile)
    if args.format == "dot":
        out.write(to_dot(structure))
    else:
        out.write(to_json_text(structure))
    return 0


# -- parser -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopartite",
        description="2-partite digraphs: build, check, classify, align, enumerate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a catalog structure")
    p.add_argument("kind", choices=[
        "complete", "empty", "matching", "complement-matching", "matching-complement",
        "generic-bipartite", "generic-2partite", "generic-orientation", "closure"])
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--size", type=int, default=0)
    p.add_argument("--dir", choices=sorted(_DIRECTIONS), default="l2r")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--mode", choices=sorted(_MODES), default="2partite")
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("check-hom", help="decide homogeneity")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="bound the domain size of the checked maps")
    p.add_argument("--exact", action="store_true",
                   help="check all domain sizes (the default when --k is absent)")
    p.set_defaults(handler=_cmd_check_hom)

    p = sub.add_parser("check-generic", help="level-bounded extension-property check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(handler=_cmd_check_generic)

    p = sub.add_parser("classify", help="classify a structure")
    p.add_argument("--in", dest="infile", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="exact classification (the default)")
    group.add_argument("--level", type=int, default=None,
                       help="profile classification at this level")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("iso", help="side-preserving isomorphism test")
    p.add_argument("--in1", dest="infile1", required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("aut", help="list side-preserving automorphisms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_AUT_CAP)
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser("baf", help="back-and-forth uniqueness experiment")
    p.add_argument("--mode", choices=["2partite", "orientation"], required=True)
    p.add_argument("--size", type=int, required=True, help="side size")
    p.add_argument("--level", type=int, required=True, help="target map size")
    p.add_argument("--seed1", type=int, required=True)
    p.add_argument("--seed2", type=int, required=True)
    p.add_argument("--build-level", type=int, default=None,
                   help="verify approximants at this level instead of the target")
    p.set_defaults(handler=_cmd_baf)

    p = sub.add_parser("enum", help="homogeneous census as JSON lines")
    p.add_argument("--max-x", type=int, required=True)
    p.add_argument("--max-y", type=int, required=True)
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("verify", help="audit the classification at desk scale")
    p.add_argument("--max-x", type=int, required=True)
    p.add_argument("--max-y", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("convert", help="rewrite a structure file as JSON or DOT")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(handler=_cmd_convert)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Entry point with injectable streams; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args, out, err)
    except (ValidationError, AutGroupTooLarge) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except OutcomeError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: exit 1 without a traceback, and point stdout
        # at the null device so that the flush at exit cannot fail again
        # (the recipe of the "Note on SIGPIPE" in the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
