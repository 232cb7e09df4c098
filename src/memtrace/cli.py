"""Batch front-end for the simulate / reconstruct / sign / match pipeline.

Exit codes are stable across subcommands: 0 success (or match), 1
no-match, 2 usage, parse or simulation error.

The alignment threshold tau comes from, in order of precedence: --tau,
the MEMTRACE_TAU environment variable, and then, for match and diff, the
first signature's tau_default (written by `sign`); the built-in default
is 100.  Each must be a non-negative integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import guest as guest_mod
from . import recon, signature, trace

EXIT_OK = 0
EXIT_NO_MATCH = 1
EXIT_ERROR = 2


def _non_negative_int(text: str) -> int:
    """argparse type for --tau and --size (and MEMTRACE_TAU)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{trace._shown(text)} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{trace._shown(text)} is negative")
    return value


def _load(parse, path: str):
    """What `parse` makes of the bytes of the file at `path`."""
    with open(path, "rb") as handle:
        return parse(handle.read())


def _parse_base(text: str) -> int:
    if not text.lower().startswith("0x"):
        raise ValueError(f"base {trace._shown(text)} must be 0x-prefixed hex")
    return int(text, 16)


def _write_out(out: Optional[str], data: bytes) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(out, "wb") as handle:
            handle.write(data)


def cmd_simulate(args) -> int:
    model = _load(guest_mod.parse_model, args.model)
    g = guest_mod.build_guest(model)
    log = guest_mod.run(g, model)
    _write_out(args.out, trace.serialize_trace(log))
    print(f"{len(log.events)} events")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    log = _load(trace.parse_trace, args.trace)
    base = _parse_base(args.base)
    layout = recon.reconstruct_layout(log, base, size_hint=args.size)
    if any(recon.NO_ACCESS_NOTE in f.notes for f in layout.fields):
        print("warning: no accesses in window", file=sys.stderr)
    report = {
        "base": f"0x{layout.base:x}",
        "total_size": layout.total_size,
        "fields": [
            {
                "offset": f.offset,
                "size": f.size,
                "category": f.category,
                "evidence": f.evidence_count,
                "notes": list(f.notes),
            }
            for f in layout.fields
        ],
        "c_decl": recon.render_layout_c(layout),
    }
    _write_out(args.out, (json.dumps(report, indent=2) + "\n").encode("utf-8"))
    return EXIT_OK


def cmd_sign(args) -> int:
    log = _load(trace.parse_trace, args.trace)
    bases = recon.collect_bases(log)
    pattern = signature.extract_pattern(log, bases)
    tau = signature.DEFAULT_TAU if args.tau is None else args.tau
    _write_out(args.out, signature.write_signature(pattern, tau=tau))
    print(f"{len(pattern.offsets)} offsets")
    return EXIT_OK


def _load_pair(args):
    """(first, second, tau): the two signatures, and --tau or
    MEMTRACE_TAU when given, else the first file's tau_default."""
    first, tau = _load(signature.read_signature, args.first)
    second, _ = _load(signature.read_signature, args.second)
    return first, second, tau if args.tau is None else args.tau


def cmd_match(args) -> int:
    first, second, tau = _load_pair(args)
    result = signature.lcmap(first, second, tau)
    verdict = "match" if result.ratio >= args.threshold else "no-match"
    print(json.dumps({
        "L": result.length,
        "I": result.end_index,
        "ratio": round(result.ratio, 6),
        "verdict": verdict,
    }))
    return EXIT_OK if verdict == "match" else EXIT_NO_MATCH


def cmd_diff(args) -> int:
    first, second, tau = _load_pair(args)
    try:
        report = signature.diff_modified(first, second, tau,
                                         threshold=args.threshold)
    except signature.NotSimilarError as exc:
        print(json.dumps({"declined": True, "ratio": round(exc.ratio, 6)}))
        return EXIT_NO_MATCH
    print(json.dumps({
        "matched": [[list(a), list(b)] for a, b in report.matched],
        "unmatched": [[list(a), list(b)] for a, b in report.unmatched],
    }))
    return EXIT_OK


def cmd_bases(args) -> int:
    log = _load(trace.parse_trace, args.trace)
    for record in recon.collect_bases(log):
        print(f"0x{record.base:x} 0x{record.size:x} {record.source} "
              f"rip=0x{record.site_rip:x}")
    return EXIT_OK


def _load_rules(path: Optional[str]):
    if path is None:
        return recon.EVASIVE_SEQUENCES
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except RecursionError:
            raise ValueError("rules JSON is nested too deeply") from None
    if not isinstance(raw, list):
        raise ValueError("a rules file holds a JSON list of rules")
    rules = []
    for entry in raw:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ValueError("every rule is an object with a string name")
        steps = entry.get("steps")
        if not isinstance(steps, list) or not steps or not all(
            isinstance(step, str)
            or isinstance(step, list) and all(isinstance(s, str) for s in step)
            for step in steps
        ):
            raise ValueError(f"rule {trace._shown(entry['name'])}: steps must "
                             "be a non-empty list of names or lists of names")
        rules.append((entry["name"], [
            tuple(step) if isinstance(step, list) else step for step in steps
        ]))
    return rules


def cmd_flags(args) -> int:
    log = _load(trace.parse_trace, args.trace)
    hits = recon.flag_call_sequences(recon.call_names(log),
                                     _load_rules(args.rules))
    for hit in hits:
        print(f"{hit.rule} tid={hit.thread_id} "
              f"first={hit.first_seq} last={hit.last_seq}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtrace",
        description="Simulated memory-trace capture and analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A --tau left out stays None: main() fills it from MEMTRACE_TAU, when
    # set, on every call and reports a bad value through `usage_error`,
    # the subcommand's own parser.

    p = sub.add_parser("simulate", help="run a program model, emit a trace")
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a structure layout")
    p.add_argument("trace")
    p.add_argument("--base", required=True, help="structure base, 0x-hex")
    p.add_argument("--size", type=_non_negative_int, default=None,
                   help="window size hint")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sign", help="extract a signature from a trace")
    p.add_argument("trace")
    p.add_argument("--tau", type=_non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sign, usage_error=p.error)

    for name, func, text in (("match", cmd_match, "match two signatures"),
                             ("diff", cmd_diff, "diff two similar signatures")):
        p = sub.add_parser(name, help=text)
        p.add_argument("first")
        p.add_argument("second")
        p.add_argument("--tau", type=_non_negative_int, default=None)
        p.add_argument("--threshold", type=float,
                       default=signature.DEFAULT_MATCH_THRESHOLD)
        p.set_defaults(func=func, usage_error=p.error)

    p = sub.add_parser("bases", help="list discovered allocation bases")
    p.add_argument("trace")
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("flags", help="flag known API-call sequences")
    p.add_argument("trace")
    p.add_argument("--rules", default=None)
    p.set_defaults(func=cmd_flags)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def _resolve_tau(args) -> None:
    """Fill a --tau that was left out from MEMTRACE_TAU, when it is set."""
    text = os.environ.get("MEMTRACE_TAU")
    if text is None or not hasattr(args, "tau") or args.tau is not None:
        return
    try:
        args.tau = _non_negative_int(text)
    except argparse.ArgumentTypeError as exc:
        args.usage_error(f"argument --tau: {exc}")


def main(argv=None) -> int:
    # The parser is built on the first call and reused by later ones.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        _resolve_tau(args)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (trace.TraceError, guest_mod.ModelParseError,
            guest_mod.SimulationError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
