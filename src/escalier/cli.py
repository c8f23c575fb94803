"""Command-line entry point wiring every subsystem together.

One binary, subcommand style.  JSON mode emits a single document on stdout,
whose bytes are those of ``json.dumps(doc, indent=2)`` plus a newline; it is
streamed, a top-level list one item at a time.  Text mode prints tables shaped
like the ones people actually diff against.
Errors land on stderr with exit code 2; negative check results (a code that is
not admissible, an ideal that is not stable, a verification mismatch) exit 1.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; importing
# it with the module keeps that start-up cost out of run().
import locale  # noqa: F401
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

from . import barcode as bc
from . import bijections, counting, oracle, partitions, starset
from .monomials import (
    MonomialIdeal,
    OrderIdeal,
    Term,
    format_term,
    is_stable,
    is_strongly_stable,
    parse_term,
)
from .qpolys import gf_shifted, gf_strict


@dataclass
class Config:
    fmt: str = "text"
    out: str | None = None


def _emit(cfg: Config, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ``json.dumps`` with any ``indent`` falls back to the pure-Python encoder,
# which joins one small chunk per token.  Here ints print by ``int.__repr__``,
# as in that encoder, and the other scalars go through the C encoder.
_encode_scalar = json.JSONEncoder().encode


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for ``obj`` nested where lines start with ``pad``.

    Dict keys must be ``str``: any other key raises ``TypeError`` (``json``
    would coerce it, and no CLI document has one).
    """
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        # exact types: a bool, which prints as true/false, is not an int here
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(_encode_str, obj)
        else:
            items = [_indented(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + _indented(v, inner) for k, v in obj.items()
        ]) + pad + "}"
    if type(obj) is int:
        return int.__repr__(obj)
    return _encode_scalar(obj)


def _json_chunks(doc):
    """Yield ``json.dumps(doc, indent=2) + "\\n"``, a top-level list item by item."""
    if isinstance(doc, (list, tuple)) and doc:
        sep = "[\n  "
        for item in doc:
            yield sep + _indented(item, "\n  ")
            sep = ",\n  "
        yield "\n]\n"
    else:
        yield _indented(doc, "\n") + "\n"


def _emit_json(cfg: Config, doc) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.writelines(_json_chunks(doc))
    else:
        sys.stdout.writelines(_json_chunks(doc))


def _parse_terms(raw: list[str], vars_: int | None) -> list[Term]:
    if not raw:
        raise ValueError("no terms given")
    loose = [parse_term(t) for t in raw]
    arity = vars_ if vars_ is not None else max(t.n for t in loose)
    return [parse_term(t, arity) for t in raw]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _kind(name: str) -> str:
    return name.replace("-", "_")


def _read_json(path: str | None):
    if path is None or path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- subcommand handlers -----------------------------------------------------


def _cmd_count(args, cfg: Config) -> int:
    kind = _kind(args.klass)
    census = counting.census(args.hilbert, args.vars, kind)
    if cfg.fmt == "json":
        doc = census.to_json()
        if not args.breakdown:
            doc.pop("rows")
        _emit_json(cfg, doc)
        return 0
    lines = []
    if args.breakdown:
        lines.append("bar list | ideals")
        for row in census.rows:
            bar = "(" + ",".join(str(x) for x in row.bar_list) + ")"
            lines.append(f"{bar} | {row.subtotal}")
    lines.append(f"total: {census.total}")
    _emit(cfg, "\n".join(lines))
    return 0


def _cmd_list(args, cfg: Config) -> int:
    listing = bijections.list_ideals(args.hilbert, args.vars, _kind(args.klass))
    if cfg.fmt == "json":
        _emit_json(cfg, listing.to_json())
        return 0
    lines = []
    for item in listing.items:
        gens = ", ".join(format_term(t) for t in item.ideal.sorted())
        lines.append(f"({gens})")
    lines.append(f"count: {len(listing)}")
    _emit(cfg, "\n".join(lines))
    return 0


def _cmd_gf(args, cfg: Config) -> int:
    if args.variant == "strict":
        inner = args.inner if args.inner is not None else (0,) * len(args.shape)
        poly = gf_strict(args.shape, inner, args.a, args.b, args.c, args.d,
                         truncate_at=args.truncate_at)
    else:
        poly = gf_shifted(args.shape, args.a, args.b, args.c, args.d,
                          truncate_at=args.truncate_at)
    if cfg.fmt == "json":
        _emit_json(cfg, poly.to_json())
    else:
        _emit(cfg, str(poly))
    return 0


def _cmd_partitions(args, cfg: Config) -> int:
    if args.action == "validate":
        doc = _read_json(args.infile)
        if isinstance(doc, dict) and "layers" in doc:
            ok = partitions.validate_solid(partitions.SolidPartition.from_json(doc))
        else:
            ok = partitions.validate(partitions.PlanePartition.from_json(doc))
        _emit(cfg, json.dumps({"valid": ok}) if cfg.fmt == "json" else
              ("valid" if ok else "not valid"))
        return 0 if ok else 1
    if args.shape is None or args.norm is None:
        raise ValueError(f"partitions {args.action} needs --shape and --norm")
    found = partitions.enumerate_plane_partitions(
        args.shape, args.shifted, args.c, args.d,
        args.a, args.b if args.b else (1,) * len(args.shape), args.norm,
    )
    if args.action == "count":
        _emit(cfg, json.dumps({"count": len(found)}) if cfg.fmt == "json"
              else str(len(found)))
        return 0
    if cfg.fmt == "json":
        _emit_json(cfg, [pp.to_json() for pp in found])
    else:
        _emit(cfg, "\n".join(str(list(pp.rows)) for pp in found))
    return 0


def _cmd_barcode(args, cfg: Config) -> int:
    if args.action == "encode":
        code = bc.encode(_parse_terms(args.terms, args.vars))
        if cfg.fmt == "json":
            _emit_json(cfg, code.to_json())
        else:
            _emit(cfg, bc.render(code, "ascii", labels=True))
        return 0
    code = bc.BarCode.from_json(_read_json(args.infile))
    if args.action == "decode":
        decoded = bc.decode(code)
        if cfg.fmt == "json":
            _emit_json(cfg, [list(t.exponents) for t in decoded])
        else:
            _emit(cfg, " ".join(format_term(t) for t in decoded))
        return 0
    if args.action == "check":
        ok = bc.is_admissible(code)
        if cfg.fmt == "json":
            _emit_json(cfg, {"admissible": ok})
        else:
            _emit(cfg, "admissible" if ok else "not admissible")
        return 0 if ok else 1
    # render
    _emit(cfg, bc.render(code, args.render_format, labels=args.labels))
    return 0


def _order_ideal_from_args(args) -> OrderIdeal:
    return OrderIdeal.of(_parse_terms(args.terms, args.vars))


def _emit_term_set(cfg: Config, terms) -> None:
    if cfg.fmt == "json":
        _emit_json(cfg, [list(t.exponents) for t in terms])
    else:
        _emit(cfg, " ".join(format_term(t) for t in terms))


def _cmd_starset(args, cfg: Config) -> int:
    _emit_term_set(cfg, starset.star_set_direct(_order_ideal_from_args(args)).terms)
    return 0


def _cmd_pommaret(args, cfg: Config) -> int:
    _emit_term_set(cfg, starset.pommaret_basis(_order_ideal_from_args(args)).terms)
    return 0


def _cmd_check_stability(args, cfg: Config) -> int:
    strongly = args.command == "check-strongly-stable"
    ideal = MonomialIdeal.of(_parse_terms(args.terms, args.vars))
    ok = is_strongly_stable(ideal) if strongly else is_stable(ideal)
    name = "strongly-stable" if strongly else "stable"
    if cfg.fmt == "json":
        _emit_json(cfg, {name.replace("-", "_"): ok})
    else:
        _emit(cfg, name if ok else f"not {name}")
    return 0 if ok else 1


def _cmd_verify(args, cfg: Config) -> int:
    kind = _kind(args.klass)
    oracle.check_size(args.vars, args.max_p)
    rows = []
    ok = True
    for p in range(1, args.max_p + 1):
        if args.vars == 2:
            pipeline = counting.count_2vars(p)
        else:
            pipeline = counting.census(p, args.vars, kind).total
        brute = oracle.count_by_definition(args.vars, p, kind)
        match = pipeline == brute
        ok = ok and match
        rows.append((p, pipeline, brute, match))
    if cfg.fmt == "json":
        _emit_json(cfg, {
            "vars": args.vars,
            "class": args.klass,
            "rows": [
                {"p": p, "pipeline": a, "oracle": b, "match": m}
                for p, a, b, m in rows
            ],
            "ok": ok,
        })
    else:
        lines = ["p | pipeline | oracle | status"]
        for p, a, b, m in rows:
            lines.append(f"{p} | {a} | {b} | {'pass' if m else 'FAIL'}")
        lines.append("ok" if ok else "MISMATCH")
        _emit(cfg, "\n".join(lines))
    return 0 if ok else 1


def _cmd_conjecture(args, cfg: Config) -> int:
    report = oracle.conjecture_probe(args.hilbert, _kind(args.klass))
    if cfg.fmt == "json":
        _emit_json(cfg, report.to_json())
    else:
        lines = ["bar list | ideals | partitions | status"]
        for row in report.rows:
            bar = "(" + ",".join(str(x) for x in row.bar_list) + ")"
            lines.append(
                f"{bar} | {row.ideal_count} | {row.partition_count} | "
                f"{'agree' if row.agree else 'DISAGREE'}"
            )
        lines.append("all agree" if report.all_agree else "evidence of disagreement")
        _emit(cfg, "\n".join(lines))
    return 0


_HANDLERS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "gf": _cmd_gf,
    "partitions": _cmd_partitions,
    "barcode": _cmd_barcode,
    "render": _cmd_barcode,
    "starset": _cmd_starset,
    "pommaret": _cmd_pommaret,
    "check-stable": _cmd_check_stability,
    "check-strongly-stable": _cmd_check_stability,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


# -- parser ------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="escalier",
        description="Bar Codes, star sets, and censuses of stable monomial ideals",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="count (strongly) stable ideals")
    sp.add_argument("--vars", type=int, choices=(2, 3), required=True)
    sp.add_argument("--hilbert", type=int, required=True, metavar="P")
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("stable", "strongly-stable"))
    sp.add_argument("--breakdown", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("list", help="list the ideals explicitly")
    sp.add_argument("--vars", type=int, choices=(2, 3), required=True)
    sp.add_argument("--hilbert", type=int, required=True, metavar="P")
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("stable", "strongly-stable"))
    _add_common(sp)

    sp = sub.add_parser("gf", help="norm generating functions")
    sp.add_argument("variant", choices=("strict", "shifted"))
    sp.add_argument("--shape", type=_ints, required=True)
    sp.add_argument("--inner", type=_ints, default=None,
                    help="inner (skew) shape, strict variant only")
    sp.add_argument("--a", type=_ints, required=True)
    sp.add_argument("--b", type=_ints, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--truncate-at", type=int, default=None, metavar="T")
    _add_common(sp)

    sp = sub.add_parser("partitions", help="enumerate, count, or validate")
    sp.add_argument("action", choices=("enumerate", "count", "validate"))
    sp.add_argument("--shape", type=_ints)
    sp.add_argument("--shifted", action="store_true")
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--a", type=_ints, default=None,
                    help="first-part bounds (exact values when shifted)")
    sp.add_argument("--b", type=_ints, default=None,
                    help="last-part lower bounds, default all ones")
    sp.add_argument("--norm", type=int)
    sp.add_argument("--in", dest="infile", default=None,
                    help="JSON document for validate ('-' for stdin)")
    _add_common(sp)

    sp = sub.add_parser("barcode", help="encode, decode, check, render")
    barsub = sp.add_subparsers(dest="action", required=True)
    bsp = barsub.add_parser("encode", help="Bar Code of a term set")
    bsp.add_argument("terms", nargs="+", help="terms like x1^2*x3")
    bsp.add_argument("--vars", type=int, default=None)
    _add_common(bsp)
    for action, text in (("decode", "canonical term set"),
                         ("check", "admissibility"),
                         ("render", "ascii or svg drawing")):
        bsp = barsub.add_parser(action, help=text)
        bsp.add_argument("--in", dest="infile", default=None,
                         help="Bar Code JSON ('-' for stdin)")
        if action == "render":
            bsp.add_argument("--render-format", choices=("ascii", "svg"),
                             default="ascii")
            bsp.add_argument("--labels", action="store_true")
        _add_common(bsp)

    sp = sub.add_parser("render", help="shorthand for barcode render")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--render-format", choices=("ascii", "svg"), default="ascii")
    sp.add_argument("--labels", action="store_true")
    _add_common(sp)

    for name in ("starset", "pommaret"):
        sp = sub.add_parser(name, help=f"{name} of an order ideal")
        sp.add_argument("terms", nargs="+")
        sp.add_argument("--vars", type=int, default=None)
        _add_common(sp)

    for name in ("check-stable", "check-strongly-stable"):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} on generators")
        sp.add_argument("terms", nargs="+")
        sp.add_argument("--vars", type=int, default=None)
        _add_common(sp)

    sp = sub.add_parser("verify", help="pipeline counts against brute force")
    sp.add_argument("--vars", type=int, choices=(2, 3), required=True)
    sp.add_argument("--max-p", type=int, required=True)
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("stable", "strongly-stable"))
    _add_common(sp)

    sp = sub.add_parser("conjecture", help="four-variable evidence report")
    sp.add_argument("--hilbert", type=int, required=True, metavar="P")
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("stable", "strongly-stable"))
    _add_common(sp)

    return ap


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = Config(
        fmt=getattr(args, "format", "text"),
        out=getattr(args, "out", None),
    )
    if args.command == "render":
        args.action = "render"
    try:
        return _HANDLERS[args.command](args, cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
