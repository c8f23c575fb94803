"""Command-line entry point wiring every subsystem together.

One binary, subcommand style.  Each subcommand's parser names its handler,
which reads ``args.format`` and ``args.out`` and hands its answer to one
writer, ``_write``: to the ``--out`` file, or to stdout.  ``run`` builds only
the parser of the subcommand that its first argument names.  JSON mode emits a
single document, whose bytes are those of ``json.dumps(doc, indent=2)`` plus a
newline, streamed a top-level item, or a census row, at a time; a listing
writes each item's text straight from the ideal as it is built, by one ``%``
on a template made once for each item layout.  Text mode prints tables shaped
like the ones people actually diff against, plus a newline.
Errors, running out of memory among them, land on stderr with exit code 2;
negative check results (a code that is not admissible, an ideal that is not
stable, a verification mismatch) exit 1.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; importing
# it with the module keeps that start-up cost out of run().
import locale  # noqa: F401
import sys
from itertools import chain
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


def _write(args, chunks) -> None:
    """Write the chunks of an answer to the ``--out`` file, or to stdout, in
    ``_blocks``: an unbuffered stdout makes one system call per write.

    Text goes in as ``(text, "\\n")`` or by lines, JSON as ``_json_chunks(doc)``.
    Handlers check their request first, so a rejected one leaves no ``--out`` file.
    """
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_blocks(chunks))
    else:
        sys.stdout.writelines(_blocks(chunks))


_BLOCK = 1 << 16  # characters


def _blocks(chunks):
    """The chunks joined in order into blocks of at least ``_BLOCK`` characters,
    all but the last; each block is yielded as soon as it is full."""
    block, held = [], 0
    for chunk in chunks:
        block.append(chunk)
        held += len(chunk)
        if held >= _BLOCK:
            yield "".join(block)
            block, held = [], 0
    if block:
        yield "".join(block)


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
    if isinstance(doc, (list, tuple)):
        yield from _framed(_indented(item, "\n  ") for item in doc)
    else:
        yield _indented(doc, "\n") + "\n"


def _framed(texts, pad: str = "\n", end: str = "\n"):
    """A list's chunks nested where lines start with ``pad``, given the text of
    each item, then ``end``; by default a top-level list's."""
    first = sep = "[" + pad + "  "
    for text in texts:
        yield sep + text
        sep = "," + pad + "  "
    yield ("[]" if sep == first else pad + "]") + end


def _listing_texts(items):
    """Each ``ListedIdeal``'s item text in ``json.dumps(listing.to_json(), indent=2)``,
    given int entries and a generator.  The items of one layout share the
    template that ``_listing_template`` builds from the first of them; the
    layout is the partition's kind, a ``PlanePartition``'s shape, ``shifted``
    and ``inner`` (which fix its row lengths), the lengths of the Bar Code's
    rows, and the generators' count and arity.  Each item's text is then one
    ``%`` on its template with its ints: the partition's in ``to_json`` order,
    the Bar Code's rows 2 to n, then the generators' exponents in Lex order."""
    templates = {}
    for item in items:
        part, rows, ideal = item.partition, item.barcode.rows, item.ideal
        gens = ideal.sorted()
        if isinstance(part, tuple):
            head, values = len(part), part
        else:
            inner = part.inner if any(part.inner) else ()
            head = (part.shape, part.shifted, inner)
            values = (*part.shape, part.c, part.d, *part.flat(), *inner)
        key = (head, tuple(map(len, rows)), len(gens), ideal.n)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _listing_template(part, rows, len(gens), ideal.n)
        yield template % (*values, *chain.from_iterable(rows[1:]),
                          *chain.from_iterable([t.exponents for t in gens]))


def _listing_template(part, rows, count: int, arity: int) -> str:
    """The item text of a listed ideal, with the unit bars of row 1, the Bar
    Code's n and width and a ``PlanePartition``'s ``shifted`` written out and
    every other int a ``%d``."""
    doc = {
        "partition": _masked(list(part) if isinstance(part, tuple) else part.to_json()),
        "barcode": {"n": len(rows), "width": len(rows[0]), "rows": [rows[0], *_masked(rows[1:])]},
        "generators": [[None] * arity] * count,
    }
    return _indented(doc, "\n  ").replace("null", "%d")


def _masked(obj):
    """``obj`` with every int in its lists and dicts, at any depth, made ``None``."""
    if isinstance(obj, dict):
        return {k: _masked(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_masked(x) for x in obj]
    return None if type(obj) is int else obj


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
    try:
        if path is None or path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
    except RecursionError:
        raise ValueError(partitions._TOO_DEEP) from None
    partitions._check_json_depth(doc)
    return doc


# -- subcommand handlers -----------------------------------------------------


def _bar(bar_list) -> str:
    return "(" + ",".join(str(x) for x in bar_list) + ")"


def _cmd_count(args) -> int:
    census = counting.census(args.hilbert, args.vars, _kind(args.klass))
    if args.format == "json":
        # census.to_json(), or without a breakdown only its head and total;
        # a breakdown is written a row at a time, after the head's text cut
        # before its closing "\n}"
        head = {"p": census.p, "vars": census.n, "class": census.kind.replace("_", "-")}
        if not args.breakdown:
            _write(args, _json_chunks({**head, "total": census.total}))
            return 0
        rows = (_indented(counting._row_json(row), "\n    ") for row in census.rows)
        _write(args, chain((_indented(head, "\n")[:-2] + ',\n  "rows": ',),
                           _framed(rows, "\n  ", f',\n  "total": {census.total}\n}}\n')))
        return 0
    lines = []
    if args.breakdown:
        lines.append("bar list | ideals")
        for row in census.rows:
            lines.append(f"{_bar(row.bar_list)} | {row.subtotal}")
    lines.append(f"total: {census.total}")
    _write(args, ("\n".join(lines), "\n"))
    return 0


def _cmd_list(args) -> int:
    listing = bijections.list_ideals(args.hilbert, args.vars, _kind(args.klass))
    _write(args, _framed(_listing_texts(listing))
           if args.format == "json" else _listing_lines(listing))
    return 0


def _listing_lines(items):
    """One line per ideal, its minimal generators in Lex order, then the count."""
    count = 0
    for count, item in enumerate(items, 1):
        yield "(" + ", ".join(map(format_term, item.ideal.sorted())) + ")\n"
    yield f"count: {count}\n"


def _cmd_gf(args) -> int:
    if args.variant == "strict":
        inner = args.inner if args.inner is not None else (0,) * len(args.shape)
        poly = gf_strict(args.shape, inner, args.a, args.b, args.c, args.d,
                         truncate_at=args.truncate_at)
    elif args.inner is not None:
        raise ValueError("--inner applies to the strict variant only")
    else:
        poly = gf_shifted(args.shape, args.a, args.b, args.c, args.d,
                          truncate_at=args.truncate_at)
    _write(args, _json_chunks(poly.to_json()) if args.format == "json" else (str(poly), "\n"))
    return 0


def _cmd_partitions(args) -> int:
    json_mode = args.format == "json"
    if args.action == "validate":
        doc = _read_json(args.infile)
        if isinstance(doc, dict) and "layers" in doc:
            ok = partitions.validate_solid(partitions.SolidPartition.from_json(doc))
        else:
            ok = partitions.validate(partitions.PlanePartition.from_json(doc))
        text = json.dumps({"valid": ok}) if json_mode else ("valid" if ok else "not valid")
        _write(args, (text, "\n"))
        return 0 if ok else 1
    if args.shape is None or args.norm is None:
        raise ValueError(f"partitions {args.action} needs --shape and --norm")
    found = partitions.enumerate_plane_partitions(
        args.shape, args.shifted, args.c, args.d,
        args.a, args.b if args.b else (1,) * len(args.shape), args.norm,
    )
    if args.action == "count":
        text = json.dumps({"count": len(found)}) if json_mode else str(len(found))
        _write(args, (text, "\n"))
    elif json_mode:
        _write(args, _json_chunks([pp.to_json() for pp in found]))
    else:
        _write(args, ("\n".join(str(list(pp.rows)) for pp in found), "\n"))
    return 0


def _write_terms(args, terms) -> None:
    if args.format == "json":
        _write(args, _json_chunks([list(t.exponents) for t in terms]))
    else:
        _write(args, (" ".join(format_term(t) for t in terms), "\n"))


def _cmd_barcode(args) -> int:
    json_mode = args.format == "json"
    if args.action == "encode":
        code = bc.encode(_parse_terms(args.terms, args.vars))
        _write(args, _json_chunks(code.to_json()) if json_mode
               else (bc.render(code, "ascii", labels=True), "\n"))
        return 0
    code = bc.BarCode.from_json(_read_json(args.infile))
    if args.action == "decode":
        _write_terms(args, bc.decode(code))
        return 0
    if args.action == "check":
        ok = bc.is_admissible(code)
        _write(args, _json_chunks({"admissible": ok}) if json_mode
               else ("admissible" if ok else "not admissible", "\n"))
        return 0 if ok else 1
    # render
    _write(args, (bc.render(code, args.render_format, labels=args.labels), "\n"))
    return 0


def _cmd_starset(args) -> int:
    build = starset.pommaret_basis if args.command == "pommaret" else starset.star_set_direct
    _write_terms(args, build(OrderIdeal.of(_parse_terms(args.terms, args.vars))).terms)
    return 0


def _cmd_check_stability(args) -> int:
    strongly = args.command == "check-strongly-stable"
    ideal = MonomialIdeal.of(_parse_terms(args.terms, args.vars))
    ok = is_strongly_stable(ideal) if strongly else is_stable(ideal)
    name = "strongly-stable" if strongly else "stable"
    _write(args, _json_chunks({name.replace("-", "_"): ok}) if args.format == "json"
           else (name if ok else f"not {name}", "\n"))
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    kind = _kind(args.klass)
    oracle.check_size(args.vars, args.max_p)
    rows = []
    for p in range(1, args.max_p + 1):
        pipeline = counting.census(p, args.vars, kind).total
        brute = oracle.count_by_definition(args.vars, p, kind)
        rows.append({"p": p, "pipeline": pipeline, "oracle": brute, "match": pipeline == brute})
    ok = all(row["match"] for row in rows)
    if args.format == "json":
        _write(args, _json_chunks({"vars": args.vars, "class": args.klass, "rows": rows,
                                  "ok": ok}))
    else:
        lines = ["p | pipeline | oracle | status"]
        for p, a, b, m in map(dict.values, rows):
            lines.append(f"{p} | {a} | {b} | {'pass' if m else 'FAIL'}")
        lines.append("ok" if ok else "MISMATCH")
        _write(args, ("\n".join(lines), "\n"))
    return 0 if ok else 1


def _cmd_conjecture(args) -> int:
    report = oracle.conjecture_probe(args.hilbert, _kind(args.klass))
    if args.format == "json":
        _write(args, _json_chunks(report.to_json()))
        return 0
    lines = ["bar list | ideals | partitions | status"]
    for row in report.rows:
        lines.append(
            f"{_bar(row.bar_list)} | {row.ideal_count} | {row.partition_count} | "
            f"{'agree' if row.agree else 'DISAGREE'}"
        )
    lines.append("all agree" if report.all_agree else "evidence of disagreement")
    _write(args, ("\n".join(lines), "\n"))
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", help="write output to a file instead of stdout")


def _add_class(sp):
    sp.add_argument("--class", dest="klass", required=True,
                    choices=("stable", "strongly-stable"))


def _add_render(sp):
    sp.add_argument("--render-format", choices=("ascii", "svg"), default="ascii")
    sp.add_argument("--labels", action="store_true")


def _add_census(sp, handler, breakdown=False):
    sp.set_defaults(handler=handler)
    sp.add_argument("--vars", type=int, choices=(2, 3), required=True)
    sp.add_argument("--hilbert", type=int, required=True, metavar="P")
    _add_class(sp)
    if breakdown:
        sp.add_argument("--breakdown", action="store_true")
    _add_common(sp)


def _add_gf(sp):
    sp.set_defaults(handler=_cmd_gf)
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


def _add_partitions(sp):
    sp.set_defaults(handler=_cmd_partitions)
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


def _add_barcode(sp):
    sp.set_defaults(handler=_cmd_barcode)
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
            _add_render(bsp)
        _add_common(bsp)


def _add_render_alias(sp):
    sp.set_defaults(handler=_cmd_barcode, action="render")
    sp.add_argument("--in", dest="infile", default=None)
    _add_render(sp)
    _add_common(sp)


def _add_terms(sp, handler):
    sp.set_defaults(handler=handler)
    sp.add_argument("terms", nargs="+")
    sp.add_argument("--vars", type=int, default=None)
    _add_common(sp)


def _add_verify(sp):
    sp.set_defaults(handler=_cmd_verify)
    sp.add_argument("--vars", type=int, choices=(2, 3), required=True)
    sp.add_argument("--max-p", type=int, required=True)
    _add_class(sp)
    _add_common(sp)


def _add_conjecture(sp):
    sp.set_defaults(handler=_cmd_conjecture)
    sp.add_argument("--hilbert", type=int, required=True, metavar="P")
    _add_class(sp)
    _add_common(sp)


# Each subcommand in help order: its help text and the function that fills in
# its parser.
_COMMANDS = {
    "count": ("count (strongly) stable ideals", lambda sp: _add_census(sp, _cmd_count, True)),
    "list": ("list the ideals explicitly", lambda sp: _add_census(sp, _cmd_list)),
    "gf": ("norm generating functions", _add_gf),
    "partitions": ("enumerate, count, or validate", _add_partitions),
    "barcode": ("encode, decode, check, render", _add_barcode),
    "render": ("shorthand for barcode render", _add_render_alias),
    "starset": ("starset of an order ideal", lambda sp: _add_terms(sp, _cmd_starset)),
    "pommaret": ("pommaret of an order ideal", lambda sp: _add_terms(sp, _cmd_starset)),
    "check-stable": ("check stable on generators",
                     lambda sp: _add_terms(sp, _cmd_check_stability)),
    "check-strongly-stable": ("check strongly stable on generators",
                              lambda sp: _add_terms(sp, _cmd_check_stability)),
    "verify": ("pipeline counts against brute force", _add_verify),
    "conjecture": ("four-variable evidence report", _add_conjecture),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or, for a name in ``_COMMANDS``, one that builds only
    that subcommand's parser.  The subcommand choices are then spelled out as
    the metavar, so every usage line and error message that the one
    subcommand can reach reads as the whole parser's."""
    ap = argparse.ArgumentParser(
        prog="escalier",
        description="Bar Codes, star sets, and censuses of stable monomial ideals",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, fill) in _COMMANDS.items():
        if command is None or name == command:
            fill(sub.add_parser(name, help=text))
    return ap


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the request is too large", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
