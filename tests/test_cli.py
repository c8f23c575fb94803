import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier import cli, qpolys
from escalier.barcode import BarCode
from escalier.bijections import ListedIdeal, list_ideals
from escalier.cli import run
from escalier.counting import BarListCensus, census
from escalier.monomials import MonomialIdeal, Term, format_term
from escalier.partitions import PlanePartition

REPO = Path(__file__).resolve().parents[1]

EX_47_CODE = {"n": 3, "width": 5, "rows": [[1, 1, 1, 1, 1], [2, 1, 1, 1], [2, 3]]}


def out_of(capsys):
    return capsys.readouterr().out.strip()


class TestCount:
    def test_three_vars_breakdown_text(self, capsys):
        assert run(["count", "--vars", "3", "--hilbert", "10",
                    "--class", "stable", "--breakdown"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "bar list | ideals"
        assert "(10,3,2) | 11" in lines
        assert lines[-1] == "total: 29"

    def test_three_vars_json(self, capsys):
        assert run(["count", "--vars", "3", "--hilbert", "10",
                    "--class", "strongly-stable", "--breakdown",
                    "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["total"] == 24
        assert [r["subtotal"] for r in doc["rows"]] == [1, 4, 4, 1, 7, 5, 1, 1]

    def test_two_vars_hundred(self, capsys):
        assert run(["count", "--vars", "2", "--hilbert", "100",
                    "--class", "strongly-stable"]) == 0
        assert out_of(capsys) == "total: 444793"

    def test_two_vars_five_thousand(self, capsys):
        # independent route: the x^5000 coefficient of prod_j (1 + x^j)
        p = 5000
        coeffs = [1] + [0] * p
        for j in range(1, p + 1):
            coeffs[j:] = [a + b for a, b in zip(coeffs[j:], coeffs)]
        assert coeffs[p] == 15988884521431077020247618131907553242282546626679512
        assert run(["count", "--vars", "2", "--hilbert", str(p),
                    "--class", "stable"]) == 0
        assert out_of(capsys) == f"total: {coeffs[p]}"

    @pytest.mark.parametrize("n, klass, p", [(2, "stable", 1), (2, "strongly-stable", 30),
                                             (3, "stable", 12), (3, "strongly-stable", 12)])
    def test_json_total_is_the_census_document_without_rows(self, capsys, n, klass, p):
        doc = census(p, n, klass.replace("-", "_")).to_json()
        del doc["rows"]
        assert run(["count", "--vars", str(n), "--hilbert", str(p), "--class", klass,
                    "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("klass", ["stable", "strongly-stable"])
    @pytest.mark.parametrize("p", [*range(1, 13), 40])
    def test_breakdown_json_is_the_census_document(self, capsys, klass, p):
        want = json.dumps(census(p, 3, klass.replace("-", "_")).to_json(), indent=2) + "\n"
        assert run(["count", "--vars", "3", "--hilbert", str(p), "--class", klass,
                    "--breakdown", "--format", "json"]) == 0
        assert capsys.readouterr().out == want

    def test_breakdown_json_is_written_row_by_row(self, monkeypatch, capsys):
        # the whole document is never built: neither to_json nor one string
        def refuse(self):
            raise AssertionError("the whole census document was built")

        monkeypatch.setattr(BarListCensus, "to_json", refuse)
        chunks = []
        monkeypatch.setattr(cli, "_blocks", lambda parts: chunks.extend(parts) or chunks)
        assert run(["count", "--vars", "3", "--hilbert", "12", "--class", "stable",
                    "--breakdown", "--format", "json"]) == 0
        rows = json.loads("".join(chunks))["rows"]
        assert len(chunks) == len(rows) + 2

    def test_deterministic_output(self, capsys):
        run(["count", "--vars", "3", "--hilbert", "9", "--class", "stable",
             "--breakdown", "--format", "json"])
        first = out_of(capsys)
        run(["count", "--vars", "3", "--hilbert", "9", "--class", "stable",
             "--breakdown", "--format", "json"])
        assert out_of(capsys) == first


class TestList:
    def test_json_listing(self, capsys):
        assert run(["list", "--vars", "2", "--hilbert", "10",
                    "--class", "stable", "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert len(doc) == 10
        assert {"partition", "barcode", "generators"} <= set(doc[0])

    def test_text_listing(self, capsys):
        assert run(["list", "--vars", "3", "--hilbert", "1",
                    "--class", "stable"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines == ["(x1, x2, x3)", "count: 1"]


def whole_text_listing(listing):
    """The text form of a listing as whole-document code wrote it, each
    generator set sorted here rather than read in its construction order."""
    lines = []
    for item in listing.items:
        gens = sorted(item.ideal.generators, key=Term.lex_key)
        lines.append(f"({', '.join(map(format_term, gens))})")
    return "\n".join(lines + [f"count: {len(listing)}"]) + "\n"


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


class TestStreamedList:
    # The listing is written item by item as it is built; its bytes must stay
    # those of the whole document, on stdout and in the --out file.
    @pytest.mark.parametrize("vars_, klass, top", [
        (2, "stable", 30), (3, "stable", 20), (3, "strongly-stable", 20),
    ])
    def test_bytes_match_the_whole_document(self, tmp_path, capsys, vars_, klass, top):
        for p in range(1, top + 1):
            self.check_bytes(tmp_path, capsys, vars_, klass, p)

    @pytest.mark.parametrize("p", [40, 50])
    def test_bytes_at_the_benchmark_points(self, tmp_path, capsys, p):
        self.check_bytes(tmp_path, capsys, 2, "stable", p)

    @staticmethod
    def check_bytes(tmp_path, capsys, vars_, klass, p):
        listing = list_ideals(p, vars_, klass.replace("-", "_"))
        want = {"json": json.dumps(listing.to_json(), indent=2) + "\n",
                "text": whole_text_listing(listing)}
        for fmt, text in want.items():
            argv = ["list", "--vars", str(vars_), "--hilbert", str(p),
                    "--class", klass, "--format", fmt]
            assert run(argv) == 0
            assert capsys.readouterr().out == text, (p, fmt)
            target = tmp_path / f"{p}.{fmt}"
            assert run(argv + ["--out", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == text.encode("utf-8"), (p, fmt)

    @pytest.mark.parametrize("vars_, p", [(2, 20), (3, 12), (2, 30)])
    @pytest.mark.parametrize("klass", ["stable", "strongly-stable"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_blocks_reach_stdout_and_out_alike(self, tmp_path, vars_, p, klass, fmt):
        # through a real, unbuffered stdout, which takes one write per block;
        # at p = 30 the JSON listing takes several blocks
        listing = list_ideals(p, vars_, klass.replace("-", "_"))
        want = (json.dumps(listing.to_json(), indent=2) + "\n" if fmt == "json"
                else whole_text_listing(listing)).encode("utf-8")
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "escalier.cli", "list", "--vars", str(vars_),
                "--hilbert", str(p), "--class", klass, "--format", fmt]
        target = tmp_path / "listing"
        shown, written = (subprocess.run(argv + out, env=env, capture_output=True, timeout=60)
                          for out in ([], ["--out", str(target)]))
        assert shown.returncode == written.returncode == 0
        assert shown.stderr == written.stderr == written.stdout == b""
        assert shown.stdout == target.read_bytes() == want

    def test_blocks(self):
        size = cli._BLOCK
        assert size == 1 << 16
        assert list(cli._blocks([])) == []
        assert list(cli._blocks(["ab"])) == ["ab"]
        assert list(cli._blocks(["a" * size, "b"])) == ["a" * size, "b"]
        assert list(cli._blocks(["a" * (size + 1)])) == ["a" * (size + 1)]
        # chunks that straddle the size: every block is the chunks read since
        # the last one, and every block but the last leaves on the chunk that
        # takes it to 64 KiB, before the next chunk is read
        chunks = [chr(97 + i % 26) * (1000 + 37 * i) for i in range(200)]
        read, done, blocks = [], 0, 0
        for block in cli._blocks(read.append(c) or c for c in chunks):
            assert block == "".join(read[done:])
            if len(read) < len(chunks):
                assert len(block) - len(read[-1]) < size <= len(block)
            done, blocks = len(read), blocks + 1
        assert done == len(chunks) and blocks > 3

    def test_hand_built_items(self):
        # a skew partition, whose document carries "inner", and a straight one
        # of the same shape, Bar Code row lengths and generator count; then
        # items of other widths and arities, which take their own templates
        skew = ListedIdeal(
            PlanePartition((3, 3), ((2,), (2, 1)), 1, 1, inner=(2, 1)),
            BarCode(((1,) * 4, (3, 1), (4,))),
            MonomialIdeal(frozenset({Term((0, 0, 1)), Term((1, 0, 0)), Term((0, 4, 0))}), 3),
        )
        straight = ListedIdeal(
            PlanePartition((3, 3), ((5, 4, 3), (3, 2, 1)), 1, 1),
            BarCode(((1,) * 4, (1, 3), (4,))),
            MonomialIdeal(frozenset({Term((2, 0, 0)), Term((0, 1, 0)), Term((0, 0, 3))}), 3),
        )
        # two items of one layout that differ in every value written, the
        # second with a Bar Code whose row 2 is not its partition
        first = ListedIdeal(
            (4, 1), BarCode(((1,) * 5, (4, 1))),
            MonomialIdeal(frozenset({Term((4, 0)), Term((1, 1)), Term((0, 2))}), 2),
        )
        second = ListedIdeal(
            (3, 2), BarCode(((1,) * 5, (2, 3))),
            MonomialIdeal(frozenset({Term((3, 1)), Term((2, 2)), Term((1, 3))}), 2),
        )
        # and one that differs from them in its partition's length only
        third = ListedIdeal((5,), second.barcode, second.ideal)
        items = [skew, first, straight, *list_ideals(4, 2, "stable"), second, third, skew,
                 straight, first, *list_ideals(3, 3, "stable"), third, second]
        assert '"inner"' in json.dumps(skew.to_json())
        assert '"inner"' not in json.dumps(straight.to_json())
        want = json.dumps([item.to_json() for item in items], indent=2) + "\n"
        assert "".join(cli._framed(cli._listing_texts(items))) == want
        assert "".join(cli._framed(cli._listing_texts([]))) == "[]\n"

    @pytest.mark.parametrize("args", [
        ["--vars", "4", "--hilbert", "5"],
        ["--vars", "2", "--hilbert", "0"],
        ["--vars", "3", "--hilbert", "0"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_invalid_request_writes_nothing(self, tmp_path, capsys, args, fmt):
        target = tmp_path / "listing"
        for out in ([], ["--out", str(target)]):
            assert exit_code(["list", *args, "--class", "stable", "--format", fmt, *out]) == 2
            assert capsys.readouterr().out == ""
            assert not target.exists()


class TestGf:
    def test_strict_text(self, capsys):
        assert run(["gf", "strict", "--shape", "2,1", "--a", "4,3",
                    "--b", "1,1", "--c", "1", "--d", "1"]) == 0
        assert out_of(capsys) == (
            "x^4 + x^5 + 3*x^6 + 3*x^7 + 3*x^8 + 2*x^9 + x^10"
        )

    def test_shifted_json(self, capsys):
        assert run(["gf", "shifted", "--shape", "3,3,3", "--a", "6,3,1",
                    "--b", "1,1,1", "--c", "1", "--d", "0",
                    "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["coeffs"] == ["0"] * 15 + ["1", "2", "3", "3", "3", "2", "1"]

    def test_bad_bounds_exit_2(self, capsys):
        assert run(["gf", "strict", "--shape", "2,1", "--a", "1,3",
                    "--b", "1,1", "--c", "1", "--d", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_gf(self, capsys):
        assert run(["gf", "strict", "--shape", "2,1", "--a", "8,7",
                    "--b", "1,1", "--c", "1", "--d", "1",
                    "--truncate-at", "10", "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["coeffs"][10] == "11"
        assert len(doc["coeffs"]) == 11

    @pytest.mark.parametrize("args, bounds", [
        (["strict", "--shape", "1", "--a", "8", "--b=-2"], "a=(8,), b=(-2,)"),
        (["shifted", "--shape", "1", "--a=-2", "--b=-2"], "a=(-2,), b=(-2,)"),
    ])
    @pytest.mark.parametrize("truncate", [[], ["--truncate-at", "3"]])
    def test_negative_norms_exit_2_naming_the_bounds(self, capsys, args, bounds, truncate):
        # both bound chains hold, but an array of norm -2 exists
        assert run(["gf", *args, "--c", "0", "--d", "0", *truncate]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bounds {bounds} give terms below x^0")
        assert "negative norm" in captured.err

    def test_truncation_past_the_degree_answers_at_once(self, capsys):
        # the work stops at the degree bound, here 1, not at x^100000000
        assert run(["gf", "shifted", "--shape", "1", "--a", "1", "--b", "1", "--c", "1",
                    "--d", "0", "--truncate-at", "100000000"]) == 0
        assert out_of(capsys) == "x"

    def test_inner_shape_on_shifted_exits_2(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        assert run(["gf", "shifted", "--shape", "3,3", "--inner", "1,1", "--a", "5,3",
                    "--b", "1,1", "--c", "1", "--d", "0", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --inner applies to the strict variant only\n"
        assert not target.exists()

    def test_truncated_gf_keeps_every_coefficient(self, capsys):
        # the rows' least powers sum below zero; one array has norm 3 and
        # none has norm 4
        assert run(["gf", "strict", "--shape", "3,3", "--inner", "2,2", "--a", "2,2",
                    "--b", "1,1", "--c", "1", "--d", "1", "--truncate-at", "4"]) == 0
        assert out_of(capsys) == "x^3"


class TestOutOfMemory:
    @pytest.mark.parametrize("owner, name, argv", [
        (cli, "gf_strict", ["gf", "strict", "--shape", "3", "--a", "99999999999", "--b", "1",
                            "--c", "1", "--d", "1"]),
        (cli.counting, "census", ["count", "--vars", "3", "--hilbert", "5", "--class", "stable",
                                  "--breakdown", "--format", "json"]),
    ])
    def test_memory_error_exits_2_with_one_line(self, monkeypatch, capsys, tmp_path,
                                                 owner, name, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, name, exhausted)
        target = tmp_path / "out.txt"
        assert run([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: the request is too large\n"
        assert not target.exists()


@pytest.fixture
def clear_census_tables():
    """A function that clears the cached census matrices, called before and
    after a test that narrows their width, so no other test reads them."""
    def clear():
        for census_of in (qpolys._strict_census, qpolys._shifted_census):
            census_of.cache_clear()

    clear()
    yield clear
    clear()


class TestDigitOverflow:
    # a packed digit that overflows its width is a count that reads
    # negative: one line on stderr, exit 2 and no --out file
    def test_gf_one_bit_narrower(self, monkeypatch, capsys, tmp_path):
        # one array: the count width is 2 bits, and at 1 bit the answer's
        # one coefficient reads -1
        argv = ["gf", "strict", "--shape", "3,3,3", "--a", "5,4,3", "--b", "1,1,1",
                "--c", "1", "--d", "1"]
        assert run(argv) == 0
        assert out_of(capsys) == "x^27"
        monkeypatch.setattr(qpolys, "_digit_width", lambda bound: bound.bit_length())
        target = tmp_path / "out.txt"
        assert run([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bounds a=(5, 4, 3), b=(1, 1, 1) read -1 arrays of norm 27: "
                                "a digit overflowed the packed width\n")
        assert not target.exists()

    @pytest.mark.parametrize("klass, bits, total, err", [
        ("stable", 9, 646, "error: shape (3, 2, 1) at p = 20 read the count -116: "
                           "a digit overflowed the packed width\n"),
        ("strongly-stable", 8, 425, "error: shape (3, 2) at p = 20 read the count -55: "
                                    "a digit overflowed the packed width\n"),
    ])
    def test_count_one_bit_narrower(self, monkeypatch, capsys, tmp_path, clear_census_tables,
                                    klass, bits, total, err):
        # at p = 20 the census is right at the given width, where the row-
        # strict count gives 15 bits, and one bit narrower a count overflows
        argv = ["count", "--vars", "3", "--class", klass, "--hilbert", "20"]
        for width in (bits, bits - 1):
            monkeypatch.setattr(qpolys, "_row_strict_count", lambda p: (1 << width - 1) - 1)
            clear_census_tables()
            target = tmp_path / f"out{width}.txt"
            code = run([*argv, "--out", str(target)])
            captured = capsys.readouterr()
            assert captured.out == ""
            if width == bits:
                assert code == 0
                assert target.read_text() == f"total: {total}\n" and captured.err == ""
            else:
                assert code == 2 and captured.err == err and not target.exists()

    def test_other_arithmetic_errors_keep_their_traceback(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "gf_strict", broken)
        with pytest.raises(ZeroDivisionError):
            run(["gf", "strict", "--shape", "1", "--a", "1", "--b", "1", "--c", "1", "--d", "1"])


class TestPartitions:
    def test_enumerate(self, capsys):
        assert run(["partitions", "enumerate", "--shape", "2,1", "--c", "1",
                    "--d", "1", "--a", "4,3", "--b", "1,1", "--norm", "8",
                    "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert [d["rows"] for d in doc] == [
            [[4, 3], [1]], [[4, 2], [2]], [[4, 1], [3]],
        ]

    def test_count(self, capsys):
        assert run(["partitions", "count", "--shape", "3,3,3", "--shifted",
                    "--c", "1", "--d", "0", "--a", "6,3,1", "--b", "1,1,1",
                    "--norm", "17"]) == 0
        assert out_of(capsys) == "3"

    def test_validate_plane(self, tmp_path, capsys):
        doc = {"shape": [3, 2], "shifted": False, "c": 1, "d": 1,
               "rows": [[5, 4, 3], [4, 1]]}
        path = tmp_path / "pp.json"
        path.write_text(json.dumps(doc))
        assert run(["partitions", "validate", "--in", str(path)]) == 0
        assert out_of(capsys) == "valid"

    def test_validate_solid_invalid(self, tmp_path, capsys):
        doc = {"kind": "strict", "dimension": 3, "layers": [[[2]], [[2]]]}
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(doc))
        assert run(["partitions", "validate", "--in", str(path)]) == 1
        assert out_of(capsys) == "not valid"

    @pytest.mark.parametrize("dimension, code, answer", [
        (255, 0, "valid"), (256, 2, ""), (300, 2, "")])
    def test_validate_solid_of_high_dimension(self, tmp_path, capsys, dimension, code, answer):
        # one entry 1 nested dimension deep: its length structures nest one
        # level less each; a solid of dimension 255 nests 256 levels, the
        # most a JSON input may
        layers = 1
        for _ in range(dimension):
            layers = [layers]
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"kind": "strict", "dimension": dimension, "layers": layers}))
        assert run(["partitions", "validate", "--in", str(path)]) == code
        assert out_of(capsys) == answer

    def test_validate_solid_boolean_entry_invalid(self, tmp_path, capsys):
        doc = {"kind": "strict", "dimension": 3, "layers": [[[2, True], [1]], [[1]]]}
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(doc))
        assert run(["partitions", "validate", "--in", str(path)]) == 1
        assert out_of(capsys) == "not valid"

    @pytest.mark.parametrize("shape, c, d, norm", [
        ("1000", "1", "1", "500500"), (",".join(["30"] * 35), "0", "0", "1050")],
        ids=["one-row", "35-rows"])
    def test_count_past_the_recursion_limit(self, capsys, shape, c, d, norm):
        # 1000 and 1050 cells, each array the only one of its norm
        assert run(["partitions", "count", "--shape", shape, "--c", c, "--d", d,
                    "--norm", norm]) == 0
        assert out_of(capsys) == "1"

    def test_missing_shape_is_an_error(self, capsys):
        assert run(["partitions", "enumerate", "--norm", "4"]) == 2

    def test_last_bounds_default_to_ones(self, capsys):
        assert run(["partitions", "count", "--shape", "2,2", "--shifted",
                    "--c", "1", "--d", "0", "--norm", "10"]) == 0
        assert out_of(capsys) == "7"


class TestBarcode:
    def test_encode_json(self, capsys):
        assert run(["barcode", "encode", "1", "x1", "x2", "x3",
                    "--vars", "3", "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc == {"n": 3, "width": 4, "rows": [[1, 1, 1, 1], [2, 1, 1], [3, 1]]}

    def test_check_not_admissible(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(EX_47_CODE))
        assert run(["barcode", "check", "--in", str(path)]) == 1
        assert out_of(capsys) == "not admissible"

    def test_check_admissible(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"n": 2, "width": 3, "rows": [[1, 1, 1], [2, 1]]}))
        assert run(["barcode", "check", "--in", str(path)]) == 0
        assert out_of(capsys) == "admissible"

    def test_decode(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(EX_47_CODE))
        assert run(["barcode", "decode", "--in", str(path)]) == 0
        assert out_of(capsys) == "1 x1 x3 x2*x3 x2^2*x3"

    def test_render_svg_to_file(self, tmp_path, capsys):
        code = tmp_path / "code.json"
        code.write_text(json.dumps(EX_47_CODE))
        target = tmp_path / "code.svg"
        assert run(["barcode", "render", "--in", str(code),
                    "--render-format", "svg", "--labels",
                    "--out", str(target)]) == 0
        root = ET.fromstring(target.read_text())
        assert root.tag.endswith("svg")

    def test_top_level_render_alias(self, tmp_path, capsys):
        code = tmp_path / "code.json"
        code.write_text(json.dumps(EX_47_CODE))
        assert run(["render", "--in", str(code)]) == 0
        assert len(out_of(capsys).splitlines()) == 3

    def test_malformed_code_exit_2(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"n": 2, "width": 3, "rows": [[1, 1, 1], [2, 2]]}))
        assert run(["barcode", "check", "--in", str(path)]) == 2


class TestMalformedDocuments:
    # A document of the wrong shape is an error (exit 2), never a "not valid"
    # or "not admissible" answer (exit 1) or a traceback.
    @pytest.mark.parametrize("argv, doc", [
        (["partitions", "validate"], [1, 2]),
        (["partitions", "validate"], None),
        (["partitions", "validate"], {"shape": [2]}),
        (["partitions", "validate"],
         {"shape": [2], "rows": [["a", "b"]], "c": 1, "d": 1}),
        (["partitions", "validate"], {"shape": [2], "rows": [2, 1], "c": 1, "d": 1}),
        (["partitions", "validate"], {"shape": [2], "rows": [[2, 1]], "c": [1], "d": 1}),
        (["partitions", "validate"], {"kind": "strict", "layers": [[[1]]], "dimension": [3]}),
        (["barcode", "decode"], [1]),
        (["barcode", "render"], {"n": 3}),
        (["barcode", "check"], {"rows": [1]}),
        # a JSON boolean is not an integer
        (["partitions", "validate"],
         {"shape": [2, 1], "rows": [[True, 1], [1]], "c": False, "d": 0}),
        (["barcode", "decode"], {"rows": [[True, True], [2]]}),
        (["barcode", "check"], {"rows": [[True, True], [2]]}),
        (["barcode", "render"], {"rows": [[1]], "n": True}),
        (["barcode", "render"], {"rows": [[1], [1]], "width": True}),
        # and a string is not a boolean
        (["partitions", "validate"],
         {"shape": [3, 3], "shifted": "false", "rows": [[3, 2, 1], [2, 1]], "c": 1, "d": 0}),
    ])
    def test_file_exit_2(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(argv + ["--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["partitions", "validate"], ["barcode", "decode"], ["barcode", "check"],
        ["barcode", "render"]])
    @pytest.mark.parametrize("text", [
        # too deep for json.load
        "[" * 100000 + "]" * 100000,
        # read by json.load, but deeper than the readers recurse
        '{"kind": "strict", "dimension": 3, "layers": ' + "[" * 900 + "1" + "]" * 900 + "}",
    ])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert run(argv + ["--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON input nested deeper than 256 levels\n"

    def test_stdin_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO('"x"'))
        assert run(["barcode", "check", "--in", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestTermSets:
    def test_starset_json(self, capsys):
        assert run(["starset", "1", "x1", "x2", "x3", "--vars", "3",
                    "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc == [[2, 0, 0], [1, 1, 0], [0, 2, 0],
                       [1, 0, 1], [0, 1, 1], [0, 0, 2]]

    def test_pommaret_text(self, capsys):
        assert run(["pommaret", "1", "x1", "--vars", "2"]) == 0
        assert out_of(capsys) == "x1^2 x2"

    def test_starset_rejects_non_order_ideal(self, capsys):
        assert run(["starset", "x1", "--vars", "2"]) == 2

    def test_check_stable(self, capsys):
        args = ["x1^3", "x1*x2", "x2^2", "x1^2*x3", "x2*x3", "x3^2", "--vars", "3"]
        assert run(["check-stable"] + args) == 0
        assert out_of(capsys) == "stable"
        assert run(["check-strongly-stable"] + args) == 1
        assert out_of(capsys) == "not strongly-stable"

    def test_check_strongly_stable_json(self, capsys):
        assert run(["check-strongly-stable", "x1^2", "x1*x2", "x2^2", "x3",
                    "--vars", "3", "--format", "json"]) == 0
        assert json.loads(out_of(capsys)) == {"strongly_stable": True}


class TestVerifyAndConjecture:
    def test_verify_two_vars(self, capsys):
        assert run(["verify", "--vars", "2", "--max-p", "8",
                    "--class", "stable"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "p | pipeline | oracle | status"
        assert lines[-1] == "ok"

    def test_verify_three_vars_json(self, capsys):
        assert run(["verify", "--vars", "3", "--max-p", "6",
                    "--class", "strongly-stable", "--format", "json"]) == 0
        doc = json.loads(out_of(capsys))
        assert doc["ok"] is True
        assert len(doc["rows"]) == 6

    @pytest.mark.parametrize("vars_, max_p", [(2, 25), (3, 13), (2, 0)])
    def test_verify_checks_max_p_first(self, capsys, monkeypatch, vars_, max_p):
        def no_work(*args):
            raise AssertionError("counted before checking --max-p")
        monkeypatch.setattr("escalier.counting.census", no_work)
        monkeypatch.setattr("escalier.counting.count_2vars", no_work)
        assert run(["verify", "--vars", str(vars_), "--max-p", str(max_p),
                    "--class", "stable"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_verify_bad_cap_override_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ESCALIER_ORACLE_CAP_N3", value)
        assert run(["verify", "--vars", "3", "--max-p", "3",
                    "--class", "stable"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "ESCALIER_ORACLE_CAP_N3" in captured.err

    def test_conjecture_report(self, capsys):
        assert run(["conjecture", "--hilbert", "4", "--class", "stable"]) == 0
        out = out_of(capsys)
        assert "bar list | ideals | partitions | status" in out
        assert out.endswith("all agree")


def _json_documents():
    scalars = (st.none() | st.booleans()
               | st.integers(min_value=-2**70, max_value=2**70)
               | st.floats(allow_nan=True, allow_infinity=True) | st.text())
    return st.recursive(
        scalars,
        lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                      | st.dictionaries(st.text(), kids)),
        max_leaves=30,
    )


class TestIndentedJson:
    # The CLI's writer must give exactly the bytes of json.dumps(doc, indent=2).
    @settings(deadline=None, max_examples=300)
    @given(_json_documents())
    def test_matches_json_dumps(self, doc):
        assert "".join(cli._json_chunks(doc)) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        [[True, False], [1, True], [0, 1], ["a", True], [None, 1], [1.5, 2]],
        ["caf\u00e9", "\x00\n\"\\", "\ud83d\ude00"],
        {"": [], "k": {}, "nan": [float("nan"), float("-inf")], "big": [2**64, -2**65]},
        (), [], {}, 7, "x",
    ])
    def test_fixed_documents(self, doc):
        assert "".join(cli._json_chunks(doc)) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        [], [7], [[1, 2], [True, 2], [1.0, 2], [1, 2], {"k": [1, 2]}, [[1, 2]]],
        # a long list, with each integer list twice
        [[i % 5000, 1] for i in range(10000)],
    ])
    def test_top_level_list_item_by_item(self, doc):
        assert "".join(cli._json_chunks(doc)) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [{1: 2}, [{"a": {(1, 2): 3}}], {None: []}])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(doc))

    @pytest.mark.parametrize("argv", [
        ["count", "--vars", "3", "--hilbert", "10", "--class", "stable"],
        ["count", "--vars", "3", "--hilbert", "10", "--class", "strongly-stable",
         "--breakdown"],
        ["list", "--vars", "2", "--hilbert", "6", "--class", "stable"],
        ["list", "--vars", "3", "--hilbert", "6", "--class", "strongly-stable"],
        ["list", "--vars", "3", "--hilbert", "6", "--class", "stable"],
        ["verify", "--vars", "3", "--max-p", "5", "--class", "stable"],
        ["gf", "shifted", "--shape", "3,3,3", "--a", "6,3,1", "--b", "1,1,1",
         "--c", "1", "--d", "0"],
        ["conjecture", "--hilbert", "4", "--class", "strongly-stable"],
        ["partitions", "enumerate", "--shape", "2,1", "--a", "4,3",
         "--b", "1,1", "--norm", "8"],
        ["barcode", "encode", "1", "x1", "x2", "x3", "--vars", "3"],
        ["barcode", "decode", "--in", "CODE"],
        ["barcode", "check", "--in", "CODE"],
        ["starset", "1", "x1", "x2", "x3", "--vars", "3"],
        ["pommaret", "1", "x1", "x2", "--vars", "3"],
        ["check-stable", "x1^2", "x1*x2", "x2^2", "--vars", "2"],
        ["check-strongly-stable", "x1^2", "x2", "--vars", "2"],
    ])
    def test_cli_output_is_json_dumps_indent_2(self, tmp_path, capsys, argv):
        code = tmp_path / "code.json"
        code.write_text(json.dumps(EX_47_CODE))
        argv = [str(code) if a == "CODE" else a for a in argv]
        assert run(argv + ["--format", "json"]) in (0, 1)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        for fmt in ("json", "text"):
            argv = ["list", "--vars", "2", "--hilbert", "12", "--class", "stable",
                    "--format", fmt]
            target = tmp_path / f"listing.{fmt}"
            assert run(argv) == 0
            stdout = capsys.readouterr().out
            assert run(argv + ["--out", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == stdout.encode("utf-8")


def parse(parser, argv):
    """Exit code, stdout and stderr of parser.parse_args(argv), which is
    expected to exit (help or an argument error)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exited, redirect_stdout(out), redirect_stderr(err):
        parser.parse_args(argv)
    return exited.value.code, out.getvalue(), err.getvalue()


# Every subcommand, with barcode's actions, and arguments that make its
# parser print its help or report one argument error.
PARSER_CASES = [
    ["count", "--vars", "4", "--hilbert", "3", "--class", "stable"],
    ["list", "--vars", "2", "--hilbert", "x", "--class", "stable"],
    ["gf", "nope", "--shape", "2"],
    ["partitions", "frobnicate"],
    ["barcode", "nosuch"],
    ["barcode", "encode"],
    ["barcode", "decode", "--format", "xml"],
    ["barcode", "check", "--in"],
    ["barcode", "render", "--render-format", "png"],
    ["render", "--render-format", "png"],
    ["starset", "--vars", "x", "x1"],
    ["pommaret"],
    ["check-stable", "--format"],
    ["check-strongly-stable", "x1", "--vars"],
    ["verify", "--vars", "3", "--max-p", "x", "--class", "stable"],
    ["conjecture", "--hilbert", "3", "--class", "oops"],
    # errors that the top-level parser reports, with its usage line
    ["count", "--vars", "2", "--hilbert", "3", "--class", "stable", "extra"],
    ["barcode", "decode", "--bogus"],
    ["render", "list"],
]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
    def test_one_subcommand_reads_as_the_whole_parser(self, argv):
        whole = cli.build_parser()
        one = cli.build_parser(argv[0])
        action = argv[0] == "barcode" and argv[1] in ("encode", "decode", "check", "render")
        for args in (argv[:1 + action] + ["--help"], argv):
            got = parse(one, args)
            assert got == parse(whole, args), args
            assert got[0] == (0 if "--help" in args else 2)
        code, out, err = parse(one, argv)
        assert code == 2 and out == "" and ": error: " in err

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2), (["nosuch"], 2),
                                            (["-h", "count"], 0), (["Count"], 2)])
    def test_no_subcommand_falls_back_to_the_whole_parser(self, capsys, argv, code):
        want = parse(cli.build_parser(), argv)
        with pytest.raises(SystemExit) as exited:
            run(argv)
        captured = capsys.readouterr()
        assert (exited.value.code, captured.out, captured.err) == want
        assert want[0] == code
        text = want[1] + want[2]
        assert "{" + ",".join(cli._COMMANDS) + "}" in text
        if code == 0:
            for name, (helptext, _) in cli._COMMANDS.items():
                assert name in text and helptext in text

    @pytest.mark.parametrize("argv, built", [
        (["count", "--vars", "2", "--hilbert", "3", "--class", "stable"], ["count"]),
        (["check-stable", "x1", "--vars", "1"], ["check-stable"]),
        (["barcode", "encode", "x1"], ["barcode", "encode", "decode", "check", "render"]),
    ])
    def test_run_builds_only_the_named_subparser(self, monkeypatch, capsys, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        assert run(argv) == 0
        assert names == built
        names.clear()
        with pytest.raises(SystemExit):
            run(["nosuch"])
        # no subcommand named: the whole parser, barcode's actions included
        commands = list(cli._COMMANDS)
        assert names == commands[:5] + ["encode", "decode", "check", "render"] + commands[5:]


def test_cli_import_skips_network_and_xml_modules():
    # barcode escapes SVG labels itself: xml.sax.saxutils would pull in
    # urllib.request, http.client, email and ssl on every CLI start-up.
    # The records are plain classes: dataclasses would pull in inspect, ast
    # and tokenize.  -S keeps site's own imports from hiding the package's.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    heavy = ("xml.sax", "http.client", "email", "ssl",
             "dataclasses", "inspect", "ast", "tokenize", "typing")
    code = ("import sys, escalier.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_declared_script(args, cwd):
    """Run the ``escalier`` entry point that ``pyproject.toml`` declares.

    The child process does what a pip-generated console-script wrapper
    does, but imports the package from this checkout's ``src``, so the
    test needs no installed script and never picks up a stale one.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["escalier"]
    module, attr = target.split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=60)


def test_console_script_entry_point(tmp_path):
    proc = run_declared_script(
        ["count", "--vars", "2", "--hilbert", "10", "--class", "stable"],
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "total: 10"
    # main() must pass run()'s return code on as the exit status.
    proc = run_declared_script(
        ["count", "--vars", "2", "--hilbert", "0", "--class", "stable"],
        tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.skipif(shutil.which("escalier") is None,
                    reason="no installed escalier script on PATH")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["escalier", "count", "--vars", "2", "--hilbert", "10",
         "--class", "stable"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "total: 10"
