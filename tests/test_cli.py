import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from escalier.cli import run

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

    def test_no_truncate_agrees(self, capsys):
        run(["count", "--vars", "3", "--hilbert", "8", "--class", "stable"])
        a = out_of(capsys)
        run(["count", "--vars", "3", "--hilbert", "8", "--class", "stable",
             "--no-truncate"])
        assert out_of(capsys) == a
        run(["count", "--vars", "3", "--hilbert", "8", "--class", "strongly-stable"])
        b = out_of(capsys)
        assert run(["count", "--vars", "3", "--hilbert", "8", "--class",
                    "strongly-stable", "--no-truncate"]) == 0
        assert out_of(capsys) == b

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

    def test_conjecture_report(self, capsys):
        assert run(["conjecture", "--hilbert", "4", "--class", "stable"]) == 0
        out = out_of(capsys)
        assert "bar list | ideals | partitions | status" in out
        assert out.endswith("all agree")


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
