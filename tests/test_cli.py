import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import germcalc
from conftest import patch_stage
from germcalc.cli_corpus import corpus
from germcalc.cli_corpus.cli import main


def data_path(name, tmp_path):
    target = tmp_path / name
    target.write_text(corpus.read_data(name), encoding="utf-8")
    return str(target)


def graph_path(tmp_path, name, self_ints, edges):
    """Write a graph of exceptional curves e0, e1, ... and one component c on e0."""
    lines = [f"vertex e{i} kind=exc self={s}" for i, s in enumerate(self_ints)]
    lines += ["vertex c kind=comp self=-1", "edge e0 c"]
    lines += [f"edge e{a} e{b}" for a, b in edges]
    target = tmp_path / name
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(target)


def star_path(tmp_path):
    # a -2 centre with arms -4, -4, -2: K.C of the component is 0
    return graph_path(tmp_path, "star.graph", (-2, -4, -4, -2), ((0, 1), (0, 2), (0, 3)))


def triangle_path(tmp_path):
    # a cycle of three -2 curves is not negative definite
    return graph_path(tmp_path, "triangle.graph", (-2, -2, -2), ((0, 1), (1, 2), (2, 0)))


class TestAnalyze:
    def test_star_report(self, tmp_path, capsys):
        rc = main(["analyze", data_path("iidual_cb5.graph", tmp_path),
                   "--point-index", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "codiscrepancy: e0=1 e1=3/4 e2=3/4 e3=1/2" in out
        assert "K.C(c1) = -1/4" in out
        assert "K.C(c0) = -1/2" in out
        assert "germ feasible: yes" in out
        assert "imprimitive, splitting degree 2" in out

    def test_chain_report(self, tmp_path, capsys):
        rc = main(["analyze", data_path("k1a_a_m3.graph", tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chain [2,5] -> 1/9(1,5)" in out
        assert "class T: yes, index 3" in out
        assert "K.C(c1) = -1/3" in out
        assert "K.C(c2) = -1/3" in out

    def test_detached_cluster_note(self, tmp_path, capsys):
        rc = main(["analyze", data_path("cd3_a.graph", tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Du Val: A1" in out
        assert "detached Du Val cluster" in out

    def test_degree_zero_is_infeasible(self, tmp_path, capsys):
        rc = main(["analyze", star_path(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K.C(c) = 0  [NOT K-negative] (degree 0: infeasible)\ngerm feasible: no\n" in out

    def test_no_recognised_index_note(self, tmp_path, capsys):
        rc = main(["analyze", data_path("iidual_cb5.graph", tmp_path), "--assume-generator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "primitivity (" not in out
        assert out.endswith("note: some cluster has no recognised index; pass --point-index "
                            "to enable its primitivity lines\n")

    def test_mismatched_assumed_index_is_a_note(self, tmp_path, capsys):
        # cluster 2's local classes have denominator 5, which 4 does not divide;
        # cluster 1 is class T of index 2 and keeps its primitivity line
        path = data_path("kad_cb4.graph", tmp_path)
        rc = main(["analyze", path, "--point-index", "4", "--assume-generator"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K.C(c1) = -1/10  [K-negative]\n" in out
        assert "  c1 at cluster 1 (index 2): local class 1/2, image order 2, primitive\n" in out
        assert "at cluster 2 (index 4)" not in out
        assert ("note: c3 at cluster 2: local class 4/5 has denominator 5, which does not "
                "divide the index 4; no primitivity line\n") in out
        rc = main(["--json", "analyze", path, "--point-index", "4", "--assume-generator"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [(p["component"], p["cluster"]) for p in payload["primitivity"]] == [("c1", 1)]
        assert sum("does not divide the index 4" in n for n in payload["notes"]) == 4
        # an index below 2 stays an input error, not a note
        assert main(["analyze", path, "--point-index", "1", "--assume-generator"]) == 2
        assert capsys.readouterr().err == (
            "error: --point-index 1 is below 2, the smallest index of a non-Gorenstein point\n")

    def test_noncontractible_cluster_text(self, tmp_path, capsys):
        rc = main(["analyze", triangle_path(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "graph: 4 vertices (3 exceptional, 1 components)\n"
            "tree: no\n"
            "cluster 1: e0 e1 e2 (other), negative definite: no\n"
            "  cluster is not contractible\n"
            "note: skipping degree report: some cluster is not contractible\n"
        )

    def test_json_mirror(self, tmp_path, capsys):
        path = data_path("k1a_c_k2.graph", tmp_path)
        rc = main(["--json", "analyze", path])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["clusters"][0]["quot"] == "1/144(1,59)"
        assert payload["clusters"][0]["t_index"] == 12

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertex a kind=exc self=-2\nedge a a\n", encoding="utf-8")
        rc = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2" in err

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.graph"
        empty.write_text("", encoding="utf-8")
        assert main(["analyze", str(empty)]) == 2

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.graph"]) == 2


class TestQuotCommands:
    def test_quot(self, capsys):
        rc = main(["quot", "3,2,5,4,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/144(1,59)" in out
        assert "class T: yes, index 12" in out

    def test_quot_du_val(self, capsys):
        main(["quot", "2,2,2"])
        out = capsys.readouterr().out
        assert "Du Val: A3" in out
        assert "class T: no" in out

    def test_quot_rejects_bad_entries(self, capsys):
        assert main(["quot", "1,3"]) == 2

    def test_quot_prints_the_parsed_entries(self, capsys):
        assert main(["quot", " 3, 2,+5"]) == 0
        assert capsys.readouterr().out == "chain [3,2,5] -> 1/22(1,9)\nDu Val: no\nclass T: no\n"

    def test_tchain(self, capsys):
        rc = main(["tchain", "9", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chain [2,5]" in out
        assert "base [4]" in out

    def test_tchain_not_class_t(self, capsys):
        assert main(["tchain", "7", "2"]) == 0
        assert capsys.readouterr().out == "1/7(1,2) -> chain [4,2]\nclass T: no\n"

    def test_tchain_rejects_non_coprime(self, capsys):
        assert main(["tchain", "9", "3"]) == 2

    def test_tchain_of_index_1100_in_a_child_process(self):
        # 1/1100^2(1, 1100*1099 - 1): a Wahl chain of 1,099 entries
        src = str(Path(germcalc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "germcalc.cli_corpus.cli", "tchain", "1210000", "1208899"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        assert "class T: yes, index 1100 (d=1, m=1100, a=1099)" in done.stdout


class TestClassify:
    def test_accepted(self, tmp_path, capsys):
        rc = main(["classify", data_path("iidual_cb5.descr", tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "accepted: row 6" in out

    def test_rejected_bound(self, tmp_path, capsys):
        text = "component IIA\n" * 5 + "kind f\npoint index=4 tag=cAx/4\n"
        path = tmp_path / "five.descr"
        path.write_text(text, encoding="utf-8")
        rc = main(["classify", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "bound 4" in out

    def test_forbidden_citation(self, tmp_path, capsys):
        path = tmp_path / "pair.descr"
        path.write_text("component IC\ncomponent k2A\nkind f\n", encoding="utf-8")
        rc = main(["classify", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Theorem 3.2" in out


class TestFlipCommand:
    def test_two_targets(self, capsys):
        rc = main(["flip", "--index", "4", "--kc=-1/4", "--plus-indices", "2,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flipped degree 1/6" in out

    def test_bad_input(self, capsys):
        assert main(["flip", "--index", "4", "--kc=1/4"]) == 2

    def test_prints_the_parsed_degree(self, capsys):
        argv = ["flip", "--index", "4", "--kc= -1/4", "--plus-indices", "2,3"]
        for kc in ("--kc= -1/4", "--kc=-0.25"):  # a fraction or a decimal
            assert main([*argv[:3], kc, *argv[4:]]) == 0
            assert capsys.readouterr().out == (
                "index 4, degree -1/4, flipped index 6 -> flipped degree 1/6\n")
        assert main(["--json", *argv]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "index": 4, "kc": "-1/4", "plus_indices": [2, 3], "index_plus": 6, "kc_plus": "1/6"}

    def test_help_spells_a_negative_degree_with_equals(self, capsys):
        # "--kc -1/4" reads -1/4 as a flag, so the example must use "="
        with pytest.raises(SystemExit) as exit_info:
            main(["flip", "--help"])
        assert exit_info.value.code == 0
        assert "--kc=-1/4" in " ".join(capsys.readouterr().out.split())


class TestJsonOutput:
    @pytest.mark.parametrize("argv, code", [
        (["analyze", "{data}/k1a_a_m3.graph"], 0),
        (["analyze", "{triangle}"], 0),
        (["verify-paper", "--sweep-max", "9"], 0),
        (["quot", "3,2,5,4,2"], 0),
        (["quot", "2,2,2"], 0),
        (["tchain", "9", "5"], 0),
        (["tchain", "7", "2"], 0),
        (["classify", "{data}/iidual_cb5.descr"], 0),
        (["classify", "{five}"], 1),
        (["flip", "--index", "4", "--kc=-1/4", "--plus-indices", "2,3"], 0),
        (["ic-disprove", "--m", "5", "--mprime", "3", "--aprime", "2"], 0),
        (["ic-disprove", "--m", "5", "--mprime", "3", "--aprime", "1"], 2),
        (["ic-disprove", "--sweep-max", "9"], 0),
        (["kad-disprove", "--m", "3", "--mprime", "5", "--aprime", "3", "--subcase", "k3a"], 0),
        (["kad-disprove", "--m", "3", "--mprime", "3", "--aprime", "1", "--subcase", "k3a"], 2),
        (["kad-disprove", "--subcase", "kad", "--sweep-max", "9"], 0),
    ], ids=["analyze-chain", "analyze-noncontractible", "verify-paper", "quot-class-t",
            "quot-not-t", "tchain-class-t", "tchain-not-t", "classify-accepted",
            "classify-rejected", "flip", "ic-trace", "ic-rejected", "ic-sweep", "k3a-trace",
            "k3a-rejected", "kad-sweep"])
    def test_every_subcommand_prints_one_json_object(self, tmp_path, capsys, argv, code):
        five = tmp_path / "five.descr"
        five.write_text("component IIA\n" * 5 + "kind f\npoint index=4 tag=cAx/4\n",
                        encoding="utf-8")
        paths = {"data": str(Path(corpus.__file__).parent / "data"),
                 "triangle": triangle_path(tmp_path), "five": str(five)}
        assert main(["--json", *(a.format(**paths) for a in argv)]) == code
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        assert captured.err == ""


class TestOutputErrors:
    def test_broken_pipe_is_one_error_line(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["quot", "3,2,5,4,2"]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestInputErrors:
    DESCRIPTORS = {
        "descr": "component IIA\nkind q\n",
        "two_types": "component IIA IIB\nkind cb\n",
        "two_kinds": "component IIA\nkind cb d\n",
        "stray": "component IIA\ncomponent IIA\nkind cb\npoint index=4 tag=cAx/4 foo=1 bar\n",
        "no_component": "kind cb\n",
    }

    @pytest.mark.parametrize("argv, message", [
        (["classify", "/nonexistent.descr"],
         "[Errno 2] No such file or directory: '/nonexistent.descr'"),
        (["classify", "{descr}"], "line 2: unknown kind 'q'"),
        (["flip", "--index", "4", "--kc=1/0"], "Fraction(1, 0)"),
        (["flip", "--index", "4", "--kc=abc"], "Invalid literal for Fraction: 'abc'"),
        (["quot", "a,b"], "chain 'a,b' is not a comma-separated list of integers"),
        (["tchain", "0", "1"], "order n must be >= 2"),
        (["analyze", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
        (["analyze", "{graph}", "--point-index", "0"],
         "--point-index 0 is below 2, the smallest index of a non-Gorenstein point"),
        (["classify", "{two_types}"], "line 1: component line needs: component <type>"),
        (["classify", "{two_kinds}"], "line 2: kind line needs: kind f|d|cb"),
        (["classify", "{stray}"],
         "line 4: point line needs: point index=<m> tag=<string> [ell=<r>]"),
        (["classify", "{no_component}"], "descriptor needs at least one component"),
        (["ic-disprove", "--m", "5", "--mprime", "3", "--aprime", "2", "--sweep-max", "9"],
         "provide --m/--mprime/--aprime or --sweep-max, not both"),
        (["kad-disprove", "--subcase", "kad", "--aprime", "2", "--sweep-max", "9"],
         "provide --m/--mprime/--aprime or --sweep-max, not both"),
        (["flip", "--index", "4", "--kc=-1/4", "--plus-indices", "2,,3"],
         "--plus-indices '2,,3' is not a comma-separated list of integers"),
        (["quot", "3,,2"], "chain '3,,2' is not a comma-separated list of integers"),
        # an index below 2 is rejected before the file is read, whatever the graph
        (["analyze", "{k1a}", "--point-index", "1"],
         "--point-index 1 is below 2, the smallest index of a non-Gorenstein point"),
        (["analyze", "{k1a}", "--point-index", "0"],
         "--point-index 0 is below 2, the smallest index of a non-Gorenstein point"),
        (["analyze", "{k1a}", "--point-index", "-3", "--assume-generator"],
         "--point-index -3 is below 2, the smallest index of a non-Gorenstein point"),
        (["analyze", "{cd3}", "--point-index", "1"],
         "--point-index 1 is below 2, the smallest index of a non-Gorenstein point"),
        (["analyze", "/nonexistent.graph", "--point-index", "1"],
         "--point-index 1 is below 2, the smallest index of a non-Gorenstein point"),
        # exponent notation is refused before Fraction expands 1e<n> to n digits
        (["flip", "--index", "4", "--kc=-1e5000"],
         "--kc '-1e5000' is in exponent notation; give p/q or a decimal"),
        (["flip", "--index", "4", "--kc=-1e10000000"],
         "--kc '-1e10000000' is in exponent notation; give p/q or a decimal"),
        (["flip", "--index", "4", "--kc=-2.5E-1"],
         "--kc '-2.5E-1' is in exponent notation; give p/q or a decimal"),
    ])
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, argv, message):
        paths = {"dir": str(tmp_path), "graph": data_path("iidual_cb5.graph", tmp_path),
                 "k1a": data_path("k1a_a_m3.graph", tmp_path),
                 "cd3": data_path("cd3_a.graph", tmp_path)}
        for name, text in self.DESCRIPTORS.items():
            paths[name] = str(tmp_path / f"{name}.descr")
            (tmp_path / f"{name}.descr").write_text(text, encoding="utf-8")
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(**paths)}\n"



class TestBigIntegers:
    """A valid integer longer than the interpreter's digit limit ends in exit 2
    with a short last line that names the limit, and an ordinary bad value
    keeps its message, quoting at most 20 characters of a long token."""

    BIG = "9" * 5000
    LIMIT = sys.get_int_max_str_digits()
    FILES = {  # name -> text, {big} standing for BIG
        "graph": "vertex v kind=exc self=-{big}\nvertex c kind=comp self=-1\nedge v c\n",
        "descr": "component IIA\nkind cb\npoint index={big} tag=cAx/4\n",
        "quotient_tag":
            "component IC\ncomponent k1A\nkind f\npoint index=5 tag=1/{big}(2,3,1)\n",
        "index_tag": "component k1A\ncomponent k1A\nkind f\npoint index=3 tag=cA/{big}\n",
        "cd3_tag": "component cD3\ncomponent cD3\nkind f\npoint index=3 tag=cD/{big}\n",
        "point_field": "component IIA\nkind cb\npoint index={x} tag=cAx/4\n",
    }

    def paths(self, tmp_path) -> dict:
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text.format(big=self.BIG, x="x" * 5000),
                                         encoding="utf-8")
        return {name: tmp_path / name for name in self.FILES}

    @pytest.mark.parametrize("argv", [
        ["analyze", "{graph}"],
        ["quot", "3,{big}"],
        ["tchain", "12", "{big}"],
        ["ic-disprove", "--m", "{big}", "--mprime", "3", "--aprime", "2"],
        ["flip", "--index", "4", "--kc=-1/{big}"],
        ["classify", "{descr}"],
        ["classify", "{quotient_tag}"],
        ["classify", "{index_tag}"],
    ], ids=["analyze", "quot", "tchain", "ic-disprove", "flip", "classify",
            "classify-quotient-tag", "classify-index-tag"])
    def test_short_line_naming_the_limit(self, tmp_path, capsys, argv):
        argv = [a.format(big=self.BIG, **self.paths(tmp_path)) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exit_info:  # argparse's usage errors
            code = exit_info.code
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert code == 2 and captured.out == ""
        assert len(last.encode()) <= 200
        assert "99999999999999...' holds" in last and "bad self-intersection" not in last
        assert f"holds a 5000-digit integer, over this interpreter's limit of {self.LIMIT} " \
               "digits" in last

    @pytest.mark.parametrize("argv, message", [
        (["tchain", "12", "x"], "germcalc tchain: error: argument q: invalid int value: 'x'"),
        (["ic-disprove", "--m", "1.5"],
         "germcalc ic-disprove: error: argument --m: invalid int value: '1.5'"),
        (["tchain", "12", "{x}"],
         "germcalc tchain: error: argument q: invalid int value: 'xxxxxxxxxxxxxxxxxxxx...'"),
    ], ids=["tchain", "ic-disprove", "tchain-long"])
    def test_argparse_keeps_its_message_for_a_bad_int(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main([a.format(x="x" * 5000) for a in argv])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize("argv, code, line", [
        (["quot", "3,{x}"], 2,
         "error: chain '3,xxxxxxxxxxxxxxxxxx...' is not a comma-separated list of integers"),
        (["flip", "--index", "4", "--kc={x}"], 2,
         "error: Invalid literal for Fraction: 'xxxxxxxxxxxxxxxxxxxx...'"),
        (["analyze", "{graph}"], 2,
         "error: line 2: edge references unknown vertex 'xxxxxxxxxxxxxxxxxxxx...'"),
        (["classify", "{cd3_tag}"], 1,
         "rejected: tag 'cD/99999999999999999...' not among ('cD/3',) [Theorem 1, row 3]"),
        (["classify", "{point_field}"], 2,
         "error: line 3: point index 'xxxxxxxxxxxxxxxxxxxx...' is not an integer"),
        # valid degrees: 4,200 digits print whole, 4,300 make a denominator with
        # one digit more than the interpreter formats
        (["flip", "--index", "4", "--kc=-0.{ones:.4200}"], 2,
         "error: --index '4' --kc '-0.11111111111111111...': index times degree must be "
         "an integer"),
        (["flip", "--index", "4", "--kc=-0.{ones}"], 2,
         "error: --index '4' --kc '-0.11111111111111111...': index times degree must be "
         "an integer"),
    ], ids=["quot-long", "flip-long", "analyze-long", "classify-long", "point-field-long",
            "flip-4200-digits", "flip-4300-digits"])
    def test_an_error_line_quotes_a_long_token_cut_short(self, tmp_path, capsys, argv, code, line):
        paths = self.paths(tmp_path)
        paths["graph"].write_text("vertex v kind=exc self=-2\nedge v " + "x" * 5000 + "\n",
                                  encoding="utf-8")
        assert main([a.format(x="x" * 5000, ones="1" * 4300, **paths) for a in argv]) == code
        captured = capsys.readouterr()
        assert (captured.err or captured.out).splitlines() == [line]
        assert len(line.encode()) <= 200

class TestDisproveCommands:
    def test_ic_trace(self, capsys):
        rc = main(["ic-disprove", "--m", "5", "--mprime", "3", "--aprime", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "width-2-degree = 0" in out
        assert "width-3-degree = -4/15" in out

    def test_ic_rejection_exit(self, capsys):
        rc = main(["ic-disprove", "--m", "5", "--mprime", "3", "--aprime", "1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "K-negativity fails" in out

    def test_kad_sweep(self, capsys):
        rc = main(["kad-disprove", "--subcase", "k3a", "--sweep-max", "15"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all contradicted" in out

    def test_missing_tuple(self, capsys):
        assert main(["ic-disprove"]) == 2

    @pytest.mark.parametrize("argv, smallest", [
        (["ic-disprove", "--sweep-max", "-5"], 5),
        (["ic-disprove", "--sweep-max", "4"], 5),
        (["kad-disprove", "--subcase", "kad", "--sweep-max", "0"], 5),
        (["kad-disprove", "--subcase", "k3a", "--sweep-max", "2"], 3),
        (["verify-paper", "--sweep-max", "3"], 5),
        (["--json", "verify-paper", "--sweep-max", "4"], 5),
    ])
    def test_sweep_max_below_smallest_cap_is_an_input_error(self, capsys, argv, smallest):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --sweep-max ")
        assert f"below {smallest}," in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["ic-disprove", "--sweep-max", "5"],
        ["kad-disprove", "--subcase", "k3a", "--sweep-max", "3"],
        ["kad-disprove", "--subcase", "kad", "--sweep-max", "5"],
    ])
    def test_smallest_cap_is_accepted(self, capsys, argv):
        assert main(argv) == 0
        assert "all contradicted" in capsys.readouterr().out


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        rc = main(["verify-paper", "--sweep-max", "9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all passed" in out

    def test_json_payload(self, capsys):
        rc = main(["--json", "verify-paper", "--sweep-max", "9"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert any(c["case"] == "iidual" for c in payload["checks"])

    def test_a_passing_check_renders_nothing(self, capsys, monkeypatch):
        # a check keeps the values it compared and renders them only when read:
        # by a FAIL line or by the JSON
        calls = []

        class Counted:
            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                return self.value == other.value

            def __repr__(self):
                calls.append(self.value)
                return f"Counted({self.value})"

        report = corpus.VerifyReport()
        report.add("case", "equal", Counted(1), Counted(1))
        report.add("case", "differ", Counted(1), Counted(2))
        passing, failing = report.checks
        assert passing.line() == "PASS case: equal" and len(calls) == 0
        assert (failing.expected, failing.got) == ("Counted(1)", "Counted(2)")
        assert len(calls) == 2
        assert failing.line() == "FAIL case: differ (expected Counted(1), got Counted(2))"
        assert report.render()[-1] == "2 checks, 1 failed" and len(calls) == 6

        monkeypatch.setattr(corpus, "verify_paper", lambda sweep_max: report)
        assert main(["--json", "verify-paper", "--sweep-max", "9"]) == 1
        assert len(calls) == 10  # the JSON's four, not the lines as well
        assert json.loads(capsys.readouterr().out)["checks"] == [
            {"case": "case", "check": "equal", "ok": True, "expected": "Counted(1)",
             "got": "Counted(1)"},
            {"case": "case", "check": "differ", "ok": False, "expected": "Counted(1)",
             "got": "Counted(2)"},
        ]

    def test_only_the_printed_half_renders_check_values(self, capsys, monkeypatch):
        # text mode prints no passing check's values; --json prints all of them
        reads = []
        for name in ("expected", "got"):
            read = getattr(corpus.CheckResult, name).fget
            monkeypatch.setattr(corpus.CheckResult, name, property(
                lambda check, read=read: reads.append(check) or read(check)))
        assert main(["verify-paper", "--sweep-max", "9"]) == 0
        assert "all passed" in capsys.readouterr().out
        assert len(reads) == 0
        assert main(["--json", "verify-paper", "--sweep-max", "9"]) == 0
        assert len(json.loads(capsys.readouterr().out)["checks"]) == 237
        assert len(reads) == 474

    def test_sweep_failure_exits_1_without_traceback(self, capsys, monkeypatch):
        def failing(real):
            def stage(m, mp, ap, forms):
                if (m, mp, ap) == (9, 5, 3):
                    raise AssertionError("injected")
                return real(m, mp, ap, forms)
            return stage

        patch_stage(monkeypatch, "ic", "tuple_stage", failing)
        assert main(["verify-paper", "--sweep-max", "9"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "FAIL sweep: rigid-chain exclusion" in captured.out
        assert "first (9, 5, 3) raised AssertionError: injected" in captured.out
        assert "237 checks, 1 failed" in captured.out

    def test_deterministic_output(self, capsys):
        main(["verify-paper", "--sweep-max", "9"])
        first = capsys.readouterr().out
        main(["verify-paper", "--sweep-max", "9"])
        second = capsys.readouterr().out
        assert first == second
