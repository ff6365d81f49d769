"""File format, CLI commands, exit codes, reports."""

import contextlib
import io

import pytest

from outerspatial import generators as gen
from outerspatial.cli import main
from outerspatial.complexes import validate
from outerspatial.decider import Outerspatial, decide_outerspatial, verify_certificate
from outerspatial.fileformat import (ParseError, format_complex,
                                     format_verdict, parse_certificate_report,
                                     parse_complex, parse_cycles)


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestFormatRoundTrip:
    @pytest.mark.parametrize("builder", [
        gen.tetra, lambda: gen.bipyramid(4), lambda: gen.bipyramid_with_equator(5),
        gen.torus7, lambda: gen.prism(4),
        lambda: gen.cone_over_graph(gen.named_graph("k23")),
        lambda: gen.random_complex(11), lambda: gen.random_complex(17),
    ])
    def test_parse_format_inverse(self, builder):
        complex = builder()
        assert parse_complex(format_complex(complex)) == complex

    def test_multigraph_roundtrip_uses_facee(self):
        text = ("vertex u\nvertex v\nvertex w\n"
                "edge e1 u v\nedge e2 u v\nedge f1 v w\nedge f2 w u\n"
                "facee q e1 f1 f2\n")
        complex = parse_complex(text)
        assert len(complex.faces) == 1
        printed = format_complex(complex)
        assert "facee q" in printed
        assert parse_complex(printed) == complex


class TestParseErrors:
    def test_undeclared_vertex(self):
        with pytest.raises(ParseError) as err:
            parse_complex("vertex a\nedge e a b\n")
        assert err.value.line_no == 2

    def test_duplicate_id(self):
        with pytest.raises(ParseError):
            parse_complex("vertex a\nvertex a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_complex("simplex a b c\n")
        assert err.value.line_no == 1

    def test_non_alnum_id(self):
        with pytest.raises(ParseError):
            parse_complex("vertex a-b\n")

    def test_face_with_missing_edge(self):
        with pytest.raises(ParseError) as err:
            parse_complex("vertex a\nvertex b\nvertex c\n"
                          "edge ab a b\nedge bc b c\nface f a b c\n")
        assert err.value.line_no == 6

    def test_duplicate_boundary(self):
        text = ("vertex a\nvertex b\nvertex c\n"
                "edge ab a b\nedge bc b c\nedge ca c a\n"
                "face f a b c\nface g b c a\n")
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_comments_and_blanks(self):
        text = "# a comment\n\nvertex a  # trailing\n"
        complex = parse_complex(text)
        assert complex.graph.vertices == frozenset({"a"})

    def test_cycles_file(self):
        cycles = parse_cycles("cycle c1 a b c\n# x\ncycle c2 b c d\n")
        assert cycles == [("c1", ("a", "b", "c")), ("c2", ("b", "c", "d"))]
        with pytest.raises(ParseError):
            parse_cycles("loop c1 a b c\n")


TRIANGLE = "vertex a\nvertex b\nvertex c\nedge ab a b\nedge bc b c\nedge ca c a\n"
# a-b doubled and no edge d-a: lines 1-8.
DOUBLED = ("vertex a\nvertex b\nvertex c\nvertex d\n"
           "edge ab a b\nedge ba b a\nedge bc b c\nedge cd c d\n")

# (complex text, line number, message); faces are read after every line, so a
# structural error on any line wins over a face error; within a face line an
# undeclared vertex wins over its pairs, which are checked in walk order, and
# the duplicate-boundary check comes last.
COMPLEX_ERRORS = [
    ("vertex a b\n", 1, "vertex takes one id"),
    ("vertex a\nvertex\n", 2, "vertex takes one id"),
    ("vertex a\nedge e a\n", 2, "edge takes an id and two endpoints"),
    ("vertex a\nface f\n", 2, "face needs an id and a boundary"),
    ("facee g\n", 1, "facee needs an id and a boundary"),
    ("vertex a-b\n", 1, "id 'a-b' is not alphanumeric"),
    ("vertex a\nvertex b\nedge a:b a b\n", 3, "id 'a:b' is not alphanumeric"),
    (TRIANGLE + "face f. a b c\n", 7, "id 'f.' is not alphanumeric"),
    ("vertex a\nvertex a\n", 2, "duplicate id a"),
    ("vertex a\nvertex b\nedge a a b\n", 3, "duplicate id a"),
    (TRIANGLE + "face ab a b c\n", 7, "duplicate id ab"),
    (TRIANGLE + "face f a b c\nfacee f ab bc ca\n", 8, "duplicate id f"),
    ("vertex a\nedge e a b\n", 2, "edge e references undeclared vertex b"),
    ("edge e a b\nvertex a\nvertex b\n", 1, "edge e references undeclared vertex a"),
    (TRIANGLE + "face f a b x\n", 7, "face f references undeclared vertex x"),
    (TRIANGLE + "face f ab b c\n", 7, "face f references undeclared vertex ab"),
    (TRIANGLE + "face f a c b d\n", 7, "face f references undeclared vertex d"),
    ("vertex a\nface f a\n", 2, "face f: no edge between a and a"),
    (TRIANGLE.replace("edge ca c a\n", "") + "face f a b c\n", 6,
     "face f: no edge between c and a"),
    (DOUBLED + "face f c d a b\n", 9, "face f: no edge between d and a"),
    (DOUBLED + "face g a b c d\n", 9, "face g: ambiguous edge between a and b; list edge ids instead"),
    (TRIANGLE + "facee f ab bc zz\n", 7, "face f: unknown edge zz"),
    (TRIANGLE + "facee f ab bc\n", 7, "face f: edges do not form a closed walk"),
    (TRIANGLE + "face f a b c\nface g c b a\n", 8, "face g duplicates the boundary of f"),
    (TRIANGLE + "face f a b c\nfacee g bc ca ab\n", 8, "face g duplicates the boundary of f"),
    ("simplex a b c\n", 1, "unknown directive 'simplex'"),
    ("# header\n\nvertex a  # the apex\nVertex b\n", 4, "unknown directive 'Vertex'"),
    # Precedence.
    (DOUBLED + "face f a b x\n", 9, "face f references undeclared vertex x"),
    (DOUBLED + "face f c d a b\nface g a b x\n", 9, "face f: no edge between d and a"),
    (DOUBLED + "face g a b x\nface f c d a b\n", 9, "face g references undeclared vertex x"),
    (TRIANGLE + "face f a b x\nedge e a zz\n", 8, "edge e references undeclared vertex zz"),
    (TRIANGLE + "face f a b x\nvertex q r\n", 8, "vertex takes one id"),
    (TRIANGLE + "face f a b c\nface g b c a\nface h a b x\n", 8,
     "face g duplicates the boundary of f"),
    (TRIANGLE + "face h a b x\nface f a b c\nface g b c a\n", 7,
     "face h references undeclared vertex x"),
]

CYCLE_ERRORS = [
    ("loop c1 a b c\n", 1, "unknown directive 'loop'"),
    ("cycle c1 a b\n", 1, "cycle needs an id and at least three vertices"),
    ("cycle c-1 a b c\n", 1, "id 'c-1' is not alphanumeric"),
    ("cycle c a b c\n# again\ncycle c b c d\n", 3, "duplicate cycle id c"),
]


class TestParseErrorTable:
    @pytest.mark.parametrize("text,line_no,message", COMPLEX_ERRORS,
                             ids=[message for _, _, message in COMPLEX_ERRORS])
    def test_complex_errors(self, text, line_no, message):
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")

    @pytest.mark.parametrize("text,line_no,message", CYCLE_ERRORS,
                             ids=[message for _, _, message in CYCLE_ERRORS])
    def test_cycle_errors(self, text, line_no, message):
        with pytest.raises(ParseError) as err:
            parse_cycles(text)
        assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")

    def test_a_face_may_come_before_its_edges(self):
        text = "vertex a\nvertex b\nvertex c\nface f b c a\nedge ab a b\nedge bc b c\nedge ca c a\n"
        complex = parse_complex(text)
        assert complex == parse_complex(TRIANGLE + "face f a b c\n")
        assert complex.faces["f"].steps == (("a", "ab", 0), ("b", "bc", 0), ("c", "ca", 0))


class TestCertificateReportRoundTrip:
    @pytest.mark.parametrize("builder", [
        gen.tetra, lambda: gen.bipyramid_with_equator(4),
        lambda: gen.random_complex(23),
    ])
    def test_report_reparses_and_verifies(self, builder):
        complex = builder()
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, Outerspatial)
        report = format_verdict(verdict)
        cert = parse_certificate_report(report)
        assert verify_certificate(complex, cert)

    def test_tampered_report_fails(self, tetra):
        verdict = decide_outerspatial(tetra)
        report = format_verdict(verdict)
        cert = parse_certificate_report(report.replace("ab:0 ", "ab:1 ", 1))
        assert not verify_certificate(tetra, cert)


class TestCommands:
    def test_generate_counts(self):
        code, text = run_cli("generate", "cone-k4")
        assert code == 0
        complex = parse_complex(text)
        assert len(complex.graph.vertices) == 5
        assert len(complex.graph.edges) == 10
        assert len(complex.faces) == 6
        code, text = run_cli("generate", "torus7")
        complex = parse_complex(text)
        assert (len(complex.graph.vertices), len(complex.graph.edges),
                len(complex.faces)) == (7, 21, 14)

    def test_generate_random_is_locally_2_connected(self):
        code, text = run_cli("generate", "random", "--seed", "5")
        assert code == 0
        complex = parse_complex(text)
        assert not validate(complex)

    @pytest.mark.parametrize("n", ["-1", "0", "2", "3"])
    def test_generate_random_below_four_vertices_is_a_usage_error(self, n, capsys):
        code, text = run_cli("generate", "random", "--vertices", n)
        assert (code, text) == (3, "")
        assert capsys.readouterr().err.startswith("error: a random complex needs at least 4")

    def test_decide_exit_codes(self, tmp_path):
        _, tetra_text = run_cli("generate", "tetra")
        p = write(tmp_path, "tetra.txt", tetra_text)
        code, text = run_cli("decide", p)
        assert code == 0
        assert text.startswith("verdict: outerspatial")

        _, torus_text = run_cli("generate", "torus7")
        p = write(tmp_path, "torus.txt", torus_text)
        code, text = run_cli("decide", p)
        assert code == 1
        assert "aspherical-subcomplex" in text

        _, cone_text = run_cli("generate", "cone-k4")
        p = write(tmp_path, "cone.txt", cone_text)
        code, text = run_cli("decide", p)
        assert code == 1
        assert "non-outerplanar-link" in text and "witness: K4" in text

    def test_hypothesis_violated_exit_code(self, tmp_path, bipyramid4):
        from outerspatial.complexes import associated_complex
        complex = associated_complex(
            bipyramid4.graph,
            {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        p = write(tmp_path, "squares.txt", format_complex(complex))
        code, text = run_cli("decide", p)
        assert code == 2
        assert text.startswith("verdict: hypothesis-violated")

    def test_nested_command(self, tmp_path, bipyramid4):
        p = write(tmp_path, "bip.txt", format_complex(gen.bipyramid(4)))
        cyc = write(tmp_path, "cyc.txt", "cycle c1 n a s c\ncycle c2 n b s d\n")
        code, text = run_cli("nested", p, cyc)
        assert code == 1
        assert "exhaustive-failure" in text
        cyc1 = write(tmp_path, "cyc1.txt", "cycle c1 n a s c\n")
        code, text = run_cli("nested", p, cyc1)
        assert code == 0

    def test_oracle_command_and_agreement(self, tmp_path):
        for name, expected in (("tetra", 0), ("torus7", 1),
                               ("cone-k4", 1), ("cone-k23", 1)):
            _, text = run_cli("generate", name)
            p = write(tmp_path, f"{name}.txt", text)
            oracle_code, _ = run_cli("oracle", p)
            decide_code, _ = run_cli("decide", p)
            assert oracle_code == expected
            assert decide_code == expected

    def test_cap_exit_code(self, tmp_path):
        _, text = run_cli("generate", "tetra")
        p = write(tmp_path, "tetra.txt", text)
        code, _ = run_cli("oracle", p, "--cap", "3")
        assert code == 4

    def test_usage_errors(self, tmp_path):
        code, _ = run_cli("decide", str(tmp_path / "missing.txt"))
        assert code == 3
        bad = write(tmp_path, "bad.txt", "vertex a\nedge e a b\n")
        code, _ = run_cli("decide", bad)
        assert code == 3
        code, _ = run_cli("generate", "nope")
        assert code == 3
        code, _ = run_cli("frobnicate")
        assert code == 3

    def test_validate_command(self, tmp_path):
        good = write(tmp_path, "good.txt", "vertex a\nvertex b\nedge ab a b\n")
        code, text = run_cli("validate", good)
        assert code == 0 and text == "ok\n"
        bad = write(tmp_path, "loopy.txt", "vertex a\nedge l a a\n")
        code, text = run_cli("validate", bad)
        assert code == 1 and "loop" in text

    def test_links_command(self, tmp_path):
        _, text = run_cli("generate", "cone-k4")
        p = write(tmp_path, "cone.txt", text)
        code, text = run_cli("links", p)
        assert code == 0
        assert "link at t:" in text
        assert "outerplanar: no (K4 minor)" in text
        assert "outerplanar: yes" in text

    def test_surface_command(self, tmp_path):
        _, text = run_cli("generate", "torus7")
        p = write(tmp_path, "torus.txt", text)
        code, text = run_cli("surface", p)
        assert code == 0
        assert "orientable genus 1 (euler 0)" in text

    def test_surface_command_on_a_one_face_torus(self, tmp_path):
        # Boundary a b a^-1 b^-1 with subdivided sides: the face runs each
        # edge twice, once each way.  `surface` does not validate.
        p = write(tmp_path, "torus1.txt",
                  "vertex v\nvertex x\nvertex y\n"
                  "edge a1 v x\nedge a2 x v\nedge b1 v y\nedge b2 y v\n"
                  "facee t a1 a2 b1 b2 a2 a1 b2 b1\n")
        code, text = run_cli("surface", p)
        assert code == 0
        assert text == "component v x y: orientable genus 1 (euler 0)\n"

    def test_render_dot_and_svg(self, tmp_path):
        _, text = run_cli("generate", "tetra")
        p = write(tmp_path, "tetra.txt", text)
        code, dot = run_cli("render", p)
        assert code == 0
        assert dot.startswith("graph G {") and '"a" -- "b"' in dot
        assert "rotator" in dot
        code, svg = run_cli("render", p, "--format", "svg")
        assert code == 0
        assert svg.startswith("<svg") and "<line" in svg
        code, link_dot = run_cli("render", p, "--link", "a")
        assert code == 0
        assert "link graph at a" in link_dot

    def test_generate_cone_from_file(self, tmp_path):
        _, k4_text = run_cli("generate", "k4")
        p = write(tmp_path, "k4.txt", k4_text)
        code, text = run_cli("generate", "cone", p)
        assert code == 0
        assert parse_complex(text) == gen.cone_over_graph(gen.named_graph("k4"))

    def test_determinism_two_runs(self, tmp_path):
        for name in ("tetra", "bipyramid-equator", "torus7"):
            args = ("generate", name, "4") if name == "bipyramid-equator" else ("generate", name)
            _, text = run_cli(*args)
            p = write(tmp_path, f"{name}.txt", text)
            assert run_cli("decide", p) == run_cli("decide", p)
            assert run_cli("links", p) == run_cli("links", p)
