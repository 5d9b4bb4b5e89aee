import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coxembed import verify
from coxembed.cli import main
from coxembed.presentations import INF, PcSpec, parse_matrix_text, pc_presentation, serialize_presentation

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def m4_file(tmp_path):
    path = tmp_path / "m2x2_4.txt"
    path.write_text("1,4\n4,1\n")
    return str(path)


@pytest.fixture
def m3_file(tmp_path):
    path = tmp_path / "m2x2_3.txt"
    path.write_text("1,3\n3,1\n")
    return str(path)


def test_order_dihedral(capsys):
    code, out, _ = run_cli(capsys, "order", "< s1,s2 | s1^2, s2^2, (s1 s2)^3 >")
    assert code == 0
    assert out == "6\n"


def test_order_budget_exceeded(capsys):
    # a finite group (dihedral of order 200) larger than the budget: an
    # infinite one would be certified and never reach the budget
    dihedral = "< s1,s2 | s1^2, s2^2, (s1 s2)^100 >"
    code, out, _ = run_cli(capsys, "order", dihedral, "--max-cosets", "100")
    assert code == 0
    assert out == "budget-exceeded\n"
    code, out, _ = run_cli(capsys, "order", dihedral, "--max-cosets", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"order": None}


def test_order_infinite(capsys):
    code, out, _ = run_cli(capsys, "order", "< a, b | >")
    assert code == 0
    assert out == "infinite\n"
    code, out, _ = run_cli(capsys, "order", "< a, b | >", "--format", "json")
    assert code == 0
    assert out == '{\n  "order": null,\n  "infinite": true\n}\n'


def test_order_of_the_trivial_presentation(capsys):
    # the text that simplify prints for a trivial group parses back
    code, out, _ = run_cli(capsys, "simplify", "< a | a >")
    assert (code, out) == (0, "<  | >\n")
    code, out, _ = run_cli(capsys, "order", "<  | >")
    assert (code, out) == (0, "1\n")


def test_order_rejects_nonpositive_budget(capsys):
    # the budget is checked before the infiniteness certificate
    for pres in ("< a | a^2 >", "< a | >"):
        for budget in ("0", "-1"):
            code, out, err = run_cli(capsys, "order", pres, "--max-cosets", budget)
            assert code == 2
            assert out == ""
            assert "max_cosets must be positive" in err


def test_order_consults_certificate_once(capsys, monkeypatch):
    # the infiniteness certificate is decided once per command, on finite
    # and infinite input alike
    orig = verify.certified_infinite
    calls = []

    def counted(pres):
        calls.append(pres)
        return orig(pres)

    for name, mod in list(sys.modules.items()):
        if name.startswith("coxembed") and getattr(mod, "certified_infinite", None) is orig:
            monkeypatch.setattr(mod, "certified_infinite", counted)
    affine_a2 = "< s1, s2, s3 | s1^2, s2^2, s3^2, (s1 s2)^3, (s2 s3)^3, (s1 s3)^3 >"
    dihedral = "< s1, s2 | s1^2, s2^2, (s1 s2)^3 >"
    for pres, expected in (("< a, b | >", "infinite"), (affine_a2, "infinite"), (dihedral, "6")):
        calls.clear()
        assert run_cli(capsys, "order", pres)[:2] == (0, expected + "\n")
        assert len(calls) == 1, pres


def test_index(capsys, m4_file):
    code, out, _ = run_cli(
        capsys,
        "index",
        "< r1,r2,s1,s2 | r1^2, r2^2, s1^2, s2^2, (r1 r2)^2, (r1 s2)^2, (r2 s1)^2,"
        " (s1 s2)^4, (s1 r1)^2, (s2 r2)^2 >",
        "s1 r1",
        "s2 r2",
    )
    assert code == 0
    assert out == "4\n"


def test_build_coxeter(capsys, m3_file):
    code, out, _ = run_cli(capsys, "build", "coxeter", "--m", m3_file)
    assert code == 0
    assert out == "< s1, s2 | s1^2, s2^2, s1 s2 s1 s2 s1 s2 >\n"


def test_build_rejects_orders_outside_pc(capsys, m3_file):
    for kind in ("coxeter", "artin"):
        code, out, err = run_cli(capsys, "build", kind, "--m", m3_file, "--p", "2,2")
        assert code == 2
        assert out == ""
        assert f"build {kind} takes no --p" in err


def test_build_pc(capsys, tmp_path):
    nfile = tmp_path / "n.txt"
    nfile.write_text("1,2\n2,1\n")
    code, out, _ = run_cli(capsys, "build", "pc", "--m", str(nfile), "--p", "2,2")
    assert code == 0
    assert "g1 g2 g1^-1 g2^-1 g1 g2 g1^-1 g2^-1" in out


def test_build_pc_commutator_powers(capsys):
    # an off-diagonal 1 is a valid commutator power, not a Coxeter label
    fixture = ROOT / "scripts/fixtures/n3x3_raag.txt"
    code, out, _ = run_cli(capsys, "build", "pc", "--m", str(fixture), "--p", "2,2,inf")
    rows = parse_matrix_text(fixture.read_text())
    assert code == 0
    assert out == serialize_presentation(pc_presentation(PcSpec(rows, (2, 2, INF)))) + "\n"


def test_kernel_klein_evaluated(capsys):
    code, out, _ = run_cli(capsys, "kernel", "klein")
    assert code == 0
    assert "presentation: < a, b | a b^-1 a^-1 b^-1 >" in out
    assert "a = s1 r1 r2" in out
    assert "b = s2 r2" in out


def test_kernel_both_modes(capsys, m4_file):
    code, out, _ = run_cli(capsys, "kernel", "thm1", "--m", m4_file, "--p", "2,2", "--mode", "both")
    assert code == 0
    assert "mode: evaluated" in out and "mode: raw" in out


def test_kernel_both_modes_rewrites_once(capsys, monkeypatch, m4_file):
    # one walk through the coset step tables per (coset, ambient relator)
    # pair, 4 cosets times 10 ambient relators, all 40 for the raw kernel;
    # the evaluated kernel is read from coset 0 and walks no coset
    import coxembed.schreier as schreier

    calls = []
    walk = schreier._walk
    monkeypatch.setattr(schreier, "_walk", lambda steps, *a: (len(steps) > 1 and calls.append(a)) or walk(steps, *a))
    code, _, _ = run_cli(capsys, "kernel", "thm1", "--m", m4_file, "--p", "2,2", "--mode", "both")
    assert code == 0
    assert len(calls) == 40


@pytest.mark.parametrize(
    "mode, raw_calls, evaluated_calls", [("evaluated", 0, 1), ("raw", 1, 0), ("both", 1, 1)]
)
def test_kernel_builds_only_the_kernels_it_prints(capsys, monkeypatch, mode, raw_calls, evaluated_calls):
    # the evaluated kernel alone is built from coset 0, with no raw kernel
    import coxembed.schreier as schreier

    calls = []
    for name in ("raw_kernel_presentation", "evaluated_kernel_presentation"):
        orig = getattr(schreier, name)
        monkeypatch.setattr(schreier, name, lambda *a, name=name, orig=orig: calls.append(name) or orig(*a))
    code, _, _ = run_cli(capsys, "kernel", "klein", "--mode", mode)
    assert code == 0
    assert calls.count("raw_kernel_presentation") == raw_calls
    assert calls.count("evaluated_kernel_presentation") == evaluated_calls


def test_readme_library_block(capsys):
    # the Library example runs and prints what its comments say
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_abelianization(capsys):
    code, out, _ = run_cli(capsys, "abelianization", "< a, b | a^-1 b a b >")
    assert code == 0
    assert out == "free rank 1, torsion (2)\n"


def test_match(capsys):
    code, out, _ = run_cli(
        capsys, "match", "< a, b | a^2, b^3 >", "< x, y | y^2, x^3 >"
    )
    assert code == 0
    assert out == "a -> y, b -> x\n"
    code, out, _ = run_cli(capsys, "match", "< a | a^2 >", "< a | a^3 >")
    assert code == 1
    assert out == "none\n"


def test_simplify(capsys):
    # the greedy eliminates the lowest-index candidate, leaving b
    code, out, _ = run_cli(capsys, "simplify", "< a, b | b a^-1 >")
    assert code == 0
    assert out == "< b | >\n"


def test_simplify_json_trace(capsys):
    code, out, _ = run_cli(
        capsys, "simplify", "< a, b | b a^-1 >", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["presentation"] == "< b | >"
    assert ["eliminate", "a", "a b^-1", "b"] in data["trace"]["steps"]
    assert data["trace"]["defining"] == {"a": "b", "b": "b"}


def test_verify_thm1_json(capsys, m4_file):
    code, out, _ = run_cli(
        capsys, "verify", "thm1", "--m", m4_file, "--p", "2,2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["finite"]["ambient_order"] == 32
    assert list(data) == [
        "instance",
        "hom_valid",
        "image_rank",
        "transversal_size",
        "evaluated",
        "raw",
        "finite",
        "split_section",
        "verdict",
    ]


def test_verify_text_klein(capsys):
    code, out, _ = run_cli(capsys, "verify", "klein", "--max-cosets", "2000")
    assert code == 0
    assert "finite: skipped" in out
    assert out.rstrip().endswith("verdict: pass")


def test_verify_text_bounded_raw_comparison_skipped(capsys):
    # the length bound stops simplify at 8 generators on a valid instance:
    # the raw comparison is skipped, not failed
    fixture = str(ROOT / "scripts/fixtures/m2x2_4.txt")
    code, out, _ = run_cli(
        capsys, "verify", "thm1", "--m", fixture, "--p", "2,2", "--max-relator-length", "6"
    )
    assert code == 0
    assert "raw.matched: skipped" in out.splitlines()
    assert out.rstrip().endswith("verdict: pass")


def test_verify_rejects_nonpositive_budgets(capsys):
    # with generator orders inf the ambient is certified infinite, so no
    # coset enumeration runs to reject the budget
    fixture = str(ROOT / "scripts/fixtures/m2x2_4.txt")
    for flag in ("--max-cosets", "--max-relator-length"):
        code, out, err = run_cli(capsys, "verify", "thm1", "--m", fixture, flag, "0")
        assert code == 2
        assert out == ""
        assert "budgets must be positive" in err


def test_verify_rejects_orders_that_do_not_fit(capsys):
    # --p needs one order per generator, and artin takes none
    cases = (
        (("thm1", "m2x2_4.txt", "2,2,2"), "--p needs 2 entries, got 3"),
        (("artin", "m2x2_3.txt", "2,2"), "artin takes no --p"),
    )
    for (family, matrix, orders), message in cases:
        fixture = str(ROOT / "scripts/fixtures" / matrix)
        code, out, err = run_cli(capsys, "verify", family, "--m", fixture, "--p", orders)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def test_verify_artin_label3_fails_honestly(capsys, m3_file):
    code, out, _ = run_cli(capsys, "verify", "artin", "--m", m3_file, "--max-cosets", "2000")
    assert code == 1
    assert "verdict: fail" in out


def test_embed_json(capsys, m4_file):
    code, out, _ = run_cli(
        capsys, "embed", "thm1", "--m", m4_file, "--p", "2,2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "thm1"
    assert data["hom"] == {"r1": "10", "r2": "01", "s1": "10", "s2": "01"}
    assert data["expected_words"] == {"a1": "s1 r1", "a2": "s2 r2"}


def test_presentation_from_file(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("< s | s^2 >\n")
    code, out, _ = run_cli(capsys, "order", f"@{path}")
    assert code == 0
    assert out == "2\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "order", "< a | b >")
    assert code == 2
    assert "error:" in err


def test_parser_faults_exit_2_with_a_message(capsys, tmp_path):
    # deep nesting, non-ASCII digits and words past the length limit are
    # parse errors, not crashes
    nested = "< a | " + "(" * 1000 + "a" + ")" * 1000 + " >"
    long_words = (
        ("< a, b | " + "[" * 40 + "a" + ",b]" * 40 + " >", "word longer than 1000000 letters (line 1, column 31)"),
        ("< a | a^1000000000 >", "integer outside -1000000..1000000 (line 1, column 9)"),
        ("< a | a^" + "9" * 5000 + " >", "integer outside -1000000..1000000 (line 1, column 9)"),
    )
    for text, message in ((nested, "(line 1, column 107)"), ("< a | a^\u00b2 >", "(line 1, column 9)"), *long_words):
        code, out, err = run_cli(capsys, "abelianization", text)
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err
    path = tmp_path / "m.txt"
    path.write_text("1,2_0\n2_0,1\n")
    for argv in (("--m", str(path)), ("--m", str(ROOT / "scripts/fixtures/m2x2_3.txt"), "--p", "\u0663,2")):
        code, _, err = run_cli(capsys, "embed", "prop2", *argv)
        assert code == 2
        assert "bad extended-natural entry" in err


def test_input_totals_past_the_word_bound_exit_2(capsys):
    # four words of 1,000,000 letters each fit the word bound but not the
    # presentation's; index words count together in the same way
    big = ", ".join(["a^1000000"] * 4)
    code, out, err = run_cli(capsys, "abelianization", f"< a | {big} >")
    assert (code, out) == (2, "")
    assert err == "error: words longer than 1000000 letters in all (line 1, column 20)\n"
    code, out, err = run_cli(capsys, "index", "< a | a^2 >", "a^999999", "a^2")
    assert (code, out) == (2, "")
    assert err == "error: words longer than 1000000 letters in all (line 1, column 3)\n"
    code, out, _ = run_cli(capsys, "index", "< a | a^2 >", "a^999999", "a")
    assert (code, out) == (0, "1\n")


def test_family_builds_past_the_word_bound_exit_2(capsys, tmp_path, monkeypatch):
    # a label of 1,000,000 asks for a relator of 2,000,000 letters; it is
    # refused before any word is built
    path = tmp_path / "m.txt"
    path.write_text("1,1000000\n1000000,1\n")

    def refuse(*args):
        raise AssertionError("word built")

    monkeypatch.setattr("coxembed.presentations.power", refuse)
    for argv in (("build", "coxeter", "--m", str(path)), ("embed", "thm1", "--m", str(path), "--p", "2,2")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: label m[1,2] = 1000000 makes relators longer than 1000000 letters in all\n"


def test_long_digit_strings_exit_2_naming_the_entry(capsys, tmp_path):
    # matrix entries, orders and budgets refuse a digit string longer than
    # 18 digits before int() reads it
    digits = "9" * 5000
    path = tmp_path / "m.txt"
    path.write_text(f"1,{digits}\n{digits},1\n")
    fixture = str(ROOT / "scripts/fixtures/m2x2_3.txt")
    for argv, what in (
        (("embed", "prop2", "--m", str(path)), "extended-natural entry"),
        (("embed", "prop2", "--m", fixture, "--p", f"2,{digits}"), "extended-natural entry"),
        (("verify", "klein", "--max-cosets", digits), "argument --max-cosets: budget"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{what} 99999999... has 5000 digits, more than 18" in err
        assert "4300" not in err and "Traceback" not in err


def test_budgets_take_only_sign_and_ascii_digits(capsys):
    # a budget reads as matrix and order entries do: no underscores, no
    # non-ASCII digits and no inf
    for flag in ("--max-cosets", "--max-relator-length"):
        for budget in ("1_0", "\u0663", "inf"):
            code, out, err = run_cli(capsys, "verify", "klein", flag, budget)
            assert (code, out) == (2, "")
            assert f"argument {flag}: bad budget {budget!r}" in err
    code, out, _ = run_cli(capsys, "order", "< s | s^2 >", "--max-cosets", " +3")
    assert (code, out) == (0, "2\n")


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "thm1")  # missing --m
    assert code == 2
    code2, _, _ = run_cli(capsys, "nonsense")
    assert code2 == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "order", "< s | s^2 >", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "2\n"


def test_out_flag_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "order", "< s | s^2 >", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_unreadable_input_file(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    for argv in (("order", f"@{missing}"), ("build", "coxeter", "--m", str(missing))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_exit_code_matrix_over_families(capsys, m4_file, m3_file):
    # (argv, expected exit code)
    matrix = [
        (("verify", "thm1", "--m", m4_file, "--p", "2,2"), 0),
        (("verify", "prop2", "--m", m3_file, "--p", "2,2"), 0),
        (("verify", "prop2", "--m", m3_file, "--p", "4,4", "--max-cosets", "2000"), 0),
        (("verify", "klein", "--max-cosets", "2000"), 0),
        (("verify", "artin", "--m", m4_file, "--max-cosets", "2000"), 1),
        (("kernel", "prop2", "--m", m3_file, "--p", "4,4"), 0),
        (("embed", "artin", "--m", m3_file), 0),
        (("build", "artin", "--m", m3_file), 0),
        (("verify", "klein", "--m", m3_file), 2),
        (("verify", "thm1", "--m", m3_file, "--p", "2,2"), 2),  # odd label
        (("verify", "prop2", "--m", m3_file, "--p", "3,4"), 2),  # odd order
    ]
    for argv, expected in matrix:
        code = main(list(argv))
        capsys.readouterr()
        assert code == expected, argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coxembed", "order", "< s | s^2 >"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_determinism_byte_identical(capsys, m4_file):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "verify", "thm1", "--m", m4_file, "--p", "2,2", "--format", "json"
        )
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "kernel", "klein", "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]


# sha256 of "<exit code>\n<stdout>" for every README command and for
# verify on each fixture in text and JSON, taken before the text output
# was rendered from the JSON dicts; paths are relative to the repo root
GOLDEN = [
    ('order "< s1,s2 | s1^2, s2^2, (s1 s2)^3 >"',
     "df4f9b728b7582d27215a2a8164a6838bd7a9b73801ebd161a1a39ed6a23d434"),
    ('verify thm1 --m scripts/fixtures/m2x2_4.txt --p 2,2 --format json',
     "3552ed3787eda1794f26f5b49b8f94b99b77476e7b19b704a4a95fbcec809d7b"),
    ('kernel klein --mode evaluated',
     "be2c46be446c39dc8da0fd91216227e9de8f85a79fad89802dbbe3f2b5db571b"),
    ('build coxeter --m scripts/fixtures/m2x2_3.txt',
     "1594674d40a5a40871015df6b79830206a888d17ad77d12a25f9a6109f7ee884"),
    ('embed prop2 --m scripts/fixtures/m2x2_3.txt --p 4,4',
     "4d6e48fef818c5708e18cdcb750a1885006ab60250b3c8137b2bc6df223039e4"),
    ('kernel thm1 --m scripts/fixtures/m2x2_4.txt --p 2,2 --mode both',
     "9fdde0027912fbc2eab96a1de2cc8bc42f3224245564fcb2dde4b1d26d172611"),
    ('simplify "< a, b | b a^-1 >"',
     "c111e6bbfc920d244842d14495d4a97a9ba8fbc4147c10e46c77444fe9ad715c"),
    ('index "< s1,s2 | s1^2, s2^2, (s1 s2)^3 >" "s1 s2"',
     "409f9891ad678ea20e4b20e862d56f23c9b29ed02f40cbdd3a9257821638a85d"),
    ('abelianization "< a, b | a^-1 b a b >"',
     "b856ae529ee8578294196cd9b34fb72cc5b172d8c62e8b0af7980993788ae532"),
    ('match "< a, b | a^2, b^3 >" "< x, y | y^2, x^3 >"',
     "7abd0badf3b472e9e89fbc09b82a8b4668acad2e858e561b4f70cf4d32a33778"),
    ('embed thm1 --m scripts/fixtures/m2x2_4.txt --p 2,2',
     "4e45ac1b98bfc4993a689c9132679d7a4410a60d273562bffa0b3d6a2afc9e3a"),
    ('embed klein',
     "cc999524019bfb9440921551263cd955be94f71cc9c072d4437500fb270f6fb2"),
    ('embed artin --m scripts/fixtures/m3x3_right_angled.txt',
     "c2e393c72ac7289a6ec34e5a4372c0736edef29b0e6abe7ccde6b679d8900fa0"),
    ('verify thm1 --m scripts/fixtures/m2x2_4.txt --p 2,2 --format text',
     "98723ccc81ac9cc6f6ab1738189776319efbdfdcd2dc4561e7607b4bff5bebce"),
    ('verify prop2 --m scripts/fixtures/m2x2_3.txt --p 2,2 --format text',
     "8ab8581edad6913807424b57a1349f9584ed3538ce43ec1417cef9405db75bab"),
    ('verify prop2 --m scripts/fixtures/m2x2_3.txt --p 4,4 --max-cosets 2000 --format text',
     "240feabb067c3d051ff30ea8b4ffb20aa13b8932ae46dd9ecfbdb7b88459d2b2"),
    ('verify artin --m scripts/fixtures/m2x2_3.txt --max-cosets 2000 --format text',
     "a06fad7ddcedd0ad25848233b03f49a8fd84ef4a9f1a403d8b72808f84608fec"),
    ('verify thm1 --m scripts/fixtures/m3x3_right_angled.txt --p inf,inf,inf --max-cosets 2000 --format text',
     "08658890a4a31c4e992da4f2087bf0c343b3e618332f86da5dd5f134500852b5"),
    # error path: a commutator-power matrix is not a Coxeter matrix (exit 2)
    ('verify thm1 --m scripts/fixtures/n3x3_raag.txt --p 2,2,2 --format text',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('verify klein --max-cosets 2000 --format text',
     "97b2b8ec6d0a5fe6a1bc3ce9c2baa41360beca195711a58583f3c6806f4c483f"),
    ('verify prop2 --m scripts/fixtures/m2x2_3.txt --p 2,2 --format json',
     "ea3aa36bbf6c5a3c48b75ead5c851af52b4bd904cada28f064f47d39be37d371"),
    ('verify prop2 --m scripts/fixtures/m2x2_3.txt --p 4,4 --max-cosets 2000 --format json',
     "746077974dc0dfb9bb0ddad1e6f05c7bd7a04f458f05a63489edf551a7cc4e7c"),
    ('verify artin --m scripts/fixtures/m2x2_3.txt --max-cosets 2000 --format json',
     "dd576c6fa31078af9af431f1965d62997c4e80b69aacf0b5381ebc370ec2a143"),
    ('verify thm1 --m scripts/fixtures/m3x3_right_angled.txt --p inf,inf,inf --max-cosets 2000 --format json',
     "3dc5b0766bbcb1eebf42ccebec85c28fca0dc551019ce539a88957a6cf8f2ed7"),
    ('verify klein --max-cosets 2000 --format json',
     "cba65f64c9bd52589b2486cb8162ffc950446c6da5b9af96e00545e3dbe2422b"),
    ('kernel prop2 --m scripts/fixtures/m2x2_3.txt --p 4,4 --mode both --format json',
     "44db762ea6ffa638d13c6c8747aef393226e756050518a5f2cf44bf5696d90f4"),
    ('kernel artin --m scripts/fixtures/m2x2_3.txt --mode both --format json',
     "0d4254b546ee9d585ad7cb6d059feac0f01d107781c837d6ad85ddd81d133fae"),
    ('kernel klein --mode both --format json',
     "d6b03852a9d7931414aa14c2923fc68da221c6fdf46d61b040ff30f7fb1b1b6a"),
    # the raw kernel of thm1 on m2x2_4 with orders 2,2: the whole trace,
    # steps and defining words included
    ('simplify @scripts/fixtures/thm1_m2x2_4_raw.txt --format json',
     "ee68f9f3a5e11c506701da32aa95c6d100cf4d7f04ba24836fa0443c79094e8f"),
    # build pc with an infinite generator order and commutator powers, and
    # build artin with the braid relators of a finite label
    ('build pc --m scripts/fixtures/n3x3_raag.txt --p 2,2,inf',
     "934e5d4d1887241d1fe03a06a006f2ed4ecf711592f211d401ac097e871729bc"),
    ('build artin --m scripts/fixtures/m2x2_3.txt',
     "e3fed621a72b090940119f180cc5ac4a2b3fcb0eccf4c993eeb762ab6b372ad1"),
]


# the same for scripts/run_embeddings.py, run as its own process
RUN_EMBEDDINGS_DIGEST = "f6532db866da0b6382a719562d77b0c812b04540e869f29b2fffd313b5f3dad7"


def _golden_argv(command):
    """``command`` split, with ``scripts/`` paths (``@``-prefixed too)
    made absolute."""
    argv = shlex.split(command)
    for k, a in enumerate(argv):
        at = "@" if a.startswith("@") else ""
        if a[len(at) :].startswith("scripts/"):
            argv[k] = at + str(ROOT / a[len(at) :])
    return argv


def test_golden_outputs(capsys):
    changed = []
    for command, digest in GOLDEN:
        argv = _golden_argv(command)
        code, out, _ = run_cli(capsys, *argv)
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != digest:
            changed.append(command)
    script = subprocess.run(
        [sys.executable, str(ROOT / "scripts/run_embeddings.py")], capture_output=True, text=True
    )
    if hashlib.sha256(f"{script.returncode}\n{script.stdout}".encode()).hexdigest() != RUN_EMBEDDINGS_DIGEST:
        changed.append("scripts/run_embeddings.py")
    assert changed == []


def test_out_flag_on_every_golden_command(capsys, tmp_path):
    # --out writes the bytes stdout would get and keeps the exit code, on
    # every subcommand and on the exit-1 and exit-2 paths
    target = tmp_path / "out.txt"
    for command, _ in GOLDEN:
        argv = _golden_argv(command)
        code, out, _ = run_cli(capsys, *argv)
        target.unlink(missing_ok=True)
        code_to_file, stdout, _ = run_cli(capsys, *argv, "--out", str(target))
        written = target.read_bytes() if target.exists() else b""
        assert (code_to_file, stdout, written) == (code, "", out.encode()), command
