import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
    code, out, _ = run_cli(capsys, "order", "< a, b | >", "--max-cosets", "100")
    assert code == 0
    assert out == "budget-exceeded\n"


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
    # the length bound stops simplify at 13 generators on a valid instance:
    # the raw comparison is skipped, not failed
    fixture = str(ROOT / "scripts/fixtures/m2x2_4.txt")
    code, out, _ = run_cli(
        capsys, "verify", "thm1", "--m", fixture, "--p", "2,2", "--max-relator-length", "6"
    )
    assert code == 0
    assert "raw.matched: skipped" in out.splitlines()
    assert out.rstrip().endswith("verdict: pass")


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
]


# the same for scripts/run_embeddings.py, run as its own process
RUN_EMBEDDINGS_DIGEST = "cc62ed06952eb63c4f4d1011c2fa37583a7f3440264f9c7525329f1aa00c5618"


def test_golden_outputs(capsys):
    changed = []
    for command, digest in GOLDEN:
        argv = [str(ROOT / a) if a.startswith("scripts/") else a for a in shlex.split(command)]
        code, out, _ = run_cli(capsys, *argv)
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != digest:
            changed.append(command)
    script = subprocess.run(
        [sys.executable, str(ROOT / "scripts/run_embeddings.py")], capture_output=True, text=True
    )
    if hashlib.sha256(f"{script.returncode}\n{script.stdout}".encode()).hexdigest() != RUN_EMBEDDINGS_DIGEST:
        changed.append("scripts/run_embeddings.py")
    assert changed == []
