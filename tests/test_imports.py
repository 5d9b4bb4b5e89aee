"""What a command or a package import loads, and the package's exports.

Each CLI command imports only the engine it runs, and package-level names
resolve on first access; these tests pin both, and that the names and
the functions behind them are those of the submodules.
"""

import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import coxembed
from coxembed import schreier, tietze, verify
from coxembed.cli import main

ROOT = Path(__file__).resolve().parents[1]

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "presentations": (
        "INF", "CoxeterMatrix", "EmbeddingInstance", "HomZ2n", "ParseError", "PcSpec",
        "Presentation", "artin_presentation", "build_artin_instance",
        "build_artin_inversion_instance", "build_klein_instance", "build_prop2_instance",
        "build_thm1_instance", "coxeter_presentation", "parse_presentation", "parse_word",
        "pc_presentation", "serialize_presentation", "serialize_word",
    ),
    "schreier": (
        "KernelPresentation", "SchreierGen", "commuting_letters", "evaluated_kernel_presentation",
        "image_rank", "merge_symbols", "raw_kernel_presentation", "right_angled_nf", "transversal",
    ),
    "tietze": ("SimplifyTrace", "simplify"),
    "verify": (
        "AbelianInvariants", "CosetTable", "VerifyReport", "abelianization",
        "certified_infinite", "coxeter_matrix_of", "coxeter_order", "coxeter_word_trivial",
        "group_order", "match_presentations", "todd_coxeter", "verify_instance",
        "word_holds",
    ),
    "words": (
        "Word", "commutator", "concat", "cyclic_reduce", "free_reduce", "invert", "letter",
        "power", "relator_nf",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]

# runs ``main(argv)`` with its output captured, then prints the exit code,
# the coxembed submodules loaded and whether json was imported
PROBE = """\
import contextlib, io, sys
from coxembed.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code)
print(" ".join(sorted(m[9:] for m in sys.modules if m.startswith("coxembed."))))
print("json" in sys.modules)
"""

# runs ``main(argv)`` with its output captured, or only imports the CLI
# when no arguments are given, then prints every module loaded
LOADED = """\
import contextlib, io, sys
from coxembed.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
"""

# modules no command may load: importing dataclasses imports inspect, and
# the two take longer than most commands' own work
HEAVY = {"dataclasses", "inspect"}

LOADS = {
    "build": {"cli", "presentations", "words"},
    "embed": {"cli", "presentations", "words"},
    "kernel": {"cli", "presentations", "words", "schreier"},
    "simplify": {"cli", "presentations", "words", "tietze"},
    "order": {"cli", "presentations", "verify", "words"},
    "index": {"cli", "presentations", "verify", "words"},
    "abelianization": {"cli", "presentations", "verify", "words"},
    "match": {"cli", "presentations", "verify", "words"},
    "verify": {"cli", "presentations", "schreier", "tietze", "verify", "words"},
}


def _fresh(code, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return proc.stdout.splitlines()


def _readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split(" ", 1)[1] for line in block.splitlines() if line.startswith("coxembed ")]


@pytest.mark.parametrize("command", _readme_commands())
def test_command_loads_only_what_it_runs(command):
    argv = shlex.split(command)
    code, modules, has_json = _fresh(PROBE, *argv)
    assert code == "0"
    assert set(modules.split()) == LOADS[argv[0]]
    assert has_json == str("json" in argv or argv[0] == "verify")


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter in this environment has loaded, such
    as those a ``.pth`` file imports at start-up."""
    return set(_fresh("import sys; print(' '.join(sorted(sys.modules)))")[0].split())


@pytest.mark.parametrize("command", ["", *_readme_commands()], ids=lambda c: c or "import coxembed.cli")
def test_command_loads_no_heavy_module(command, bare_modules):
    loaded = set(_fresh(LOADED, *shlex.split(command))[0].split())
    assert "coxembed.cli" in loaded
    assert not (loaded - bare_modules) & HEAVY


def test_usage_error_loads_no_engine():
    # the matrix is rejected while the instance is built, before verify
    argv = ["verify", "thm1", "--m", "scripts/fixtures/n3x3_raag.txt", "--p", "2,2,2"]
    assert _fresh(PROBE, *argv) == ["2", "cli presentations words", "False"]


def test_bare_import_reaches_every_submodule():
    probe = (
        "import sys, coxembed\n"
        "print(sorted(m for m in sys.modules if m.startswith('coxembed.')))\n"
        "print(coxembed.verify is sys.modules['coxembed.verify'])\n"
    )
    assert _fresh(probe) == ["[]", "True"]


def test_exports_are_the_submodule_attributes():
    assert len(NAMES) == len(set(NAMES)) == 52
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"coxembed.{module}")
        assert coxembed.__dict__[module] is home
        for name in names:
            assert getattr(coxembed, name) is getattr(home, name), name
    namespace = {}
    exec("from coxembed import *", namespace)
    assert set(NAMES) | set(EXPORTS) <= namespace.keys()
    assert set(NAMES) | set(EXPORTS) <= set(dir(coxembed))
    with pytest.raises(AttributeError):
        coxembed.no_such_name


def test_exports_follow_a_patched_submodule(monkeypatch):
    def f(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(tietze, "simplify", f)
    assert coxembed.simplify is f
    monkeypatch.undo()
    assert coxembed.simplify is tietze.simplify is not f


def test_commands_call_the_engines_at_call_time(capsys, monkeypatch):
    # neither the CLI nor verify binds an engine name at import, so a
    # function wrapped in its module after the import is the one a command
    # runs, also inside verify_instance
    calls = []

    def counting(module, name):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or orig(*a, **k))

    counting(verify, "verify_instance")
    counting(tietze, "simplify")
    counting(schreier, "raw_kernel_presentation")
    m4 = str(ROOT / "scripts/fixtures/m2x2_4.txt")
    assert main(["verify", "thm1", "--m", m4, "--p", "2,2"]) == 0
    verified = ["verify_instance", "raw_kernel_presentation", "simplify", "simplify"]
    assert calls == verified
    assert main(["simplify", "< a, b | b a^-1 >"]) == 0
    assert main(["kernel", "thm1", "--m", m4, "--p", "2,2", "--mode", "both"]) == 0
    assert calls == [*verified, "simplify", "raw_kernel_presentation"]
    capsys.readouterr()
