"""Import hygiene: what a single CLI command, or the bare package, loads in a
fresh interpreter."""

import subprocess
import sys

import pytest

from conftest import fresh_env

# Imported only by the branches that need them (a forked child, JSON
# output), or not at all.
DEFERRED = {"concurrent", "multiprocessing", "pickle", "dataclasses", "json"}
# argparse and what it imports: loaded only for --help and usage errors.
PARSER = {"argparse", "gettext", "locale", "_locale"}

CHILD = """
import sys
bare = set(sys.modules)
from smoothwords.cli import main
code = main(sys.argv[1:])
print("exit", code)
print("added", *sorted(set(sys.modules) - bare))
"""


def python_fresh(code, *argv):
    """Run ``code`` in a new interpreter; its stdout lines.  It must write
    nothing to stderr."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def run_fresh(*argv):
    lines = python_fresh(CHILD, *argv)
    assert lines[-2] == "exit 0"
    added = set(lines[-1].split()[1:])
    return lines[:-2], added


# The modules behind the word calculus, the one-word power objects, the
# middle-word tables, the scans and the certifier.  Each command loads only
# those it runs, so with bytecode writing off it compiles no other.
ENGINES = {"calculus", "census", "concat", "dsigma", "powers", "search"}
WORD = ("--alphabet", "1,2", "--word", "1211")


@pytest.mark.parametrize("argv, line, engines", [
    (("chain", *WORD), "verdict: smooth", {"calculus"}),
    (("derive", *WORD), "12", {"calculus"}),
    (("rho", *WORD), "12", {"calculus"}),
    (("delta", *WORD), "112", set()),
    (("closure", *WORD), "1211", set()),
    (("--help",), "positional arguments:", set()),
    # The scans run through search.map_tasks, which forks no child here.
    (("gamma", "--alphabet", "1,2", "-n", "2", "-L", "8", "--jobs", "1"),
     "gamma=10 stable=true", {"census", "search"}),
    (("certify-concat", "--alphabet", "1,2", "-L", "4", "--jobs", "1"),
     "2654 smooth triples tested, 0 violations", {"concat", "dsigma", "search"}),
    # Explore mode walks its x words with the engine: census stays unloaded.
    (("certify-concat", "--alphabet", "1,3", "-L", "5", "--explore", "3", "--jobs", "1"),
     "4349 smooth triples tested, 0 violations", {"concat", "dsigma", "search"}),
    # The one-word power certifier derives with the literal calculus, tests
    # u^n copy by copy with the engine and reads the middle-word table.
    (("power-decomp", "--alphabet", "1,3", "--word", "3111313111", "-n", "4"),
     "level 2: witness 111", {"calculus", "dsigma", "powers", "search"}),
    (("dsigma", "--alphabet", "1,2"), "11211", {"dsigma"}),
    (("lift", "--alphabet", "2,4", "--word", "22", "--alpha", "2", "-k", "1"),
     "2244", {"powers"}),
    (("kolakoski", "--alphabet", "1,2", "--alpha", "1", "-n", "19"),
     "1221121221221121122", {"powers"}),
    (("enumerate", "--alphabet", "1,2", "-n", "4"), "1211", {"census", "search"}),
], ids=["chain", "derive", "rho", "delta", "closure", "help", "gamma", "certify-concat",
        "certify-concat-explore", "power-decomp", "dsigma", "lift", "kolakoski", "enumerate"])
def test_chain_command_skips_deferred_imports(argv, line, engines):
    out, added = run_fresh(*argv)
    assert line in out
    roots = {name.split(".")[0] for name in added}
    assert roots & DEFERRED == set()
    if argv == ("--help",):
        assert "argparse" in roots
    else:
        assert roots & PARSER == set()
    assert {name.split(".")[1] for name in added
            if name.startswith("smoothwords.")} & ENGINES == engines


USAGE_CHILD = """
import contextlib, io, sys
bare = set(sys.modules)
from smoothwords.cli import main
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = main(sys.argv[1:])
print("exit", code)
print(err.getvalue().splitlines()[-1])
print("added", *sorted(set(sys.modules) - bare))
"""


def test_usage_error_loads_argparse():
    *out, code, error, added = python_fresh(USAGE_CHILD, "gamma", "--alphabet", "1,2")
    assert (out, code) == ([], "exit 2")
    assert error == "smoothwords gamma: error: the following arguments are required: -n"
    assert "argparse" in added.split()[1:]


# CHILD on a machine of two CPUs, counting the children forked.
FORKING_CHILD = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork
def fork():
    forks.append(1)
    return real_fork()
os.fork = fork
""" + CHILD + """print("forks", len(forks))
"""


def test_forking_scan_skips_the_pool_modules():
    *out, code, added, forks = python_fresh(
        FORKING_CHILD, "gamma", "--alphabet", "1,2", "-n", "2", "-L", "8", "--jobs", "2")
    assert (code, forks) == ("exit 0", "forks 1")
    assert "gamma=10 stable=true" in out
    added = {name.split(".")[0] for name in added.split()[1:]}
    assert added & {"concurrent", "multiprocessing"} == set()
    assert "pickle" in added  # the results come back pickled


API_CHILD = """
import sys
import smoothwords
print(sorted(m for m in sys.modules if m.startswith("smoothwords.")))
print(set(smoothwords.__all__) <= set(dir(smoothwords)))
star = {}
exec("from smoothwords import *", star)
print(sorted(set(smoothwords.__all__) - set(star)))
print(sorted(["__version__", *smoothwords._SUBMODULE]) == sorted(smoothwords.__all__))
print([name for name, module in smoothwords._SUBMODULE.items()
       if star[name] is not getattr(sys.modules["smoothwords." + module], name)])
print(smoothwords.gamma is smoothwords.census.gamma)
try:
    smoothwords.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_lazy_package_names_are_complete():
    assert python_fresh(API_CHILD) == [
        "[]",  # importing the package loads no submodule
        "True",  # dir() lists every public name before any is loaded
        "[]",  # import * binds every name in __all__
        "True",  # the name table and __all__ agree
        "[]",  # each name is the object its submodule defines
        "True",
        "module 'smoothwords' has no attribute 'no_such_name'",
    ]
