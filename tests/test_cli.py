"""CLI behaviour: output shapes, schema conformance, exit codes, determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import weylkit
from weylkit.cli import main
from weylkit.config import set_strict_default

SCHEMA = json.loads(
    (Path(weylkit.__file__).parent / "schema" / "cli-output.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def weylkit_command():
    script = shutil.which("weylkit")
    if script:
        return [script]
    return [sys.executable, "-m", "weylkit.cli"]


def test_info_human(capsys):
    code, out, _ = run_cli(capsys, "info", "A2")
    assert code == 0
    assert out == (
        "type: A2\n"
        "rank: 2\n"
        "weyl_order: 6\n"
        "positive_roots: 3\n"
        "longest_word: [1,2,1]\n"
        "cartan: [[2,-1],[-1,2]]\n"
    )


def test_info_json(capsys):
    payload = run_json(capsys, "info", "B2", "--json")
    assert payload["weyl_order"] == 8
    assert payload["positive_roots"] == 4
    assert payload["cartan"] == [[2, -1], [-2, 2]]


def test_info_custom_matrix(capsys):
    code, out, _ = run_cli(capsys, "info", "[[2,-1],[-1,2]]")
    assert code == 0
    assert "type: custom" in out
    assert "weyl_order: 6" in out


def _e_cartan(rank):
    # Bourbaki labels: the chain 1-3-4-...-rank, with 2 joined to 4
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, rank)]:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


@pytest.mark.parametrize("rank,order,length", [(7, 2903040, 63), (8, 696729600, 120)])
def test_info_does_not_enumerate_the_group(capsys, rank, order, length):
    start = time.perf_counter()
    payload = run_json(capsys, "info", json.dumps(_e_cartan(rank)), "--json")
    assert time.perf_counter() - start < 5.0
    assert payload["weyl_order"] == order
    assert len(payload["longest_word"]) == payload["positive_roots"] == length


def test_char_by_demazure_does_not_enumerate_the_group(capsys):
    set_strict_default(False)  # strict mode walks the whole weak order
    code, out, _ = run_cli(capsys, "char", json.dumps(_e_cartan(7)), "0,0,0,0,0,0,1")
    assert code == 0
    assert out.count("e[") == 56  # the minuscule representation of E7
    code, _, err = run_cli(capsys, "char", json.dumps(_e_cartan(7)), "0,0,0,0,0,0,1", "--strict")
    assert code == 1
    assert "SafetyBoundExceeded" in err


def test_apply(capsys):
    code, out, _ = run_cli(capsys, "apply", "A1", "d[1]", "e[1]")
    assert code == 0
    assert out == "e[1] + e[-1]\n"
    payload = run_json(capsys, "apply", "A1", "d[1]", "e[1]", "--json")
    assert payload == {"result": {"terms": [{"w": [-1], "c": 1}, {"w": [1], "c": 1}]}}


def test_apply_operator_composition(capsys):
    code, out, _ = run_cli(capsys, "apply", "A2", "d[1]*d[2]*d[1]", "e[1,1]")
    assert code == 0
    # the full character of the adjoint representation: 6 roots + rank * zero
    total = sum(t["c"] for t in run_json(capsys, "apply", "A2", "d[1]*d[2]*d[1]", "e[1,1]", "--json")["result"]["terms"])
    assert total == 8


def test_char_both_agrees(capsys):
    code, out, _ = run_cli(capsys, "char", "A1", "2", "--method", "both")
    assert code == 0
    assert out == "e[2] + e[0] + e[-2]\ne[2] + e[0] + e[-2]\nAGREE\n"
    payload = run_json(capsys, "char", "A1", "2", "--method", "both", "--json")
    assert payload["agree"] is True
    assert payload["demazure"] == payload["weyl"]


def test_char_single_method(capsys):
    payload = run_json(capsys, "char", "A2", "1,0", "--json")
    assert payload["method"] == "demazure"
    assert payload["result"]["terms"] == [
        {"w": [-1, 1], "c": 1},
        {"w": [0, -1], "c": 1},
        {"w": [1, 0], "c": 1},
    ]
    code, out, _ = run_cli(capsys, "char", "A2", "[1,0]", "--method", "weyl")
    assert code == 0
    assert out == "e[1,0] + e[0,-1] + e[-1,1]\n"


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "A1", "e[1]+e[-1]")
    assert code == 0
    assert out == "chi[1]\n"
    payload = run_json(capsys, "decompose", "A1", "(e[1]+e[-1])^2", "--json")
    assert payload == {"entries": [{"w": [0], "c": 1}, {"w": [2], "c": 1}]}


def test_decompose_rejects_non_invariant(capsys):
    code, out, err = run_cli(capsys, "decompose", "A1", "e[1]")
    assert code == 1
    assert out == ""
    assert "NotInvariant" in err


def test_induce(capsys):
    code, out, _ = run_cli(capsys, "induce", "A1", "e[1]")
    assert code == 0
    assert out == "chi[1]\n"
    payload = run_json(capsys, "induce", "A2", "e[1,1]", "--json")
    assert payload == {"entries": [{"w": [1, 1], "c": 1}]}


def test_invariant_check_frozen_json(capsys):
    code, out, _ = run_cli(capsys, "invariant-check", "A1", "e[1]+e[-1]", "--json")
    assert code == 0
    assert out == '{"weyl":true,"ideal":true}\n'


def test_invariant_check_witnesses(capsys):
    code, out, _ = run_cli(capsys, "invariant-check", "A1", "e[1]")
    assert code == 0
    assert "weyl: false" in out
    assert "ideal: false" in out
    assert "witness" in out
    payload = run_json(capsys, "invariant-check", "A1", "e[1]", "--json")
    assert payload["weyl"] is False and payload["ideal"] is False
    assert payload["weyl_witness"]["j"] == 1
    assert payload["ideal_witness"]["image"] == {"terms": [{"w": [1], "c": 1}]}


def test_steinberg(capsys):
    code, out, _ = run_cli(capsys, "steinberg", "A1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("formula: ")
    assert "w=[] weight=[0]" in lines
    assert "w=[1] weight=[1]" in lines


def test_steinberg_decompose(capsys):
    payload = run_json(capsys, "steinberg", "A1", "--decompose", "e[-1]", "--json")
    coords = {tuple(entry["word"]): entry["coeff"] for entry in payload["decomposition"]}
    assert coords[()] == {"entries": [{"w": [1], "c": 1}]}
    assert coords[(1,)] == {"entries": [{"w": [0], "c": -1}]}


def test_steinberg_verify_flag(capsys):
    code, _, _ = run_cli(capsys, "steinberg", "A2", "--verify")
    assert code == 0


def test_steinberg_strict_flag_reconstructs_the_coordinates(capsys, monkeypatch):
    import weylkit.repring as repring

    # with the default off, --strict alone asks for the reconstruction check
    set_strict_default(False)
    calls = []
    real = repring.reconstruct_over_invariants
    monkeypatch.setattr(
        repring, "reconstruct_over_invariants", lambda *args: calls.append(args) or real(*args)
    )
    argv = ("steinberg", "A2", "--decompose", "e[1,-1]+2*e[0,1]")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and calls == []
    code, strict, _ = run_cli(capsys, *argv, "--strict")
    assert code == 0 and len(calls) == 1
    assert strict == plain


def test_failed_freeness_certificate_exits_two(capsys, monkeypatch):
    import weylkit.repring as repring
    from weylkit.weyl import weyl_group

    # {1, e^2} is not an R(G)-basis of R(T) for A1: a library bug, not bad input
    elements = weyl_group(weylkit.build_root_datum("A1")).elements
    monkeypatch.setattr(repring, "_steinberg_weights", lambda d: tuple(zip(elements, [(0,), (2,)])))
    code, out, err = run_cli(capsys, "steinberg", "A1")
    assert code == 2
    assert out == ""
    assert err.startswith("FreenessCheckFailed:")


def test_cover_pullback(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "pullback", "e[1]+e[-2]", "--matrix", "[[2]]"
    )
    assert code == 0
    assert out == "e[2] + e[-4]\n"


def test_cover_decompose(capsys):
    payload = run_json(
        capsys, "cover", "decompose", "e[3]+e[0]-e[-1]", "--matrix", "[[2]]", "--json"
    )
    assert payload["index"] == 2
    by_rep = {tuple(c["rep"]): c["component"] for c in payload["cosets"]}
    assert by_rep[(0,)] == {"terms": [{"w": [0], "c": 1}]}
    assert by_rep[(1,)] == {"terms": [{"w": [-1], "c": -1}, {"w": [1], "c": 1}]}
    code, out, _ = run_cli(
        capsys, "cover", "decompose", "e[1]", "--matrix", "[[2,0],[0,2]]"
    )
    assert code == 1  # rank mismatch between matrix and expression


def test_cover_matrix_bounds_are_inclusive(capsys):
    from weylkit.parsing import MAX_POWER_DEGREE, MAX_POWER_TERMS

    code, out, _ = run_cli(capsys, "cover", "pullback", "e[-1]", "--matrix", f"[[{MAX_POWER_DEGREE}]]")
    assert (code, out) == (0, f"e[-{MAX_POWER_DEGREE}]\n")
    code, out, _ = run_cli(capsys, "cover", "decompose", "e[1]", "--matrix", f"[[-{MAX_POWER_TERMS}]]")
    assert code == 0
    assert len(out.splitlines()) == MAX_POWER_TERMS
    code, _, err = run_cli(capsys, "cover", "pullback", "e[1]", "--matrix", f"[[-{MAX_POWER_DEGREE + 1}]]")
    assert code == 1
    assert "ParseError" in err


def test_cover_requires_matrix(capsys):
    code, _, err = run_cli(capsys, "cover", "decompose", "e[1]")
    assert code == 1
    assert "usage error" in err


def test_selftest_runs_clean(capsys):
    code, out, err = run_cli(capsys, "selftest", "A1")
    assert code == 0
    last = out.rstrip("\n").splitlines()[-1]
    assert last.startswith("all suites passed (") and last.endswith(" checks)")
    assert "A1 covers: ok" in out
    assert "ms" in err  # timings go to the diagnostic stream only


def test_selftest_checks_survive_python_optimize():
    # python -O strips assert statements; a sabotaged suite must still fail
    src = str(Path(weylkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "import weylkit.selftest as selftest\n"
        "selftest.weyl_dimension = lambda datum, weight: -1\n"
        "sys.exit(selftest.run_selftest(['A1']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1, proc.stderr
    assert "A1 rep_ring: FAIL (AssertionError: coefficient sum == weyl_dimension)" in proc.stdout


def test_selftest_deterministic_for_fixed_seed(capsys):
    _, first, _ = run_cli(capsys, "selftest", "A1", "--seed", "42")
    _, second, _ = run_cli(capsys, "selftest", "A1", "--seed", "42")
    assert first == second


def test_output_independent_of_threads(capsys):
    _, one, _ = run_cli(capsys, "steinberg", "A2", "--decompose", "e[1,-1]", "--json", "--threads", "1")
    _, four, _ = run_cli(capsys, "steinberg", "A2", "--decompose", "e[1,-1]", "--json", "--threads", "4")
    assert one == four
    jsonschema.validate(json.loads(one), SCHEMA)


def test_repeated_runs_byte_identical(capsys):
    for argv in (
        ("info", "G2", "--json"),
        ("char", "B2", "1,1"),
        ("apply", "A2", "dp[1]*dp[2]", "e[2,1]", "--json"),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "Z9"),  # unknown type
        ("info", "[[2,-2],[-2,2]]"),  # affine matrix
        ("info", "[[2,-1],[-1,2]"),  # broken JSON
        ("apply", "A1", "d[7]", "e[1]"),  # operator index out of range
        ("apply", "A1", "d[1]", "e[1,2]"),  # wrong rank
        ("char", "A1", "x"),  # bad weight
        ("decompose", "A1", "e[1"),  # parse error
        ("cover", "pullback", "e[1]", "--matrix", "[[0]]"),  # singular cover
        ("cover", "pullback", "e[1]", "--matrix", "[[2"),  # broken JSON matrix
        # JSON matrices hold integers only, in a list of equal-length lists
        ("info", "[[2.0]]"),
        ("info", "[[true]]"),
        ("info", "[1]"),
        ("info", "[[2,-1],[-1]]"),
        ("cover", "pullback", "e[1]", "--matrix", "[[1.5]]"),
        ("cover", "pullback", "e[1]", "--matrix", "[1]"),
        ("cover", "pullback", "e[1]", "--matrix", '[["2"]]'),
        # off-diagonal products beyond any finite type, too long to print as minors
        ("info", "[[2,-%s],[-%s,2]]" % ("9" * 4000, "9" * 4000)),
    ],
)
def test_domain_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "A1", "(1+e[1])^1000000"),  # a weight is expected: parse error
        ("apply", "A1", "top", "(1+e[1])^1000000"),
        ("induce", "A1", "(1+e[1])^1000000"),
        ("decompose", "A2", "(e[1,0]+e[-1,1]+e[0,-1])^100000"),
        ("invariant-check", "A1", "e[1]^-1000000"),
        ("apply", "A1", "m[2^100000000]", "e[1]"),
        # products of powers within their own bound
        ("apply", "A1", "m[2^9999*2^9999]", "e[0]"),
        ("decompose", "A1", "(2^9999*e[1]+2^9999*e[-1])*(2^9999*e[1]+2^9999*e[-1])"),
        # composed multipliers, and integer literals longer than int() reads
        ("apply", "A1", "m[2^9999]*m[2^9999]", "e[0]"),
        ("apply", "A1", "m[2^9999]*w[1]*m[2^9999]", "e[0]"),
        ("char", "A1", "1" * 5000),
        ("decompose", "A1", "1" * 5000 + "*e[0]"),
        # the multipliers times the element, and sums of literals
        ("apply", "A1", "m[2^9999]", "2^9999*e[0]"),
        ("decompose", "A1", "9" * 4300 + "+" + "9" * 4300),
        # weight coordinates: literals, and what the α-string walk would cross
        ("decompose", "A1", "e[%s]*e[%s]+e[-%s]*e[-%s]" % (("9" * 4300,) * 4)),
        ("invariant-check", "G2", "e[%s,0]" % ("9" * 4300)),
        ("apply", "A1", "d[1]", "e[20000000]-e[19999998]"),
        # cover matrices: an entry whose image weights str() refuses, and
        # more cosets than decompose prints
        ("cover", "pullback", "e[10000]", "--matrix", "[[%s]]" % ("9" * 4299)),
        ("cover", "decompose", "e[1,0]", "--matrix", "[[100000,0],[0,100000]]"),
        ("cover", "decompose", "e[1,0]", "--matrix", "[[1000,0],[0,2]]"),
    ],
)
def test_huge_powers_exit_one_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "ParseError" in err


def test_library_bugs_exit_two(capsys, monkeypatch):
    # an exception that is not a WeylkitError is a bug in the package, not
    # in the input: exit 2 with one line on stderr
    import weylkit.cli as cli

    def broken(datum, u, strict=None):
        raise ValueError("broken\ninside")

    monkeypatch.setattr(cli, "induce", broken)
    code, out, err = run_cli(capsys, "induce", "A1", "e[1]")
    assert code == 2
    assert out == ""
    assert err == "ValueError: broken inside\n"


def test_cli_pool_prints_the_recorded_bytes(capsys):
    # every command of the benchmark's pool, with its stdout digest recorded
    # when the pool was made, both with strict mode on and off
    from weylkit.config import set_strict_default

    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "cli_pool.json").read_text())
    assert len(pool) == 144
    for strict in (True, False):
        set_strict_default(strict)
        for entry in pool:
            code, out, err = run_cli(capsys, *entry["argv"])
            assert code == 0, (entry["argv"], err)
            assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"], entry["argv"]


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "frobnicate", "A1")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "apply", "A1")[0] == 1  # missing arguments
    assert run_cli(capsys, "info", "A1", "--threads", "0")[0] == 1
    assert run_cli(capsys, "info", "A1", "--seed", "1")[0] == 1  # only selftest takes a seed


def test_strict_flag_accepted(capsys):
    code, out, _ = run_cli(capsys, "apply", "G2", "d[1]*d[2]", "e[1,0]", "--strict")
    assert code == 0
    assert out.strip()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        weylkit_command() + ["selftest", "A1", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all suites passed" in proc.stdout
