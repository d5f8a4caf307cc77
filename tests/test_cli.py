"""Command-line interface: subcommands, exit codes, determinism."""

import dataclasses
import importlib
import json
import subprocess
import sys
import time

import pytest

import baxcat as bx
import baxcat.catalog
from baxcat.category import FSymbolTable
from baxcat.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "baxcat.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_catalog_list():
    rc, out, _ = run_cli(["catalog", "list"])
    assert rc == 0
    assert "su2" in out and "ty" in out and "g2" in out


def test_baxterize_json_value():
    rc, out, _ = run_cli(["--format", "json", "baxterize", "--family", "su2",
                          "--level", "4", "--rho", "1/2", "--phi", "1", "--mu", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "TREE_UNIQUE"
    ratios = doc["evaluations"][0]["edge_ratios"]
    re, im = (float(x) for x in ratios["0/1"])
    # paper-normalised ratio A_0/A_1 at k=4, mu=2 is exp(-i pi/3)
    assert abs(complex(re, im) - complex(0.5, -0.8660254037844386)) < 1e-12


def test_baxterize_byte_identical():
    args = ["--format", "json", "baxterize", "--family", "ty", "--M", "5",
            "--rho", "X", "--phi", "1", "--mu", "1.7+0.3j"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_classify_negative_row():
    rc, out, _ = run_cli(["classify", "--family", "su2", "--level", "8"])
    assert rc == 0
    assert "(3/2, 2): INCONSISTENT" in out
    assert "(3/2, 1): TREE_UNIQUE" in out


def test_verify_ybe_ty_pass():
    rc, out, _ = run_cli(["verify", "ybe", "--family", "ty", "--M", "4",
                          "--rho", "X", "--phi", "1", "--samples", "25",
                          "--seed", "7"])
    assert rc == 0
    assert "pass" in out


def test_verify_deterministic_output():
    args = ["--format", "json", "verify", "ybe", "--family", "su2", "--level", "3",
            "--rho", "1/2", "--phi", "1", "--samples", "5", "--seed", "11"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_verify_loop():
    rc, out, _ = run_cli(["verify", "loop", "--samples", "10", "--seed", "3"])
    assert rc == 0
    assert "pass" in out


def test_verify_projectors():
    rc, out, _ = run_cli(["verify", "projectors", "--family", "su2", "--level", "2",
                          "--rho", "1/2", "--L", "4"])
    assert rc == 0


def test_verify_braid():
    rc, out, _ = run_cli(["--format", "json", "verify", "braid", "--family", "su2",
                          "--level", "3", "--rho", "1/2", "--phi", "1"])
    assert rc == 0
    doc = json.loads(out)
    names = {c["check"] for c in doc["checks"]}
    assert {"r_at_identity", "reidemeister2", "reidemeister3"} <= names


def test_verify_transfer():
    rc, out, _ = run_cli(["verify", "transfer", "--family", "su2", "--level", "3",
                          "--rho", "1/2", "--phi", "1", "--L", "4", "--samples", "3"])
    assert rc == 0


def test_inconsistent_solution_exit_code():
    rc, _, _ = run_cli(["baxterize", "--family", "su2", "--level", "8",
                        "--rho", "3/2", "--phi", "2"])
    assert rc == 1


def test_usage_errors_exit_2():
    rc, _, err = run_cli(["baxterize", "--family", "su2", "--rho", "1/2",
                          "--phi", "1"])            # missing --level
    assert rc == 2
    rc, _, _ = run_cli(["--bogus-flag"])
    assert rc == 2
    rc, _, _ = run_cli(["baxterize", "--family", "su2", "--level", "2",
                        "--rho", "7/2", "--phi", "1"])   # no such label
    assert rc == 2


def test_export_category_round_trip(tmp_path):
    path = tmp_path / "cat.json"
    rc = main(["baxterize", "--family", "ty", "--M", "3", "--rho", "X",
               "--phi", "1", "--export-category", str(path)])
    assert rc == 0
    cat = bx.category_from_json(path.read_text())
    assert cat.name == "ty_3"
    assert cat.representable


def test_table_numbers_round_trip_through_json():
    args = ["baxterize", "--family", "su2", "--level", "2", "--rho", "1/2",
            "--phi", "1", "--mu", "2"]
    rc, table, _ = run_cli(args)
    rc2, js, _ = run_cli(["--format", "json", *args])
    doc = json.loads(js)
    amp = doc["evaluations"][0]["amplitudes"]["1"]
    val = complex(float(amp[0]), float(amp[1]))
    assert f"{val:.12g}" in table


SU2_3 = ["--family", "su2", "--level", "3", "--rho", "1/2", "--phi", "1"]
SU2_8_INCONSISTENT = ["--family", "su2", "--level", "8", "--rho", "3/2", "--phi", "2"]


@pytest.mark.parametrize("args", [
    ["baxterize", *SU2_3, "--mu", "abc"],
    ["baxterize", *SU2_3, "--mu=nan"],
    ["baxterize", *SU2_3, "--mu=inf"],
    ["verify", "loop", "--q", "nan"],
    ["baxterize", *SU2_3, "--export-category", "{missing}"],
    ["verify", "loop", "--q", "0"],
    ["verify", "transfer", *SU2_3, "--L", "0"],
    ["verify", "current", *SU2_3, "--samples", "0"],
    ["verify", "current", *SU2_3, "--samples", "-3"],
    ["verify", "current", *SU2_3, "--tol", "0"],
    ["verify", "current", *SU2_3, "--tol", "nan"],
    ["verify", "braid", *SU2_3, "--L", "1"],
    ["verify", "braid", *SU2_3, "--L", "2"],
    ["verify", "projectors", *SU2_3[:-2], "--L", "1"],
    ["verify", "projectors", *SU2_3[:-2], "--L", "2000"],
    *(["verify", check, *SU2_8_INCONSISTENT] for check in ("current", "ybe", "transfer", "braid")),
], ids=["mu-abc", "mu-nan", "mu-inf", "q-nan", "export-no-dir", "loop-q0", "L0", "samples0",
        "samples-3", "tol0", "tol-nan", "braid-L1", "braid-L2", "projectors-L1",
        "projectors-L2000", "inconsistent-current", "inconsistent-ybe", "inconsistent-transfer",
        "inconsistent-braid"])
def test_bad_input_exits_2(args, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "cat.json")
    rc, _, err = run_cli([a.replace("{missing}", missing) for a in args])
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in err


# an argv of each verify check that passes, and every flag the check does not read
VERIFY_BASE = {
    "current": [*SU2_3, "--samples", "3"],
    "ybe": [*SU2_3, "--samples", "2"],
    "transfer": [*SU2_3, "--L", "4", "--samples", "2"],
    "braid": [*SU2_3, "--L", "3"],
    "projectors": [*SU2_3[:-2], "--L", "3"],
    "loop": ["--samples", "3"],
}
UNREAD = {
    "current": [["--L", "5"], ["--q", "3"]],
    "ybe": [["--q", "3"]],
    "transfer": [["--q", "3"]],
    "braid": [["--samples", "100"], ["--seed", "9"], ["--q", "3"]],
    "projectors": [["--phi", "99"], ["--samples", "7"], ["--seed", "9"], ["--q", "3"]],
    "loop": [["--family", "su2"], ["--level", "3"], ["--M", "4"], ["--n", "5"], ["--m", "2"],
             ["--export-category", "{path}"], ["--rho", "1/2"], ["--phi", "1"], ["--L", "5"]],
}
# each argv with the error line it must end with
REFUSED = [pytest.param(["verify", check, *VERIFY_BASE[check], *flag],
                        f"baxcat verify {check}: error: unrecognized arguments: {' '.join(flag)}",
                        id=f"{check}{flag[0]}")
           for check, flags in UNREAD.items() for flag in flags] + [
    pytest.param(["classify", "--family", "su2", "--level", "3", "--M", "7"],
                 "error: family 'su2' takes no parameter 'M' (--M)", id="classify--M"),
    pytest.param(["baxterize", *SU2_3, "--n", "5"],
                 "error: family 'su2' takes no parameter 'n' (--n)", id="baxterize--n"),
    pytest.param(["verify", "current", *SU2_3, "--m", "2"],
                 "error: family 'su2' takes no parameter 'm' (--m)", id="current--m"),
    pytest.param(["verify", "ybe", *SU2_3[:-2]],
                 "baxcat verify ybe: error: the following arguments are required: --phi",
                 id="ybe-no-phi"),
]


@pytest.mark.parametrize("args, error", REFUSED)
def test_a_flag_the_command_does_not_read_exits_2(args, error, tmp_path):
    # the parser of each command and check declares only the flags it reads and
    # names itself when it refuses one, and build_family refuses a family flag
    # of another family
    path = str(tmp_path / "cat.json")
    rc, out, err = run_cli([a.replace("{path}", path) for a in args])
    assert (rc, out) == (2, "")
    assert err.endswith(error.replace("{path}", path) + "\n")
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "cat.json").exists()


def test_zero_amplitude_is_a_pole_of_the_edge_ratio_and_exits_2():
    # mu = exp(2 pi i/5) is an exact zero of A[1] at su(2)_3, so A[0]/A[1] has a pole
    rc, out, err = run_cli(["baxterize", *SU2_3,
                            "--mu=0.30901699437494745+0.95105651629515353j"])
    assert rc == 2 and out == ""
    assert err == ("error: edge (0, 1) at mu=(0.30901699437494745+0.9510565162951535j): "
                   "A[1] = 0, so one of the edge's ratios has a pole\n")


def test_dense_budget_refuses_a_large_basis_with_exit_2():
    # dim 6,723: one dense transfer matrix would need 0.7 GB
    t = time.perf_counter()
    rc, _, err = run_cli(["verify", "transfer", "--family", "su2", "--level", "10",
                          "--rho", "1", "--phi", "1", "--L", "8"])
    assert rc == 2
    assert "6723" in err and "4096" in err
    assert "Traceback" not in err
    assert time.perf_counter() - t < 30


@pytest.mark.parametrize("args, dim", [
    (["projectors", "--family", "su2", "--level", "5", "--rho", "1", "--L", "10"], 17994),
    (["projectors", "--family", "su2", "--level", "3", "--rho", "1/2", "--L", "20"], 57314),
    (["braid", *SU2_3, "--L", "20"], 57314),
], ids=["projectors-su2_5", "projectors-su2_3", "braid-su2_3"])
def test_local_checks_run_past_the_dense_budget(args, dim):
    # the patch checks count the L-strand basis instead of building it
    rc, out, _ = run_cli(["--format", "json", "verify", *args])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["params"]["dim"] == dim and doc["params"]["L"] == int(args[-1])


def a4_path_count(L):
    """Height paths of L steps on the A_4 Dynkin diagram: su(2)_3 with rho = 1/2."""
    counts = [1, 1, 1, 1]
    for _ in range(L):
        counts = [sum(counts[i] for i in (h - 1, h + 1) if 0 <= i < 4) for h in range(4)]
    return sum(counts)


@pytest.mark.parametrize("check", ["projectors", "braid", "ybe"])
def test_local_checks_pass_at_L_100(check):
    # each local configuration is counted once, so rounding noise does not grow with L
    args = SU2_3 if check != "projectors" else SU2_3[:-2]
    rc, out, _ = run_cli(["--format", "json", "verify", check, *args, "--L", "100"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["params"]["dim"] == a4_path_count(100) > 10 ** 20


def test_tl_quadratic_is_reported_on_two_strands():
    rc, out, _ = run_cli(["--format", "json", "verify", "projectors", *SU2_3[:-2], "--L", "2"])
    assert rc == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    assert "tl_quadratic" in names and "tl_cubic" not in names


@pytest.mark.parametrize("check", ["projectors", "braid"])
def test_local_reports_depend_on_L_only_through_dim(check):
    # residuals, samples and verdicts come from the patch, whatever L is
    args = SU2_3 if check != "projectors" else SU2_3[:-2]
    docs = []
    for L in (3, 100):
        rc, out, _ = run_cli(["--format", "json", "verify", check, *args, "--L", str(L)])
        assert rc == 0
        doc = json.loads(out)
        assert doc["params"].pop("L") == L
        doc["params"].pop("dim")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert all(c["samples"] == 1 for c in docs[0]["checks"])


def test_tol_reaches_every_braid_check():
    rc, out, _ = run_cli(["--format", "json", "verify", "braid", *SU2_3, "--L", "3",
                          "--tol", "1e-8"])
    assert rc == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 5 and {c["tolerance"] for c in checks} == {"1e-08"}


def _no_f(*args):
    raise AssertionError("an F table was built")


@pytest.mark.parametrize("args, line", [
    (["classify", "--family", "su2", "--level", "8"], "(3/2, 2): INCONSISTENT"),
    (["classify", "--family", "minimal", "--level", "5"], "(1/2, 1): TREE_UNIQUE"),
    (["classify", "--family", "ty", "--M", "6"], "(X, 1): CYCLE_CONSISTENT   graph 6v/6e/1c"),
    (["baxterize", "--family", "su2", "--level", "4", "--rho", "1/2", "--phi", "1",
      "--mu", "2"], "mu=(2+0j): A[1]/A[0] = "),
    (["--format", "json", "baxterize", "--family", "ty", "--M", "5", "--rho", "X",
      "--phi", "1", "--mu", "1.7+0.3j"], '"edge_ratios"'),
], ids=["classify-su2", "classify-minimal", "classify-ty", "baxterize-su2", "baxterize-ty"])
def test_classify_and_baxterize_build_no_f(args, line, monkeypatch, capsys):
    # solving reads twist data only; the output is what a fresh process prints
    monkeypatch.setattr(baxcat.catalog, "su2k_f_blocks", _no_f)
    monkeypatch.setattr(baxcat.catalog, "ty_f_blocks", _no_f)
    assert main(args) == 0
    out = capsys.readouterr().out
    assert line in out
    assert (0, out, "") == run_cli(args)


@pytest.mark.parametrize("family, flag, kwarg, value, loader", [
    ("su2", "--level", "k", 3, "su2k_f_blocks"), ("ty", "--M", "M", 4, "ty_f_blocks"),
])
def test_export_category_builds_f(family, flag, kwarg, value, loader, monkeypatch, tmp_path):
    real = getattr(baxcat.catalog, loader)
    calls = []
    monkeypatch.setattr(baxcat.catalog, loader, lambda arg: calls.append(arg) or real(arg))
    path = tmp_path / "cat.json"
    rc = main(["classify", "--family", family, flag, str(value),
               "--export-category", str(path)])
    assert rc == 0 and calls == [value]
    eager = dataclasses.replace(bx.build_family(family, **{kwarg: value}),
                                f=FSymbolTable(real(value)))
    assert path.read_text() == bx.category_to_json(eager)


TY5_X = ["--family", "ty", "--M", "5", "--rho", "X", "--phi", "1"]


@pytest.mark.parametrize("args, named", [
    (["baxterize", *TY5_X, "--mu=1e200"], "mu=(1e+200+0j)"),
    (["baxterize", *TY5_X, "--mu=1e155+1e155j"], "mu=(1e+155+1e+155j)"),
    (["verify", "loop", "--q", "1e300", "--samples", "3"], "q=(1e+300+0j)"),
], ids=["mu-1e200", "mu-1e155-1e155j", "q-1e300"])
def test_finite_but_overflowing_mu_and_q_exit_2_naming_them(args, named):
    # |mu|^2 and the loop weight's powers leave the float range
    rc, out, err = run_cli(args)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_import_catalog_and_classify_load_no_numpy():
    # an amplitude carries its poles, so baxterize's report solves for none
    argvs = [(["catalog", "list"], 0)] + [
        (["classify", "--family", family, *flags], 0) for family, flags in (
            ("su2", ["--level", "4"]), ("minimal", ["--level", "4"]), ("ty", ["--M", "6"]),
            ("so", ["--n", "5", "--level", "2"]), ("sp", ["--m", "2", "--level", "3"]),
            ("g2", ["--level", "1"]))] + [
        ([*fmt, "baxterize", "--family", *flags, "--mu", "2", "--mu", "0.3+1.1j"], rc)
        for fmt in ([], ["--format", "json"]) for flags, rc in (
            (["su2", "--level", "4", "--rho", "1/2", "--phi", "1"], 0),
            (["minimal", "--level", "4", "--rho", "1/2", "--phi", "1"], 0),
            (["ty", "--M", "6", "--rho", "X", "--phi", "1"], 0),
            (["su2", "--level", "8", "--rho", "3/2", "--phi", "2"], 1))]
    code = (
        "import contextlib, io, sys\n"
        "import baxcat\n"
        "loaded = ['numpy' in sys.modules]\n"
        "from baxcat.cli import main\n"
        f"for argv, rc in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == rc, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[False] * (1 + len(argvs))}\n"


def test_public_names_resolve():
    for name in bx.__all__:
        assert getattr(bx, name) is not None, name
    assert bx.solve_central is importlib.import_module("baxcat.baxterize").solve_central
    assert set(bx.__all__) <= set(dir(bx))
    namespace = {}
    exec("from baxcat import *", namespace)
    assert set(bx.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        bx.no_such_name
