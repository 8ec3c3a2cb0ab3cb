"""End-to-end tests for the command-line front end.

Each test drives ``ncsos.cli.main`` in-process with explicit argv and
inspects the JSON job report on stdout, the exit code, and the artifact
files left behind.  The quadrant separation output is pinned against a
checked-in golden file; everything else asserts the exit-code protocol
(0 ok / 1 failed verification / 2 inside / 3 witness / 4 undecided /
64 malformed input) and the promise that every feasibility verdict
leaves an artifact the verify command accepts.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncsos.cli import main
from ncsos.cones import ConeV, cone_to_json
from ncsos.groupalg import (
    AlgebraElement,
    AlgebraSpec,
    element_from_dict,
    element_to_json,
    laplacian,
)
from ncsos.qc import QC
from ncsos.soscone import SosCertificate

GOLDEN = Path(__file__).parent / "golden" / "quadrant_functional.json"

F1 = AlgebraSpec.free(1)
F2 = AlgebraSpec.free(2)
C3 = AlgebraSpec.cyclic(3)
C4 = AlgebraSpec.cyclic(4)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports(stdout):
    """Parse one or more concatenated JSON reports."""
    decoder = json.JSONDecoder()
    out, i = [], 0
    text = stdout.strip()
    while i < len(text):
        obj, j = decoder.raw_decode(text, i)
        out.append(obj)
        i = j
        while i < len(text) and text[i] in " \n":
            i += 1
    return out


def write_quadrant(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(cone_to_json(ConeV(2, [[1, 0], [0, 1]])),
                    encoding="utf-8")
    return str(path)


def write_element(tmp_path, name, elem):
    path = tmp_path / name
    path.write_text(element_to_json(elem), encoding="utf-8")
    return str(path)


def unit(spec):
    return AlgebraElement.unit(spec)


def gen(spec, i):
    return AlgebraElement.generator(spec, i)


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

def test_separate_matches_golden_functional(tmp_path, capsys):
    cone = write_quadrant(tmp_path)
    out_file = tmp_path / "functional.json"
    code, out, _ = run(capsys, "separate", cone, "--point=-1,0",
                       "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == GOLDEN.read_bytes()
    report = reports(out)[0]
    assert report["verdict"] == "separated"
    assert report["diagnostics"]["point_value_negative"] is True
    assert report["diagnostics"]["generators_nonnegative"] is True
    assert report["diagnostics"]["value_at_point"] == "-1"


def test_separate_evaluates_a_long_functional_exactly(tmp_path, capsys):
    # a staircase e_i - 2 e_{i+1} separates in 9 stages, and stage 9
    # weighs by eps^255
    gens = [[int(k == i) - 2 * int(k == i + 1) for k in range(9)]
            for i in range(8)] + [[0] * 8 + [1]]
    cone = tmp_path / "staircase.json"
    cone.write_text(cone_to_json(ConeV(9, gens)), encoding="utf-8")
    code, out, _ = run(capsys, "separate", str(cone),
                       "--point=-1,2,0,0,0,0,0,0,0",
                       "--out", str(tmp_path / "f.json"))
    assert code == 0
    report = reports(out)[0]
    assert report["diagnostics"]["stages"] == 9
    assert report["diagnostics"]["value_at_point"] == "-1 + 2*e^1"


def test_separate_help_shows_the_equals_form_of_a_negative_point(
        tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["separate", "--help"])
    assert "--point=-1,0" in capsys.readouterr().out
    # the space form reads -1,0 as an option, so the help must not show it
    code, _, err = run(capsys, "separate", write_quadrant(tmp_path),
                       "--point", "-1,0")
    assert code == 64 and "expected one argument" in err


def test_separate_point_inside_exits_two(tmp_path, capsys):
    cone = write_quadrant(tmp_path)
    code, out, _ = run(capsys, "separate", cone, "--point", "2,3")
    assert code == 2
    report = reports(out)[0]
    assert report["verdict"] == "inside"
    assert report["artifact"] is None


def test_separate_malformed_json_exits_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,', encoding="utf-8")
    code, _, err = run(capsys, "separate", str(bad), "--point", "1,1")
    assert code == 64
    assert "line" in err


def test_separate_dimension_mismatch_exits_64(tmp_path, capsys):
    cone = write_quadrant(tmp_path)
    code, _, err = run(capsys, "separate", cone, "--point", "1,2,3")
    assert code == 64
    assert "dimension" in err


@pytest.mark.parametrize("dim", [2.9, "2", True, -1, None])
def test_separate_rejects_a_cone_dim_that_is_not_a_json_integer(
        tmp_path, capsys, dim):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"dim": dim, "generators": [["1", "0"]]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "separate", str(cone), "--point", "1,1")
    assert code == 64
    assert "dim must be an integer" in err
    assert not list(tmp_path.glob("*.functional.json"))


def test_separate_report_is_deterministic(tmp_path, capsys):
    cone = write_quadrant(tmp_path)
    out_file = str(tmp_path / "f.json")
    code1, out1, _ = run(capsys, "separate", cone, "--point=-1,0",
                         "--out", out_file)
    first = Path(out_file).read_bytes()
    code2, out2, _ = run(capsys, "separate", cone, "--point=-1,0",
                         "--out", out_file)
    assert (code1, code2) == (0, 0)
    assert Path(out_file).read_bytes() == first
    r1, r2 = reports(out1)[0], reports(out2)[0]
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_separate_sign_failure_writes_no_functional(tmp_path, capsys,
                                                   monkeypatch):
    class Positive:
        def sign(self):
            return 1

        def render(self):
            return "1"

    monkeypatch.setattr("ncsos.cli.evaluate_lex", lambda f, x: Positive())
    cone = write_quadrant(tmp_path)
    out_file = tmp_path / "functional.json"
    code, out, err = run(capsys, "separate", cone, "--point=-1,0",
                         "--out", str(out_file))
    assert code == 70
    assert "sign contract" in err
    assert not out_file.exists()
    assert not list(tmp_path.glob("*.functional.json"))


def test_separate_broken_pivot_exits_70_without_writing_under_O(tmp_path):
    # every pivot leaves one wrong rhs entry behind; the LP's own exact
    # check must refuse the result before a functional is written
    cone = write_quadrant(tmp_path)
    script = ("import sys\n"
              "from ncsos import cli, linprog\n"
              "pivot = linprog._pivot\n"
              "def broken(M, D, basis, r, e):\n"
              "    D = pivot(M, D, basis, r, e)\n"
              "    M[r][-1] += 1\n"
              "    return D\n"
              "linprog._pivot = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_file = tmp_path / "functional.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "separate", cone,
         "--point=-1,0", "--out", str(out_file)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 70, proc.stderr
    assert "exact optimal check" in proc.stderr
    assert not out_file.exists()
    assert not list(tmp_path.glob("*.functional.json"))


# ---------------------------------------------------------------------------
# sos
# ---------------------------------------------------------------------------

def test_sos_certificate_roundtrip(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "certified"
    artifact = report["artifact"]
    assert os.path.exists(artifact)
    vcode, vout, _ = run(capsys, "verify", artifact)
    assert vcode == 0
    assert reports(vout)[0]["verdict"] == "verified"


def test_sos_certificate_weights_are_rational_strings(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    data = json.loads(Path(reports(out)[0]["artifact"]).read_text())
    assert data["kind"] == "sos_certificate"
    for square in data["squares"]:
        assert Fraction(square["w"]) > 0


def test_sos_refutation_emits_replayable_unitary_witness(tmp_path, capsys):
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path)
    assert code == 3
    report = reports(out)[0]
    assert report["verdict"] == "refuted"
    assert report["diagnostics"]["witness_kind"] == "unitary_representation"
    assert report["diagnostics"]["witness_value"] < -1e-3
    vcode, vout, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0
    assert reports(vout)[0]["diagnostics"]["artifact_kind"] == \
        "unitary_representation"


def test_sos_refutation_on_finite_groups_uses_dual_functional(tmp_path,
                                                              capsys, no_sdp):
    path = write_element(tmp_path, "b.json", -laplacian(C3, [1, 2]))
    code, out, _ = run(capsys, "sos", path, "--mode", "augmentation")
    assert code == 3
    report = reports(out)[0]
    assert report["diagnostics"]["witness_kind"] == "dual_functional"
    vcode, _, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0


def test_sos_augmentation_laplacian_certificate(tmp_path, capsys):
    path = write_element(tmp_path, "delta.json",
                         laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path, "--mode", "augmentation")
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "certified"
    assert report["disclosures"]["mode"] == "augmentation"
    vcode, _, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0


def test_augmentation_delta_squared_at_radius_three_certifies(tmp_path,
                                                              capsys):
    # m = 1456 conditions, inside the size gate; the rounding sweep needs
    # no factor of the dense m x m constraint Gram matrix
    delta = laplacian(F2, [(1,), (-1,), (2,), (-2,)])
    path = write_element(tmp_path, "b.json", delta * delta + delta)
    start = time.perf_counter()
    code, out, _ = run(capsys, "sos", path, "--mode", "augmentation",
                       "--radius", "3")
    assert time.perf_counter() - start < 15.0
    report = reports(out)[0]
    assert code == 0 and report["verdict"] == "certified"
    vcode, _, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0


def test_sos_shift_certifies_shifted_target(tmp_path, capsys):
    g = gen(F1, 1)
    b = g + g.star()
    path = write_element(tmp_path, "b.json", b)
    out_file = str(tmp_path / "shifted.json")
    code, out, _ = run(capsys, "sos", path, "--shift", "2", "--out",
                       out_file)
    assert code == 0
    data = json.loads(Path(out_file).read_text())
    target = element_from_dict(data["target"])
    assert target == b + 2 * unit(F1)
    vcode, _, _ = run(capsys, "verify", out_file)
    assert vcode == 0


def test_sos_infeasible_shift_is_refuted(tmp_path, capsys):
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path, "--shift", "1/10")
    assert code == 3
    report = reports(out)[0]
    assert report["verdict"] == "refuted"
    vcode, vout, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0
    assert reports(vout)[0]["verdict"] == "verified"


@pytest.mark.parametrize("case, eta, extra, code", [
    ("a+A", 2, [], 0),
    ("a+A", 2, ["--radius", "2"], 4),
    ("-Delta", Fraction(1, 10), [], 3),
], ids=["certified", "undecided", "refuted"])
def test_sos_shift_is_sos_on_the_shifted_target(tmp_path, capsys, case, eta,
                                                extra, code):
    g = gen(F1, 1)
    b = g + g.star() if case == "a+A" else -laplacian(F1, [(1,), (-1,)])
    x = write_element(tmp_path, "x.json", b)
    y = write_element(tmp_path, "y.json", b + unit(F1) * eta)
    got = []
    for argv in ([x, "--shift", str(eta)], [y]):
        out_file = tmp_path / f"{Path(argv[0]).stem}.artifact.json"
        got_code, out, _ = run(capsys, "sos", *argv, *extra,
                               "--out", str(out_file))
        report = reports(out)[0]
        got.append((got_code, report["verdict"], report["diagnostics"],
                    out_file.read_bytes() if out_file.exists() else None))
    assert got[0] == got[1]
    assert got[0][0] == code
    assert (got[0][3] is None) == (code == 4)


@pytest.mark.parametrize("argv, patched, suffix", [
    (["b.json"], "verify_certificate", "cert"),
    (["b.json", "--shift", "1"], "verify_certificate", "cert"),
    (["c3.json", "--mode", "augmentation"], "verify_witness", "witness"),
])
def test_failed_artifact_check_exits_70_without_writing_under_O(
        tmp_path, argv, patched, suffix):
    g = gen(F1, 1)
    write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    write_element(tmp_path, "c3.json", -laplacian(C3, [1, 2]))
    script = ("import sys\n"
              "import ncsos.cli as cli\n"
              f"cli.{patched} = lambda artifact: False\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "sos"] + argv,
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 70, proc.stderr
    assert not list(tmp_path.glob(f"*.{suffix}.json"))


def test_sos_shift_rejects_augmentation_mode(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "e.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path, "--shift", "1", "--mode",
                       "augmentation", "--radius", "3")
    assert code == 64
    assert "full mode" in out
    assert not list(tmp_path.glob("*.cert.json"))


def test_sos_shift_certifies_from_the_given_radius(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "e.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path, "--shift", "1", "--radius", "3")
    assert code == 0
    report = reports(out)[0]
    assert (report["disclosures"]["mode"],
            report["disclosures"]["radius"]) == ("full", 3)
    cert = SosCertificate.from_dict(
        json.loads(Path(report["artifact"]).read_text()))
    assert max(F1.word_len(w) for _, a in cert.squares for w in a.terms) == 3
    vcode, _, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0


@pytest.mark.parametrize("extra, code, verdict, radius", [
    ([], 0, "certified", 1),
    (["--radius", "2"], 4, "undecided", 2),
])
def test_sos_shift_boundary_target_is_decided_at_the_given_radius(
        tmp_path, capsys, extra, code, verdict, radius):
    # 2 + a + A = (1 + a)*(1 + a) lies on the cone boundary: radius 1
    # certifies it, radius 2 leaves it undecided
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", g + g.star())
    got, out, _ = run(capsys, "sos", path, "--shift", "2", *extra)
    report = reports(out)[0]
    assert (got, report["verdict"]) == (code, verdict)
    assert report["disclosures"]["radius"] == radius
    assert bool(report["artifact"]) == (code == 0)


def test_sos_shift_refuses_an_oversize_gram_system(tmp_path, capsys,
                                                   monkeypatch):
    import ncsos.soscone as soscone

    def no_tables(*args, **kwargs):
        raise AssertionError("a product table was built")

    monkeypatch.setattr(soscone.GramAssembly, "__init__", no_tables)
    monkeypatch.setattr(soscone, "ball", no_tables)
    path = write_element(tmp_path, "b.json",
                         -laplacian(F2, [(1,), (-1,), (2,), (-2,)]))
    code, out, _ = run(capsys, "sos", path, "--shift", "9", "--radius", "5")
    assert code == 4
    report = reports(out)[0]
    assert report["disclosures"]["radius"] == 5
    assert "too large" in report["diagnostics"]["refused"]
    assert report["diagnostics"]["advice"] == "retry with --radius 3 or less"
    assert not list(tmp_path.glob("*.cert.json"))


def test_old_absorbed_certificate_still_verifies(tmp_path, capsys):
    # older releases could write "absorption": {"kind": "absorbed", ...};
    # the key is ignored on read, and the squares alone sum to the target
    g = gen(F1, 1)
    cert = SosCertificate(target=3 * unit(F1) - g - g.star(),
                          squares=[(Fraction(1), unit(F1) - g),
                                   (Fraction(1), unit(F1))])
    data = cert.to_dict()
    assert data["absorption"] == {"kind": "exact"}
    data["absorption"] = {"kind": "absorbed",
                          "by": json.loads(element_to_json(g + g.star())),
                          "amount": "1/3"}
    back = SosCertificate.from_dict(data)
    assert (back.target, back.squares) == (cert.target, cert.squares)
    path = tmp_path / "old.cert.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert reports(out)[0]["verdict"] == "verified"


@pytest.mark.parametrize("extra", [[], ["--shift", "1"]])
def test_one_identity_check_per_written_certificate(tmp_path, capsys,
                                                    monkeypatch, extra):
    import ncsos.soscone as soscone

    defect, calls = soscone.certificate_defect, []

    def counting(cert):
        calls.append(1)
        return defect(cert)

    monkeypatch.setattr(soscone, "certificate_defect", counting)
    g = gen(F1, 1)
    path = write_element(tmp_path, "e.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path, *extra)
    assert code == 0
    assert reports(out)[0]["verdict"] == "certified"
    assert len(calls) == 1


@pytest.mark.parametrize("name, extra, needle", [
    ("e", ["--radius", "-1"], "smallest radius that does is 1"),
    ("e", ["--radius", "0"], "smallest radius that does is 1"),
    ("e", ["--mode", "augmentation", "--radius", "0"],
     "smallest radius that does is 1"),
    ("cube", ["--mode", "augmentation"], "augmentation ideal"),
    ("star", ["--mode", "augmentation"], "group backend"),
])
def test_malformed_sos_requests_exit_64_before_solving(
        tmp_path, capsys, monkeypatch, name, extra, needle):
    import ncsos.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "certify_membership", unreachable)
    g = gen(F1, 1)
    fs1 = AlgebraSpec.free_star(1, hermitian=True)
    elements = {"e": 2 * unit(F1) - g - g.star(),
                "cube": g * g * g + (g * g * g).star(),
                "star": unit(fs1) + gen(fs1, 1)}
    path = write_element(tmp_path, f"{name}.json", elements[name])
    code, out, _ = run(capsys, "sos", path, *extra)
    assert code == 64
    assert needle in reports(out)[0]["error"]


def test_sos_refuses_a_unitary_witness_too_large_to_write(tmp_path, capsys,
                                                          monkeypatch):
    import ncsos.cli as cli

    monkeypatch.setattr(cli, "MAX_ARTIFACT_DIGITS", 0)
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path)
    assert code == 4
    report = reports(out)[0]
    assert report["verdict"] == "undecided"
    assert report["artifact"] is None
    assert report["diagnostics"]["max_digits"] == 1
    assert "witness_kind" not in report["diagnostics"]
    assert not list(tmp_path.glob("*.witness.json"))


def test_sos_rejects_nonpositive_shift(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", g + g.star())
    code, out, _ = run(capsys, "sos", path, "--shift", "-1")
    assert code == 64


def test_sos_rejects_non_hermitian_targets(tmp_path, capsys):
    path = write_element(tmp_path, "b.json", gen(F1, 1))
    code, out, _ = run(capsys, "sos", path)
    assert code == 64
    assert "hermitian" in out


@pytest.mark.parametrize("argv", [
    ["sos", "{a}", "{b}", "--out", "{o}"],
    ["sos", "{a}", "--out", "{o}/x.json"],
    ["separate", "{cone}", "--point=-1,0", "--out", "{o}/f.json"],
], ids=["sos-batch", "sos-single", "separate"])
def test_out_path_that_cannot_be_created_exits_64(tmp_path, capsys, argv):
    g = gen(F1, 1)
    blocker = tmp_path / "o"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    paths = {"a": write_element(tmp_path, "a.json",
                                2 * unit(F1) - g - g.star()),
             "b": write_element(tmp_path, "b.json", unit(F1)),
             "cone": write_quadrant(tmp_path), "o": str(blocker)}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 64
    assert f"cannot create directory {blocker}" in out + err


def test_sos_batch_processes_every_input(tmp_path, capsys):
    g = gen(F1, 1)
    p1 = write_element(tmp_path, "one.json", 2 * unit(F1) - g - g.star())
    p2 = write_element(tmp_path, "two.json",
                       -laplacian(F1, [(1,), (-1,)]))
    out_dir = str(tmp_path / "artifacts")
    code, out, _ = run(capsys, "sos", p1, p2, "--jobs", "2", "--out",
                       out_dir)
    assert code == 3
    parsed = reports(out)
    assert [r["verdict"] for r in parsed] == ["certified", "refuted"]
    for r in parsed:
        assert os.path.dirname(r["artifact"]) == out_dir
        vcode, _, _ = run(capsys, "verify", r["artifact"])
        assert vcode == 0


def test_sos_pool_is_capped_at_the_input_count(tmp_path, capsys,
                                              monkeypatch):
    import multiprocessing

    sizes = []

    class RecordingPool:
        """Runs the jobs in-process and records the requested size."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    g = gen(F1, 1)
    p1 = write_element(tmp_path, "one.json", 2 * unit(F1) - g - g.star())
    p2 = write_element(tmp_path, "two.json", 3 * unit(F1) - g - g.star())
    out_dir = str(tmp_path / "artifacts")
    code, out, _ = run(capsys, "sos", p1, p2, "--jobs", "512", "--out",
                       out_dir)
    assert code == 0
    assert sizes == [2]
    assert [r["verdict"] for r in reports(out)] == ["certified", "certified"]
    code, _, _ = run(capsys, "sos", p1, "--jobs", "512")
    assert code == 0
    assert sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sos_rejects_jobs_below_one(tmp_path, capsys, jobs):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, _, err = run(capsys, "sos", path, "--jobs", jobs)
    assert code == 64
    assert "--jobs" in err
    assert not list(tmp_path.glob("*.cert.json"))


def test_sos_unverified_unitary_witness_falls_back_to_dual_functional(
        tmp_path, capsys, monkeypatch):
    import ncsos.cli as cli

    monkeypatch.setattr(cli, "verify_unitary_witness", lambda wit: False)
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path)
    assert code == 3
    report = reports(out)[0]
    assert report["verdict"] == "refuted"
    assert report["diagnostics"]["witness_kind"] == "dual_functional"
    assert "fails verification" in report["diagnostics"]["dilation_fallback"]
    vcode, vout, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0
    assert reports(vout)[0]["diagnostics"]["artifact_kind"] == \
        "dual_functional"


def test_sos_discloses_the_radius_of_a_re_solved_witness(tmp_path, capsys):
    # the radius-1 refutation of -Delta over free(2) is too short for the
    # dilation, so the unitary witness comes from a radius-2 re-solve
    path = write_element(tmp_path, "b.json",
                         -laplacian(F2, [(1,), (-1,), (2,), (-2,)]))
    code, out, _ = run(capsys, "sos", path)
    assert code == 3
    report = reports(out)[0]
    assert report["disclosures"]["radius"] == 1
    assert report["diagnostics"]["witness_kind"] == "unitary_representation"
    assert report["diagnostics"]["witness_radius"] == 2
    assert report["diagnostics"]["max_digits"] == 1


def test_minus_laplacian_of_free2_at_radius_three_is_refuted(tmp_path,
                                                             capsys):
    # 53 basis words and 1457 conditions; the SDP stops at its first
    # dual iterate that refutes exactly, so this takes about a second
    path = write_element(tmp_path, "b.json",
                         -laplacian(F2, [(1,), (-1,), (2,), (-2,)]))
    code, out, _ = run(capsys, "sos", path, "--radius", "3")
    assert code == 3
    report = reports(out)[0]
    assert report["disclosures"]["radius"] == 3
    assert report["diagnostics"]["witness_kind"] == "unitary_representation"
    assert "witness_radius" not in report["diagnostics"]
    assert report["diagnostics"]["sdp_margin"] < 0
    vcode, vout, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0
    assert reports(vout)[0]["diagnostics"]["artifact_kind"] == \
        "unitary_representation"


@pytest.mark.parametrize("case, radius, verdict, stop", [
    ("inside", 1, "certified", "early_certificate"),
    ("boundary", 1, "certified", "converged"),
    ("outside", 1, "refuted", "early_refutation"),
])
def test_sos_reports_why_the_sdp_stopped(tmp_path, capsys, case, radius,
                                         verdict, stop):
    g = gen(F1, 1)
    b = {"inside": unit(F1) * 3 - g - g.star(),
         "boundary": laplacian(F1, [(1,), (-1,)]),
         "outside": g + g.star() - unit(F1) * 3}[case]
    path = write_element(tmp_path, "b.json", b)
    code, out, _ = run(capsys, "sos", path, "--radius", str(radius))
    report = reports(out)[0]
    assert report["verdict"] == verdict
    assert report["diagnostics"]["sdp_stop"] == stop
    assert report["diagnostics"]["sdp_iterations"] >= 1
    assert run(capsys, "verify", report["artifact"])[0] == 0
    # the counters are deterministic, like the rest of the report
    assert reports(run(capsys, "sos", path, "--radius", str(radius))[1])[0][
        "diagnostics"] == report["diagnostics"]


@pytest.mark.parametrize("spec, radius, resolved", [
    (F1, None, 2), (F1, 2, None), (F1, 3, None),
    (F2, 2, 3), (F2, 3, None),
], ids=["free1-default", "free1-r2", "free1-r3", "free2-r2", "free2-r3"])
def test_sos_refutations_of_degree_two_and_three_write_unitary_witnesses(
        tmp_path, capsys, spec, radius, resolved):
    # the representation space is the ball of radius ceil(deg/2), so only
    # the default radius is too short for the dilation and is re-solved
    a = gen(spec, 1)
    if spec is F1:
        b = unit(F1) - a * a - a.star() * a.star()
    else:
        c = gen(F2, 2)
        b = unit(F2) - a * c * a - (a * c * a).star() + \
            (c + c.star()) * Fraction(1, 2)
    path = write_element(tmp_path, "b.json", b)
    argv = ["sos", path] + ([] if radius is None else ["--radius",
                                                        str(radius)])
    code, out, _ = run(capsys, *argv)
    assert code == 3
    report = reports(out)[0]
    assert report["diagnostics"]["witness_kind"] == "unitary_representation"
    assert report["diagnostics"].get("witness_radius") == resolved
    assert "dilation_fallback" not in report["diagnostics"]
    vcode, _, _ = run(capsys, "verify", report["artifact"])
    assert vcode == 0


def test_sos_refuses_an_artifact_too_large_to_write(tmp_path, capsys,
                                                   monkeypatch):
    # 1 = (1/2 + t) 1*1 + (1/2 - t) 1*1 with t = 10^-4100 is an exact,
    # verified certificate whose weights have more digits than CPython
    # will turn into a string
    import ncsos.cli as cli
    from ncsos.soscone import MembershipOutcome, verify_certificate

    one = unit(F1)
    t = Fraction(1, 10 ** 4100)
    cert = SosCertificate(target=one, squares=[(Fraction(1, 2) + t, one),
                                               (Fraction(1, 2) - t, one)])
    assert verify_certificate(cert)
    monkeypatch.setattr(cli, "certify_membership", lambda b, **kw:
                        MembershipOutcome(verdict="certified", mode="full",
                                          radius=0, margin=None,
                                          certificate=cert))
    path = write_element(tmp_path, "b.json", one)
    code, out, _ = run(capsys, "sos", path)
    assert code == 4
    report = reports(out)[0]
    assert report["verdict"] == "undecided"
    assert report["artifact"] is None
    assert report["diagnostics"]["max_digits"] == 4101
    assert str(cli.MAX_ARTIFACT_DIGITS) in report["diagnostics"]["reason"]
    assert not list(tmp_path.glob("*.cert.json"))


def test_sos_reports_the_artifact_digits(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    report = reports(out)[0]
    data = json.loads(Path(report["artifact"]).read_text())
    numbers = [x for sq in data["squares"]
               for x in [sq["w"]] + [t[k] for t in sq["a"]["terms"]
                                     for k in ("re", "im")]]
    assert report["diagnostics"]["max_digits"] == max(
        len(part.lstrip("-")) for x in numbers for part in x.split("/"))


def test_sos_refuses_an_oversize_gram_system_before_building_it(
        tmp_path, capsys, monkeypatch):
    # free(2) at radius 5: n = 485 basis words, about 118k conditions
    import ncsos.soscone as soscone

    def no_tables(*args, **kwargs):
        raise AssertionError("a product table was built")

    monkeypatch.setattr(soscone.GramAssembly, "__init__", no_tables)
    monkeypatch.setattr(soscone, "ball", no_tables)
    path = write_element(tmp_path, "b.json",
                         -laplacian(F2, [(1,), (-1,), (2,), (-2,)]))
    code, out, _ = run(capsys, "sos", path, "--radius", "5")
    assert code == 4
    diag = reports(out)[0]["diagnostics"]
    assert (diag["basis_size_estimate"], diag["constraints_estimate"]) == \
        (485, 118097)
    assert "too large" in diag["refused"]
    assert diag["advice"] == "retry with --radius 3 or less"
    assert not list(tmp_path.glob("*.witness.json"))


@pytest.mark.parametrize("debug", [True, False])
def test_internal_error_traceback_only_with_ncsos_debug(tmp_path, debug):
    g = gen(F1, 1)
    write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    script = ("import sys\n"
              "import ncsos.cli as cli\n"
              "def boom(*args, **kwargs):\n"
              "    raise RuntimeError('boom')\n"
              "cli.certify_membership = boom\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("NCSOS_DEBUG", None)
    if debug:
        env["NCSOS_DEBUG"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, "sos", "b.json"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 70
    assert "internal error: RuntimeError: boom" in proc.stderr
    assert ("Traceback (most recent call last)" in proc.stderr) == debug
    assert ("in boom" in proc.stderr) == debug


def test_in_process_runs_share_no_option_state(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path, "--mode", "augmentation",
                       "--radius", "2")
    assert code == 0
    first = reports(out)[0]["disclosures"]
    assert (first["mode"], first["radius"]) == ("augmentation", 2)
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    second = reports(out)[0]["disclosures"]
    assert (second["mode"], second["radius"]) == ("full", 1)


def test_sos_report_is_deterministic(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    out_file = str(tmp_path / "c.json")
    _, out1, _ = run(capsys, "sos", path, "--out", out_file)
    first = Path(out_file).read_bytes()
    _, out2, _ = run(capsys, "sos", path, "--out", out_file)
    assert Path(out_file).read_bytes() == first
    r1, r2 = reports(out1)[0], reports(out2)[0]
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_sos_reports_no_truncation_order(tmp_path, capsys, monkeypatch):
    # sos never uses jets, so it neither reads nor discloses the order
    monkeypatch.setenv("NCSOS_TRUNCATION", "abc")
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    assert "truncation_order" not in reports(out)[0]["disclosures"]


def test_separate_ignores_a_malformed_truncation_variable(tmp_path, capsys,
                                                        monkeypatch):
    # jets are exact, so separate no longer reads NCSOS_TRUNCATION at all
    monkeypatch.setenv("NCSOS_TRUNCATION", "abc")
    cone = write_quadrant(tmp_path)
    out_file = tmp_path / "f.json"
    code, _, err = run(capsys, "separate", cone, "--point=-1,0",
                       "--out", str(out_file))
    assert code == 0
    assert "NCSOS_TRUNCATION" not in err
    assert out_file.exists()


def test_separate_discloses_no_truncation_order(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("NCSOS_TRUNCATION", "9")
    cone = write_quadrant(tmp_path)
    code, out, _ = run(capsys, "separate", cone, "--point=-1,0",
                       "--out", str(tmp_path / "f.json"))
    assert code == 0
    assert "truncation_order" not in reports(out)[0]["disclosures"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_flags_tampered_certificate(tmp_path, capsys):
    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    _, out, _ = run(capsys, "sos", path)
    artifact = reports(out)[0]["artifact"]
    data = json.loads(Path(artifact).read_text())
    data["squares"][0]["w"] = str(Fraction(data["squares"][0]["w"]) + 1)
    Path(artifact).write_text(json.dumps(data), encoding="utf-8")
    code, vout, _ = run(capsys, "verify", artifact)
    assert code == 1
    report = reports(vout)[0]
    assert report["verdict"] == "failed"
    assert "first_mismatch" in report["diagnostics"]


_RELABEL = (0, 2, 1, 3)            # an involution of Z/4 fixing 0


@pytest.mark.parametrize("table", [
    [[i ^ j for j in range(4)] for i in range(4)],
    [[_RELABEL[(_RELABEL[i] + _RELABEL[j]) % 4] for j in range(4)]
     for i in range(4)],
], ids=["z2xz2", "z4-relabelled"])
def test_verify_refuses_a_square_over_another_backend(tmp_path, capsys,
                                                      table):
    # a square over another group of the same order is malformed input,
    # refused with the square named, not an internal error
    g = gen(C4, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(C4) - g - g.star())
    _, out, _ = run(capsys, "sos", path)
    artifact = reports(out)[0]["artifact"]
    data = json.loads(Path(artifact).read_text())
    last = len(data["squares"]) - 1
    assert table != data["squares"][last]["a"]["mult_table"]
    data["squares"][last]["a"]["mult_table"] = table
    Path(artifact).write_text(json.dumps(data), encoding="utf-8")
    code, vout, err = run(capsys, "verify", artifact)
    assert (code, vout) == (64, "")
    assert f"square {last} is over another algebra than the target" in err


@pytest.mark.parametrize("mode", ["bogus", 7, None])
@pytest.mark.parametrize("sign, kind", [(1, "sos_certificate"),
                                        (-1, "dual_witness")],
                         ids=["certificate", "dual-witness"])
def test_verify_refuses_an_unknown_mode(tmp_path, capsys, sign, kind, mode):
    # a mode other than full or augmentation is malformed input on both
    # artifact kinds; a certificate that names no mode reads as full
    g = gen(C4, 1)
    path = write_element(tmp_path, "b.json",
                         (2 * unit(C4) - g - g.star()) * sign)
    _, out, _ = run(capsys, "sos", path)
    artifact = Path(reports(out)[0]["artifact"])
    data = json.loads(artifact.read_text())
    assert (data["kind"], data["mode"]) == (kind, "full")
    artifact.write_text(json.dumps({**data, "mode": mode}), encoding="utf-8")
    code, vout, err = run(capsys, "verify", str(artifact))
    assert (code, vout) == (64, "")
    assert f"unknown mode {mode!r}" in err
    if kind == "sos_certificate":
        del data["mode"]
        artifact.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, "verify", str(artifact))[0] == 0


def test_verify_flags_tampered_witness_value(tmp_path, capsys):
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    _, out, _ = run(capsys, "sos", path)
    artifact = reports(out)[0]["artifact"]
    data = json.loads(Path(artifact).read_text())
    data["value"] = data["value"] + 1e-6
    Path(artifact).write_text(json.dumps(data), encoding="utf-8")
    code, vout, _ = run(capsys, "verify", artifact)
    assert code == 1
    assert reports(vout)[0]["verdict"] == "failed"


@pytest.mark.parametrize("tamper", [
    lambda d: d.update(target={"backend": "finite",
                               "mult_table": [[0, 1], [1, 0]],
                               "terms": [{"word": "1", "re": "-1"}]}),
    lambda d: d["target"].update(backend="free_abelian"),
    lambda d: d["generators"].pop(),
    lambda d: d["state"].append([0.0, 0.0]),
], ids=["finite-target", "free-abelian-target", "missing-generator",
        "state-size"])
def test_verify_fails_a_malformed_unitary_witness(tmp_path, capsys, tamper):
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    _, out, _ = run(capsys, "sos", path)
    artifact = reports(out)[0]["artifact"]
    data = json.loads(Path(artifact).read_text())
    tamper(data)
    Path(artifact).write_text(json.dumps(data), encoding="utf-8")
    code, vout, _ = run(capsys, "verify", artifact)
    assert code == 1
    assert reports(vout)[0]["verdict"] == "failed"


def test_verify_rejects_unknown_layouts(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text('{"surprise": true}', encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 64
    assert "unrecognized" in err


def test_verify_rejects_unparseable_files(tmp_path, capsys):
    path = tmp_path / "noise.json"
    path.write_text("not json at all", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 64


def test_verify_reads_its_artifact_once_and_digests_those_bytes(
        tmp_path, capsys, monkeypatch):
    import ncsos.cli as cli

    g = gen(F1, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F1) - g - g.star())
    _, out, _ = run(capsys, "sos", path)
    artifact = reports(out)[0]["artifact"]
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, vout, _ = run(capsys, "verify", artifact)
    assert code == 0 and opened == [artifact]
    assert reports(vout)[0]["inputs"]["sha256"] == \
        hashlib.sha256(Path(artifact).read_bytes()).hexdigest()


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{\x00}\x00", "is not UTF-8"),
    (b'{"dim": ' + b"1" * 5000 + b"}", "4300"),
], ids=["utf16", "long-integer"])
@pytest.mark.parametrize("verb, extra", [
    ("separate", ["--point", "1,1"]),
    ("sos", []),
    ("verify", []),
    ("lap-bound", ["--gens", "a"]),
    ("kazhdan", ["--gens", "1"]),
])
def test_unreadable_input_exits_64(tmp_path, capsys, verb, extra, content,
                                   message):
    # UTF-16 text, and a JSON integer longer than CPython converts
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, verb, str(path), *extra)
    assert code == 64
    assert message in out + err


def _huge_point(tmp_path):
    return ["separate", write_quadrant(tmp_path), "--point=-1e5000,1"]


def _huge_generator(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"dim": 2, "generators": [
        ["1e10000000", "0"], ["0", "1"]]}), encoding="utf-8")
    return ["separate", str(path), "--point=-1,1"]


def _huge_coefficient(tmp_path):
    data = F1.to_dict()
    data["terms"] = [{"word": "", "re": "1e10000000", "im": "0"}]
    path = tmp_path / "target.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return ["sos", str(path)]


def _huge_weight(tmp_path):
    data = SosCertificate(target=unit(F1),
                          squares=[(Fraction(1), unit(F1))]).to_dict()
    data["squares"][0]["w"] = "1e10000000"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return ["verify", str(path)]


@pytest.mark.parametrize("argv_of", [
    _huge_point, _huge_generator, _huge_coefficient, _huge_weight,
], ids=["point", "generator", "coefficient", "weight"])
def test_huge_decimal_exponents_exit_64_at_once(tmp_path, capsys, argv_of):
    # Fraction("1e10000000") alone takes seconds, and a 5001-digit
    # numerator cannot be written out; both are refused before conversion
    argv = argv_of(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 64
    assert "1e" in out + err


def test_target_beyond_float_range_is_undecided(tmp_path, capsys):
    path = write_element(tmp_path, "big.json",
                         unit(F1) * Fraction(10) ** 400)
    code, out, _ = run(capsys, "sos", str(path))
    assert code == 4
    report = reports(out)[0]
    assert report["verdict"] == "undecided"
    assert "float range" in report["diagnostics"]["solver"]["reason"]


def test_solver_failure_advice_suggests_no_radius(tmp_path, capsys):
    a = gen(F1, 1)
    path = write_element(tmp_path, "big.json",
                         unit(F1) * Fraction(10) ** 400 + a + a.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 4
    advice = reports(out)[0]["diagnostics"]["advice"]
    assert advice == ("the SDP solver failed: a constraint value is beyond "
                      "float range")


def test_finite_target_beyond_float_range_certifies_exactly(tmp_path,
                                                           capsys, no_sdp):
    # the regular representation gives the Gram matrix without floats
    z6 = AlgebraSpec.cyclic(6)
    g = gen(z6, 1)
    path = write_element(tmp_path, "big.json",
                         unit(z6) * Fraction(10) ** 400 + g + g.star())
    code, out, _ = run(capsys, "sos", path)
    assert code == 0
    report = reports(out)[0]
    assert report["diagnostics"]["gram_hint"] == "exact"
    assert run(capsys, "verify", report["artifact"])[0] == 0


def test_finite_target_beyond_float_range_refutes_by_its_pivot(
        tmp_path, capsys, monkeypatch, no_sdp):
    # no float form means no eigenvector to round: the witness comes from
    # the exact vector of the failing LDL* pivot
    from ncsos import exactla

    negative_vector, calls = exactla.negative_vector, []

    def counted(factor, fail):
        calls.append(len(factor.R))
        return negative_vector(factor, fail)

    monkeypatch.setattr(exactla, "negative_vector", counted)
    z6 = AlgebraSpec.cyclic(6)
    g = gen(z6, 1)
    path = write_element(tmp_path, "big.json",
                         (unit(z6) - g - g.star()) * Fraction(10) ** 400)
    code, out, _ = run(capsys, "sos", path)
    assert code == 3
    assert calls == [6]
    report = reports(out)[0]
    assert report["diagnostics"]["witness_kind"] == "dual_functional"
    assert Fraction(report["diagnostics"]["witness_value"]) < -10 ** 400
    assert run(capsys, "verify", report["artifact"])[0] == 0


# ---------------------------------------------------------------------------
# lap-bound / kazhdan
# ---------------------------------------------------------------------------

def test_lap_bound_of_a_generator_square(tmp_path, capsys):
    b = AlgebraElement(C3, {0: QC(2), 1: QC(-1), 2: QC(-1)})
    path = write_element(tmp_path, "b.json", b)
    code, out, _ = run(capsys, "lap-bound", path, "--gens", "1,2")
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "bounded"
    assert report["diagnostics"]["bound"] == "2"


def test_lap_bound_fails_a_nonzero_augmentation_target_at_once(tmp_path,
                                                              capsys):
    a = gen(F2, 1)
    path = write_element(tmp_path, "b.json", 2 * unit(F2) + a + a.star())
    start = time.perf_counter()
    code, out, _ = run(capsys, "lap-bound", path, "--gens", "a,A,b,B")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    report = reports(out)[0]
    assert report["verdict"] == "failed"
    assert "nonzero augmentation" in report["diagnostics"]["reason"]


def test_lap_bound_rejects_a_non_hermitian_target(tmp_path, capsys):
    # exit 64, as ``sos`` does on the same file
    path = write_element(tmp_path, "b.json", gen(F2, 1) - unit(F2))
    code, out, err = run(capsys, "lap-bound", path, "--gens", "a,A,b,B")
    assert (code, out) == (64, "")
    assert "hermitian" in err
    code, out, _ = run(capsys, "sos", path)
    assert code == 64


def test_lap_bound_names_the_class_of_a_target_outside_i_squared(
        tmp_path, capsys):
    # i(a - A) has exponent sum 2i in a: its class in I/I^2 is nonzero
    F4 = AlgebraSpec.free(4)
    a = gen(F4, 1)
    path = write_element(tmp_path, "b.json",
                         QC(0, 1) * a - QC(0, 1) * a.star())
    start = time.perf_counter()
    code, out, _ = run(capsys, "lap-bound", path, "--gens", "a,A,b,B")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    report = reports(out)[0]
    assert report["verdict"] == "failed"
    assert report["diagnostics"]["reason"].endswith(
        "m_s - m_{s^-1} is QC(0, 2) at s = a")
    code, _, err = run(capsys, "lap-bound", path, "--gens", "a,A,b,B",
                       "--radius", "2")
    assert code == 64 and "--radius" in err


@pytest.mark.parametrize("spec, g, h", [
    (F2, "aab", "baa"),
    (AlgebraSpec.free_abelian(3), "aaa", "bbb"),
], ids=["free2", "free_abelian3"])
def test_lap_bound_answers_a_degree_six_target_at_once(tmp_path, capsys,
                                                      spec, g, h):
    # c(g)* c(h) + c(h)* c(g): Fox's middle split gives back the pair
    # itself, and nu(g) = nu(h) = 20, so C = 2 * KAPPA * 40
    cg, ch = (AlgebraElement.from_word(spec, spec.word_from_str(w)) -
              unit(spec) for w in (g, h))
    path = write_element(tmp_path, "b.json",
                         cg.star() * ch + ch.star() * cg)
    gens = "a,A,b,B" + (",c,C" if spec.rank == 3 else "")
    start = time.perf_counter()
    code, out, _ = run(capsys, "lap-bound", path, "--gens", gens)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "bounded"
    assert report["diagnostics"]["bound"] == "7072/125"


def test_lap_bound_refuses_a_degree_twenty_target_at_once(tmp_path, capsys):
    # c(a^5 b^5)* c(b^5 a^5) + h.c.: the weights would need all of B(10)
    # on free(2), 118097 words; the search stops before building it
    cg, ch = (AlgebraElement.from_word(F2, F2.word_from_str(w)) - unit(F2)
              for w in ("aaaaabbbbb", "bbbbbaaaaa"))
    path = write_element(tmp_path, "b.json",
                         cg.star() * ch + ch.star() * cg)
    start = time.perf_counter()
    code, out, _ = run(capsys, "lap-bound", path, "--gens", "a,A,b,B")
    assert time.perf_counter() - start < 2.0
    assert code == 4
    report = reports(out)[0]
    assert report["verdict"] == "undecided"
    assert report["diagnostics"]["refused"].startswith("nu's search")
    assert report["diagnostics"]["depth"] == 9
    assert "bound" not in report["diagnostics"]


@pytest.mark.parametrize("gens, message", [
    ("a", "S must be closed under inverses"),
    ("a,a,A", "S has repeated elements"),
    ("a,A,aA", "S must not contain the identity"),
    ("a,A", None),
], ids=["asymmetric", "repeated", "identity", "valid"])
def test_lap_bound_needs_a_generating_set_that_defines_a_laplacian(
        tmp_path, capsys, gens, message):
    ca = gen(F1, 1) - unit(F1)
    path = write_element(tmp_path, "b.json", ca.star() * ca)
    code, out, err = run(capsys, "lap-bound", path, "--gens", gens)
    if message is None:
        assert code == 0 and reports(out)[0]["diagnostics"]["bound"] == "2"
    else:
        assert code == 64 and message in err and not out


def test_lap_bound_exits_70_on_a_wrong_decomposition_under_O(tmp_path):
    # a decomposition missing one pair must be caught by the exact check
    # before any bound is reported, with asserts stripped
    ca, cb = gen(F2, 1) - unit(F2), gen(F2, 2) - unit(F2)
    path = write_element(tmp_path, "b.json",
                         ca.star() * cb + cb.star() * ca)
    script = ("import sys\n"
              "from ncsos import cli, soscone\n"
              "fox = soscone.fox_decomposition\n"
              "def drop_one(a):\n"
              "    beta, leftover = fox(a)\n"
              "    beta.pop(next(iter(beta)))\n"
              "    return beta, leftover\n"
              "soscone.fox_decomposition = drop_one\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "lap-bound", path,
         "--gens", "a,A,b,B"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 70, proc.stderr
    assert "does not sum to the target" in proc.stderr
    assert "bound" not in proc.stdout


def test_lap_bound_failure_for_elements_outside_the_span(tmp_path, capsys):
    a = gen(F2, 1)
    b = QC(0, 1) * a - QC(0, 1) * a.star()
    path = write_element(tmp_path, "b.json", b)
    code, out, _ = run(capsys, "lap-bound", path, "--gens", "a,A,b,B")
    assert code == 1
    assert reports(out)[0]["verdict"] == "failed"


def test_kazhdan_gap_of_cyclic_three(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(C3.to_dict()), encoding="utf-8")
    code, out, _ = run(capsys, "kazhdan", str(path), "--gens", "1,2")
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "gap"
    assert report["diagnostics"]["gap"] == "3"
    assert report["diagnostics"]["exact"] is True


def test_kazhdan_non_generating_set_reports_zero_gap(tmp_path, capsys):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(C4.to_dict()), encoding="utf-8")
    code, out, _ = run(capsys, "kazhdan", str(path), "--gens", "2")
    assert code == 0
    report = reports(out)[0]
    assert report["verdict"] == "not-generating"
    assert report["diagnostics"]["gap"] == "0"


def test_kazhdan_rejects_non_finite_backends(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps(F1.to_dict()), encoding="utf-8")
    code, _, err = run(capsys, "kazhdan", str(path), "--gens", "a")
    assert code == 64
    assert "finite" in err


@pytest.mark.parametrize("verb, spec, word, extra, needle", [
    ("sos", {"backend": "free_abelian", "rank": 2}, "z", [],
     "rank 2 has no such letter"),
    ("lap-bound", {"backend": "free_abelian", "rank": 2}, "",
     ["--gens", "z,Z"], "rank 2 has no such letter"),
    ("sos", {"backend": "finite", "mult_table": [[0, 1, 2], [1, 5, 0],
                                                 [2, 0, 1]]}, "1", [],
     "nonempty square of integers"),
    ("kazhdan", {"backend": "finite", "mult_table": [[0, 1, 2], [1, 5, 0],
                                                     [2, 0, 1]]}, None,
     ["--gens", "1,2"], "nonempty square of integers"),
    ("sos", {"backend": "finite", "mult_table": []}, None, [],
     "nonempty square of integers"),
    ("sos", {"backend": "free_star", "rank": 1, "hermitian": "false"}, "",
     [], "hermitian must be a boolean"),
    ("sos", {"backend": "free", "rank": 2.7}, "", [],
     "rank must be an integer"),
    ("sos", {"backend": "free", "terms": []}, None, [],
     "free backend needs field 'rank'"),
    ("kazhdan", {"backend": "finite"}, None, ["--gens", "1"],
     "finite backend needs field 'mult_table'"),
    ("kazhdan", {**C3.to_dict(), "rank": 3}, None, ["--gens", "1"],
     "finite backend takes no field 'rank'"),
    ("sos", {"rank": 1, "terms": []}, None, [],
     "field 'backend' must be one of"),
], ids=["abelian-letter", "abelian-gens", "table-entry", "kazhdan-table",
        "empty-table", "hermitian-string", "fractional-rank", "no-rank",
        "no-table", "stray-rank", "no-backend"])
def test_malformed_backend_descriptions_exit_64(tmp_path, capsys, verb,
                                                spec, word, extra, needle):
    doc = dict(spec)
    if word is not None:
        doc["terms"] = [{"word": word, "re": "1", "im": "0"}]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, verb, str(path), *extra)
    assert code == 64
    assert needle in out + err
    assert "_Lettered" not in out + err and "_Finite" not in out + err


def test_unknown_flags_exit_64(tmp_path, capsys):
    cone = write_quadrant(tmp_path)
    code, _, err = run(capsys, "separate", cone, "--point", "1,1",
                       "--bogus")
    assert code == 64


def test_console_entry_point_runs_as_module(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(C3.to_dict()), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ncsos", "kazhdan", str(path),
         "--gens", "1,2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["diagnostics"]["gap"] == "3"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, pinned", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
], ids=["default", "user-set"])
def test_blas_threads_default_to_one_unless_set(tmp_path, preset, pinned):
    g = gen(F1, 1)
    path = write_element(tmp_path, "e.json", 2 * unit(F1) - g - g.star())
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    probe = subprocess.run(
        [sys.executable, "-c", "import json, os, ncsos; print(json.dumps("
         f"[os.environ.get(v) for v in {BLAS_VARS!r}]))"],
        env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == pinned
    proc = subprocess.run([sys.executable, "-m", "ncsos", "sos", path],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["disclosures"]["blas_threads"] == \
        dict(zip(BLAS_VARS, pinned))


def test_blas_threads_unknown_when_numpy_was_imported_first(tmp_path):
    # numpy read its thread count before ncsos could pin one, so the
    # report must not claim the pinned value.
    g = gen(F1, 1)
    path = write_element(tmp_path, "e.json", 2 * unit(F1) - g - g.star())
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy, ncsos.cli; "
         f"sys.exit(ncsos.cli.main(['sos', {str(path)!r}]))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["disclosures"]["blas_threads"] is None
