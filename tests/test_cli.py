"""End-to-end tests for the command-line front end.

Each test drives ``ncsos.cli.main`` in-process with explicit argv and
inspects the JSON job report on stdout, the exit code, and the artifact
files left behind.  The quadrant separation output is pinned against a
checked-in golden file; everything else asserts the exit-code protocol
(0 ok / 1 failed verification / 2 inside / 3 witness / 4 undecided /
64 malformed input) and the promise that every feasibility verdict
leaves an artifact the verify command accepts.
"""

import json
import os
import subprocess
import sys
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
                                                              capsys):
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


def test_sos_infeasible_shift_is_undecided(tmp_path, capsys):
    path = write_element(tmp_path, "b.json",
                         -laplacian(F1, [(1,), (-1,)]))
    code, out, _ = run(capsys, "sos", path, "--shift", "1/10")
    assert code == 4
    report = reports(out)[0]
    assert report["verdict"] == "undecided"
    assert "advice" in report["diagnostics"]
    assert report["artifact"] is None


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


def test_truncation_order_is_disclosed_from_environment(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("NCSOS_TRUNCATION", "9")
    cone = write_quadrant(tmp_path)
    code, out, _ = run(capsys, "separate", cone, "--point=-1,0",
                       "--out", str(tmp_path / "f.json"))
    assert code == 0
    assert reports(out)[0]["disclosures"]["truncation_order"] == 9


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
