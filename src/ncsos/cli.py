"""Command-line front end: separation, membership, artifacts, bounds.

Every command reads UTF-8 JSON, emits a deterministic job report on
stdout (timings excluded from the determinism contract) and, when a
feasibility verdict is reached, leaves behind either an exactly
verifiable certificate file or a replayable witness file.  Rationals
travel as "p/q" strings end to end.

Exit codes: 0 success/certificate/separation/bound, 1 failed
verification or a lap-bound target outside I^2, 2 point inside the
cone, 3 refutation witness, 4 undecided at the given radius (also: a
Gram system or a lap-bound search refused as too large, or an artifact
whose numbers exceed MAX_ARTIFACT_DIGITS), 64 malformed input, 70
internal error (with NCSOS_DEBUG=1 its traceback goes to stderr).
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import BLAS_THREADS
from .cones import (
    PointInsideCone,
    cone_from_json,
    evaluate_lex,
    separate_point,
)
from .groupalg import (
    AlgebraElement,
    AlgebraSpec,
    element_from_json,
    laplacian,
)
from .qc import max_digits, rational
from .repwitness import (
    UnitaryRepWitness,
    refutation_witness,
    verify_unitary_witness,
)
from .soscone import (
    TOL,
    CoverageError,
    DualWitness,
    OversizeError,
    SosCertificate,
    certificate_defect,
    certify_membership,
    default_radius,
    kazhdan_constant_finite,
    laplacian_bound,
    verify_certificate,
    verify_witness,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INSIDE = 2
EXIT_WITNESS = 3
EXIT_UNDECIDED = 4
EXIT_BAD_INPUT = 64
EXIT_INTERNAL = 70

# Largest numerator or denominator, in decimal digits, that an artifact
# may carry: below CPython's 4300-digit limit on int <-> str conversion,
# so writing the artifact and reading it back in ``verify`` cannot fail.
MAX_ARTIFACT_DIGITS = 4000


class _BadInput(Exception):
    """Anything wrong with what the user handed us: exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _BadInput(message)


@dataclass
class JobReport:
    """Machine-readable account of one command invocation.

    Identical inputs reproduce every field except ``timings``
    byte for byte; whenever ``verdict`` states feasibility the
    ``artifact`` path holds a file that the verify command accepts.
    """

    command: str
    inputs: dict
    verdict: str
    artifact: str | None = None
    diagnostics: dict = field(default_factory=dict)
    disclosures: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "artifact": self.artifact,
            "diagnostics": self.diagnostics,
            "disclosures": self.disclosures,
            "timings": self.timings,
        }
        return json.dumps(body, indent=1, sort_keys=True)


def _read(path: str) -> tuple[str, dict]:
    """The UTF-8 text of an input file and the report's digest of the
    same bytes: ``{"path", "sha256"}``.  The file is opened once."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _BadInput(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _BadInput(f"{path} is not UTF-8: {exc}") from exc
    return text, {"path": os.path.basename(path),
                  "sha256": hashlib.sha256(data).hexdigest()}


def _load_json(path: str) -> tuple[object, dict]:
    """The parsed JSON of an input file and the digest of its bytes."""
    text, digest = _read(path)
    try:
        return json.loads(text), digest
    except json.JSONDecodeError as exc:
        raise _BadInput(
            f"malformed JSON in {path} at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:       # an integer too long to convert
        raise _BadInput(f"malformed JSON in {path}: {exc}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _BadInput(f"bad rational for {what}: {text!r}") from exc


def _artifact_path(input_path: str, out: str | None, suffix: str,
                   multi: bool = False) -> str:
    stem = os.path.basename(input_path)
    if stem.endswith(".json"):
        stem = stem[:-5]
    default_name = f"{stem}.{suffix}.json"
    if out is None:
        return os.path.join(os.path.dirname(input_path) or ".", default_name)
    multi = multi or os.path.isdir(out)
    folder = out if multi else os.path.dirname(out)
    try:
        os.makedirs(folder or ".", exist_ok=True)
    except OSError as exc:
        raise _BadInput(f"cannot create directory {folder} for --out: "
                        f"{exc}") from exc
    return os.path.join(out, default_name) if multi else out


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return path


# Each artifact kind: its name in messages, its class (which owns the
# dict form: ``to_dict`` for ``sos``, ``from_dict`` for ``verify``) and
# the name of its exact check (imported above, and looked up in this
# module when called).  Both commands go through this one table, so
# ``sos`` writes only what ``verify`` accepts.
_ARTIFACTS = {
    "sos_certificate": ("certificate", SosCertificate, "verify_certificate"),
    "dual_functional": ("dual witness", DualWitness, "verify_witness"),
    "unitary_representation": ("unitary witness", UnitaryRepWitness,
                               "verify_unitary_witness"),
}


def _check(kind: str, obj) -> bool:
    """The check of this artifact kind, looked up when called."""
    return globals()[_ARTIFACTS[kind][2]](obj)


def _write_artifact(report: JobReport, path: str, kind: str, obj) -> bool:
    """Check obj as ``ncsos verify`` does, refuse it when a number in it
    is too long to write, then write it and record it in the report.

    A failed check raises RuntimeError.  A refusal records the artifact's
    max_digits and why, turns the verdict undecided and returns False.
    """
    name = _ARTIFACTS[kind][0]
    if not _check(kind, obj):
        raise RuntimeError(f"{name} fails verification")
    digits = max_digits(obj.rationals())
    report.diagnostics["max_digits"] = digits
    if digits > MAX_ARTIFACT_DIGITS:
        report.verdict = "undecided"
        report.diagnostics["reason"] = (
            f"exact artifact found but not written: a number in it has "
            f"{digits} digits, above the limit of {MAX_ARTIFACT_DIGITS}")
        return False
    report.artifact = _write(path, json.dumps(obj.to_dict()))
    return True


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

def _cmd_separate(args):
    cone_text, digest = _read(args.cone)
    try:
        cone = cone_from_json(cone_text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad cone description: {exc}") from exc
    # "" alone is the point of a dim-0 cone; an empty coordinate is an error
    chunks = [p.strip() for p in args.point.split(",")] if args.point else []
    if "" in chunks:
        raise _BadInput(f"empty coordinate in point {args.point!r}")
    point = [_parse_fraction(p, "point coordinate") for p in chunks]
    if len(point) != cone.dim:
        raise _BadInput(f"point has {len(point)} coordinates, cone lives "
                        f"in dimension {cone.dim}")
    report = JobReport(command="separate", inputs=digest,
                       verdict="",
                       disclosures={"dim": cone.dim,
                                    "generators": len(cone.generators)})
    report.diagnostics["point"] = [str(p) for p in point]
    try:
        functional = separate_point(cone, point)
    except PointInsideCone as exc:
        report.verdict = "inside"
        report.diagnostics["membership"] = str(exc)
        return report, EXIT_INSIDE
    val_x = evaluate_lex(functional, point)
    gens_ok = all(functional.sign_at(g) >= 0 for g in cone.generators)
    if not (gens_ok and val_x.sign() < 0):
        raise RuntimeError(
            "separating functional fails its sign contract: value at the "
            f"point {val_x.render()}, generators nonnegative: {gens_ok}")
    path = _write(_artifact_path(args.cone, args.out, "functional"),
                  functional.to_json())
    report.verdict = "separated"
    report.artifact = path
    report.diagnostics.update({
        "stages": len(functional.stages),
        "value_at_point": val_x.render(),
        "point_value_negative": True,
        "generators_nonnegative": True,
    })
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# sos
# ---------------------------------------------------------------------------

def _sos_single(path: str, mode: str, radius, shift, out,
                multi: bool) -> tuple[JobReport, int]:
    text, digest = _read(path)
    try:
        b = element_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad element in {path}: {exc}") from exc
    if not b.is_hermitian():
        raise _BadInput("target element must be hermitian")
    target = b
    if shift is not None:
        if shift <= 0:
            raise _BadInput("--shift must be a positive rational")
        if mode != "full":
            raise _BadInput("--shift certifies in full mode only")
        target = b + AlgebraElement.unit(b.spec) * shift
    if mode == "augmentation":
        if not b.spec.is_group():
            raise _BadInput("augmentation mode needs a group backend")
        if b.augmentation():
            raise _BadInput("augmentation mode needs a target in the "
                            "augmentation ideal (coefficients summing to 0)")
    least = default_radius(target, mode)
    if radius is not None and radius < least:
        raise _BadInput(f"--radius {radius} does not cover the support of "
                        f"the target; the smallest radius that does is "
                        f"{least}")
    report = JobReport(command="sos", inputs=digest, verdict="",
                       disclosures={"mode": mode,
                                    "shift": str(shift) if shift else None,
                                    "tolerance": TOL,
                                    "blas_threads": BLAS_THREADS})

    outcome = certify_membership(target, mode=mode, radius=radius)
    report.disclosures["radius"] = outcome.radius
    if outcome.margin is not None:
        report.diagnostics["sdp_margin"] = outcome.margin
    for key in ("gram_hint", "sdp_iterations", "sdp_stop"):
        if key in outcome.diagnostics:
            report.diagnostics[key] = outcome.diagnostics[key]
    if outcome.verdict == "refuted":
        return _sos_refuted(report, target, mode, outcome,
                            _artifact_path(path, out, "witness", multi))
    if outcome.verdict == "undecided":
        diag, r = outcome.diagnostics, outcome.radius
        if "refused" in diag:
            fits = diag["largest_radius_that_fits"]
            advice = f"retry with --radius {fits} or less" if fits else \
                "no radius fits this backend"
        elif "solver" in diag:
            advice = ("the SDP solver failed: " + diag["solver"].get(
                "reason", "see diagnostics.solver"))
        else:
            advice = (f"no exact artifact at radius {r}; retry with "
                      f"--radius {r + 1}")
        report.verdict = "undecided"
        report.diagnostics.update(diag, advice=advice)
        return report, EXIT_UNDECIDED
    cert = outcome.certificate
    if not _write_artifact(report, _artifact_path(path, out, "cert", multi),
                           "sos_certificate", cert):
        return report, EXIT_UNDECIDED
    report.verdict = "certified"
    report.diagnostics["squares"] = len(cert.squares)
    return report, EXIT_OK


def _sos_refuted(report: JobReport, b, mode: str, outcome, apath: str):
    """Write a unitary representation witness where the backend has one
    and it passes its check, the dual functional otherwise."""
    report.verdict = "refuted"
    wit, kind = outcome.witness, "dual_functional"
    if b.spec.relation_free:
        # the dilation needs functional values one step past the space;
        # re-refute on a wider ball when the first pass is too short (a
        # representation witness refutes membership at every radius, so
        # this never weakens the verdict)
        resolved = None
        try:
            try:
                uw = refutation_witness(b, wit)
            except CoverageError:
                wider = certify_membership(b, mode=mode,
                                           radius=outcome.radius + 1)
                if wider.verdict != "refuted":
                    raise
                uw = refutation_witness(b, wider.witness)
                resolved = wider.radius
            if not _write_artifact(report, apath, "unitary_representation",
                                   uw):
                return report, EXIT_UNDECIDED
            kind = "unitary_representation"
            report.diagnostics["witness_value"] = uw.value
            if resolved is not None:
                # the witness comes from the wider re-solve
                report.diagnostics["witness_radius"] = resolved
        except (CoverageError, RuntimeError, ValueError) as exc:
            report.diagnostics["dilation_fallback"] = str(exc)
    if kind == "dual_functional":
        if not _write_artifact(report, apath, kind, wit):
            return report, EXIT_UNDECIDED
        value = wit.value_at_target
        report.diagnostics["witness_value"] = \
            float(value) if abs(value) <= sys.float_info.max else str(value)
    report.diagnostics["witness_kind"] = kind
    return report, EXIT_WITNESS


def _sos_worker(job):
    t0 = time.perf_counter()
    try:
        report, code = _sos_single(*job)
    except _BadInput as exc:
        return json.dumps({"command": "sos", "error": str(exc),
                           "inputs": {"path": os.path.basename(job[0])}},
                          indent=1, sort_keys=True), EXIT_BAD_INPUT
    report.timings["seconds"] = time.perf_counter() - t0
    return report.to_json(), code


def _cmd_sos(args):
    if args.jobs < 1:
        raise _BadInput("--jobs must be at least 1")
    shift = _parse_fraction(args.shift, "--shift") \
        if args.shift is not None else None
    multi = len(args.element) > 1
    jobs = [(path, args.mode, args.radius, shift, args.out, multi)
            for path in args.element]
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sos_worker, jobs)
    else:
        results = [_sos_worker(job) for job in jobs]
    worst = EXIT_OK
    for text, code in results:
        print(text)
        worst = max(worst, code)
    return None, worst              # each report is already printed


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _first_mismatch(kind: str, obj) -> str:
    if kind == "dual_functional":
        return "moment/value recomputation disagrees with stored data"
    if kind == "unitary_representation":
        return "unitarity, state normalization, replay or sign check failed"
    bad_weight = next((str(w) for w, _ in obj.squares if w <= 0), None)
    if bad_weight is not None:
        return f"nonpositive weight {bad_weight}"
    spec = obj.target.spec
    where = min(certificate_defect(obj).support(), key=spec.word_key,
                default=None)
    return f"identity defect at word {spec.word_to_str(where)}" \
        if where is not None else "mode constraint violated"


def _cmd_verify(args):
    data, digest = _load_json(args.artifact)
    if not isinstance(data, dict):
        raise _BadInput("artifact must be a JSON object")
    if data.get("kind") == "sos_certificate":
        kind = "sos_certificate"
    elif data.get("kind") == "dual_witness":
        kind = "dual_functional"
    elif {"generators", "state", "value", "target"} <= set(data):
        kind = "unitary_representation"
    else:
        raise _BadInput("unrecognized artifact layout: expected a "
                        "certificate, a dual functional or a unitary "
                        "witness")
    name, cls = _ARTIFACTS[kind][:2]
    try:
        obj = cls.from_dict(data)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _BadInput(f"unreadable {name}: {exc}") from exc
    ok = _check(kind, obj)
    report = JobReport(command="verify", inputs=digest,
                       verdict="verified" if ok else "failed",
                       diagnostics={"artifact_kind": kind})
    if kind == "unitary_representation":
        report.diagnostics["stored_value"] = obj.value
    if not ok:
        report.diagnostics["first_mismatch"] = _first_mismatch(kind, obj)
    return report, EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# lap-bound / kazhdan
# ---------------------------------------------------------------------------

def _parse_words(spec: AlgebraSpec, text: str):
    words = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            words.append(spec.word_from_str(chunk))
        except (ValueError, KeyError) as exc:
            raise _BadInput(f"bad group word {chunk!r}: {exc}") from exc
    if not words:
        raise _BadInput("no generators given")
    return words


def _cmd_lap_bound(args):
    text, digest = _read(args.element)
    try:
        b = element_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad element: {exc}") from exc
    if not b.is_hermitian():
        raise _BadInput("target element must be hermitian")
    S = _parse_words(b.spec, args.gens)
    try:
        laplacian(b.spec, S)
    except ValueError as exc:
        raise _BadInput(str(exc)) from exc
    report = JobReport(command="lap-bound", inputs=digest,
                       verdict="",
                       disclosures={"generators": [b.spec.word_to_str(s)
                                                   for s in S]})
    try:
        bound = laplacian_bound(b, S)
    except OversizeError as exc:
        report.verdict = "undecided"
        report.diagnostics.update(refused=str(exc), **exc.report)
        return report, EXIT_UNDECIDED
    except ValueError as exc:
        report.verdict = "failed"
        report.diagnostics["reason"] = str(exc)
        return report, EXIT_VERIFY_FAILED
    report.verdict = "bounded"
    report.diagnostics["bound"] = str(bound)
    return report, EXIT_OK


def _cmd_kazhdan(args):
    data, digest = _load_json(args.group)
    try:
        spec = AlgebraSpec.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad group description: {exc}") from exc
    S = _parse_words(spec, args.gens)
    report = JobReport(command="kazhdan", inputs=digest,
                       verdict="",
                       disclosures={"order": spec.order,
                                    "generators": [spec.word_to_str(s)
                                                   for s in S]})
    try:
        lo, hi, exact = kazhdan_constant_finite(spec, S)
    except ValueError as exc:
        if "does not generate" in str(exc):
            report.verdict = "not-generating"
            report.diagnostics["gap"] = "0"
            report.diagnostics["reason"] = str(exc)
            return report, EXIT_OK
        raise _BadInput(str(exc)) from exc
    report.verdict = "gap"
    report.diagnostics["exact"] = exact
    report.diagnostics["gap"] = str(lo)
    if not exact:
        report.diagnostics["enclosure"] = [str(lo), str(hi)]
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process."""
    parser = _Parser(prog="ncsos",
                     description="Exact cone separation and sums of "
                                 "hermitian squares.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("separate", help="separate a point from a finitely "
                                        "generated convex cone")
    p.add_argument("cone", help="cone JSON file")
    p.add_argument("--point", required=True,
                   help="comma-separated rational coordinates, e.g. "
                        "--point=-1,0 (with '=' when the first is negative)")
    p.add_argument("--out", default=None, help="functional output path")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("sos", help="decide cone membership for a hermitian "
                                   "element")
    p.add_argument("element", nargs="+", help="element JSON file(s)")
    p.add_argument("--mode", choices=["full", "augmentation"],
                   default="full")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--shift", default=None,
                   help="certify target + shift*identity (rational)")
    p.add_argument("--out", default=None,
                   help="artifact path (directory for several inputs)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for several inputs")
    p.set_defaults(func=_cmd_sos)

    p = sub.add_parser("verify", help="re-check a certificate or witness "
                                      "file independently")
    p.add_argument("artifact", help="certificate or witness JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lap-bound", help="Laplacian domination constant "
                                         "for an ideal element")
    p.add_argument("element", help="element JSON file")
    p.add_argument("--gens", required=True,
                   help="comma-separated generators, e.g. a,A or 1,2")
    p.set_defaults(func=_cmd_lap_bound)

    p = sub.add_parser("kazhdan", help="spectral gap of a finite-group "
                                       "Laplacian")
    p.add_argument("group", help="group (algebra spec) JSON file")
    p.add_argument("--gens", required=True)
    p.set_defaults(func=_cmd_kazhdan)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        report, code = args.func(args)
        if report is not None:
            report.timings["seconds"] = time.perf_counter() - t0
            print(report.to_json())
        return code
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        if os.environ.get("NCSOS_DEBUG") == "1":
            import traceback        # only here: it would cost every start

            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
