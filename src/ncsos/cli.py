"""Command-line front end: separation, membership, artifacts, bounds.

Every command reads UTF-8 JSON, emits a deterministic job report on
stdout (timings excluded from the determinism contract) and, when a
feasibility verdict is reached, leaves behind either an exactly
verifiable certificate file or a replayable witness file.  Rationals
travel as "p/q" strings end to end.

Exit codes: 0 success/certificate/separation, 1 failed verification,
2 point inside the cone, 3 refutation witness, 4 undecided at the given
radius or shift (also: a Gram system refused as too large, or an
artifact whose numbers exceed MAX_ARTIFACT_DIGITS), 64 malformed input,
70 internal error (with NCSOS_DEBUG=1 its traceback goes to stderr).
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

from . import rcf
from .cones import (
    PointInsideCone,
    cone_from_json,
    evaluate_lex,
    separate_point,
)
from .groupalg import FREE, FREE_STAR, AlgebraSpec, element_from_json
from .qc import max_digits
from .repwitness import (
    refutation_witness,
    unitary_witness_from_json,
    unitary_witness_to_json,
    verify_unitary_witness,
)
from .soscone import (
    CoverageError,
    certificate_defect,
    certificate_from_json,
    certificate_to_json,
    certify_membership,
    interior_shift_certificate,
    kazhdan_constant_finite,
    laplacian_bound,
    verify_certificate,
    verify_witness,
    witness_from_json,
    witness_to_json,
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


def _digest(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"path": os.path.basename(path),
            "sha256": hashlib.sha256(data).hexdigest()}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _BadInput(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _BadInput(
            f"malformed JSON in {path} at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
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
    if multi or os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, default_name)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return out


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return path


def _write_certificate(path: str, cert) -> None:
    """Write cert only once the exact verifier accepts it."""
    if not verify_certificate(cert):
        raise RuntimeError("certificate fails exact verification")
    _write(path, certificate_to_json(cert))


def _oversize(report: JobReport, rationals) -> bool:
    """Record the artifact's max_digits; True (and the verdict turned
    undecided) when it is too large to write."""
    digits = max_digits(rationals)
    report.diagnostics["max_digits"] = digits
    if digits <= MAX_ARTIFACT_DIGITS:
        return False
    report.verdict = "undecided"
    report.diagnostics["reason"] = (
        f"exact artifact found but not written: a number in it has "
        f"{digits} digits, above the limit of {MAX_ARTIFACT_DIGITS}")
    return True


def _emit(report: JobReport, stream=None) -> None:
    print(report.to_json(), file=stream or sys.stdout)


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

def _cmd_separate(args) -> int:
    t0 = time.perf_counter()
    cone_text = _read_text(args.cone)
    try:
        cone = cone_from_json(cone_text)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad cone description: {exc}") from exc
    point = [_parse_fraction(p.strip(), "point coordinate")
             for p in args.point.split(",") if p.strip() != ""]
    if len(point) != cone.dim:
        raise _BadInput(f"point has {len(point)} coordinates, cone lives "
                        f"in dimension {cone.dim}")
    report = JobReport(command="separate", inputs=_digest(args.cone),
                       verdict="",
                       disclosures={"dim": cone.dim,
                                    "generators": len(cone.generators),
                                    "truncation_order": rcf.default_order()})
    report.diagnostics["point"] = [str(p) for p in point]
    try:
        functional = separate_point(cone, point)
    except PointInsideCone as exc:
        report.verdict = "inside"
        report.diagnostics["membership"] = str(exc)
        report.timings["seconds"] = time.perf_counter() - t0
        _emit(report)
        return EXIT_INSIDE
    val_x = evaluate_lex(functional, point)
    gens_ok = all(evaluate_lex(functional, g).sign() >= 0
                  for g in cone.generators)
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
    report.timings["seconds"] = time.perf_counter() - t0
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sos
# ---------------------------------------------------------------------------

def _sos_single(path: str, mode: str, radius, shift, out,
                multi: bool) -> tuple[JobReport, int]:
    t0 = time.perf_counter()
    try:
        b = element_from_json(_read_text(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad element in {path}: {exc}") from exc
    if not b.is_hermitian():
        raise _BadInput("target element must be hermitian")
    report = JobReport(command="sos", inputs=_digest(path), verdict="",
                       disclosures={"mode": mode, "radius": radius,
                                    "shift": str(shift) if shift else None,
                                    "tolerance": 1e-7,
                                    "truncation_order": rcf.default_order()})

    if shift is not None:
        if shift <= 0:
            raise _BadInput("--shift must be a positive rational")
        try:
            cert = interior_shift_certificate(b, shift)
        except (ValueError, CoverageError) as exc:
            report.verdict = "undecided"
            report.diagnostics["reason"] = str(exc)
            report.diagnostics["advice"] = ("increase --shift or --radius "
                                            "and retry")
            report.timings["seconds"] = time.perf_counter() - t0
            return report, EXIT_UNDECIDED
        if _oversize(report, cert.rationals()):
            report.timings["seconds"] = time.perf_counter() - t0
            return report, EXIT_UNDECIDED
        apath = _artifact_path(path, out, "cert", multi)
        _write_certificate(apath, cert)
        report.verdict = "certified"
        report.artifact = apath
        report.diagnostics["squares"] = len(cert.squares)
        report.diagnostics["target_includes_shift"] = True
        report.timings["seconds"] = time.perf_counter() - t0
        return report, EXIT_OK

    outcome = certify_membership(b, mode=mode, radius=radius)
    report.disclosures["radius"] = outcome.radius
    if outcome.margin is not None:
        report.diagnostics["sdp_margin"] = outcome.margin
    if outcome.verdict == "certified":
        if _oversize(report, outcome.certificate.rationals()):
            report.timings["seconds"] = time.perf_counter() - t0
            return report, EXIT_UNDECIDED
        apath = _artifact_path(path, out, "cert", multi)
        _write_certificate(apath, outcome.certificate)
        report.verdict = "certified"
        report.artifact = apath
        report.diagnostics["squares"] = len(outcome.certificate.squares)
        report.timings["seconds"] = time.perf_counter() - t0
        return report, EXIT_OK
    if outcome.verdict == "refuted":
        wit = outcome.witness
        apath = _artifact_path(path, out, "witness", multi)
        kind = "dual_functional"
        if b.spec.kind in (FREE, FREE_STAR):
            # the dilation needs functional values one step past the
            # space; re-refute on a wider ball when the first pass is
            # too short (a representation witness refutes membership at
            # every radius, so this never weakens the verdict)
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
                if not verify_unitary_witness(uw):
                    raise RuntimeError("unitary witness fails verification")
                report.diagnostics["max_digits"] = \
                    max_digits(uw.target.terms.values())
                _write(apath, unitary_witness_to_json(uw))
                kind = "unitary_representation"
                report.diagnostics["witness_value"] = uw.value
                if resolved is not None:
                    # the witness comes from the wider re-solve
                    report.diagnostics["witness_radius"] = resolved
            except (CoverageError, RuntimeError, ValueError) as exc:
                report.diagnostics["dilation_fallback"] = str(exc)
        if kind == "dual_functional":
            if not verify_witness(wit):
                raise RuntimeError("dual witness fails exact verification")
            if _oversize(report, wit.rationals()):
                report.timings["seconds"] = time.perf_counter() - t0
                return report, EXIT_UNDECIDED
            _write(apath, witness_to_json(wit))
            report.diagnostics["witness_value"] = \
                float(wit.value_at_target)
        report.verdict = "refuted"
        report.artifact = apath
        report.diagnostics["witness_kind"] = kind
        report.timings["seconds"] = time.perf_counter() - t0
        return report, EXIT_WITNESS
    report.verdict = "undecided"
    report.diagnostics.update(outcome.diagnostics)
    if "refused" in outcome.diagnostics:
        fits = outcome.diagnostics["largest_radius_that_fits"]
        report.diagnostics["advice"] = \
            f"retry with --radius {fits} or less" if fits else \
            "no radius fits this backend"
    else:
        report.diagnostics["advice"] = \
            f"no exact artifact at radius {outcome.radius}; retry with " \
            f"--radius {outcome.radius + 1}"
    report.timings["seconds"] = time.perf_counter() - t0
    return report, EXIT_UNDECIDED


def _sos_worker(job):
    path, mode, radius, shift, out, multi = job
    try:
        report, code = _sos_single(path, mode, radius, shift, out, multi)
        return report.to_json(), code
    except _BadInput as exc:
        return json.dumps({"command": "sos", "error": str(exc),
                           "inputs": {"path": os.path.basename(path)}},
                          indent=1, sort_keys=True), EXIT_BAD_INPUT


def _cmd_sos(args) -> int:
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
    return worst


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_certificate_file(data, report) -> int:
    try:
        cert = certificate_from_json(json.dumps(data))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _BadInput(f"unreadable certificate: {exc}") from exc
    ok = verify_certificate(cert)
    report.verdict = "verified" if ok else "failed"
    report.diagnostics["artifact_kind"] = "sos_certificate"
    if not ok:
        bad_weight = next((str(w) for w, _ in cert.squares if w <= 0), None)
        if bad_weight is not None:
            report.diagnostics["first_mismatch"] = \
                f"nonpositive weight {bad_weight}"
        else:
            defect = certificate_defect(cert)
            where = min(defect.support(), key=cert.target.spec.word_key,
                        default=None)
            report.diagnostics["first_mismatch"] = (
                "identity defect at word "
                f"{cert.target.spec.word_to_str(where)}"
                if where is not None else "mode constraint violated")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_dual_witness_file(data, report) -> int:
    try:
        wit = witness_from_json(json.dumps(data))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _BadInput(f"unreadable witness: {exc}") from exc
    ok = verify_witness(wit, require_negative=True)
    report.verdict = "verified" if ok else "failed"
    report.diagnostics["artifact_kind"] = "dual_functional"
    if not ok:
        report.diagnostics["first_mismatch"] = \
            "moment/value recomputation disagrees with stored data"
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_unitary_file(data, report) -> int:
    try:
        wit = unitary_witness_from_json(json.dumps(data))
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"unreadable witness: {exc}") from exc
    ok = verify_unitary_witness(wit)
    report.verdict = "verified" if ok else "failed"
    report.diagnostics["artifact_kind"] = "unitary_representation"
    report.diagnostics["stored_value"] = wit.value
    if not ok:
        report.diagnostics["first_mismatch"] = \
            "unitarity, state normalization, replay or sign check failed"
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    data = _load_json(args.artifact)
    report = JobReport(command="verify", inputs=_digest(args.artifact),
                       verdict="")
    if not isinstance(data, dict):
        raise _BadInput("artifact must be a JSON object")
    if data.get("kind") == "sos_certificate":
        code = _verify_certificate_file(data, report)
    elif data.get("kind") == "dual_witness":
        code = _verify_dual_witness_file(data, report)
    elif {"generators", "state", "value", "target"} <= set(data):
        code = _verify_unitary_file(data, report)
    else:
        raise _BadInput("unrecognized artifact layout: expected a "
                        "certificate, a dual functional or a unitary "
                        "witness")
    report.timings["seconds"] = time.perf_counter() - t0
    _emit(report)
    return code


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


def _cmd_lap_bound(args) -> int:
    t0 = time.perf_counter()
    try:
        b = element_from_json(_read_text(args.element))
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad element: {exc}") from exc
    S = _parse_words(b.spec, args.gens)
    report = JobReport(command="lap-bound", inputs=_digest(args.element),
                       verdict="",
                       disclosures={"generators": [b.spec.word_to_str(s)
                                                   for s in S]})
    try:
        bound = laplacian_bound(b, S, radius=args.radius)
    except ValueError as exc:
        report.verdict = "failed"
        report.diagnostics["reason"] = str(exc)
        report.timings["seconds"] = time.perf_counter() - t0
        _emit(report)
        return EXIT_VERIFY_FAILED
    report.verdict = "bounded"
    report.diagnostics["bound"] = str(bound)
    report.timings["seconds"] = time.perf_counter() - t0
    _emit(report)
    return EXIT_OK


def _cmd_kazhdan(args) -> int:
    t0 = time.perf_counter()
    data = _load_json(args.group)
    try:
        spec = AlgebraSpec.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise _BadInput(f"bad group description: {exc}") from exc
    if spec.kind != "finite":
        raise _BadInput("kazhdan expects a finite group backend")
    S = _parse_words(spec, args.gens)
    report = JobReport(command="kazhdan", inputs=_digest(args.group),
                       verdict="",
                       disclosures={"order": spec.order,
                                    "generators": [spec.word_to_str(s)
                                                   for s in S]})
    try:
        lo, hi, exact = kazhdan_constant_finite(spec, S,
                                                return_interval=True)
    except ValueError as exc:
        if "does not generate" in str(exc):
            report.verdict = "not-generating"
            report.diagnostics["gap"] = "0"
            report.diagnostics["reason"] = str(exc)
            report.timings["seconds"] = time.perf_counter() - t0
            _emit(report)
            return EXIT_OK
        raise _BadInput(str(exc)) from exc
    report.verdict = "gap"
    report.diagnostics["exact"] = exact
    report.diagnostics["gap"] = str(lo)
    if not exact:
        report.diagnostics["enclosure"] = [str(lo), str(hi)]
    report.timings["seconds"] = time.perf_counter() - t0
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ncsos",
                     description="Exact cone separation and sums of "
                                 "hermitian squares.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("separate", help="separate a point from a finitely "
                                        "generated convex cone")
    p.add_argument("cone", help="cone JSON file")
    p.add_argument("--point", required=True,
                   help="comma-separated rational coordinates, e.g. -1,0")
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
    p.add_argument("--radius", type=int, default=None)
    p.set_defaults(func=_cmd_lap_bound)

    p = sub.add_parser("kazhdan", help="spectral gap of a finite-group "
                                       "Laplacian")
    p.add_argument("group", help="group (algebra spec) JSON file")
    p.add_argument("--gens", required=True)
    p.set_defaults(func=_cmd_kazhdan)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
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
