"""Command-line interface: every subcommand emits one JSON document.

Structured output goes to stdout (or --out), human summaries and progress
to stderr.  Exit codes: 0 for any computed verdict (including "not APN"
and "witness not found"), 2 for usage errors (an --out path that cannot be
written among them), 3 for verification failures such as a failing
identity check, a certificate that does not re-verify, or a
cross-validation mismatch.  A malformed transcription in `formulas`
(an inexact division or an unparseable factor) fails the identity checks
that build on it, so it too is a verification failure (exit 3).

Identical configurations (including seeds) produce byte-identical JSON
except for the "meta" object, which carries the timestamp and runtime.

`main` can be called many times in one process (the benchmark and the tests
do): the argument parser is built at the first call and reused after it, so
each call pays only for parsing and its command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from functools import cache

from . import derivative, geometry, identities
from .derivative import CertificateError, WitnessCertificate
from .geometry import GeometryError
from .gf2m import (FieldCtx, elem_to_hex, is_seventh_power, make_field,
                   smallest_non_seventh_power)
from .identities import IdentityError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def resolve_u(ctx: FieldCtx, spec: str) -> tuple[int, list[str]]:
    """Resolve a u argument: "auto" or a hex element; returns (u, warnings)."""
    if spec == "auto":
        if ctx.m % 3 != 0:
            raise ValueError("u=auto needs 3 | m (the 7th-power condition is vacuous otherwise)")
        return smallest_non_seventh_power(ctx), []
    try:
        u = int(spec, 16)
    except ValueError:
        raise ValueError(f"u must be 'auto' or a hex element, got {spec!r}") from None
    if not 0 <= u < ctx.q:
        raise ValueError(f"u={spec} is out of range for q={ctx.q}")
    warnings = []
    if u == 0:
        warnings.append("u = 0 lies outside the family (u must be nonzero)")
    elif ctx.m % 3 == 0 and is_seventh_power(u, ctx):
        warnings.append(f"u={elem_to_hex(u)} is a 7th power; the non-APN construction needs a non-residue")
    return u, warnings


def _field(args) -> FieldCtx:
    if not 2 <= args.m <= derivative.CERT_MAX_M:
        raise ValueError(f"--m must be in 2..{derivative.CERT_MAX_M}, got {args.m}")
    modulus = None
    if getattr(args, "modulus", None):
        try:
            modulus = int(args.modulus, 16)
        except ValueError:
            raise ValueError(f"modulus must be hex, got {args.modulus!r}") from None
    return make_field(args.m, modulus)


def _params(ctx: FieldCtx, u: int | None = None, warnings: list[str] | None = None, **extra) -> dict:
    doc = {"m": ctx.m, "modulus": elem_to_hex(ctx.modulus), "q": ctx.q}
    if u is not None:
        doc["u"] = elem_to_hex(u)
    if warnings:
        doc["warnings"] = warnings
    doc.update(extra)
    return doc


def _progress(tag: str):
    marks = [False] * 4

    def cb(frac: float) -> None:
        for i, frac_mark in enumerate((0.25, 0.5, 0.75, 1.0)):
            if frac >= frac_mark and not marks[i]:
                marks[i] = True
                print(f"{tag}: {int(frac_mark * 100)}%", file=sys.stderr)

    return cb


# -- subcommand handlers ------------------------------------------------------


def cmd_field_info(args) -> tuple[dict, int]:
    ctx = _field(args)
    family_ok = ctx.m % 3 == 0
    doc = {
        "schema": "field/1",
        "params": _params(ctx),
        "verdicts": {
            "three_divides_m": family_ok,
            "smallest_non_seventh_power":
                elem_to_hex(smallest_non_seventh_power(ctx)) if family_ok else None,
            # the 7th powers are the index-7 subgroup of the cyclic group F_q^*
            "seventh_power_count": (ctx.q - 1) // 7 if family_ok else None,
        },
    }
    print(f"F_2^{ctx.m}, modulus {elem_to_hex(ctx.modulus)}, q={ctx.q}", file=sys.stderr)
    return doc, EXIT_OK


def cmd_spectrum(args) -> tuple[dict, int]:
    ctx = _field(args)
    u, warnings = resolve_u(ctx, args.u)
    progress = _progress("spectrum") if ctx.m >= 6 else None
    rep = derivative.differential_spectrum(u, ctx, progress=progress)
    doc = {"schema": args.schema, "params": _params(ctx, u, warnings), **rep}
    verdicts = rep["verdicts"]
    print(f"m={ctx.m} u={elem_to_hex(u)}: is_apn={verdicts['is_apn']} "
          f"uniformity={verdicts['differential_uniformity']}", file=sys.stderr)
    return doc, EXIT_OK


def cmd_permutation(args) -> tuple[dict, int]:
    ctx = _field(args)
    u, warnings = resolve_u(ctx, args.u)
    verdict = derivative.is_permutation(u, ctx)
    doc = {
        "schema": "permutation/1",
        "params": _params(ctx, u, warnings),
        "verdicts": {"is_permutation": verdict},
    }
    print(f"m={ctx.m} u={elem_to_hex(u)}: is_permutation={verdict}", file=sys.stderr)
    return doc, EXIT_OK


def cmd_witness(args) -> tuple[dict, int]:
    ctx = _field(args)
    u, warnings = resolve_u(ctx, args.u)
    strategy = "sampled" if args.sampled else "exhaustive"
    result = derivative.witness_search(u, ctx, strategy, seed=args.seed,
                                       max_draws=args.max_draws)
    doc = {"schema": "witness-search/1",
           "params": _params(ctx, u, warnings, strategy=strategy), **result}
    cert = result["certificate"]
    if cert:
        print(f"witness: triple={cert['triple']} kernel_dim={cert['kernel_dim']}",
              file=sys.stderr)
    else:
        tag = "proof of APN-ness" if strategy == "exhaustive" else "inconclusive"
        print(f"no witness found ({tag})", file=sys.stderr)
    return doc, EXIT_OK


def cmd_verify_cert(args) -> tuple[dict, int]:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: bad JSON or UTF-8
        raise ValueError(f"cannot read certificate: {err}") from None
    if isinstance(raw, dict) and "certificate" in raw:
        raw = raw["certificate"]  # accept a whole witness-search document
    try:
        cert = WitnessCertificate.from_json(raw)
    except (KeyError, ValueError, TypeError) as err:
        raise ValueError(f"malformed certificate: {err}") from None
    failures = derivative.verify_certificate(cert)
    doc = {
        "schema": "verify-cert/1",
        "params": {"path": args.path, "m": cert.m, "modulus": elem_to_hex(cert.modulus),
                   "u": elem_to_hex(cert.u)},
        "verdicts": {"valid": not failures, "failures": failures},
    }
    print("certificate valid" if not failures else f"certificate INVALID: {failures[0]}",
          file=sys.stderr)
    return doc, EXIT_OK if not failures else EXIT_VERIFY


def cmd_verify_identities(args) -> tuple[dict, int]:
    report = identities.run_all(only=args.check)
    doc = report.to_json()
    doc["params"] = {"check": args.check}
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}"
              + (f" (scale {c.scale})" if c.scale else ""), file=sys.stderr)
    return doc, EXIT_OK if report.all_pass else EXIT_VERIFY


def cmd_surface(args) -> tuple[dict, int]:
    ctx = _field(args)
    u, warnings = resolve_u(ctx, args.u)
    rep = geometry.surface_report(
        u, ctx, filtered=args.filtered,
        collect_points=args.list_points, emit_witness=args.emit_witness,
        progress=_progress("surface") if ctx.m >= 6 else None)
    doc = {"schema": geometry.SURFACE_SCHEMA,
           "params": _params(ctx, u, warnings, filtered=args.filtered), **rep}
    print(f"surface points: {rep['counts']}", file=sys.stderr)
    return doc, EXIT_OK


def cmd_cross_validate(args) -> tuple[dict, int]:
    ctx = _field(args)
    u, warnings = resolve_u(ctx, args.u)
    rep = geometry.cross_validate(
        u, ctx, progress=_progress("cross-validate") if ctx.m >= 6 else None)
    doc = {
        "schema": "cross-validate/1",
        "params": _params(ctx, u, warnings),
        "verdicts": {"consistent": rep["consistent"],
                     "mismatch_count": len(rep["mismatches"])},
        "report": rep,
    }
    print(f"cross-validation: {len(rep['mismatches'])} mismatches over "
          f"{rep['kernel_triples_checked']} triples / {rep['surface_points_checked']} points",
          file=sys.stderr)
    return doc, EXIT_OK if rep["consistent"] else EXIT_VERIFY


def cmd_bound(args) -> tuple[dict, int]:
    doc = geometry.bound_check(m_from=args.m_from, m_to=args.m_to)
    doc["params"] = {"delta": doc["delta"], "m_from": args.m_from, "m_to": args.m_to}
    print(f"bound closes from m={doc['minimal_closing_m']} "
          f"(multiples of 3: m={doc['minimal_closing_m_multiple_of_3']}); "
          f"applicable once q > {doc['applicability_threshold']}", file=sys.stderr)
    return doc, EXIT_OK


# -- wiring ---------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every `main` call.

    Each subcommand's handler is bound when the parser is built, so patching a
    `cmd_*` function afterwards does not reach `main`; names the handlers look
    up when they run, such as `_progress`, can still be patched.
    """
    parser = argparse.ArgumentParser(
        prog="triapn",
        description="Differential analysis of the trivariate family C_u over F_{2^m}^3",
    )
    parser.add_argument("--out", help="write the JSON document to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, field=True, u=True, threads=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if field:
            p.add_argument("--m", type=int, required=True, help="extension degree")
            p.add_argument("--modulus", help="hex modulus override (default: smallest irreducible)")
        if u:
            p.add_argument("--u", default="auto",
                           help="family parameter: hex element or 'auto' (smallest non-7th-power)")
        if threads:
            p.add_argument("--threads", type=int, help="ignored: every scan runs in one process")
        return p

    add("field-info", cmd_field_info, "field parameters and 7th-power data", u=False)
    add("apn-check", cmd_spectrum, "exhaustive APN verdict via the kernel spectrum",
        threads=True).set_defaults(schema="apn/1")
    add("spectrum", cmd_spectrum, "exact kernel-dimension histogram",
        threads=True).set_defaults(schema="spectrum/1")
    add("permutation", cmd_permutation, "injectivity check of C_u on F_q^3")
    w = add("witness", cmd_witness, "search for a triple with >= 4 solutions", threads=True)
    w.add_argument("--sampled", action="store_true", help="seeded sampling instead of exhaustive scan")
    w.add_argument("--seed", type=int, default=0, help="sampling seed")
    w.add_argument("--max-draws", type=int, default=10 ** 6, help="sampling budget")
    v = sub.add_parser("verify-cert", help="re-verify a stored witness certificate")
    v.set_defaults(handler=cmd_verify_cert)
    v.add_argument("path", help="certificate JSON (or witness-search output) file")
    i = sub.add_parser("verify-identities", help="run the exact identity suite")
    i.set_defaults(handler=cmd_verify_identities)
    i.add_argument("--check", help="run a single named check")
    s = add("surface", cmd_surface, "enumerate rational points of the witness surface")
    s.add_argument("--filtered", action="store_true",
                   help="restrict the point list to points passing all filters")
    s.add_argument("--list-points", action="store_true", help="include the points in the JSON")
    s.add_argument("--emit-witness", action="store_true",
                   help="reconstruct a certificate from the first filtered point")
    add("cross-validate", cmd_cross_validate, "check kernel and surface pipelines against each other")
    b = sub.add_parser("bound", help="exact lower-bound closure scan")
    b.set_defaults(handler=cmd_bound)
    b.add_argument("--m-from", type=int, default=3)
    b.add_argument("--m-to", type=int, default=40)
    return parser


def _emit(doc: dict, args, started: float) -> None:
    doc["meta"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "runtime_s": round(time.monotonic() - started, 3),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write --out {args.out}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        doc, code = args.handler(args)
        _emit(doc, args, started)
    except ValueError as err:
        # usage errors and library precondition violations (3 | m, feasibility guards, ranges)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateError, GeometryError, IdentityError, AssertionError) as err:
        print(f"internal verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY
    return code


if __name__ == "__main__":
    sys.exit(main())
