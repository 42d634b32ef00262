"""Workload definitions, reference fields and correctness oracles.

Each workload is a list of CLI invocations ("ops") run back to back by one
client.  No two ops of a round share their inputs, so no op can reuse a
result another op computed in the same process.  The benchmark seed only
changes the sampled-witness seeds; every other input is fixed, and those
fixed-input ops are checked against ``references.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WORKLOADS = ("spectrum", "witness", "surface")
KINDS = ("spectrum", "witness", "sampled", "verify_cert", "surface", "cross_validate")

# Every multi-worker op passes this explicitly, so at most two pool workers
# run at once whatever the machine reports as its core count.
THREADS = 2

# One u from each orbit of the admissible u at m=6 under u -> u^2 and
# u -> omega*u.  The smoke variant uses small, fast inputs for tests.
FULL = {
    "m_field": 6,
    "u": ("0x2", "0x3", "0x7", "0xF"),
    "m_exhaustive": 9,
    "m_sampled": (9, 12, 15, 18, 21),
    "seeds_per_m": 8,
}
SMOKE = {
    "m_field": 3,
    "u": ("0x2", "0x3", "0x5", "0x7"),
    "m_exhaustive": 3,
    "m_sampled": (6,),
    "seeds_per_m": 2,
}


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple[str, ...]   # subcommand and its arguments
    out: str                # path the CLI writes its JSON document to
    m: int
    seed: int | None = None

    @property
    def key(self) -> str:
        """Reference key: the subcommand line without file paths or thread count.

        The CLI promises identical results for any worker count.
        """
        args = list(self.args)
        if "--threads" in args:
            i = args.index("--threads")
            del args[i:i + 2]
        return " ".join(args)

    @property
    def argv(self) -> list[str]:
        return ["--out", self.out, *self.args]


def sampled_seeds(seed: int, count: int) -> range:
    """The sampled-witness seeds a benchmark seed stands for."""
    return range(seed * 1000, seed * 1000 + count)


def make_ops(workload: str, seed: int, workdir: Path, smoke: bool = False,
             threads: int = THREADS) -> list[Op]:
    cfg = SMOKE if smoke else FULL
    ops: list[Op] = []

    def add(kind, m, *args, seed=None):
        out = str(workdir / f"op{len(ops):03d}.json")
        ops.append(Op(kind, tuple(args), out, m, seed))

    m6 = str(cfg["m_field"])
    if workload == "spectrum":
        for u in cfg["u"]:
            add("spectrum", cfg["m_field"], "spectrum", "--m", m6, "--threads", str(threads),
                "--u", u)
    elif workload == "witness":
        m = cfg["m_exhaustive"]
        add("witness", m, "witness", "--m", str(m), "--threads", str(threads))
        for m in cfg["m_sampled"]:
            for s in sampled_seeds(seed, cfg["seeds_per_m"]):
                add("sampled", m, "witness", "--m", str(m), "--sampled", "--seed", str(s), seed=s)
                add("verify_cert", m, "verify-cert", ops[-1].out)
    elif workload == "surface":
        for u in cfg["u"]:
            add("surface", cfg["m_field"], "surface", "--m", m6, "--u", u, "--emit-witness")
            add("cross_validate", cfg["m_field"], "cross-validate", "--m", m6, "--u", u)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return ops


def _cert_fields(cert: dict | None) -> dict | None:
    if cert is None:
        return None
    return {k: cert[k] for k in ("m", "modulus", "u", "triple", "kernel_dim", "solutions")}


def reference_fields(op: Op, doc: dict) -> dict | None:
    """The result fields compared against the seed-commit reference.

    Bookkeeping such as ``scanned`` and ``meta`` is left out on purpose:
    correcting a count must not read as a wrong result.  Seed-dependent
    ops return None and are checked by the oracles alone.
    """
    if op.kind == "spectrum":
        return {"params": doc["params"], "verdicts": doc["verdicts"],
                "histogram": doc["histogram"]}
    if op.kind == "witness":
        return {"verdicts": doc["verdicts"], "certificate": _cert_fields(doc["certificate"])}
    if op.kind == "surface":
        return {"counts": doc["counts"], "certificate": _cert_fields(doc.get("certificate"))}
    if op.kind == "cross_validate":
        rep = doc["report"]
        return {"verdicts": doc["verdicts"],
                "report": {k: rep[k] for k in ("kernel_triples_checked",
                                               "kernel_witness_triples",
                                               "surface_points_checked", "consistent")}}
    return None


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


class Oracles:
    """Independent checks that need the library itself."""

    def __init__(self, triapn):
        self.derivative = triapn.derivative
        self.geometry = triapn.geometry
        self.gf2m = triapn.gf2m

    def certificate_failures(self, cert: dict) -> list[str]:
        parsed = self.derivative.WitnessCertificate.from_json(cert)
        return self.derivative.verify_certificate(parsed)

    def band_count(self, m: int, u: str) -> dict:
        return self.geometry.count_vs_band(int(u, 16), self.gf2m.make_field(m))


def check_op(op: Op, code: int, doc: dict | None, refs: dict, oracles: Oracles,
             band: bool = False) -> str | None:
    """None when the op's result is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if doc is None:
        return "no JSON document"
    if op.kind in ("spectrum", "witness", "surface", "cross_validate"):
        if op.key not in refs:
            return "no reference recorded for this op"
        if reference_fields(op, doc) != refs[op.key]:
            return "result differs from the reference"
    if op.kind == "spectrum":
        total = sum(doc["histogram"].values())
        if total != (1 << (3 * op.m)) - 1:
            return f"histogram covers {total} triples"
    cert = doc.get("certificate")
    if op.kind == "sampled":
        if not doc["verdicts"]["found"] or doc["seed"] != op.seed or cert["m"] != op.m:
            return "sampled search returned no certificate for the requested field and seed"
    if op.kind in ("witness", "sampled", "surface") and cert is not None:
        failures = oracles.certificate_failures(cert)
        if failures:
            return f"certificate does not re-verify: {failures[0]}"
    if op.kind == "verify_cert":
        if doc["verdicts"] != {"valid": True, "failures": []}:
            return "verify-cert rejected the certificate"
    if op.kind == "surface" and band:
        band_doc = oracles.band_count(op.m, op.args[op.args.index("--u") + 1])
        if not band_doc["counts_agree"] or band_doc["count"] != doc["counts"]["total"]:
            return "surface total differs from count_vs_band"
    return None
