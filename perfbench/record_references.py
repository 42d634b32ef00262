"""Record the reference fields of every fixed-input op into references.json.

Run from the root of a checkout: ``python3 perfbench/record_references.py``.
Each recorded value is first cross-checked against oracles that do not
depend on the op's own code path: the golden m=6 spectrum in
``tests/golden``, the histogram total q^3 - 1, ``verify_certificate`` on
every certificate and ``count_vs_band`` on every surface total.  The file
is recorded once, at the commit that defines the benchmark; later commits
are compared against it, not re-recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import round as rnd
import workloads

GOLDEN = rnd.HERE.parent / "tests" / "golden" / "spectrum_m6_u0x02.json"


def main() -> int:
    triapn = rnd.import_triapn()
    oracles = workloads.Oracles(triapn)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=rnd.HERE) as tmp:
        for smoke in (False, True):
            for name in workloads.WORKLOADS:
                for op in workloads.make_ops(name, 0, Path(tmp), smoke=smoke):
                    if op.kind not in ("spectrum", "witness", "surface", "cross_validate"):
                        continue
                    res = rnd.run_op(triapn, op)
                    doc = json.loads(Path(op.out).read_text(encoding="utf-8"))
                    refs[op.key] = workloads.reference_fields(op, doc)
                    reason = workloads.check_op(op, res["code"], doc, refs, oracles, band=True)
                    if reason:
                        raise SystemExit(f"{op.key}: {reason}")
                    golden_key = op.key == "spectrum --m 6 --u 0x2"
                    if golden_key and doc["histogram"] != golden["histogram"]:
                        raise SystemExit("m=6 u=0x2 histogram differs from the golden file")
                    print(f"{op.key}: {res['seconds']:.2f} s", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
