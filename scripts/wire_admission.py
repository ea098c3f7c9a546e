"""What the serve daemon admits, payload by payload, and two trees compared.

Runs :meth:`repro.serve.ServiceRequest.from_wire` over the cross product
of operator x method x precond x inner_precision x even_odd x kernel and
records, per payload, the fingerprint of the admitted request or the
field its 400 names.  Run it once per tree, then compare the two records:

    PYTHONPATH=<tree>/src python scripts/wire_admission.py record A.json
    PYTHONPATH=<tree>/src python scripts/wire_admission.py record B.json
    python scripts/wire_admission.py compare A.json B.json

``compare`` lists every payload admitted on one side only and every
payload both admit under different fingerprints, and exits 1 when a
fingerprint differs.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter

METHODS = ("auto", "bicgstab", "cg", "gcr-dd")
PRECONDS = ("auto", "none", "schwarz", "ras", "twolevel", "multisplit")
INNER_PRECISIONS = (None, "single", "half")
KERNELS = ("auto", "numpy", "c")


def payloads():
    """``(key, payload)`` over the cross product."""
    for op, method, precond, inner, even_odd, kernel in itertools.product(
        ("wilson_clover", "asqtad"), METHODS, PRECONDS, INNER_PRECISIONS,
        (False, True), KERNELS,
    ):
        doc = {
            "operator": op, "mass": 0.2, "method": method,
            "precond": precond, "even_odd": even_odd, "kernel": kernel,
            "gauge": {"kind": "weak", "dims": [4, 4, 4, 4], "seed": 3},
            "rhs": {"kind": "random", "seed": 1},
        }
        if inner is not None:
            doc["inner_precision"] = inner
        key = "/".join(
            str(v) for v in (op, method, precond, inner, even_odd, kernel)
        )
        yield key, doc


def record(path: str) -> None:
    from repro.serve import RequestValidationError, ServiceRequest

    out = {}
    for key, doc in payloads():
        try:
            out[key] = {"fingerprint": ServiceRequest.from_wire(doc).fingerprint}
        except RequestValidationError as exc:
            out[key] = {"field": exc.field}
    with open(path, "w") as f:
        json.dump(out, f, indent=0, sort_keys=True)
    admitted = sum("fingerprint" in v for v in out.values())
    print(f"{path}: {len(out)} payloads, {admitted} admitted")


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    assert a.keys() == b.keys(), "the two records cover different payloads"
    both = [k for k in a if "fingerprint" in a[k] and "fingerprint" in b[k]]
    only_a = [k for k in a if "fingerprint" in a[k] and "field" in b[k]]
    only_b = [k for k in a if "field" in a[k] and "fingerprint" in b[k]]
    moved = [k for k in both if a[k] != b[k]]
    print(f"payloads {len(a)}; admitted by A {len(both) + len(only_a)}, "
          f"by B {len(both) + len(only_b)}, by both {len(both)}")
    print(f"fingerprints equal on {len(both) - len(moved)} of {len(both)} "
          "payloads both admit")
    print(f"admitted by A only: {len(only_a)}, by field of B's 400: "
          f"{dict(Counter(b[k]['field'] for k in only_a))}")
    for k in only_a:
        print(f"  A only  {k}  (B: 400 {b[k]['field']})")
    print(f"admitted by B only: {len(only_b)}")
    for k in only_b:
        print(f"  B only  {k}  (A: 400 {a[k]['field']})")
    for k in moved:
        print(f"  FINGERPRINT MOVED  {k}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["record"] and len(sys.argv) == 3:
        record(sys.argv[2])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
