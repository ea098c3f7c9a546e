"""The malformed ``rhs.kind = "data"`` matrix, shared by the suites that
drive it through ``SolveService.submit`` (test_service.py) and through a
live daemon (test_http.py).

Every case passes ``ServiceRequest.from_wire`` — the array is decoded in
the dispatcher — so each one checks that a bad array fails its own
request with a 400 naming the field and never the batch it rode in.
"""

from __future__ import annotations

import numpy as np

from repro.serve import encode_array

#: 4^4 staggered field: the lattice the serve suites solve on.
SHAPE = (4, 4, 4, 4, 3)


def good_field(seed: int = 11) -> np.ndarray:
    """A finite right-hand side of :data:`SHAPE`."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)


def malformed_rhs() -> dict[str, tuple[dict, str]]:
    """``{case: (rhs spec, the field its error must name)}``."""
    field = good_field()
    nested = encode_array(field)
    packed = encode_array(field, packed=True)

    def poked(value: complex) -> np.ndarray:
        bad = field.copy()
        bad[1, 2, 3, 0, 1] = value
        return bad

    def lists(x: np.ndarray) -> dict:
        doc = encode_array(x)
        return {"real": doc["real"], "imag": doc["imag"]}

    ragged = lists(field)
    ragged["real"][0][0][0][0] = [1.0, 2.0]
    other_lattice = np.ones((2, 2, 2, 2, 3), dtype=np.complex128)
    cases = {
        "nan_real": (lists(poked(complex(np.nan, 1.0))), "rhs.real"),
        "inf_real": (lists(poked(complex(np.inf, 1.0))), "rhs.real"),
        "inf_imag": (lists(poked(complex(1.0, -np.inf))), "rhs.imag"),
        "nan_packed": (
            encode_array(poked(complex(1.0, np.nan)), packed=True),
            "rhs.b64",
        ),
        "ragged_real": (ragged, "rhs.real"),
        "imag_of_another_shape": (
            {"real": nested["real"], "imag": nested["imag"][0]}, "rhs.imag"
        ),
        "big_endian_dtype": ({**packed, "dtype": ">c16"}, "rhs.dtype"),
        "unknown_dtype": ({**packed, "dtype": "complex128"}, "rhs.dtype"),
        "invalid_base64": (
            {**packed, "b64": "@@" + packed["b64"][2:]}, "rhs.b64"
        ),
        "short_buffer": ({**packed, "b64": packed["b64"][:-4]}, "rhs.b64"),
        "dtype_of_another_size": ({**packed, "dtype": "<c8"}, "rhs.b64"),
        "float_shape_entry": (
            {**packed, "shape": [float(n) for n in SHAPE]}, "rhs.shape"
        ),
        "negative_shape_entry": (
            {**packed, "shape": [-4, -4, 4, 4, 3]}, "rhs.shape"
        ),
        "another_lattice": (
            encode_array(other_lattice, packed=True), "rhs.shape"
        ),
        # Nested, a wrong shape is named by ``real``: a client that packed
        # this line would have the daemon name ``shape`` instead.
        "nested_another_lattice": (lists(other_lattice), "rhs.real"),
    }
    return {
        name: ({"kind": "data", **spec}, where)
        for name, (spec, where) in cases.items()
    }


MALFORMED = malformed_rhs()
