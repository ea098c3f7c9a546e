"""The HTTP/JSONL front + client, over a real socket on a free port."""

from __future__ import annotations

import copy
import http.client
import json
import threading
import urllib.request

import numpy as np
import pytest

from _malformed_arrays import MALFORMED, good_field
from repro.serve import (
    QueueFullError,
    RequestValidationError,
    ServeClient,
    ServeServer,
    ServiceRequest,
    SolveService,
    decode_array,
    encode_array,
)

DIMS = [4, 4, 4, 4]
PACKED = "arrays=base64"


def payload(seed=1, **overrides):
    doc = {
        "operator": "asqtad",
        "mass": 0.05,
        "gauge": {"kind": "unit", "dims": DIMS},
        "rhs": {"kind": "random", "seed": seed},
        "tol": 1e-8,
    }
    doc.update(overrides)
    return doc


@pytest.fixture()
def server():
    svc = SolveService(max_batch=4, max_wait=0.2).start()
    srv = ServeServer(svc, port=0).start()
    yield srv
    if srv.service.running:
        srv.stop()


class TestSolveRoute:
    def test_solve_round_trip(self, server):
        client = ServeClient(server.url)
        doc = client.solve(payload(id="r1", return_solution=True))
        assert doc["id"] == "r1"
        assert doc["status"] == "ok"
        assert doc["converged"] is True
        assert doc["solution"]["shape"][-1] == 3
        assert doc["report"]["fingerprint"]["config"]["operator"] == "asqtad"

    def test_concurrent_clients_coalesce(self, server):
        client = ServeClient(server.url)
        results = [None] * 3

        def go(i):
            results[i] = client.solve(payload(seed=i + 1))

        threads = [
            threading.Thread(target=go, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        occupancies = {r["batch"]["occupancy"] for r in results}
        assert max(occupancies) > 1  # at least some coalescing happened
        assert client.stats()["batches_total"] < 3

    def test_validation_error_maps_to_400_with_field(self, server):
        client = ServeClient(server.url)
        with pytest.raises(RequestValidationError) as exc:
            client.solve(payload(operator="wilson"))
        assert exc.value.field == "operator"
        assert "asqtad" in exc.value.choices

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/solve", b"{not json",
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_queue_full_maps_to_429(self):
        svc = SolveService(max_batch=4, max_wait=0.05, capacity=1)
        srv = ServeServer(svc, port=0).start()  # dispatcher not running
        try:
            client = ServeClient(srv.url)
            svc.submit(payload())  # occupy the single slot
            with pytest.raises(QueueFullError):
                client.solve(payload(seed=2))
        finally:
            svc.start()  # let stop() drain the occupied slot
            srv.stop()


class TestRequestCorrelation:
    """X-Request-Id echo + request_id in typed error payloads."""

    def _post(self, server, body, headers=None):
        req = urllib.request.Request(
            f"{server.url}/v1/solve",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status, dict(resp.headers), json.load(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.load(exc)

    def test_response_echoes_the_payload_id(self, server):
        status, headers, doc = self._post(server, payload(id="corr-1"))
        assert status == 200
        assert headers["X-Request-Id"] == "corr-1"
        assert doc["id"] == "corr-1"

    def test_header_id_is_a_fallback_for_anonymous_payloads(self, server):
        status, headers, doc = self._post(
            server, payload(), headers={"X-Request-Id": "hdr-7"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == "hdr-7"
        assert doc["id"] == "hdr-7"

    def test_body_id_wins_over_header(self, server):
        status, headers, doc = self._post(
            server, payload(id="body-1"), headers={"X-Request-Id": "hdr-1"}
        )
        assert headers["X-Request-Id"] == "body-1"
        assert doc["id"] == "body-1"

    def test_error_payload_carries_request_id(self, server):
        bad = payload(id="bad-1")
        bad["mass"] = "not-a-number"
        status, headers, doc = self._post(server, bad)
        assert status == 400
        assert headers["X-Request-Id"] == "bad-1"
        assert doc["error"]["request_id"] == "bad-1"

    def test_client_autogenerates_request_ids(self, server):
        client = ServeClient(server.url)
        doc = client.solve(payload())
        assert doc["id"].startswith("req-")


class TestJsonlRoute:
    def test_batch_submits_before_awaiting(self, server):
        client = ServeClient(server.url)
        docs = client.solve_many(
            [payload(seed=s, id=f"j{s}") for s in (1, 2, 3)]
        )
        assert [d["id"] for d in docs] == ["j1", "j2", "j3"]
        assert all(d["status"] == "ok" for d in docs)
        # One client, one POST, one batch: the JSONL route coalesces.
        assert all(d["batch"]["occupancy"] == 3 for d in docs)

    def test_bad_line_fails_alone(self, server):
        client = ServeClient(server.url)
        docs = client.solve_many(
            [payload(seed=1, id="good"), payload(id="bad", mass="heavy")]
        )
        assert docs[0]["status"] == "ok"
        assert docs[1]["status"] == "error"
        assert docs[1]["error"]["field"] == "mass"


def post(server, path, body, accept=None):
    """One raw POST: ``(status, Content-Type, response text)``."""
    if not isinstance(body, (bytes, str)):
        body = json.dumps(body)
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    req = urllib.request.Request(
        server.url + path, data=body.encode(), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read().decode()


def jsonl(payloads):
    return "".join(json.dumps(p) + "\n" for p in payloads)


class TestArrayNegotiation:
    """The form of a response's arrays is its request's ``Accept``."""

    def test_header_less_solve_answers_nested_lists(self, server):
        status, ctype, text = post(
            server, "/v1/solve", payload(return_solution=True))
        assert (status, ctype) == (200, "application/json")
        assert set(json.loads(text)["solution"]) == {"real", "imag", "shape"}

    def test_header_less_jsonl_answers_nested_lists(self, server):
        status, ctype, text = post(
            server, "/v1/solve/jsonl",
            jsonl([payload(seed=s, return_solution=True) for s in (1, 2)]))
        assert (status, ctype) == (200, "application/jsonl")
        for line in text.splitlines():
            assert set(json.loads(line)["solution"]) == {
                "real", "imag", "shape"}

    @pytest.mark.parametrize("accept", [
        "application/json", "*/*", "application/json;arrays=lists",
        "application/json;q=0.9, text/plain", "arrays=base64",
        "application/json;arrays=base64x",
    ])
    def test_anything_else_answers_nested_lists(self, server, accept):
        status, ctype, text = post(
            server, "/v1/solve", payload(return_solution=True), accept)
        assert (status, ctype) == (200, "application/json")
        assert "real" in json.loads(text)["solution"]

    @pytest.mark.parametrize("accept", [
        f"application/json;{PACKED}",
        "application/json; Arrays=Base64 ; q=1",
        f"text/plain, application/json;{PACKED}",
    ])
    def test_parameter_answers_packed_on_solve(self, server, accept):
        status, ctype, text = post(
            server, "/v1/solve", payload(return_solution=True), accept)
        assert (status, ctype) == (200, f"application/json;{PACKED}")
        assert set(json.loads(text)["solution"]) == {"b64", "dtype", "shape"}

    def test_parameter_answers_packed_on_jsonl(self, server):
        status, ctype, text = post(
            server, "/v1/solve/jsonl",
            jsonl([payload(seed=s, return_solution=True) for s in (1, 2)]),
            f"application/jsonl;{PACKED}")
        assert (status, ctype) == (200, f"application/jsonl;{PACKED}")
        for line in text.splitlines():
            assert set(json.loads(line)["solution"]) == {
                "b64", "dtype", "shape"}

    def test_two_forms_of_one_request_decode_to_the_same_bits(self, server):
        docs = [
            json.loads(post(server, "/v1/solve",
                            payload(return_solution=True), accept)[2])
            for accept in (None, f"application/json;{PACKED}")
        ]
        nested, packed = (decode_array(d["solution"]) for d in docs)
        assert nested.tobytes() == packed.tobytes()
        assert docs[1]["solution"]["dtype"] == "<c16"
        # Nothing else of the document depends on the form.
        for doc in docs:
            for key in ("id", "timing", "report", "solution"):
                doc.pop(key)
        assert docs[0] == docs[1]

    def test_without_return_solution_there_is_no_array_either_way(
            self, server):
        for accept in (None, f"application/json;{PACKED}"):
            doc = json.loads(post(server, "/v1/solve", payload(), accept)[2])
            assert doc["status"] == "ok" and "solution" not in doc

    def test_error_bodies_are_unaffected(self, server):
        bad = payload(mass="heavy", id="e1")
        plain, asked = (
            post(server, "/v1/solve", bad, accept)
            for accept in (None, f"application/json;{PACKED}")
        )
        assert plain == asked
        assert plain[:2] == (400, "application/json")
        assert post(server, "/v1/solve", "{not json",
                    f"application/json;{PACKED}")[:2] == (
            400, "application/json")

    def test_the_python_client_asks_for_packed(self, server):
        client = ServeClient(server.url)
        one = client.solve(payload(return_solution=True))
        many = client.solve_many(
            [payload(seed=s, return_solution=True) for s in (1, 2)])
        for doc in [one] + many:
            assert set(doc["solution"]) == {"b64", "dtype", "shape"}
        plain = json.loads(post(server, "/v1/solve",
                                payload(return_solution=True))[2])
        assert (decode_array(one["solution"]).tobytes()
                == decode_array(many[0]["solution"]).tobytes()
                == decode_array(plain["solution"]).tobytes())

    def test_a_received_solution_posts_back_as_it_came(self, server):
        """Packed or nested, ``solution`` is a valid ``rhs`` of
        ``kind="data"``; the same array in either form is the same
        request: equal fingerprints, bitwise-equal solutions."""
        client = ServeClient(server.url)
        first = client.solve(payload(return_solution=True))
        nested = encode_array(decode_array(first["solution"]))
        docs = client.solve_many([
            payload(rhs={"kind": "data", **wire}, return_solution=True)
            for wire in (first["solution"], nested)
        ])
        assert [d["status"] for d in docs] == ["ok", "ok"]
        assert docs[0]["fingerprint"] == docs[1]["fingerprint"]
        assert docs[0]["batch"]["occupancy"] == 2
        assert docs[0]["solution"] == docs[1]["solution"]


class TestMalformedArrays:
    """ROADMAP "bounded failure": a malformed wire array is a 400 naming
    the field, on its own line only — never a dispatcher exception."""

    @pytest.fixture()
    def server(self):
        # Six lanes: the whole post is one batch, the bad line inside it.
        svc = SolveService(max_batch=6, max_wait=0.2).start()
        srv = ServeServer(svc, port=0).start()
        yield srv
        srv.stop()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_solve_route_answers_400_naming_the_field(self, server, case):
        rhs, where = MALFORMED[case]
        status, ctype, text = post(
            server, "/v1/solve", payload(rhs=rhs, id="bad-1"))
        doc = json.loads(text)  # strict enough: no NaN in an error body
        assert (status, ctype) == (400, "application/json")
        assert doc["status"] == "error" and doc["id"] == "bad-1"
        assert doc["error"]["code"] == "invalid_request"
        assert doc["error"]["field"] == where
        assert doc["error"]["request_id"] == "bad-1"

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_bad_line_leaves_its_batch_mates_bits_alone(self, server, case):
        rhs, where = MALFORMED[case]
        client = ServeClient(server.url)
        good = [payload(seed=s, id=f"g{s}", return_solution=True)
                for s in range(1, 5)]
        good.append(payload(id="g5", return_solution=True, rhs={
            "kind": "data", **encode_array(good_field(), packed=True)}))
        mixed = good[:2] + [payload(rhs=rhs, id="bad")] + good[2:]
        docs = client.solve_many(mixed)
        alone = client.solve_many(good)
        bad = docs.pop(2)
        assert bad["status"] == "error" and bad["id"] == "bad"
        assert bad["error"]["field"] == where
        assert [d["status"] for d in docs] == ["ok"] * 5
        assert all(d["batch"]["occupancy"] == 5 for d in docs + alone)
        assert [d["solution"] for d in docs] == [
            d["solution"] for d in alone]
        assert server.service.running
        assert "failed" not in client.stats()["requests"]

    def test_non_finite_rhs_used_to_be_answered_ok(self, server):
        """The defect this class pins: NaN in, ``"residual": NaN`` out
        with ``status: "ok"`` — not even JSON for a strict parser."""
        rhs, _ = MALFORMED["nan_real"]
        _, _, text = post(server, "/v1/solve", payload(rhs=rhs))
        json.loads(text, parse_constant=lambda name: pytest.fail(
            f"response holds the non-JSON constant {name}"))


class TestClientSendsPacked:
    """``ServeClient`` sends a nested inline ``rhs`` packed: the daemon
    builds the array it would have built from the nested lists, and every
    line whose answer could depend on the form goes as given."""

    @pytest.fixture()
    def arrived(self, monkeypatch):
        """What the daemon admitted (``id -> payload``) and built from it
        (``id -> rhs array``)."""
        payloads, arrays = {}, {}
        submit = SolveService.submit
        materialize = ServiceRequest.materialize_rhs

        def spy_submit(self, request, *args, **kwargs):
            payloads[request.get("id")] = copy.deepcopy(request)
            return submit(self, request, *args, **kwargs)

        def spy_materialize(self, geometry):
            arrays[self.id] = materialize(self, geometry)
            return arrays[self.id]

        monkeypatch.setattr(SolveService, "submit", spy_submit)
        monkeypatch.setattr(ServiceRequest, "materialize_rhs", spy_materialize)
        return payloads, arrays

    def test_a_nested_rhs_arrives_packed_with_its_bits(self, server, arrived):
        payloads, arrays = arrived
        field = good_field()
        field[0, 0, 0, 0] = [complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324]
        nested = {"kind": "data", **encode_array(field)}
        one = payload(rhs=nested, id="n-one", return_solution=True)
        many = [
            payload(rhs=nested, id="n-many", return_solution=True),
            payload(id="random", seed=2),
            payload(id="point", rhs={"kind": "point", "site": [1, 2, 3, 0]}),
            payload(id="packed", rhs={
                "kind": "data", **encode_array(field, packed=True)}),
        ]
        before = copy.deepcopy([one] + many)
        client = ServeClient(server.url)
        docs = [client.solve(one)] + client.solve_many(many)
        assert [one] + many == before  # the caller's payloads are untouched
        assert [d["status"] for d in docs] == ["ok"] * 5
        for rid in ("n-one", "n-many"):
            assert set(payloads[rid]["rhs"]) == {"kind", "b64", "dtype",
                                                 "shape"}
            assert arrays[rid].tobytes() == decode_array(nested).tobytes()
        for line in many[1:]:
            assert payloads[line["id"]] == line
        # ... and the answer is the nested line's, sent raw
        raw = json.loads(post(server, "/v1/solve", {**one, "id": "raw"},
                              f"application/json;{PACKED}")[2])
        assert raw["solution"] == docs[0]["solution"] == docs[1]["solution"]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_line_gets_the_raw_lines_error(self, server, case):
        rhs, where = MALFORMED[case]
        line = payload(rhs=rhs, id="bad-1")
        _, _, text = post(server, "/v1/solve", line)
        raw = json.loads(text)["error"]
        assert raw["field"] == where
        client = ServeClient(server.url)
        with pytest.raises(RequestValidationError) as exc:
            client.solve(line)
        (many,) = client.solve_many([line])
        for got in (exc.value.to_dict(), many["error"]):
            assert (got["code"], got["field"], got["message"]) == (
                raw["code"], raw["field"], raw["message"])


def raw_post(server, path, body: bytes, length: str | None = None):
    """One POST with the body and ``Content-Length`` exactly as given:
    ``(status, response text)``."""
    host, port = server.httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length",
                       str(len(body)) if length is None else length)
        conn.endheaders()
        conn.send(body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class TestUnreadableBodies:
    """A body the daemon cannot read is a 400 ``invalid_request``, not a
    dropped connection; the daemon stays serviceable."""

    NOT_UTF8 = json.dumps(payload(id="u1")).encode().replace(
        b'"asqtad"', b'"asq\xfftad"')

    def assert_invalid(self, status, text):
        doc = json.loads(text)
        assert status == 400
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "invalid_request"
        return doc["error"]["message"]

    def test_a_body_that_is_not_utf8(self, server):
        message = self.assert_invalid(
            *raw_post(server, "/v1/solve", self.NOT_UTF8))
        assert "not valid JSON" in message
        assert ServeClient(server.url).solve(payload())["status"] == "ok"

    def test_a_jsonl_line_that_is_not_utf8_fails_alone(self, server):
        good = [json.dumps(payload(id=f"g{s}", seed=s)).encode()
                for s in (1, 2)]
        status, text = raw_post(server, "/v1/solve/jsonl",
                                b"\n".join([good[0], self.NOT_UTF8, good[1]]))
        docs = [json.loads(line) for line in text.splitlines()]
        assert status == 200 and len(docs) == 3
        assert [docs[0]["id"], docs[2]["id"]] == ["g1", "g2"]
        assert docs[0]["status"] == docs[2]["status"] == "ok"
        assert docs[1]["status"] == "error"
        assert docs[1]["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", ""])
    @pytest.mark.parametrize("path", ["/v1/solve", "/v1/solve/jsonl"])
    def test_a_content_length_that_is_not_a_count(self, server, path, length):
        message = self.assert_invalid(*raw_post(server, path, b"", length))
        assert "Content-Length" in message
        assert ServeClient(server.url).solve(payload())["status"] == "ok"


class TestNonFiniteOperator:
    """ROADMAP "bounded failure": a NaN *produced by the operator* in one
    lane of a coalesced batch ends that lane within the iteration — not
    at the serve path's ``maxiter`` of 2000 — and is answered
    ``"diverged"`` in strict JSON; its batch-mates (eleven of them at
    the default group size) get the bits they would have got without it,
    and the daemon stays serviceable."""

    @pytest.fixture()
    def server(self):
        srv = ServeServer(SolveService(max_wait=0.2).start(), port=0).start()
        yield srv
        srv.stop()

    @pytest.mark.parametrize("seam", ["composed", "fused"])
    def test_a_poisoned_lane_ends_alone(self, server, monkeypatch, seam):
        # A served Wilson-clover BiCGstab solve runs the even-odd Schur
        # complement: that is the operator the lane's NaN comes out of —
        # through its applies where the loop composes its steps, and
        # through BiCGstab's fused steps (an apply and its reductions in
        # one compiled call) where the tier binds them, as it does on "c".
        import repro.dirac.evenodd as evenodd

        EvenOdd = evenodd.EvenOddPreconditionedWilson
        armed = {"applications": 0, "fused": 0}

        def arm():
            armed["applications"] += 1
            return armed["applications"] == 4

        inner = EvenOdd._apply

        def poisoned(self, x):
            out = inner(self, x)
            if armed is not None and x.ndim == 7 and arm():  # a batch of lanes
                out[1, 0, 0, 0, 0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(EvenOdd, "_apply", poisoned)
        if seam == "composed":
            monkeypatch.setattr(EvenOdd, "fused_steps", None)
        else:
            # the step's apply wrote NaN into the lane's v (t), and its
            # reductions over that lane are NaN, as the call makes them
            direction, update = (EvenOdd.bicgstab_direction_apply,
                                 EvenOdd.bicgstab_update_apply)
            nan = complex(np.nan, np.nan)

            def poisoned_direction(self, coef, p, r, v, r_hat):
                denom = direction(self, coef, p, r, v, r_hat)
                if armed is not None and denom is not None:
                    armed["fused"] += 1
                    if arm():
                        v[1, 0, 0, 0, 0, 0, 0] = np.nan
                        denom[1] = nan
                return denom

            def poisoned_update(self, coef, r, v):
                done = update(self, coef, r, v)
                if armed is not None and done is not None:
                    armed["fused"] += 1
                    if arm():
                        t, ts, t2 = done
                        t[1, 0, 0, 0, 0, 0, 0] = np.nan
                        ts[1], t2[1] = nan, np.nan
                return done

            monkeypatch.setattr(EvenOdd, "bicgstab_direction_apply",
                                poisoned_direction)
            monkeypatch.setattr(EvenOdd, "bicgstab_update_apply",
                                poisoned_update)
        posts = [
            payload(seed=s, id=f"w{s}", operator="wilson_clover", mass=0.1,
                    csw=1.0, gauge={"kind": "weak", "dims": DIMS, "seed": 3},
                    tol=1e-8, return_solution=True)
            for s in range(1, 13)
        ]
        status, _, text = post(server, "/v1/solve/jsonl", jsonl(posts),
                               f"application/jsonl;{PACKED}")
        fused, armed = armed["fused"], None
        if seam == "fused" and not fused:
            pytest.skip("no tier binds the fused steps here")
        client = ServeClient(server.url)
        clean = client.solve_many(posts)
        # Every line, the poisoned one and its report included, is JSON
        # to a parser that has no word for NaN.
        docs = [
            json.loads(line, parse_constant=lambda name: pytest.fail(
                f"a response line holds the non-JSON constant {name}"))
            for line in text.splitlines()
        ]
        assert status == 200
        assert [d["batch"]["occupancy"] for d in docs + clean] == [12] * 24
        assert [d["status"] for d in clean] == ["ok"] * 12
        assert [d["converged"] for d in clean] == [True] * 12
        bad = docs.pop(1)
        assert (bad["status"], bad["converged"], bad["residual"],
                bad["breakdown"]) == ("diverged", False, None, "non-finite")
        assert "solution" not in bad and bad["iterations"] <= 2
        assert [d["status"] for d in docs] == ["ok"] * 11
        for got, expected in zip(docs, clean[:1] + clean[2:]):
            assert "breakdown" not in got
            assert got["iterations"] == expected["iterations"]
            assert got["residual"] == expected["residual"]
            assert decode_array(got["solution"]).tobytes() == (
                decode_array(expected["solution"]).tobytes()
            )
        assert client.stats()["requests"] == {
            "accepted": 24, "completed": 23, "diverged": 1}
        assert 'serve_requests_total{outcome="diverged"} 1' in (
            client.metrics_text())
        assert client.health() == {"status": "ok"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_client_returns_a_diverged_document(self, server):
        """No patched operator needed: a right-hand side of finite
        numbers whose norm overflows passes validation and has no
        residual.  ``solve`` and ``solve_many`` hand the document back —
        a diverged lane is that request's outcome, not a failure to
        serve it (HTTP 200, no exception)."""
        request = payload(return_solution=True, rhs={
            "kind": "data",
            **encode_array(good_field() * 1e200, packed=True)})
        client = ServeClient(server.url)
        for doc in [client.solve(request)] + client.solve_many([request]):
            assert doc["status"] == "diverged" and doc["residual"] is None
            assert doc["breakdown"] == "non-finite"
            assert doc["converged"] is False and "solution" not in doc


class TestObservabilityRoutes:
    def test_wire_cost_histograms_are_exported(self, server):
        client = ServeClient(server.url)
        client.solve_many([payload(seed=s, return_solution=True)
                           for s in (1, 2, 3)])
        post(server, "/v1/solve", payload())
        post(server, "/v1/solve", payload(mass="heavy"))  # never admitted
        text = client.metrics_text()
        assert "serve_encode_seconds_count 4" in text
        assert "serve_decode_seconds_count 4" in text

    def test_metrics_stats_health(self, server):
        client = ServeClient(server.url)
        client.solve(payload())
        assert "serve_requests_total" in client.metrics_text()
        stats = client.stats()
        assert stats["requests"]["completed"] == 1
        assert client.health() == {"status": "ok"}

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert exc.value.code == 404

    def test_health_reports_draining_after_stop(self, server):
        client = ServeClient(server.url)
        server.service.shutdown(drain=True, timeout=60)
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/healthz", timeout=10)
        assert exc.value.code == 503
        assert json.loads(exc.value.read()) == {"status": "draining"}
        server.stop()


class TestWireBitwise:
    def test_solution_survives_the_wire_bitwise(self, server):
        from repro.core.api import SolveRequest, solve
        from repro.lattice import GaugeField, Geometry, SpinorField
        from repro.serve.request import decode_array

        client = ServeClient(server.url)
        doc = client.solve(payload(return_solution=True))
        geo = Geometry(tuple(DIMS))
        lane = SpinorField.random(geo, nspin=1, rng=1).data
        rhs = np.stack([lane] + [np.zeros_like(lane)] * 3)
        solo = solve(SolveRequest(
            operator="asqtad", gauge=GaugeField.unit(geo), rhs=rhs,
            mass=0.05, method="cg", tol=1e-8,
        ))
        assert np.array_equal(
            decode_array(doc["solution"]), np.asarray(solo.x)[0]
        )
