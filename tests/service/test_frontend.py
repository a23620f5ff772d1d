"""Frontend protocol tests: registry semantics, StudyClient, HTTP round-trips.

The registry/client layer must keep two promises at once: the *protocol*
one (create-or-attach by name, idempotent suggest, strict suggest→report
alternation, typed errors mapped onto HTTP codes) and the *numerical* one —
driving a study through the ask/tell surface, in-process or over the wire,
is bit-identical to ``CBOSearch.run``.  The HTTP cases run against a live
:class:`~repro.service.StudyFrontend` thread on a loopback port.
"""

import http.client
import json
import logging
import urllib.error
import urllib.parse
import urllib.request

import pytest

from fixtures import (
    assert_results_identical,
    make_service_search,
    service_run_function,
)
from repro.service import (
    CampaignRegistry,
    ElasticCampaignRunner,
    HTTPStudyClient,
    ProtocolError,
    RegistryError,
    StudyClient,
    StudyConflictError,
    StudyFrontend,
    UnknownStudyError,
    UnknownTemplateError,
)
from repro.service.frontend import MAX_BODY_BYTES

TEMPLATES = {"service": lambda seed=0, **params: make_service_search(seed, **params)}
BUDGET = dict(max_time=600.0, max_evaluations=12)


def make_registry(**kwargs):
    return CampaignRegistry(TEMPLATES, **kwargs)


def solo_result(seed=0):
    return make_service_search(seed).run(**BUDGET)


@pytest.fixture()
def frontend():
    with StudyFrontend(make_registry()) as server:
        yield server


def raw_post(url, body: bytes, content_type="application/json"):
    """POST raw bytes, returning (code, payload) without raising."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestRegistrySemantics:
    def test_create_then_attach_by_name(self):
        registry = make_registry()
        record, created = registry.create_study("tune-1", seed=3, **BUDGET)
        assert created and not record.attached
        again, created_again = registry.create_study("tune-1")
        assert again is record
        assert not created_again

    def test_if_exists_raise_demands_a_fresh_name(self):
        registry = make_registry()
        registry.create_study("tune-1")
        with pytest.raises(StudyConflictError):
            registry.create_study("tune-1", if_exists="raise")

    def test_invalid_names_and_modes_are_rejected(self):
        registry = make_registry()
        for bad in ("", "no spaces", "no/slash", "x" * 129):
            with pytest.raises(RegistryError):
                registry.create_study(bad)
        with pytest.raises(RegistryError, match="mode"):
            registry.create_study("ok", mode="psychic")
        with pytest.raises(RegistryError, match="if_exists"):
            registry.create_study("ok", if_exists="explode")

    def test_unknown_template_is_typed(self):
        registry = make_registry()
        with pytest.raises(UnknownTemplateError):
            registry.create_study("tune-1", template="nope")
        two = CampaignRegistry({"a": TEMPLATES["service"], "b": TEMPLATES["service"]})
        with pytest.raises(UnknownTemplateError, match="required"):
            two.create_study("tune-1")  # ambiguous default

    def test_suggest_is_idempotent_until_reported(self):
        registry = make_registry()
        registry.create_study("tune-1", **BUDGET)
        first = registry.suggest("tune-1")
        second = registry.suggest("tune-1")
        assert first == second
        registry.report("tune-1", [50.0] * len(first))
        assert registry.suggest("tune-1") != first

    def test_report_protocol_violations(self):
        registry = make_registry()
        registry.create_study("tune-1", **BUDGET)
        batch = registry.suggest("tune-1")
        with pytest.raises(ProtocolError, match="runtimes"):
            registry.report("tune-1", [50.0] * (len(batch) + 1))
        registry.report("tune-1", [50.0] * len(batch))
        # Between report and the next suggest nothing is outstanding.
        with pytest.raises(ProtocolError, match="no suggested batch"):
            registry.report("tune-1", [50.0] * len(batch))

    def test_unknown_study_everywhere(self):
        registry = make_registry()
        for call in (
            registry.suggest,
            registry.status,
            registry.heartbeat,
            registry.result,
            lambda name: registry.report(name, [1.0]),
        ):
            with pytest.raises(UnknownStudyError):
                call("ghost")

    def test_stale_studies_uses_the_injected_clock(self):
        now = {"t": 0.0}
        registry = make_registry(clock=lambda: now["t"])
        registry.create_study("old", **BUDGET)
        now["t"] = 100.0
        registry.create_study("young", **BUDGET)
        assert registry.stale_studies(max_age=50.0) == ["old"]
        registry.heartbeat("old")
        assert registry.stale_studies(max_age=50.0) == []


class TestStudyClient:
    def test_run_is_bit_identical_to_solo(self):
        registry = make_registry()
        client = StudyClient(registry, "tune-1", seed=3, **BUDGET)
        assert client.created and not client.attached
        status = client.run(service_run_function)
        assert status["finished"]
        assert_results_identical(solo_result(3), client.result())

    def test_journal_attach_resumes_bit_identically(self, tmp_path):
        first = make_registry(root=tmp_path)
        client = StudyClient(first, "tune-1", seed=3, **BUDGET)
        for _ in range(3):
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
        # A second process: fresh registry over the same journal root.
        second = make_registry(root=tmp_path)
        resumed = StudyClient(second, "tune-1", seed=3, **BUDGET)
        assert not resumed.created
        assert resumed.attached
        resumed.run(service_run_function)
        assert_results_identical(solo_result(3), resumed.result())

    def test_managed_studies_reject_ask_tell_verbs(self):
        registry = make_registry()
        registry.create_study("svc", mode="managed", **BUDGET)
        with pytest.raises(ProtocolError, match="managed"):
            registry.suggest("svc")
        with pytest.raises(ProtocolError, match="managed"):
            registry.report("svc", [1.0])
        assert registry.status("svc")["mode"] == "managed"


class TestBatchedAskService:
    """The registry/frontend protocol must survive fleet-ask grouping.

    Managed studies admitted by the registry run through the elastic
    runner's batched ask; ask/tell studies re-derive suggestions after a
    crash.  Neither protocol promise may depend on how asks are grouped.
    """

    def test_stale_studies_over_a_batched_managed_cohort(self):
        now = {"t": 0.0}
        runner = ElasticCampaignRunner()
        registry = make_registry(runner=runner, clock=lambda: now["t"])
        registry.create_study("a", mode="managed", **BUDGET)
        registry.create_study("b", mode="managed", seed=1, **BUDGET)
        for _ in range(4):
            runner.tick()
        # Service-side ticking is not client liveness: both studies go
        # stale despite the runner making progress on their campaigns.
        now["t"] = 100.0
        assert registry.stale_studies(max_age=50.0) == ["a", "b"]
        registry.heartbeat("a")
        assert registry.stale_studies(max_age=50.0) == ["b"]
        runner.run_until_complete()
        # Equal template spaces are built per study, so grouping had to
        # unify separately-constructed (equal, non-identical) spaces.
        assert runner.num_ask_fleet_passes > 0
        assert registry.status("a")["finished"]
        assert registry.status("b")["finished"]

    def test_suggest_after_crash_rederives_the_same_batch(self, tmp_path):
        first = make_registry(root=tmp_path)
        client = StudyClient(first, "tune-1", seed=3, **BUDGET)
        for _ in range(2):
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
        pending = client.suggest()
        # Crash before the report: a fresh registry over the same journal
        # root must re-derive the identical outstanding batch.
        second = make_registry(root=tmp_path)
        resumed = StudyClient(second, "tune-1", seed=3, **BUDGET)
        assert resumed.attached
        assert resumed.suggest() == pending
        status = resumed.run(service_run_function)
        assert status["finished"]
        assert_results_identical(solo_result(3), resumed.result())

    def test_http_suggest_after_crash_rederives(self, tmp_path):
        with StudyFrontend(make_registry(root=tmp_path)) as server:
            client = HTTPStudyClient(server.address, "tune-1", seed=3, **BUDGET)
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
            pending = client.suggest()
        with StudyFrontend(make_registry(root=tmp_path)) as server:
            client = HTTPStudyClient(server.address, "tune-1", seed=3, **BUDGET)
            assert client.attached
            assert client.suggest() == pending
            status = client.run(service_run_function)
            assert status["finished"]
            assert_results_identical(
                solo_result(3), server.registry.result("tune-1")
            )


class TestHTTPFrontend:
    def test_create_is_201_then_attach_is_200(self, frontend):
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "tune-1", "max_evaluations": 12}).encode(),
        )
        assert code == 201
        assert body["created"] and not body["attached"]
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "tune-1"}).encode(),
        )
        assert code == 200
        assert not body["created"]

    def test_run_over_http_is_bit_identical(self, frontend):
        client = HTTPStudyClient(
            frontend.address, "tune-1", seed=3, **BUDGET
        )
        assert client.created
        status = client.run(service_run_function)
        assert status["finished"]
        assert status["num_evaluations"] == BUDGET["max_evaluations"]
        result = frontend.registry.result("tune-1")
        assert_results_identical(solo_result(3), result)

    def test_unknown_study_is_404(self, frontend):
        code, body = raw_post(frontend.address + "/studies/ghost/suggest", b"{}")
        assert code == 404
        assert "ghost" in body["error"]
        with pytest.raises(UnknownStudyError):
            HTTPStudyClient(frontend.address, "ghost", create=False).status()

    def test_unknown_routes_and_verbs_are_404(self, frontend):
        code, _ = raw_post(frontend.address + "/nope", b"{}")
        assert code == 404
        code, _ = raw_post(frontend.address + "/studies/x/y/z", b"{}")
        assert code == 404
        HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        code, body = raw_post(frontend.address + "/studies/tune-1/dance", b"{}")
        assert code == 404
        assert "verb" in body["error"]

    def test_malformed_payloads_are_400(self, frontend):
        url = frontend.address + "/studies"
        code, body = raw_post(url, b"{not json")
        assert code == 400
        assert "malformed" in body["error"]
        code, body = raw_post(url, b"[1, 2, 3]")  # JSON, but not an object
        assert code == 400
        code, body = raw_post(url, b"{}")  # missing the study name
        assert code == 400
        assert "name" in body["error"]

    def test_report_payload_must_carry_runtimes_list(self, frontend):
        HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        url = frontend.address + "/studies/tune-1/report"
        code, body = raw_post(url, json.dumps({"runtimes": 3.5}).encode())
        assert code == 400
        assert "runtimes" in body["error"]

    def test_protocol_violations_are_409(self, frontend):
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        batch = client.suggest()
        with pytest.raises(ProtocolError):
            client.report([50.0] * (len(batch) + 1))  # wrong batch size
        client.report([50.0] * len(batch))
        with pytest.raises(ProtocolError):
            client.report([50.0] * len(batch))  # nothing outstanding now

    def test_status_listing_and_heartbeat(self, frontend):
        HTTPStudyClient(frontend.address, "a", **BUDGET)
        client_b = HTTPStudyClient(frontend.address, "b", seed=1, **BUDGET)
        with urllib.request.urlopen(frontend.address + "/studies") as response:
            listing = json.loads(response.read().decode("utf-8"))["studies"]
        assert [s["name"] for s in listing] == ["a", "b"]
        status = client_b.heartbeat()
        assert status["name"] == "b"
        assert status["seed"] == 1
        assert not status["finished"]


def raw_request(address, path, headers, body=b"", method="POST"):
    """Send a hand-built request (any header values), return (code, payload).

    The socket timeout turns a server that blocks on the body into a test
    failure instead of a hang.
    """
    url = urllib.parse.urlsplit(address)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        connection.putrequest(method, path)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def broken_template(seed=0, **params):
    raise ZeroDivisionError("template bug")


class TestServiceBoundary:
    """Bad input is a 4xx that changes nothing; a fault is a logged 5xx.

    Every case asserts a well-formed JSON reply — none may drop the
    connection or block on the request body.
    """

    def test_uncoercible_create_value_is_400(self, frontend):
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "s", "template": "service", "seed": "abc"}).encode(),
        )
        assert code == 400
        assert "abc" in body["error"]
        assert frontend.registry.study_names() == []

    def test_unknown_template_param_is_400(self, frontend):
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "s", "params": {"no_such_knob": 1}}).encode(),
        )
        assert code == 400
        assert "no_such_knob" in body["error"]
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "s", "params": [1, 2]}).encode(),
        )
        assert code == 400
        assert "params" in body["error"]
        assert frontend.registry.study_names() == []

    def test_uncoercible_runtime_is_400_and_leaves_the_batch(self, frontend):
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        batch = client.suggest()
        before = frontend.registry.status("tune-1")
        runtimes = [50.0] * (len(batch) - 1) + [None]
        code, body = raw_post(
            frontend.address + "/studies/tune-1/report",
            json.dumps({"runtimes": runtimes}).encode(),
        )
        assert code == 400
        assert "runtimes" in body["error"]
        # Nothing was recorded: the batch is still outstanding, unchanged.
        after = frontend.registry.status("tune-1")
        assert after["num_reported"] == before["num_reported"] == 0
        assert after["num_evaluations"] == before["num_evaluations"]
        assert client.suggest() == batch
        client.report([50.0] * len(batch))

    def test_negative_content_length_is_400_without_reading(self, frontend):
        code, body = raw_request(
            frontend.address, "/studies", {"Content-Length": "-1"}
        )
        assert code == 400
        assert "Content-Length" in body["error"]
        assert frontend.registry.study_names() == []

    def test_oversized_body_is_413_without_reading(self, frontend):
        # The declared body is never sent: a server that tried to read it
        # would block until the client's timeout.
        code, body = raw_request(
            frontend.address,
            "/studies",
            {"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert code == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert frontend.registry.study_names() == []

    def test_internal_fault_is_500_with_a_logged_error_id(self, caplog):
        registry = CampaignRegistry(dict(TEMPLATES, broken=broken_template))
        with StudyFrontend(registry) as server:
            with caplog.at_level(logging.ERROR, logger="repro.service.frontend"):
                code, body = raw_post(
                    server.address + "/studies",
                    json.dumps({"name": "s", "template": "broken"}).encode(),
                )
            assert code == 500
            error_id = body["error_id"]
            assert error_id in body["error"]
            assert "template bug" not in body["error"]
            records = [r for r in caplog.records if error_id in r.getMessage()]
            assert len(records) == 1
            assert records[0].exc_info[0] is ZeroDivisionError
            assert registry.study_names() == []
            # The server keeps serving after the fault.
            code, _ = raw_post(
                server.address + "/studies",
                json.dumps({"name": "s", "template": "service"}).encode(),
            )
            assert code == 201
