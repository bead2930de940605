"""Tests for literal SOAP XML rendering and the keystoremover CLI."""

import dataclasses
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.jaxr import ConnectionFactory
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Organization, ServiceBinding
from repro.soap import (
    AddSlotsRequest,
    AdhocQueryRequest,
    ApproveObjectsRequest,
    DeprecateObjectsRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    RemoveObjectsRequest,
    RemoveSlotsRequest,
    SoapEnvelope,
    SoapFault,
    SubmitObjectsRequest,
    UndeprecateObjectsRequest,
    UpdateObjectsRequest,
    envelope_from_xml,
    envelope_to_xml,
    serialize,
)
from repro.soap.xml_binding import RS_NS, SOAP_NS
from repro.util.errors import InvalidRequestError
from repro.util.ids import IdFactory

ids = IdFactory(77)


def reference_envelope_to_xml(envelope: SoapEnvelope) -> str:
    """The ElementTree renderer the direct encoder must match byte for byte."""
    body_message = envelope.body
    root = ET.Element(f"{{{SOAP_NS}}}Envelope")
    header = ET.SubElement(root, f"{{{SOAP_NS}}}Header")
    for key, value in sorted(envelope.headers.items()):
        entry = ET.SubElement(header, f"{{{RS_NS}}}HeaderEntry")
        entry.set("name", key)
        entry.text = value
    body = ET.SubElement(root, f"{{{SOAP_NS}}}Body")
    if isinstance(body_message, SoapFault):
        fault = ET.SubElement(body, f"{{{SOAP_NS}}}Fault")
        ET.SubElement(fault, "faultcode").text = body_message.fault_code
        ET.SubElement(fault, "faultstring").text = body_message.fault_string
        if body_message.detail:
            ET.SubElement(fault, "detail").text = body_message.detail
    else:
        message_el = ET.SubElement(body, f"{{{RS_NS}}}{type(body_message).__name__}")
        message_el.text = json.dumps(dataclasses.asdict(body_message), sort_keys=True)
    return ET.tostring(root, encoding="unicode")


def assert_matches_reference(envelope: SoapEnvelope) -> str:
    rendered = envelope_to_xml(envelope)
    assert rendered == reference_envelope_to_xml(envelope)
    return rendered


ORG = serialize(Organization("urn:uuid:00000000-0000-4000-8000-000000000001", name="SDSU & <Co>"))

#: one instance of every protocol message type, with text that needs escaping
ALL_MESSAGES = [
    SubmitObjectsRequest(objects=[ORG], idempotency_key="key-1"),
    UpdateObjectsRequest(objects=[ORG]),
    ApproveObjectsRequest(ids=["urn:uuid:a", "urn:uuid:b"]),
    DeprecateObjectsRequest(ids=["urn:uuid:a"], idempotency_key="k&<>"),
    UndeprecateObjectsRequest(ids=[]),
    RemoveObjectsRequest(ids=["urn:uuid:a"]),
    AddSlotsRequest(
        object_id="urn:uuid:a",
        slots=[{"name": "cpuLoad", "values": ["<0.5 & >0"], "slotType": None}],
    ),
    RemoveSlotsRequest(object_id="urn:uuid:a", names=["cpuLoad", "memory"]),
    AdhocQueryRequest(
        query="SELECT * FROM Service WHERE name LIKE 'a%' AND x < 3 & y > \"2\"",
        start_index=5,
        max_results=10,
    ),
    GetRegistryObjectRequest(object_id="urn:uuid:a"),
    GetServiceBindingsRequest(service_id="urn:uuid:s"),
    RegistryResponse(rows=[{"name": "x", "n": 1.5, "ok": True}], total_result_count=1),
]

def _name(message) -> str:
    return type(message).__name__


#: a discovery answer: four serialized ServiceBindings of one service
FOUR_BINDINGS = RegistryResponse(
    objects=[
        serialize(
            ServiceBinding(
                f"urn:uuid:00000000-0000-4000-8000-00000000000{i}",
                service="urn:uuid:00000000-0000-4000-8000-0000000000ff",
                access_uri=f"http://host{i}.cluster:8080/mtc/run?job=a&b<{i}>",
            )
        )
        for i in range(4)
    ]
)

#: FOUR_BINDINGS on the wire, as ElementTree rendered it
FOUR_BINDINGS_GOLDEN = (
    '<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:ns1="urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"><ns0:Header />'
    '<ns0:Body><ns1:RegistryResponse>{"ids": [], "objects": [{"_type": '
    '"ServiceBinding", "accessUri": '
    '"http://host0.cluster:8080/mtc/run?job=a&amp;b&lt;0&gt;", '
    '"classificationIds": [], "description": [], "externalIdentifierIds": [], '
    '"home": null, "id": "urn:uuid:00000000-0000-4000-8000-000000000000", '
    '"lid": "urn:uuid:00000000-0000-4000-8000-000000000000", "name": [], '
    '"owner": null, "service": '
    '"urn:uuid:00000000-0000-4000-8000-0000000000ff", "slots": [], '
    '"specificationLinkIds": [], "status": "Submitted", "targetBinding": null, '
    '"versionName": "1.1"}, {"_type": "ServiceBinding", "accessUri": '
    '"http://host1.cluster:8080/mtc/run?job=a&amp;b&lt;1&gt;", '
    '"classificationIds": [], "description": [], "externalIdentifierIds": [], '
    '"home": null, "id": "urn:uuid:00000000-0000-4000-8000-000000000001", '
    '"lid": "urn:uuid:00000000-0000-4000-8000-000000000001", "name": [], '
    '"owner": null, "service": '
    '"urn:uuid:00000000-0000-4000-8000-0000000000ff", "slots": [], '
    '"specificationLinkIds": [], "status": "Submitted", "targetBinding": null, '
    '"versionName": "1.1"}, {"_type": "ServiceBinding", "accessUri": '
    '"http://host2.cluster:8080/mtc/run?job=a&amp;b&lt;2&gt;", '
    '"classificationIds": [], "description": [], "externalIdentifierIds": [], '
    '"home": null, "id": "urn:uuid:00000000-0000-4000-8000-000000000002", '
    '"lid": "urn:uuid:00000000-0000-4000-8000-000000000002", "name": [], '
    '"owner": null, "service": '
    '"urn:uuid:00000000-0000-4000-8000-0000000000ff", "slots": [], '
    '"specificationLinkIds": [], "status": "Submitted", "targetBinding": null, '
    '"versionName": "1.1"}, {"_type": "ServiceBinding", "accessUri": '
    '"http://host3.cluster:8080/mtc/run?job=a&amp;b&lt;3&gt;", '
    '"classificationIds": [], "description": [], "externalIdentifierIds": [], '
    '"home": null, "id": "urn:uuid:00000000-0000-4000-8000-000000000003", '
    '"lid": "urn:uuid:00000000-0000-4000-8000-000000000003", "name": [], '
    '"owner": null, "service": '
    '"urn:uuid:00000000-0000-4000-8000-0000000000ff", "slots": [], '
    '"specificationLinkIds": [], "status": "Submitted", "targetBinding": null, '
    '"versionName": "1.1"}], "rows": [], "status": "Success", '
    '"total_result_count": null}</ns1:RegistryResponse></ns0:Body>'
    '</ns0:Envelope>'
)


class TestXmlRoundTrip:
    def test_query_request(self):
        envelope = SoapEnvelope.with_session(
            AdhocQueryRequest(query="SELECT * FROM Service", start_index=5),
            "urn:uuid:token",
        )
        xml = envelope_to_xml(envelope)
        assert "<soap" in xml or "Envelope" in xml
        restored = envelope_from_xml(xml)
        assert restored.session_token == "urn:uuid:token"
        assert restored.body == envelope.body

    def test_submit_request_with_objects(self):
        org = Organization(ids.new_id(), name="SDSU")
        envelope = SoapEnvelope(
            body=SubmitObjectsRequest(objects=[serialize(org)])
        )
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert restored.body.objects[0]["id"] == org.id
        assert restored.body.objects[0]["_type"] == "Organization"

    def test_remove_request(self):
        envelope = SoapEnvelope(body=RemoveObjectsRequest(ids=["urn:uuid:a"]))
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert restored.body.ids == ["urn:uuid:a"]

    def test_response(self):
        response = RegistryResponse(rows=[{"name": "x"}], total_result_count=1)
        restored = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=response)))
        assert restored.body.rows == [{"name": "x"}]
        assert restored.body.total_result_count == 1

    def test_fault(self):
        fault = SoapFault(fault_code="urn:x", fault_string="broken", detail="d")
        restored = envelope_from_xml(envelope_to_xml(SoapEnvelope(body=fault)))
        assert isinstance(restored.body, SoapFault)
        assert restored.body.fault_string == "broken"
        assert restored.body.detail == "d"

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=_name)
    def test_every_message_type(self, message):
        envelope = SoapEnvelope.with_session(message, "urn:uuid:token")
        restored = envelope_from_xml(envelope_to_xml(envelope))
        assert restored.body == message
        assert restored.headers == envelope.headers

    def test_namespaces_present(self):
        xml = envelope_to_xml(SoapEnvelope(body=AdhocQueryRequest(query="SELECT * FROM Service")))
        assert "http://schemas.xmlsoap.org/soap/envelope/" in xml
        assert "urn:oasis:names:tc:ebxml-regrep" in xml


def _document(element: str, payload: str) -> str:
    return (
        f'<soap:Envelope xmlns:soap="{SOAP_NS}" xmlns:rs="{RS_NS}"><soap:Body>'
        f"<rs:{element}>{payload}</rs:{element}></soap:Body></soap:Envelope>"
    )


class TestXmlErrors:
    def test_unknown_body_type(self):
        with pytest.raises(InvalidRequestError):
            envelope_to_xml(SoapEnvelope(body=object()))

    def test_not_an_envelope(self):
        with pytest.raises(InvalidRequestError):
            envelope_from_xml("<notsoap/>")

    def test_empty_body(self):
        xml = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
            "<soap:Body/></soap:Envelope>"
        )
        with pytest.raises(InvalidRequestError, match="no body"):
            envelope_from_xml(xml)

    def test_unknown_message_element(self):
        xml = (
            '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
            "<soap:Body><Mystery>{}</Mystery></soap:Body></soap:Envelope>"
        )
        with pytest.raises(InvalidRequestError, match="Mystery"):
            envelope_from_xml(xml)

    # a malformed message payload raises InvalidRequestError naming the element
    def test_unknown_key(self):
        with pytest.raises(InvalidRequestError, match="unknown.*bogus.*GetServiceBindingsRequest"):
            envelope_from_xml(_document("GetServiceBindingsRequest", '{"bogus": 1}'))

    def test_unknown_key_beside_valid_ones(self):
        payload = '{"service_id": "urn:uuid:s", "bogus": 1}'
        with pytest.raises(InvalidRequestError, match="bogus"):
            envelope_from_xml(_document("GetServiceBindingsRequest", payload))

    def test_missing_required_key(self):
        with pytest.raises(InvalidRequestError, match="service_id.*GetServiceBindingsRequest"):
            envelope_from_xml(_document("GetServiceBindingsRequest", "{}"))

    def test_payload_not_an_object(self):
        with pytest.raises(InvalidRequestError, match="GetServiceBindingsRequest"):
            envelope_from_xml(_document("GetServiceBindingsRequest", "[1,2]"))

    def test_payload_not_json(self):
        with pytest.raises(InvalidRequestError, match="GetServiceBindingsRequest"):
            envelope_from_xml(_document("GetServiceBindingsRequest", "not json"))

    def test_all_defaults_may_be_omitted(self):
        body = envelope_from_xml(_document("RegistryResponse", "{}")).body
        assert body == RegistryResponse()


#: JSON-shaped payload values: what serialized objects, rows and slots carry
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)
optional_text = st.none() | st.text()

generated_bodies = st.one_of(
    st.builds(
        RegistryResponse,
        status=st.text(),
        ids=st.lists(st.text(), max_size=4),
        rows=st.lists(json_objects, max_size=3),
        objects=st.lists(json_objects, max_size=3),
        total_result_count=st.none() | st.integers(),
    ),
    st.builds(
        AdhocQueryRequest,
        query=st.text(),
        query_language=st.text(),
        start_index=st.integers(),
        max_results=st.none() | st.integers(),
    ),
    st.builds(GetServiceBindingsRequest, service_id=st.text()),
    st.builds(SubmitObjectsRequest, objects=st.lists(json_objects, max_size=3), idempotency_key=optional_text),
    st.builds(
        AddSlotsRequest,
        object_id=st.text(),
        slots=st.lists(json_objects, max_size=3),
        idempotency_key=optional_text,
    ),
    st.builds(SoapFault, fault_code=st.text(), fault_string=st.text(), detail=optional_text),
)


class TestByteIdentity:
    """The direct encoder renders exactly what ElementTree rendered."""

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=_name)
    def test_every_message_type(self, message):
        assert_matches_reference(SoapEnvelope(body=message))

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=_name)
    def test_every_message_type_with_headers(self, message):
        assert_matches_reference(
            SoapEnvelope.with_session(message, "urn:uuid:token", traceparent="00-ab-cd-01")
        )

    @pytest.mark.parametrize("detail", [None, "", "broken <here> & there"])
    @pytest.mark.parametrize("headers", [{}, {"traceparent": "00-ab-cd-01"}])
    def test_faults(self, detail, headers):
        fault = SoapFault(fault_code="urn:x", fault_string="bad <input>", detail=detail)
        rendered = assert_matches_reference(SoapEnvelope(body=fault, headers=headers))
        # a header-less fault uses only the SOAP namespace
        assert ("xmlns:ns1" in rendered) == bool(headers)

    def test_fault_with_empty_strings(self):
        assert_matches_reference(
            SoapEnvelope(body=SoapFault(fault_code="", fault_string="", detail=None))
        )

    def test_header_text_needing_escapes(self):
        tricky = 'a & b < c > d " e \r f \n g \t h'
        envelope = SoapEnvelope(
            body=GetServiceBindingsRequest(service_id="urn:uuid:s"),
            headers={tricky: tricky, "empty": "", "plain": "v"},
        )
        rendered = assert_matches_reference(envelope)
        # ElementTree leaves a CR in text unescaped, so the parser's line-end
        # normalisation reads it back as LF; in the attribute it survives
        restored = envelope_from_xml(rendered).headers
        assert restored == {tricky: tricky.replace("\r", "\n"), "plain": "v", "empty": ""}

    def test_four_binding_response_golden(self):
        assert envelope_to_xml(SoapEnvelope(body=FOUR_BINDINGS)) == FOUR_BINDINGS_GOLDEN
        assert reference_envelope_to_xml(SoapEnvelope(body=FOUR_BINDINGS)) == FOUR_BINDINGS_GOLDEN

    @settings(max_examples=200, deadline=None)
    @given(
        body=generated_bodies,
        headers=st.dictionaries(st.text(), st.text(), max_size=4),
    )
    def test_generated_envelopes(self, body, headers):
        assert_matches_reference(SoapEnvelope(body=body, headers=headers))


class TestWireFaults:
    """The literal-XML endpoint answers an undecodable document with a fault."""

    @pytest.mark.parametrize(
        "document",
        [
            "<notsoap/>",
            _document("GetServiceBindingsRequest", '{"bogus": 1}'),
        ],
        ids=["not-soap", "bad-payload"],
    )
    def test_undecodable_document_gets_a_fault(self, document):
        factory = ConnectionFactory(RegistryServer(RegistryConfig(seed=5)), wire_xml=True)
        raw = factory.transport.request(factory.binding.endpoint_uri, document)
        assert raw == reference_envelope_to_xml(envelope_from_xml(raw))
        fault = envelope_from_xml(raw).body
        assert isinstance(fault, SoapFault)
        assert fault.fault_code == InvalidRequestError.code
        # the client's re-raise turns the fault back into the typed error
        with pytest.raises(InvalidRequestError):
            fault.raise_()


class TestKeystoreMoverCli:
    def test_move_between_keystore_files(self, tmp_path, capsys):
        from repro.cli import main
        from repro.security import CertificateAuthority, Keystore, load_keystore, save_keystore

        ca = CertificateAuthority(seed=3)
        source = Keystore(store_type="PKCS12")
        source.set_entry("gold", ca.issue("gold"), "gold123")
        source.import_trusted("registryOperator", ca.certificate)
        src_path = tmp_path / "generated-key_gold123.p12.json"
        dst_path = tmp_path / "keystore.jks.json"
        save_keystore(source, str(src_path))

        rc = main(
            [
                "keystoremover",
                "--sourceKeystorePath", str(src_path),
                "--sourceAlias", "gold",
                "--sourceKeyPassword", "gold123",
                "--destinationKeystorePath", str(dst_path),
            ]
        )
        assert rc == 0
        destination = load_keystore(str(dst_path))
        assert destination.has_alias("gold")
        assert destination.trusts(ca.certificate)

    def test_wrong_password_fails(self, tmp_path, capsys):
        from repro.cli import main
        from repro.security import CertificateAuthority, Keystore, save_keystore

        ca = CertificateAuthority(seed=3)
        source = Keystore()
        source.set_entry("gold", ca.issue("gold"), "gold123")
        src_path = tmp_path / "src.json"
        save_keystore(source, str(src_path))
        rc = main(
            [
                "keystoremover",
                "--sourceKeystorePath", str(src_path),
                "--sourceAlias", "gold",
                "--sourceKeyPassword", "wrong",
                "--destinationKeystorePath", str(tmp_path / "dst.json"),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err
