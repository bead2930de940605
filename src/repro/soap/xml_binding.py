"""Literal XML on the wire: envelope ↔ SOAP 1.1 XML text.

The in-memory envelopes move structured dicts; this module renders them as
actual ``<soap:Envelope>`` documents and parses them back, so a wire capture
of the simulated traffic looks like what freebXML's SAAJ layer produced.
Round-tripping is exact for every protocol message type.

The encoder writes the document text directly: each message is read
shallowly through its class's field-name tuple (built once from
:data:`_MESSAGE_TYPES`) and its payload becomes canonical JSON inside the
message element. The text is byte-for-byte what ElementTree serializes for
the same tree — prefixes ``ns0`` (SOAP) and ``ns1`` (ebRS, declared only
when used), ``<ns0:Header />`` when there are no headers, and ElementTree's
text/attribute escaping. The decoder parses with ElementTree and checks
payload keys against the same field tables, so a malformed message raises
:class:`InvalidRequestError` naming its element.
"""

from __future__ import annotations

import dataclasses
import json

from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import (
    AddSlotsRequest,
    AdhocQueryRequest,
    ApproveObjectsRequest,
    DeprecateObjectsRequest,
    GetRegistryObjectRequest,
    GetServiceBindingsRequest,
    RegistryResponse,
    RemoveObjectsRequest,
    RemoveSlotsRequest,
    SubmitObjectsRequest,
    UndeprecateObjectsRequest,
    UpdateObjectsRequest,
)
from repro.util.errors import InvalidRequestError
from repro.util.xmlutil import parse_xml

SOAP_NS = "http://schemas.xmlsoap.org/soap/envelope/"
RS_NS = "urn:oasis:names:tc:ebxml-regrep:xsd:rs:3.0"

#: message classes by their XML element name
_MESSAGE_TYPES = {
    cls.__name__: cls
    for cls in (
        SubmitObjectsRequest,
        UpdateObjectsRequest,
        ApproveObjectsRequest,
        DeprecateObjectsRequest,
        UndeprecateObjectsRequest,
        RemoveObjectsRequest,
        AddSlotsRequest,
        RemoveSlotsRequest,
        AdhocQueryRequest,
        GetRegistryObjectRequest,
        GetServiceBindingsRequest,
        RegistryResponse,
    )
}

#: message class → its field names, in declaration order
_FIELDS = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in _MESSAGE_TYPES.values()
}

#: message class → the fields a payload must carry (those without a default)
_REQUIRED = {
    cls: frozenset(
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )
    for cls in _MESSAGE_TYPES.values()
}

#: the payload codec: ``json.dumps(..., sort_keys=True)`` without the
#: per-call encoder construction
_encode_json = json.JSONEncoder(sort_keys=True).encode

#: the envelope's open tag without and with the ebRS namespace, which
#: ElementTree declares only when a header entry or message element uses it
_OPEN_SOAP_ONLY = f'<ns0:Envelope xmlns:ns0="{SOAP_NS}">'
_OPEN_WITH_RS = f'<ns0:Envelope xmlns:ns0="{SOAP_NS}" xmlns:ns1="{RS_NS}">'


def _escape_text(text: str) -> str:
    """Escape character data the way ElementTree does."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attribute(text: str) -> str:
    """Escape an attribute value the way ElementTree does."""
    text = _escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def _element(tag: str, text: str | None, attributes: str = "") -> str:
    """One text-only element; empty text renders self-closing, as ElementTree does."""
    if text:
        return f"<{tag}{attributes}>{_escape_text(text)}</{tag}>"
    return f"<{tag}{attributes} />"


def envelope_to_xml(envelope: SoapEnvelope) -> str:
    """Render an envelope as a SOAP 1.1 document."""
    body = envelope.body
    headers = envelope.headers
    if isinstance(body, SoapFault):
        opening = _OPEN_WITH_RS if headers else _OPEN_SOAP_ONLY
        body_xml = (
            "<ns0:Fault>"
            + _element("faultcode", body.fault_code)
            + _element("faultstring", body.fault_string)
            + (_element("detail", body.detail) if body.detail else "")
            + "</ns0:Fault>"
        )
    else:
        names = _FIELDS.get(type(body))
        if names is None:
            raise InvalidRequestError(
                f"cannot render body of type {type(body).__name__!r} as SOAP XML"
            )
        opening = _OPEN_WITH_RS
        # the structured payload travels as canonical JSON inside the
        # message element — the registry protocol's "attachment"
        tag = "ns1:" + type(body).__name__
        payload = _encode_json({name: getattr(body, name) for name in names})
        body_xml = f"<{tag}>{_escape_text(payload)}</{tag}>"
    if headers:
        header_xml = (
            "<ns0:Header>"
            + "".join(
                _element("ns1:HeaderEntry", headers[key], f' name="{_escape_attribute(key)}"')
                for key in sorted(headers)
            )
            + "</ns0:Header>"
        )
    else:
        header_xml = "<ns0:Header />"
    return f"{opening}{header_xml}<ns0:Body>{body_xml}</ns0:Body></ns0:Envelope>"


def envelope_from_xml(text: str) -> SoapEnvelope:
    """Parse a SOAP 1.1 document back into an envelope."""
    root = parse_xml(text, what="SOAP envelope")
    if root.tag != f"{{{SOAP_NS}}}Envelope":
        raise InvalidRequestError("not a SOAP envelope")
    headers: dict[str, str] = {}
    header_el = root.find(f"{{{SOAP_NS}}}Header")
    if header_el is not None:
        for entry in header_el:
            name = entry.get("name")
            if name:
                headers[name] = entry.text or ""
    body_el = root.find(f"{{{SOAP_NS}}}Body")
    if body_el is None or len(body_el) == 0:
        raise InvalidRequestError("SOAP envelope has no body")
    child = body_el[0]
    local = child.tag.rsplit("}", 1)[-1]
    if local == "Fault":
        fault = SoapFault(
            fault_code=(child.findtext("faultcode") or ""),
            fault_string=(child.findtext("faultstring") or ""),
            detail=child.findtext("detail"),
        )
        return SoapEnvelope(body=fault, headers=headers)
    message_cls = _MESSAGE_TYPES.get(local)
    if message_cls is None:
        raise InvalidRequestError(f"unknown SOAP body element: {local!r}")
    try:
        payload = json.loads(child.text or "{}")
    except ValueError as exc:
        raise InvalidRequestError(f"malformed JSON payload in <{local}>: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidRequestError(f"payload of <{local}> is not a JSON object")
    unknown = payload.keys() - _FIELDS[message_cls]
    if unknown:
        raise InvalidRequestError(
            f"unknown field(s) {sorted(unknown)} in <{local}>"
        )
    missing = _REQUIRED[message_cls] - payload.keys()
    if missing:
        raise InvalidRequestError(
            f"missing required field(s) {sorted(missing)} in <{local}>"
        )
    return SoapEnvelope(body=message_cls(**payload), headers=headers)
