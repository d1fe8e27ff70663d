"""XSS through the memoised-fragment path (the ``stored_xss`` /
``reflected_xss`` entries' neighbours on the shipped front page).

The front page replays each patient row from a fragment rendered once
per stored revision. Two things must survive that: a hostile value
*stored in a record* is escaped when the fragment is first rendered and
therefore on every replay, and a partial that emits user input raw
(``<%==``) hands its taint to the page, so the middleware still rejects
the response.
"""

from urllib.parse import quote

from repro.mdt.deployment import MdtDeployment
from repro.mdt.labels import mdt_label
from repro.mdt.portal import PORTAL_TEMPLATES
from repro.taint import html_escape, label
from repro.web.templates import TemplateRegistry
from tests.security.corpus.vulnerabilities import XSS_PAYLOAD


def test_stored_payload_is_escaped_on_first_render_and_every_replay(workload):
    deployment = MdtDeployment(workload=workload)
    deployment.run_pipeline()
    (row, *_rest) = deployment.app_db.view("records/by_mid", key="1", include_docs=True)
    deployment.app_db.upsert(
        {**row.value, "patient_name": label(XSS_PAYLOAD, mdt_label("1"))}
    )
    deployment.replicate()

    client = deployment.client_for("mdt1")
    pages = [client.get("/") for _ in range(3)]
    for page in pages:
        assert page.status == 200
        assert XSS_PAYLOAD not in page.text
        assert f"<td>{html_escape(XSS_PAYLOAD)}</td>" in page.text
    assert pages[0].text == pages[1].text == pages[2].text
    (stored,) = [
        row
        for row in deployment.dmz_db.view("records/by_mid", key="1", include_docs=True)
        if row.value["patient_name"] == XSS_PAYLOAD
    ]
    fragment = stored.form(PORTAL_TEMPLATES.get("front-row").render_item)
    assert XSS_PAYLOAD not in fragment and not fragment.user_tainted


def test_raw_partial_over_user_input_still_taints_the_page(workload):
    deployment = MdtDeployment(workload=workload)
    templates = TemplateRegistry()
    templates.register("echo", "<ul><% for m in messages %><% include('message', m) %><% end %></ul>")
    templates.register("message", "<li><%== item['text'] %></li>")  # BUG: raw emission

    @deployment.portal.get("/echo")
    def echo(request):
        return templates.render("echo", messages=[{"text": request.params.get("message", "")}])

    client = deployment.client_for("mdt1")
    denied = deployment.audit.count(component="frontend", operation="respond", decision="denied")
    result = client.get("/echo?message=" + quote(XSS_PAYLOAD))
    assert result.status == 400
    assert XSS_PAYLOAD not in result.text
    assert (
        deployment.audit.count(component="frontend", operation="respond", decision="denied")
        == denied + 1
    )
    assert client.get("/echo?message=hello").status == 400  # tainted, however harmless
    templates.register("message", "<li><%= item['text'] %></li>")  # the fix: escape
    fixed = client.get("/echo?message=" + quote(XSS_PAYLOAD))
    assert fixed.status == 200 and XSS_PAYLOAD not in fixed.text
