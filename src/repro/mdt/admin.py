"""The portal's trusted admin surface: privilege assignment (paper §5.2).

``POST /admin/mdts`` creates an MDT's user and grants it clearance and
declassification over the MDT's label plus the Listing 3 ACL row for its
clinic. It assigns the privileges every other route is checked against,
so IFC cannot contain its bugs: it is the paper's "privilege assignment
(frontend)" code (142 audited LOC in the original), and E6 counts this
module as application-trusted.
"""

from __future__ import annotations

from repro.mdt.labels import mdt_label
from repro.mdt.workload import MdtDirectory
from repro.storage.webdb import WebDatabase
from repro.web.framework import SafeWebApp, halt
from repro.web.request import Request


def register_admin_routes(app: SafeWebApp, webdb: WebDatabase, directory: MdtDirectory) -> None:
    """Register ``POST /admin/mdts`` on the portal *app*."""

    @app.post("/admin/mdts")
    def create_mdt_user(request: Request):
        user_id = webdb.user_id(request.user.name)
        if user_id is None or not webdb.is_admin(user_id):
            halt(403, "admin only")
        mid = str(request.params.get("mdt_id", ""))
        username = str(request.params.get("username", ""))
        password = str(request.params.get("password", ""))
        info = directory.find_or_none(mid)
        if info is None or not username or not password:
            halt(400, "mdt_id, username and password required")
        new_id = webdb.add_user(username, password, mdt=mid, region=info.region)
        webdb.grant_label_privilege(new_id, "clearance", mdt_label(mid).uri)
        webdb.grant_label_privilege(new_id, "declassification", mdt_label(mid).uri)
        webdb.grant_acl(new_id, hospital=info.hospital, clinic=info.clinic)
        return 201, "mdt user created"
