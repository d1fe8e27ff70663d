"""Principals: the subjects that hold privileges.

Two kinds of principal hold label privileges: *units* in the
event-processing backend, which the policy file describes (§4.1,
:mod:`repro.core.policy`), and *users* whose web requests the frontend
serves, which the web database describes (§5.1,
:meth:`repro.storage.webdb.WebDatabase.principal_for`). Enforcement code
only ever looks at ``principal.privileges``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.labels import Label, LabelSet
from repro.core.privileges import PrivilegeSet


class Principal:
    """A named subject holding a set of privileges."""

    __slots__ = ("name", "privileges")

    def __init__(self, name: str, privileges: Optional[PrivilegeSet] = None):
        self.name = name
        self.privileges = privileges or PrivilegeSet.empty()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Principal):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.name == other.name
            and self.privileges == other.privileges
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class UnitPrincipal(Principal):
    """An event-processing unit (backend principal).

    ``privileged`` marks units that run outside the IFC jail at the
    analogue of ``$SAFE=0`` and therefore can perform I/O — the paper's
    importer/exporter units. Such units can effectively declassify
    anything they receive, so the engine limits them by *withholding*
    clearance for the labels in ``withheld_labels`` (§4.3, last
    paragraph): matching events are simply never delivered to them.
    """

    __slots__ = ("privileged", "withheld_labels")

    def __init__(
        self,
        name: str,
        privileges: Optional[PrivilegeSet] = None,
        privileged: bool = False,
        withheld_labels: Iterable[Label | str] = (),
    ):
        super().__init__(name, privileges)
        self.privileged = privileged
        self.withheld_labels = LabelSet(withheld_labels)
        if self.withheld_labels:
            self.privileges = self.privileges.without_clearance_for(self.withheld_labels)

    def effective_clearance(self) -> PrivilegeSet:
        """The privileges used for subscription label filtering."""
        return self.privileges


class UserPrincipal(Principal):
    """A web user (frontend principal), built from the web database.

    Carries what the portal reads — privileges, MDT and region — and no
    credential: passwords are checked by
    :meth:`repro.storage.webdb.WebDatabase.check_password` and never
    leave the web database.
    """

    __slots__ = ("mdt_id", "region")

    def __init__(
        self,
        name: str,
        privileges: Optional[PrivilegeSet] = None,
        mdt_id: Optional[str] = None,
        region: Optional[str] = None,
    ):
        super().__init__(name, privileges)
        self.mdt_id = mdt_id
        self.region = region
