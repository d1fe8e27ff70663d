"""Privileges over security labels (paper §4.1).

Label enforcement is managed through privileges held by principals:

* **clearance** — read data protected by a confidentiality label;
* **declassification** — remove a confidentiality label, making the data
  public with respect to that label;
* **endorsement** — add an integrity label, vouching for the data;
* **clearance-to-low-integrity** — accept data that lacks a required
  integrity label.

A :class:`PrivilegeSet` maps each privilege kind to the labels it covers.
Grants may be *hierarchical*: a privilege over ``label:conf:org/patient``
covers every label scoped below it (``…/patient/33812769``). This keeps
policy files short while enforcement still compares concrete labels.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping

from repro.core.labels import Label, LabelSet, parse_label
from repro.exceptions import PolicyError

#: Bound for the per-instance clearance decision cache.
_COVER_CACHE_LIMIT = 1024

#: Privilege kind: read data carrying a confidentiality label.
CLEARANCE = "clearance"
#: Privilege kind: remove a confidentiality label from data.
DECLASSIFICATION = "declassification"
#: Privilege kind: add an integrity label to data.
ENDORSEMENT = "endorsement"
#: Privilege kind: accept data lacking a required integrity label.
CLEARANCE_LOW_INTEGRITY = "clearance_low_integrity"

PRIVILEGE_KINDS = (
    CLEARANCE,
    DECLASSIFICATION,
    ENDORSEMENT,
    CLEARANCE_LOW_INTEGRITY,
)


class PrivilegeSet:
    """An immutable collection of privileges held by a principal.

    Construction accepts a mapping of kind → iterable of labels::

        PrivilegeSet({
            "clearance": [mdt_label, region_label],
            "declassification": [mdt_label],
        })

    The paper (§4.1) notes that holding declassification over a label is
    what ultimately authorises *release*; clearance only authorises
    *reading within the system*. Both checks appear throughout the
    backend and frontend, so both have dedicated helpers here.
    """

    __slots__ = ("_grants", "_cover_cache")

    def __init__(self, grants: Mapping[str, Iterable[Label | str]] | None = None):
        normalised: Dict[str, FrozenSet[Label]] = {kind: frozenset() for kind in PRIVILEGE_KINDS}
        for kind, labels in (grants or {}).items():
            if kind not in PRIVILEGE_KINDS:
                raise PolicyError(f"unknown privilege kind {kind!r}")
            coerced = frozenset(
                parse_label(label) if isinstance(label, str) else label for label in labels
            )
            normalised[kind] = coerced
        self._grants = normalised
        self._cover_cache: Dict[LabelSet, bool] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "PrivilegeSet":
        return _EMPTY

    def merge(self, other: "PrivilegeSet") -> "PrivilegeSet":
        """The union of two privilege sets (e.g. role + user grants)."""
        grants = {
            kind: self._grants[kind] | other._grants[kind] for kind in PRIVILEGE_KINDS
        }
        return PrivilegeSet(grants)

    def restrict(self, kinds: Iterable[str]) -> "PrivilegeSet":
        """A copy retaining only the given privilege kinds.

        Used by the engine to *withhold* clearance from privileged units
        (§4.3: privileged units run unjailed but may be prevented from
        receiving certain labels).
        """
        kinds = set(kinds)
        return PrivilegeSet({kind: self._grants[kind] for kind in kinds})

    def grant(self, kind: str, *labels: Label | str) -> "PrivilegeSet":
        """A copy additionally holding *kind* over each of *labels*.

        Returns a new instance, so every clearance decision memoised on
        the old table (:meth:`clearance_covers`) is left behind rather
        than mutated.
        """
        if kind not in PRIVILEGE_KINDS:
            raise PolicyError(f"unknown privilege kind {kind!r}")
        added = frozenset(
            parse_label(label) if isinstance(label, str) else label for label in labels
        )
        grants = dict(self._grants)
        grants[kind] = grants[kind] | added
        return PrivilegeSet(grants)

    def revoke(self, kind: str, *labels: Label | str) -> "PrivilegeSet":
        """A copy without the exact grants (*kind*, label) for *labels*.

        Like :meth:`grant` this produces a new instance, so stale
        cached decisions cannot outlive the revocation. Only exact grant
        labels are removed; use :meth:`without_clearance_for` to strip
        hierarchical ancestors covering a label.
        """
        if kind not in PRIVILEGE_KINDS:
            raise PolicyError(f"unknown privilege kind {kind!r}")
        removed = frozenset(
            parse_label(label) if isinstance(label, str) else label for label in labels
        )
        grants = dict(self._grants)
        grants[kind] = grants[kind] - removed
        return PrivilegeSet(grants)

    def without_clearance_for(self, labels: Iterable[Label | str]) -> "PrivilegeSet":
        """A copy whose clearance no longer covers any of *labels*.

        Hierarchical grants that would cover a withheld label are removed
        entirely — withholding must not be circumventable via an ancestor
        grant.
        """
        withheld = [
            parse_label(label) if isinstance(label, str) else label for label in labels
        ]
        kept = frozenset(
            grant
            for grant in self._grants[CLEARANCE]
            if not any(grant.is_ancestor_of(label) for label in withheld)
        )
        grants = dict(self._grants)
        grants[CLEARANCE] = kept
        return PrivilegeSet(grants)

    # -- queries -----------------------------------------------------------

    def labels_for(self, kind: str) -> FrozenSet[Label]:
        """The raw grant labels for *kind* (hierarchical roots included)."""
        if kind not in PRIVILEGE_KINDS:
            raise PolicyError(f"unknown privilege kind {kind!r}")
        return self._grants[kind]

    def grants(self, kind: str, label: Label) -> bool:
        """True when this set holds *kind* over *label* (incl. hierarchically)."""
        return any(grant.is_ancestor_of(label) for grant in self.labels_for(kind))

    def clearance_covers(self, labels: LabelSet | Iterable[Label]) -> bool:
        """True when every confidentiality label in *labels* is readable.

        Decisions are memoized per label set: the broker sees the same
        few label sets millions of times, and since this instance is
        immutable a cached decision never goes stale.
        """
        if not isinstance(labels, LabelSet):
            labels = LabelSet(labels)
        cache = self._cover_cache
        cached = cache.get(labels)
        if cached is not None:
            return cached
        decision = all(self.grants(CLEARANCE, label) for label in labels.confidentiality)
        if len(cache) >= _COVER_CACHE_LIMIT:
            cache.clear()
        cache[labels] = decision
        return decision

    def can_endorse(self, labels: LabelSet | Iterable[Label]) -> bool:
        """True when every integrity label in *labels* may be added."""
        if not isinstance(labels, LabelSet):
            labels = LabelSet(labels)
        return all(self.grants(ENDORSEMENT, label) for label in labels.integrity)

    def missing_clearance(self, labels: LabelSet | Iterable[Label]) -> FrozenSet[Label]:
        """The confidentiality labels in *labels* this set cannot read.

        Used to build precise error messages and audit records.
        """
        if not isinstance(labels, LabelSet):
            labels = LabelSet(labels)
        return frozenset(
            label for label in labels.confidentiality if not self.grants(CLEARANCE, label)
        )

    def missing_declassification(
        self, labels: LabelSet | Iterable[Label]
    ) -> FrozenSet[Label]:
        """The confidentiality labels in *labels* this set cannot remove."""
        if not isinstance(labels, LabelSet):
            labels = LabelSet(labels)
        return frozenset(
            label
            for label in labels.confidentiality
            if not self.grants(DECLASSIFICATION, label)
        )

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrivilegeSet):
            return NotImplemented
        return self._grants == other._grants

    def __hash__(self) -> int:
        return hash(tuple(sorted((kind, labels) for kind, labels in self._grants.items())))

    def __bool__(self) -> bool:
        return any(self._grants.values())

    def __repr__(self) -> str:
        parts = []
        for kind in PRIVILEGE_KINDS:
            labels = self._grants[kind]
            if labels:
                uris = ", ".join(sorted(label.uri for label in labels))
                parts.append(f"{kind}=[{uris}]")
        return f"PrivilegeSet({'; '.join(parts)})"

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, list]:
        """A JSON-serialisable representation (kind → sorted URI list)."""
        return {
            kind: sorted(label.uri for label in labels)
            for kind, labels in self._grants.items()
            if labels
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[str]]) -> "PrivilegeSet":
        return cls({kind: list(labels) for kind, labels in data.items()})


_EMPTY = PrivilegeSet()
