"""Variable-level taint tracking (paper §4.4).

SafeWeb's web frontend attaches security labels to individual variables:
a string holding a patient name carries the patient's confidentiality
label, and every value derived from it carries the label too. In Ruby the
paper achieves this by re-opening ``String`` and ``Numeric`` and aliasing
their operators; CPython's built-in types are closed, so this package
takes the Resin-style approach instead: labeled *subclasses* of ``str``,
``int``, ``float`` and ``bytes`` whose operators propagate labels, plus a
framework guarantee that data entering application code from the
application database is already wrapped (see ``repro.storage.docstore``).
Application code then manipulates values normally and labels follow.

Alongside confidentiality/integrity labels, labeled values carry a
*user-taint* bit — the analogue of Ruby's built-in ``taint`` flag the
paper relies on for XSS/SQL-injection sanitisation (§4.4, last
paragraph). See :mod:`repro.taint.sanitize`.

Known false negatives (accepted, as in the paper/Resin, because code is
assumed non-malicious): multi-part f-strings and ``plain_str.format(...)``
join through plain ``str`` internals and drop labels. Use concatenation,
``%``, labeled templates or the provided helpers, all of which propagate.
"""

from repro.taint.labeled import (
    combine_sources,
    is_labeled,
    is_user_tainted,
    label,
    labels_of,
    strip_labels,
    with_labels,
)
from repro.taint.string import LabeledBytes, LabeledStr
from repro.taint.number import LabeledFloat, LabeledInt
from repro.taint.sanitize import (
    SanitisationError,
    html_escape,
    mark_user_input,
    require_sanitized,
    sql_quote,
)
from repro.taint import regex
from repro.taint import json_codec

__all__ = [
    "LabeledStr",
    "LabeledBytes",
    "LabeledInt",
    "LabeledFloat",
    "label",
    "labels_of",
    "with_labels",
    "strip_labels",
    "is_labeled",
    "is_user_tainted",
    "combine_sources",
    "mark_user_input",
    "require_sanitized",
    "html_escape",
    "sql_quote",
    "SanitisationError",
    "regex",
    "json_codec",
]
