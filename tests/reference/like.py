"""The seed ``LIKE`` translation: each ``%`` becomes ``.*``.

``repro.events.selector._like_to_regex`` is held to this function by
``tests/property/test_selector_like.py``. It matches the same strings but
backtracks polynomially in the value's length on a pattern such as
``'%a%a%a%a%a%a%a%a%b'``, so it only ever sees short values.
"""

import re
from typing import List, Optional

from repro.exceptions import SelectorSyntaxError


def like_to_regex(pattern: str, escape: Optional[str]):
    if escape is not None and len(escape) != 1:
        raise SelectorSyntaxError("ESCAPE requires a single character")
    parts: List[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if escape is not None and char == escape:
            index += 1
            if index >= len(pattern):
                raise SelectorSyntaxError("dangling ESCAPE character in LIKE pattern")
            parts.append(re.escape(pattern[index]))
        elif char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    return re.compile("".join(parts), re.DOTALL)
