"""The seed topic matcher: one subscription pattern against one topic.

The broker's route build (``repro.events.broker._matches`` behind a raw
equality test), and through it every delivery, is held to this function
by ``tests/property/test_topic_index.py`` and the matching table in
``tests/unit/events/test_broker.py::TestTopicMatching``.
"""


def match_topic(pattern: str, topic: str) -> bool:
    """Match a subscription pattern against an event topic.

    ``*`` matches exactly one segment, a trailing ``#`` one or more, and a
    pattern whose raw string equals the topic always matches.
    """
    if pattern == topic:
        return True
    pattern_parts = pattern.strip("/").split("/")
    topic_parts = topic.strip("/").split("/")
    for index, part in enumerate(pattern_parts):
        if part == "#":
            # '#' must be the last pattern segment and match at least one
            # topic segment.
            return index == len(pattern_parts) - 1 and index < len(topic_parts)
        if index >= len(topic_parts):
            return False
        if part != "*" and part != topic_parts[index]:
            return False
    return len(pattern_parts) == len(topic_parts)
