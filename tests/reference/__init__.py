"""Executable specifications the property suites hold ``src/`` to.

Each module is the seed's slow, obviously correct version of a mechanism
the package now implements faster: the linear topic matcher
(:mod:`tests.reference.topics`), the linear regex router
(:mod:`tests.reference.router`), the single-dict document store
(:mod:`tests.reference.store`), the per-character STOMP frame codec
(:mod:`tests.reference.frames`), the per-candidate delivery loop with
its three-call engine ladder (:mod:`tests.reference.broker`) and the
backtracking ``LIKE`` translation (:mod:`tests.reference.like`). No
deployment runs them.

A spec is still a second implementation: a bug it shares with the
production code is invisible to an equivalence suite, so every
security-relevant observable also keeps a test pinned against a literal
value.
"""
