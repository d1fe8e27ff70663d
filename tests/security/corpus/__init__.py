"""The §5.2 adversarial vulnerability corpus, a Gruyere-style test artefact.

:mod:`tests.security.corpus.vulnerabilities` declares the injected bugs
and :mod:`tests.security.corpus.harness` runs one entry in one
direction. Neither is part of the middleware or of the MDT application
the corpus attacks.
"""
