"""The paper's §5.3 experiments (E1–E6) and ablations (A1–A4).

A package, so pytest puts the repository root on ``sys.path`` and E5 can
build its vulnerable deployment from the test corpus
(``tests/security/corpus/``) however the file is run.
"""
