"""Structural invariants of the vulnerability corpus itself."""

import inspect

import pytest

from repro.mdt.deployment import MdtDeployment
from tests.security.corpus.vulnerabilities import VULNERABILITIES, build_vulnerable_deployment

VALID_TIERS = {"web", "storage", "events", "multi"}


class TestRegistryShape:
    def test_corpus_size(self):
        # The standing corpus: at least 15 injectable bugs.
        assert len(VULNERABILITIES) >= 15

    def test_every_tier_represented(self):
        tiers = {entry.tier for entry in VULNERABILITIES.values()}
        assert tiers == VALID_TIERS

    def test_at_least_two_multi_tier_entries(self):
        multi = [e for e in VULNERABILITIES.values() if e.tier == "multi"]
        assert len(multi) >= 2

    def test_original_four_categories_still_present(self):
        assert {
            "omitted_access_check",
            "access_check_error",
            "inappropriate_access_check",
            "design_error",
        } <= set(VULNERABILITIES)

    def test_keys_match_names(self):
        for name, entry in VULNERABILITIES.items():
            assert entry.name == name


class TestEntryMetadata:
    @pytest.mark.parametrize("name", sorted(VULNERABILITIES))
    def test_complete(self, name):
        entry = VULNERABILITIES[name]
        assert entry.title
        assert entry.description
        assert entry.cve_examples
        assert entry.tier in VALID_TIERS
        assert callable(entry.attack)
        assert callable(entry.leak_oracle)
        # Every entry must declare at least one labelled-denial signal.
        assert entry.expected_status is not None or entry.expected_audit is not None

    @pytest.mark.parametrize("name", sorted(VULNERABILITIES))
    def test_unprotected_overrides_are_deployment_kwargs(self, name):
        parameters = set(inspect.signature(MdtDeployment.__init__).parameters)
        for key in VULNERABILITIES[name].unprotected:
            assert key in parameters, f"{name}: unknown deployment kwarg {key!r}"

    @pytest.mark.parametrize("name", sorted(VULNERABILITIES))
    def test_expected_audit_shape(self, name):
        expected = VULNERABILITIES[name].expected_audit
        if expected is not None:
            component, operation = expected
            assert component and operation


class TestBuilder:
    def test_unknown_vulnerability_rejected(self, workload):
        with pytest.raises(KeyError):
            build_vulnerable_deployment("rowhammer", workload=workload)

    def test_explicit_kwargs_win_over_unprotected_overrides(self, workload):
        # csrf_check_bypass's unprotected map turns csrf_protect off; an
        # explicit keyword must take precedence.
        deployment = build_vulnerable_deployment(
            "csrf_check_bypass",
            workload=workload,
            check_labels=False,
            csrf_protect=True,
            run_pipeline=False,
        )
        assert deployment.portal.session_middleware._csrf_protect is True

    def test_protected_build_keeps_all_checks(self, workload):
        deployment = build_vulnerable_deployment(
            "stored_xss", workload=workload, run_pipeline=False
        )
        assert deployment.middleware.check_labels is True
        assert deployment.middleware.check_taint is True
