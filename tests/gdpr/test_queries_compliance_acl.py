"""Tests for the query taxonomy, Table 1 registry, and access control."""

import pytest

from repro.common.errors import AccessDeniedError, UnknownQueryError
from repro.gdpr.acl import AccessController, Principal
from repro.gdpr.compliance import (
    Action,
    TABLE_1,
    articles_for_attribute,
    evaluate_features,
    requirements_for_action,
)
from repro.gdpr.queries import (
    FAMILIES,
    QUERY_SPECS,
    Role,
    queries_for_role,
    query_spec,
    role_may_issue,
)
from repro.gdpr.record import PersonalRecord


class TestQueryTaxonomy:
    def test_all_section_33_families_present(self):
        assert set(FAMILIES) == {
            "CREATE-RECORD", "DELETE-RECORD", "READ-DATA",
            "READ-METADATA", "UPDATE-DATA", "UPDATE-METADATA", "GET-SYSTEM",
        }

    def test_taxonomy_size(self):
        # 1 create + 4 delete + 5 read-data + 3 read-metadata + 1 update-data
        # + 4 update-metadata + 3 get-system = 21 operations
        assert len(QUERY_SPECS) == 21

    def test_unknown_query_rejected(self):
        with pytest.raises(UnknownQueryError):
            query_spec("drop-all-tables")

    def test_query_spec_carries_family_and_articles(self):
        spec = query_spec("read-data-by-key")
        assert spec.family == "READ-DATA"
        assert "28" in spec.articles

    def test_every_role_has_queries(self):
        for role in Role:
            assert queries_for_role(role), role

    def test_figure1_arrows(self):
        # Controller: create/delete/update, no data reads
        assert role_may_issue(Role.CONTROLLER, "create-record")
        assert role_may_issue(Role.CONTROLLER, "delete-record-by-ttl")
        assert not role_may_issue(Role.CONTROLLER, "read-data-by-key")
        # Customer: their own data, not purpose-wide deletes
        assert role_may_issue(Role.CUSTOMER, "delete-record-by-key")
        assert role_may_issue(Role.CUSTOMER, "read-data-by-usr")
        assert not role_may_issue(Role.CUSTOMER, "delete-record-by-pur")
        # Processor: reads only
        assert role_may_issue(Role.PROCESSOR, "read-data-by-pur")
        assert not role_may_issue(Role.PROCESSOR, "delete-record-by-key")
        # Regulator: metadata and system, never personal data
        assert role_may_issue(Role.REGULATOR, "read-metadata-by-usr")
        assert role_may_issue(Role.REGULATOR, "get-system-logs")
        assert not role_may_issue(Role.REGULATOR, "read-data-by-usr")


class TestTable1:
    def test_thirteen_rows(self):
        assert len(TABLE_1) == 13

    def test_article_17_maps_to_timely_deletion(self):
        row = next(r for r in TABLE_1 if r.article == "17")
        assert Action.TIMELY_DELETION in row.actions
        assert "TTL" in row.attributes

    def test_requirements_for_action(self):
        monitoring = requirements_for_action(Action.MONITOR_AND_LOG)
        assert {r.article for r in monitoring} == {"30", "33"}

    def test_articles_for_attribute(self):
        assert "21" in articles_for_attribute("OBJ")
        assert "5(1b)" in articles_for_attribute("PUR")

    def test_full_feature_set_satisfies_all_articles(self):
        report = evaluate_features({a.value: True for a in Action})
        assert report.score() == 1.0
        assert report.missing == []

    def test_no_features_satisfies_nothing(self):
        report = evaluate_features({})
        assert report.score() == 0.0
        assert set(report.unsatisfied_articles) == {r.article for r in TABLE_1}

    def test_partial_features_partial_score(self):
        report = evaluate_features({"timely_deletion": True})
        assert 0.0 < report.score() < 1.0
        assert "17" in report.satisfied_articles
        assert "30" in report.unsatisfied_articles


def _record(user="neo", purposes=("ads",), objections=()):
    return PersonalRecord(key="k", data="d", purposes=purposes,
                          ttl_seconds=60.0, user=user, objections=objections)


class TestAccessController:
    def test_disabled_controller_allows_everything(self):
        acl = AccessController(enabled=False)
        acl.check_operation(Principal.regulator(), "read-data-by-key")
        acl.check_record_access(Principal.regulator(), _record())
        assert acl.denials == 0

    def test_role_gate(self):
        acl = AccessController()
        acl.check_operation(Principal.controller(), "create-record")
        with pytest.raises(AccessDeniedError):
            acl.check_operation(Principal.processor(), "create-record")
        assert acl.denials == 1

    def test_customer_record_gate(self):
        acl = AccessController()
        acl.check_record_access(Principal.customer("neo"), _record(user="neo"))
        with pytest.raises(AccessDeniedError):
            acl.check_record_access(Principal.customer("smith"), _record(user="neo"))

    def test_processor_read_only(self):
        acl = AccessController()
        acl.check_record_access(Principal.processor(), _record())
        with pytest.raises(AccessDeniedError):
            acl.check_record_access(Principal.processor(), _record(), write=True)

    def test_processor_purpose_gate(self):
        acl = AccessController()
        acl.check_record_access(Principal.processor("ads"), _record(purposes=("ads",)))
        with pytest.raises(AccessDeniedError):
            acl.check_record_access(Principal.processor("billing"), _record(purposes=("ads",)))
        # objection to the declared purpose blocks access (G 21)
        with pytest.raises(AccessDeniedError):
            acl.check_record_access(
                Principal.processor("ads"),
                _record(purposes=("ads",), objections=("ads",)),
            )

    def test_regulator_never_reads_data(self):
        acl = AccessController()
        with pytest.raises(AccessDeniedError):
            acl.check_record_access(Principal.regulator(), _record())

    def test_metadata_gate(self):
        acl = AccessController()
        acl.check_metadata_access(Principal.regulator(), _record())
        acl.check_metadata_access(Principal.controller(), _record())
        acl.check_metadata_access(Principal.customer("neo"), _record(user="neo"))
        with pytest.raises(AccessDeniedError):
            acl.check_metadata_access(Principal.customer("smith"), _record(user="neo"))
        with pytest.raises(AccessDeniedError):
            acl.check_metadata_access(Principal.processor(), _record())

    def test_unknown_operation_rejected_before_role_check(self):
        acl = AccessController()
        with pytest.raises(UnknownQueryError):
            acl.check_operation(Principal.controller(), "explode")

    def test_checks_counted(self):
        acl = AccessController()
        acl.check_operation(Principal.controller(), "create-record")
        acl.check_record_access(Principal.controller(), _record())
        assert acl.checks == 2
