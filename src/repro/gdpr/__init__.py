"""GDPR layer: record model, query taxonomy, compliance registry, ACL, audit."""

from .acl import AccessController, Principal
from .audit import AuditEvent, breach_report, events_from_aof, events_from_csvlog
from .compliance import (
    Action,
    ArticleRequirement,
    ComplianceReport,
    TABLE_1,
    articles_for_attribute,
    evaluate_features,
    requirements_for_action,
)
from .queries import (
    FAMILIES,
    QUERY_SPECS,
    QuerySpec,
    Role,
    queries_for_role,
    query_spec,
    role_may_issue,
)
from .record import (
    ATTRIBUTE_ARTICLES,
    ATTRIBUTE_NAMES,
    PersonalRecord,
    format_ttl,
    parse_ttl,
)

__all__ = [
    "PersonalRecord",
    "ATTRIBUTE_NAMES",
    "ATTRIBUTE_ARTICLES",
    "format_ttl",
    "parse_ttl",
    "Role",
    "QuerySpec",
    "QUERY_SPECS",
    "FAMILIES",
    "query_spec",
    "queries_for_role",
    "role_may_issue",
    "Action",
    "ArticleRequirement",
    "TABLE_1",
    "ComplianceReport",
    "evaluate_features",
    "requirements_for_action",
    "articles_for_attribute",
    "AccessController",
    "Principal",
    "AuditEvent",
    "events_from_csvlog",
    "events_from_aof",
    "breach_report",
]
