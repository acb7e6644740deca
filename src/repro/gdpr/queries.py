"""The GDPR query taxonomy from Section 3.3 of the paper.

GDPR's articles collectively allow four entities to perform seven families
of operations against the personal-data store.  Every operation a client
stub must implement is named here, together with which roles may issue it
(Figure 1's arrows) and which GDPR articles authorise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.common.errors import UnknownQueryError


class Role(Enum):
    """The four GDPR entities that interface with the datastore."""

    CONTROLLER = "controller"
    CUSTOMER = "customer"
    PROCESSOR = "processor"
    REGULATOR = "regulator"


@dataclass(frozen=True)
class QuerySpec:
    """One operation of the taxonomy."""

    name: str
    family: str
    articles: tuple
    roles: tuple  # roles allowed to issue it (Figure 1)
    description: str


_Q = QuerySpec

#: Section 3.3, verbatim taxonomy.  ``verify-deletion`` is the regulator
#: probe GDPRbench adds to the regulator workload (Table 2a).
QUERY_SPECS: tuple = (
    _Q("create-record", "CREATE-RECORD", ("24",), (Role.CONTROLLER,),
       "controller inserts a personal record with its metadata"),
    _Q("delete-record-by-key", "DELETE-RECORD", ("17",),
       (Role.CONTROLLER, Role.CUSTOMER),
       "customer requests erasure of one record"),
    _Q("delete-record-by-pur", "DELETE-RECORD", ("5(1b)",), (Role.CONTROLLER,),
       "controller deletes records of a completed purpose"),
    _Q("delete-record-by-ttl", "DELETE-RECORD", ("5(1e)",), (Role.CONTROLLER,),
       "controller purges expired records"),
    _Q("delete-record-by-usr", "DELETE-RECORD", ("17",), (Role.CONTROLLER,),
       "controller cleans up all records of one customer"),
    _Q("read-data-by-key", "READ-DATA", ("28",), (Role.PROCESSOR, Role.CUSTOMER),
       "processor reads an individual data item"),
    _Q("read-data-by-pur", "READ-DATA", ("28",), (Role.PROCESSOR,),
       "processor reads items matching a purpose"),
    _Q("read-data-by-usr", "READ-DATA", ("20",), (Role.CUSTOMER,),
       "customer extracts all their data (portability)"),
    _Q("read-data-by-obj", "READ-DATA", ("21(3)",), (Role.PROCESSOR,),
       "processor reads items not objecting to a usage"),
    _Q("read-data-by-dec", "READ-DATA", ("22",), (Role.PROCESSOR,),
       "processor reads items open to automated decision-making"),
    _Q("read-metadata-by-key", "READ-METADATA", ("15",), (Role.CUSTOMER, Role.REGULATOR),
       "customer inspects the metadata of one record"),
    _Q("read-metadata-by-usr", "READ-METADATA", ("15",), (Role.CUSTOMER, Role.REGULATOR),
       "regulator runs a user-specific investigation"),
    _Q("read-metadata-by-shr", "READ-METADATA", ("13(1)",), (Role.REGULATOR,),
       "regulator investigates third-party sharing"),
    _Q("update-data-by-key", "UPDATE-DATA", ("16",), (Role.CUSTOMER,),
       "customer rectifies inaccurate personal data"),
    _Q("update-metadata-by-key", "UPDATE-METADATA", ("18(1)", "7(3)", "22(3)"),
       (Role.CUSTOMER, Role.CONTROLLER, Role.PROCESSOR),
       "customer changes objections / consents on one record"),
    _Q("update-metadata-by-pur", "UPDATE-METADATA", ("13(3)",), (Role.CONTROLLER,),
       "controller updates metadata for a group by purpose"),
    _Q("update-metadata-by-usr", "UPDATE-METADATA", ("13(3)",), (Role.CONTROLLER,),
       "controller updates metadata for a customer's records"),
    _Q("update-metadata-by-shr", "UPDATE-METADATA", ("13(3)",), (Role.CONTROLLER,),
       "controller updates third-party sharing lists"),
    _Q("get-system-logs", "GET-SYSTEM", ("33", "34"), (Role.REGULATOR,),
       "regulator pulls audit log entries by time range"),
    _Q("get-system-features", "GET-SYSTEM", ("24", "25"), (Role.REGULATOR,),
       "regulator lists supported security capabilities"),
    _Q("verify-deletion", "GET-SYSTEM", ("5(2)", "17"), (Role.REGULATOR,),
       "regulator verifies an erased record is gone"),
)

_BY_NAME = {spec.name: spec for spec in QUERY_SPECS}

FAMILIES = tuple(sorted({spec.family for spec in QUERY_SPECS}))


def query_spec(name: str) -> QuerySpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownQueryError(f"unknown GDPR query {name!r}") from None


def queries_for_role(role: Role) -> list[QuerySpec]:
    return [spec for spec in QUERY_SPECS if role in spec.roles]


def role_may_issue(role: Role, name: str) -> bool:
    return role in query_spec(name).roles

