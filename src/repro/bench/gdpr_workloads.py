"""The four GDPRbench core workloads (Table 2a of the paper).

=========== ==================================== ======= ============
Workload    Operations                           Weight  Distribution
=========== ==================================== ======= ============
Controller  create-record                        25%     Uniform
            delete-record-by-{pur|ttl|usr}       25%
            update-metadata-by-{pur|usr|shr}     50%
Customer    read-data-by-usr                     20%     Zipf
            read-metadata-by-key                 20%
            update-data-by-key                   20%
            update-metadata-by-key               20%
            delete-record-by-key                 20%
Processor   read-data-by-key                     80%     Zipf
            read-data-by-{pur|obj|dec}           20%     Uniform
Regulator   read-metadata-by-usr                 46%     Zipf
            get-system-logs                      31%
            verify-deletion                      23%
=========== ==================================== ======= ============

Weights come from the paper's calibration: GDPR steady-state properties for
the controller, Google's RTBF report for the customer skew (Zipf), the
EDPB first-nine-months complaint statistics (46/31/23) for the regulator,
and YCSB-style access patterns plus emerging metadata-conditioned reads
for the processor.

Operations are pre-generated deterministically from a seed; each carries a
validator for the correctness metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.distributions import (
    CounterGenerator,
    DiscreteGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)
from repro.common.errors import WorkloadError
from repro.gdpr.acl import Principal

from .operations import (
    Operation,
    data_owned_by,
    is_bool,
    is_nonneg_int,
    is_optional_str,
    is_pair_list,
    metadata_for_key,
    metadata_user_is,
)
from .records import RecordCorpusConfig, key_for, make_record, user_for


@dataclass(frozen=True)
class GDPRWorkloadSpec:
    """Name, purpose, operation mix and record-selection distribution."""

    name: str
    purpose: str
    mix: tuple          # ((operation-name, weight), ...)
    distribution: str   # 'uniform' | 'zipfian'

    def weights(self) -> dict:
        return dict(self.mix)


CONTROLLER = GDPRWorkloadSpec(
    name="controller",
    purpose="Management and administration of personal data",
    mix=(
        ("create-record", 25.0),
        ("delete-record-by-pur", 25.0 / 3),
        ("delete-record-by-ttl", 25.0 / 3),
        ("delete-record-by-usr", 25.0 / 3),
        ("update-metadata-by-pur", 50.0 / 3),
        ("update-metadata-by-usr", 50.0 / 3),
        ("update-metadata-by-shr", 50.0 / 3),
    ),
    distribution="uniform",
)

CUSTOMER = GDPRWorkloadSpec(
    name="customer",
    purpose="Exercising GDPR rights",
    mix=(
        ("read-data-by-usr", 20.0),
        ("read-metadata-by-key", 20.0),
        ("update-data-by-key", 20.0),
        ("update-metadata-by-key", 20.0),
        ("delete-record-by-key", 20.0),
    ),
    distribution="zipfian",
)

PROCESSOR = GDPRWorkloadSpec(
    name="processor",
    purpose="Processing of personal data",
    mix=(
        ("read-data-by-key", 80.0),
        ("read-data-by-pur", 20.0 / 3),
        ("read-data-by-obj", 20.0 / 3),
        ("read-data-by-dec", 20.0 / 3),
    ),
    distribution="zipfian",
)

REGULATOR = GDPRWorkloadSpec(
    name="regulator",
    purpose="Investigation and enforcement of GDPR laws",
    mix=(
        ("read-metadata-by-usr", 46.0),
        ("get-system-logs", 31.0),
        ("verify-deletion", 23.0),
    ),
    distribution="zipfian",
)

CORE_WORKLOADS: dict[str, GDPRWorkloadSpec] = {
    spec.name: spec for spec in (CONTROLLER, CUSTOMER, PROCESSOR, REGULATOR)
}


def make_operations(
    spec: GDPRWorkloadSpec,
    corpus: RecordCorpusConfig,
    operation_count: int,
    seed: int = 11,
) -> list[Operation]:
    """Pre-generate one workload's transaction phase."""
    if spec.name not in CORE_WORKLOADS:
        raise WorkloadError(f"unknown GDPR workload {spec.name!r}")
    rng = random.Random(seed ^ (hash(spec.name) & 0xFFFF))
    n = corpus.record_count
    if spec.distribution == "uniform":
        chooser = UniformGenerator(0, n - 1, rng=rng)
    else:
        chooser = ScrambledZipfianGenerator(0, n - 1, rng=rng)
    mix = DiscreteGenerator(rng=rng)
    for op_name, weight in spec.mix:
        mix.add_value(op_name, weight)
    insert_counter = CounterGenerator(n)
    builder = _OperationBuilder(corpus, rng, chooser, insert_counter)
    return [builder.build(mix.next_value()) for _ in range(operation_count)]


class _OperationBuilder:
    """Turns an operation name + distributions into a bound Operation."""

    def __init__(self, corpus: RecordCorpusConfig, rng: random.Random,
                 chooser, insert_counter: CounterGenerator) -> None:
        self._corpus = corpus
        self._rng = rng
        self._chooser = chooser
        self._counter = insert_counter
        self._rectifications = 0

    # -- selection helpers -------------------------------------------------

    def _index(self) -> int:
        return self._chooser.next_value()

    def _key(self) -> str:
        return key_for(self._index())

    def _key_and_user(self) -> tuple[str, str]:
        index = self._index()
        return key_for(index), user_for(index, self._corpus.user_count)

    def _user(self) -> str:
        return user_for(self._index(), self._corpus.user_count)

    def _purpose(self) -> str:
        return self._rng.choice(self._corpus.purposes)

    def _party(self) -> str:
        return self._rng.choice(self._corpus.parties)

    def _decision(self) -> str:
        return self._rng.choice(self._corpus.decisions)

    # -- dispatch ------------------------------------------------------------

    def build(self, op_name: str) -> Operation:
        method = getattr(self, "_op_" + op_name.replace("-", "_"), None)
        if method is None:
            raise WorkloadError(f"no builder for operation {op_name!r}")
        return method()

    # -- controller operations -------------------------------------------

    def _op_create_record(self) -> Operation:
        index = self._counter.next_value()
        record = make_record(index, self._corpus, self._rng)
        return Operation(
            "create-record",
            lambda c, p=Principal.controller(), r=record: c.create_record(p, r),
            validate=lambda r: r is True,
        )

    def _op_delete_record_by_pur(self) -> Operation:
        purpose = self._purpose()
        return Operation(
            "delete-record-by-pur",
            lambda c, p=Principal.controller(), v=purpose: c.delete_record_by_pur(p, v),
            validate=is_nonneg_int,
        )

    def _op_delete_record_by_ttl(self) -> Operation:
        return Operation(
            "delete-record-by-ttl",
            lambda c, p=Principal.controller(): c.delete_record_by_ttl(p),
            validate=is_nonneg_int,
        )

    def _op_delete_record_by_usr(self) -> Operation:
        user = self._user()
        return Operation(
            "delete-record-by-usr",
            lambda c, p=Principal.controller(), v=user: c.delete_record_by_usr(p, v),
            validate=is_nonneg_int,
        )

    def _op_update_metadata_by_pur(self) -> Operation:
        purpose, party = self._purpose(), self._party()
        return Operation(
            "update-metadata-by-pur",
            lambda c, p=Principal.controller(), v=purpose, w=party:
                c.update_metadata_by_pur(p, v, "SHR", (w,)),
            validate=is_nonneg_int,
        )

    def _op_update_metadata_by_usr(self) -> Operation:
        user = self._user()
        ttl = self._corpus.long_ttl_seconds
        return Operation(
            "update-metadata-by-usr",
            lambda c, p=Principal.controller(), v=user, t=ttl:
                c.update_metadata_by_usr(p, v, "TTL", t),
            validate=is_nonneg_int,
        )

    def _op_update_metadata_by_shr(self) -> Operation:
        party = self._party()
        source = self._rng.choice(self._corpus.sources)
        return Operation(
            "update-metadata-by-shr",
            lambda c, p=Principal.controller(), v=party, s=source:
                c.update_metadata_by_shr(p, v, "SRC", s),
            validate=is_nonneg_int,
        )

    # -- customer operations ------------------------------------------------

    def _op_read_data_by_usr(self) -> Operation:
        user = self._user()
        return Operation(
            "read-data-by-usr",
            lambda c, p=Principal.customer(user), v=user: c.read_data_by_usr(p, v),
            validate=data_owned_by(user),
        )

    def _op_read_metadata_by_key(self) -> Operation:
        key, user = self._key_and_user()
        return Operation(
            "read-metadata-by-key",
            lambda c, p=Principal.customer(user), k=key: c.read_metadata_by_key(p, k),
            validate=metadata_for_key(key),
        )

    def _op_update_data_by_key(self) -> Operation:
        key, user = self._key_and_user()
        self._rectifications += 1
        data = f"{user}:rect{self._rectifications:04d}"
        return Operation(
            "update-data-by-key",
            lambda c, p=Principal.customer(user), k=key, d=data: c.update_data_by_key(p, k, d),
            validate=is_nonneg_int,
        )

    def _op_update_metadata_by_key(self) -> Operation:
        key, user = self._key_and_user()
        objection = self._purpose()
        return Operation(
            "update-metadata-by-key",
            lambda c, p=Principal.customer(user), k=key, o=objection:
                c.update_metadata_by_key(p, k, "OBJ", (o,)),
            validate=is_nonneg_int,
        )

    def _op_delete_record_by_key(self) -> Operation:
        key, user = self._key_and_user()
        return Operation(
            "delete-record-by-key",
            lambda c, p=Principal.customer(user), k=key: c.delete_record_by_key(p, k),
            validate=is_nonneg_int,
        )

    # -- processor operations -------------------------------------------

    def _op_read_data_by_key(self) -> Operation:
        key = self._key()
        return Operation(
            "read-data-by-key",
            lambda c, p=Principal.processor(), k=key: c.read_data_by_key(p, k),
            validate=is_optional_str,
        )

    def _op_read_data_by_pur(self) -> Operation:
        purpose = self._purpose()
        return Operation(
            "read-data-by-pur",
            lambda c, p=Principal.processor(), v=purpose: c.read_data_by_pur(p, v),
            validate=is_pair_list,
        )

    def _op_read_data_by_obj(self) -> Operation:
        purpose = self._purpose()
        return Operation(
            "read-data-by-obj",
            lambda c, p=Principal.processor(), v=purpose: c.read_data_by_obj(p, v),
            validate=is_pair_list,
        )

    def _op_read_data_by_dec(self) -> Operation:
        decision = self._decision()
        return Operation(
            "read-data-by-dec",
            lambda c, p=Principal.processor(), v=decision: c.read_data_by_dec(p, v),
            validate=is_pair_list,
        )

    # -- regulator operations -------------------------------------------

    def _op_read_metadata_by_usr(self) -> Operation:
        user = self._user()
        return Operation(
            "read-metadata-by-usr",
            lambda c, p=Principal.regulator(), v=user: c.read_metadata_by_usr(p, v),
            validate=metadata_user_is(user),
        )

    def _op_get_system_logs(self) -> Operation:
        return Operation(
            "get-system-logs",
            lambda c, p=Principal.regulator(): c.get_system_logs(p, limit=100),
            validate=lambda r: isinstance(r, list),
        )

    def _op_verify_deletion(self) -> Operation:
        key = self._key()
        return Operation(
            "verify-deletion",
            lambda c, p=Principal.regulator(), k=key: c.verify_deletion(p, k),
            validate=is_bool,
        )
