"""The typed construction surface: ClusterConfig precedence, validation,
the EPC carve, and the serve() lifecycle.

The contract under test (ARCHITECTURE §16): one config object builds
every cluster; precedence is explicit argument > config > environment,
with the environment resolved *once* by ``from_env``; bad fields and
bad shard overrides are refused up front with a typed error.
"""

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    DurabilityConfig,
    FaultPlan,
    TenancyConfig,
    TenantConfig,
    serve,
)
from repro.cluster.backend import BACKEND_ENV_VAR
from repro.cluster.shard import MIN_SHARD_EPC_BYTES, WORKERS_ENV_VAR
from repro.core.tenant import tenant_token
from repro.errors import ConfigurationError
from repro.server import protocol
from repro.server.protocol import STATUS_OK

pytestmark = pytest.mark.tenant


def small(**overrides):
    fields = dict(n_shards=2, n_keys=128, scale=2048, batch_window=8)
    fields.update(overrides)
    return ClusterConfig(**fields)


# -- validation -------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_shards", 0), ("n_keys", 0), ("scale", 0),
        ("batch_window", 0), ("replication", 0), ("workers", 0),
    ])
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**{field: value})

    def test_durability_config_validates(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(data_dir="")
        with pytest.raises(ConfigurationError):
            DurabilityConfig(data_dir="/tmp/x", epoch_every=0)

    def test_tenant_config_validates(self):
        with pytest.raises(ConfigurationError):
            TenantConfig("acme", rate=10.0)  # rate without burst
        with pytest.raises(ConfigurationError):
            TenantConfig("acme", cache_quota=1.5)
        with pytest.raises(ConfigurationError):
            TenantConfig("")
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=())
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=(TenantConfig("a"), TenantConfig("a")))
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=(TenantConfig("a", cache_quota=0.6),
                                   TenantConfig("b", cache_quota=0.6)))

    def test_with_overrides_returns_a_validated_copy(self):
        config = small()
        copy = config.with_overrides(n_shards=4)
        assert copy.n_shards == 4
        assert config.n_shards == 2  # frozen original untouched
        with pytest.raises(ConfigurationError):
            config.with_overrides(n_shards=0)

    @pytest.mark.parametrize("overrides,replication,durable,accepted", [
        ({"value_hint": 64}, 1, False, True),
        ({"crypto_backend": "fast", "pin_levels": 2}, 1, False, True),
        ({"tenant_quotas": None}, 2, False, True),
        ({"bogus_knob": 1}, 1, False, False),
        ({"bogus_knob": 1}, 2, False, False),
        ({"bogus_knob": 1}, 1, True, False),
        # Sized by the build or set by a ClusterConfig field.
        ({"n_buckets": 8}, 1, False, False),
        ({"index": "btree"}, 1, False, False),
        # A fault plan addresses replicas, so it needs replica groups.
        ({"fault_plan": FaultPlan()}, 1, False, False),
        ({"fault_plan": FaultPlan()}, 2, False, True),
        ({"fault_plan": FaultPlan()}, 1, True, True),
    ], ids=["value_hint", "aria_fields", "tenant_quotas_r2", "bogus",
            "bogus_r2", "bogus_durable", "build_sized", "config_field",
            "fault_plan_plain", "fault_plan_r2", "fault_plan_durable"])
    def test_shard_overrides_are_checked_up_front(
            self, tmp_path, overrides, replication, durable, accepted):
        durability = DurabilityConfig(data_dir=str(tmp_path)) \
            if durable else None

        def make():
            return small(n_keys=64, replication=replication,
                         durability=durability, shard_overrides=overrides)

        if not accepted:
            with pytest.raises(ConfigurationError, match="shard_overrides"):
                make()
            return
        coord = make().build()
        try:
            [r] = coord.execute([protocol.put(b"k", b"v")])
            assert r.status == STATUS_OK
        finally:
            coord.close()


# -- precedence: explicit > config > environment ----------------------------------


class TestPrecedence:
    def test_from_env_pins_the_environment_now(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        config = ClusterConfig.from_env(n_shards=2, n_keys=128)
        assert config.backend == "process"
        assert config.workers == 3
        # Later environment churn cannot change what this config builds.
        monkeypatch.setenv(BACKEND_ENV_VAR, "socket")
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert config.backend == "process"
        assert config.workers == 3

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        config = ClusterConfig.from_env(backend="inline", workers=1)
        assert config.backend == "inline"
        assert config.workers == 1

    def test_absent_environment_defers_to_field_defaults(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        config = ClusterConfig.from_env()
        assert config.backend is None
        assert config.workers is None

    def test_malformed_workers_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        assert ClusterConfig.from_env().workers is None

    def test_explicit_tenant_quotas_override_beats_tenancy(self):
        tenancy = TenancyConfig(tenants=(
            TenantConfig("acme", cache_quota=0.4),))
        config = small(tenancy=tenancy)
        assert config.resolved_shard_overrides() == {
            "tenant_quotas": {tenant_token("acme"): 0.4}}
        pinned = small(tenancy=tenancy,
                       shard_overrides={"tenant_quotas": None})
        assert pinned.resolved_shard_overrides() == {"tenant_quotas": None}


# -- build() arms the nested sub-systems ------------------------------------------


class TestBuild:
    def test_build_arms_tenancy_and_overload(self):
        from repro.cluster import OverloadConfig
        config = small(
            overload=OverloadConfig(),
            tenancy=TenancyConfig(tenants=(
                TenantConfig("acme", rate=100.0, burst=10.0,
                             cache_quota=0.4),)),
        )
        coord = config.build()
        try:
            assert coord.overload is not None
            assert coord.tenancy is not None
            assert "acme" in coord.tenancy.registry
            # The cache quotas reached the shard stores (keyed by token).
            token = tenant_token("acme")
            for shard in coord.shard_list():
                quotas = getattr(shard, "store", None)
                if quotas is not None:  # inline shards expose the store
                    assert shard.store.config.tenant_quotas == {token: 0.4}
        finally:
            coord.close()

    def test_durability_requires_nothing_extra_and_restores(self, tmp_path):
        config = small(durability=DurabilityConfig(data_dir=str(tmp_path)))
        coord = config.build()
        try:
            [r] = coord.execute([protocol.put(b"durable", b"v")])
            assert r.status == STATUS_OK
            assert coord.durability_restored == {}
        finally:
            coord.close()
        revived = config.build()
        try:
            assert revived.durability_restored  # recovery replayed something
            [r] = revived.execute([protocol.get(b"durable")])
            assert r.value == b"v"
        finally:
            revived.close()


# -- one EPC carve for every build path -------------------------------------------


class TestEpcCarve:
    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("scale", [64, 4096, 1 << 20])
    def test_every_enclave_gets_per_enclave_epc_bytes(
            self, tmp_path, n_shards, scale):
        configs = [
            small(n_shards=n_shards, n_keys=64, scale=scale),
            small(n_shards=n_shards, n_keys=64, scale=scale,
                  replication=2),
            small(n_shards=n_shards, n_keys=64, scale=scale,
                  durability=DurabilityConfig(data_dir=str(tmp_path))),
        ]
        for config in configs:
            carve = config.per_enclave_epc_bytes()
            assert carve == config.elastic_spec().epc_bytes
            assert carve == max(MIN_SHARD_EPC_BYTES,
                                config.cluster_epc_bytes // scale
                                // (n_shards * config.replication))
            if scale == 1 << 20:
                assert carve == MIN_SHARD_EPC_BYTES  # the floor applies
            coord = config.build()
            try:
                enclaves = []
                for shard in coord.shard_list():
                    replicas = getattr(shard, "replicas", None)
                    enclaves += [r.shard for r in replicas] if replicas \
                        else [shard]
                assert len(enclaves) == n_shards * config.replication
                assert {e.epc_bytes for e in enclaves} == {carve}
            finally:
                coord.close()


# -- serve(): the whole front door from one config --------------------------------


class TestServe:
    def test_serve_lifecycle_and_tenant_door(self):
        tenancy = TenancyConfig(tenants=(TenantConfig("acme"),))
        server = serve(small(tenancy=tenancy))
        try:
            host, port = server.server.address
            with ClusterClient.connect(host, port, tenant="acme") as client:
                assert client.session_info()["tenant"] == "acme"
                assert client.put(b"k", b"v").status == STATUS_OK
                assert client.get(b"k").value == b"v"
        finally:
            server.close()

    def test_serve_plaintext_door_skips_the_session_gateway(self):
        tenancy = TenancyConfig(tenants=(TenantConfig("acme"),))
        server = serve(small(tenancy=tenancy), security="plaintext")
        try:
            host, port = server.server.address
            with ClusterClient.connect(host, port, secure=False,
                                       tenant="acme") as client:
                assert client.put(b"k", b"v").status == STATUS_OK
        finally:
            server.close()
