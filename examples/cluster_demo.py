"""Cluster scale-out: a scatter-gather router over a worker fleet.

The example stands up three real worker subprocesses (each a full
``repro-spatial serve --listen`` sketch server), wires a
:class:`~repro.cluster.router.ClusterRouter` over them, and shows the
three things the cluster layer adds:

1. **Scatter-gather exactness** — ingest through the router partitions
   boxes across the shard workers, sorted by name, by the same shard hash
   the in-process store uses;
   estimates gather per-worker counter states and reduce them with one
   vectorised merge.  Every answer is bit-identical to a single-node
   service over the same data — sketches are linear, so distribution is
   invisible.
2. **Topology introspection** — the ``cluster_status`` verb reports every
   worker's role, health and generation; the ``metrics`` verb aggregates
   fleet counters under ``repro_cluster_*``.
3. **Replica bootstrap** — a fourth, empty worker joins as a read replica
   of one shard owner: the router ships the owner's binary snapshot over
   the wire, after which reads round-robin across the owner group.

The client side is the ordinary :class:`~repro.client.ServiceClient` —
the router speaks the same NDJSON protocol as a single worker.

Run with::

    python examples/cluster_demo.py
"""

from __future__ import annotations

from repro.client import ServiceClient
from repro.cluster import ThreadedClusterRouter
from repro.cluster.fleet import LocalFleet
from repro.core.domain import Domain
from repro.service import EstimationService, synthetic_boxes, synthetic_queries

DOMAIN = Domain.square(512, dimension=2)


def main() -> None:
    # A single-node reference service: the cluster must match it exactly.
    # Registered from plain sizes, as the wire ``register`` below is, so
    # both derive the same default level caps (a Domain is uncapped).
    reference = EstimationService(num_shards=4)
    reference.register("ranges", family="range", domain=(512, 512),
                       num_instances=64, seed=11)
    reference.register("join", family="rectangle", domain=(512, 512),
                       num_instances=32, seed=13)

    with LocalFleet(3) as fleet:
        addresses = ", ".join(w.address for w in fleet.workers)
        print(f"3 workers listening on {addresses}")

        with ThreadedClusterRouter(fleet.addresses(),
                                   start_heartbeat=False) as handle:
            print(f"router listening on 127.0.0.1:{handle.port}\n")
            with ServiceClient("127.0.0.1", handle.port) as client:
                # 1. Register + ingest through the router: one logical
                #    service, physically partitioned across the fleet.
                client.register("ranges", family="range", sizes=[512, 512],
                                instances=64, seed=11)
                client.register("join", family="rectangle",
                                sizes=[512, 512], instances=32, seed=13)
                for name, side, seed in (("ranges", "data", 1),
                                         ("join", "left", 2),
                                         ("join", "right", 3)):
                    boxes = synthetic_boxes(DOMAIN, 2_000, seed=seed)
                    client.ingest(name, boxes, side=side)
                    reference.ingest(name, boxes, side=side)
                client.flush()
                reference.flush()

                queries = synthetic_queries(DOMAIN, 4, seed=17)
                print("--- scatter-gather estimates " + "-" * 31)
                for i in range(4):
                    got = client.estimate("ranges", queries[i]).estimate
                    want = reference.estimate("ranges", queries[i]).estimate
                    assert got == want, (got, want)
                    print(f"range query {i}: cluster {got:12,.1f}   "
                          f"single-node {want:12,.1f}   bit-identical")
                got = client.estimate("join").estimate
                want = reference.estimate("join").estimate
                assert got == want, (got, want)
                print(f"join estimate : cluster {got:12,.1f}   "
                      f"single-node {want:12,.1f}   bit-identical")

                # 2. Topology and fleet metrics.
                status = client.cluster_status()
                print("\n--- cluster_status " + "-" * 41)
                for worker in status["workers"]:
                    print(f"{worker['name']:4s} {worker['address']:21s} "
                          f"role={worker['role']:7s} "
                          f"healthy={worker['healthy']}")

                # 3. Bootstrap a read replica: a fresh, empty worker joins
                #    and receives one owner's snapshot over the wire.
                owner = status["workers"][0]["name"]
                extra = fleet.spawn_extra()
                handle.run(handle.router.bootstrap_replica(
                    "replica-1", extra.host, extra.port, source=owner))
                print(f"\nbootstrapped replica-1 ({extra.address}) "
                      f"from {owner}")
                status = client.cluster_status()
                roles = {w["name"]: w["role"] for w in status["workers"]}
                assert roles["replica-1"] == "replica"
                # Reads now round-robin across the owner group — still
                # bit-identical, from whichever process answers.
                for _ in range(4):
                    got = client.estimate("ranges", queries[0]).estimate
                    assert got == reference.estimate("ranges",
                                                     queries[0]).estimate
                print("4 post-bootstrap reads: all bit-identical")

                print("\n--- fleet metrics (excerpt) " + "-" * 32)
                for line in client.metrics().splitlines():
                    if any(key in line for key in ("workers", "estimate_qps",
                                                   "requests_total")):
                        print(line)

    print("\nfleet stopped; done")


if __name__ == "__main__":
    main()
