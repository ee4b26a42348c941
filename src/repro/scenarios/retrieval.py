"""``retrieval_load`` scenario: a read-heavy Retrieval-Market stream.

Retrieval in FileInsurer happens off-chain over IPFS's BitSwap protocol
with DHT provider routing (Sections III-E, VI-F); the protocol's only
timing promise is the ``DelayPerSize`` transfer bound.  This scenario
publishes a replicated file population into a :class:`BitSwapNetwork` /
:class:`DHTNetwork` deployment and hammers it with a Poisson request
stream from :class:`~repro.sim.workload.WorkloadGenerator`:

* every request resolves providers through a real iterative Kademlia
  lookup (hop count is measured, and each hop costs one base latency);
* blocks move through the BitSwap want/serve path, so per-provider byte
  ledgers and selfish providers (``serves_retrievals=False``, the Section
  VI-E experiment) behave exactly as in the storage substrate;
* service timing uses :class:`~repro.sim.network.LatencyModel` plus a
  single-server queue per provider, so the sweep over arrival rates maps
  out the load/latency curve and the fraction of requests that violate
  the ``DelayPerSize`` deadline;
* the request stream's popularity-weighted file choices are one batched
  ``batch_weighted_draw`` on :mod:`repro.kernels`, bit-identical on the
  kernel oracle.

Registered with :mod:`repro.runner` as ``retrieval_load``; run it with::

    python -m repro run retrieval_load --workers 4 --set rates=2,8,16
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.crypto.prng import DeterministicPRNG
from repro.kernels import get_backend, sampler_stream
from repro.runner.aggregate import compact_summary, summarize
from repro.runner.registry import ParamSpec, scenario
from repro.sim.lifecycle import zipf_weights
from repro.sim.metrics import MetricSeries
from repro.sim.network import LatencyModel
from repro.sim.workload import FileSizeDistribution, WorkloadGenerator
from repro.storage.bitswap import BitSwapNetwork
from repro.storage.content_store import BlockNotFoundError
from repro.storage.dag import MerkleDag
from repro.storage.dht import DHTNetwork
from repro.telemetry import metrics

__all__ = ["run_retrieval_trial"]

#: Default per-byte deadline (seconds); matches ``ProtocolParams.small_test``
#: scaled to the toy bandwidths used here.
_DELAY_PER_SIZE = 5e-5

#: Spawn-key constant separating the request-stream draws from any other
#: sampler stream derived from the same trial seed.
_REQUEST_STREAM = 1

_SCENARIO_PARAMS = {
    "providers": ParamSpec(8, "provider peers serving blocks", "[1, inf)"),
    "clients": ParamSpec(4, "client peers issuing requests", "[1, inf)"),
    "files": ParamSpec(12, "files published into the network", "[1, inf)"),
    "replicas": ParamSpec(3, "providers hosting each file", "[1, inf)"),
    "mean_kib": ParamSpec(32, "mean file size in KiB", "[1, inf)"),
    "requests": ParamSpec(60, "requests per trial", "[1, inf)"),
    "rates": ParamSpec((2.0, 8.0, 16.0), "request arrival rates (per second) to sweep", "(0, inf)"),
    "selfish_fraction": ParamSpec(0.0, "fraction of providers refusing to serve", "[0, 1]"),
    "bandwidth_kibps": ParamSpec(64.0, "per-provider service bandwidth (KiB/s)", "(0, inf)"),
    "delay_per_size": ParamSpec(
        _DELAY_PER_SIZE, "deadline seconds per byte (DelayPerSize)", "(0, inf)"
    ),
    "zipf_popularity": ParamSpec(True, "rank-weighted (1/rank) file popularity"),
    "trials": ParamSpec(2, "independent repetitions per rate", "[1, inf)"),
}


def _build_trials(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One trial per (arrival rate, repetition)."""
    template = {
        key: params[key] for key in _SCENARIO_PARAMS if key not in ("rates", "trials")
    }
    return [
        {**template, "rate_per_s": float(rate)}
        for rate in params["rates"]  # type: ignore[attr-defined]
        for _ in range(int(params["trials"]))  # type: ignore[call-overload]
    ]


def _publish_files(
    task: Mapping[str, object],
    bitswap: BitSwapNetwork,
    generator: WorkloadGenerator,
) -> Tuple[List[Tuple[object, List[object], int]], List[str]]:
    """Create peers, publish the replicated file population, return the catalog.

    Returns ``(catalog, provider_names)`` where each catalog entry is
    ``(root_cid, block_cids, size)``.
    """
    provider_names = [f"provider-{i}" for i in range(int(task["providers"]))]  # type: ignore[arg-type]
    selfish_count = int(float(task["selfish_fraction"]) * len(provider_names))  # type: ignore[arg-type]
    for index, name in enumerate(provider_names):
        bitswap.create_peer(
            name,
            bootstrap=provider_names[0] if index else None,
            serves_retrievals=index >= selfish_count,
        )

    requests = generator.file_requests(
        count=int(task["files"]),  # type: ignore[arg-type]
        mean_size=int(task["mean_kib"]) << 10,  # type: ignore[arg-type]
        distribution=FileSizeDistribution.EXPONENTIAL,
    )
    prng = DeterministicPRNG.from_int(int(task["seed"]), domain="retrieval-placement")  # type: ignore[arg-type]
    catalog: List[Tuple[object, List[object], int]] = []
    for file_index, request in enumerate(requests):
        data = prng.random_bytes(request.size)
        hosts = [
            provider_names[i]
            for i in prng.sample_indices(
                len(provider_names), min(int(task["replicas"]), len(provider_names))  # type: ignore[arg-type]
            )
        ]
        root = None
        blocks: List[object] = []
        for host in hosts:
            peer = bitswap.peer(host)
            dag = MerkleDag(peer.store, chunk_size=8 << 10)
            root = dag.add_file(data)
            blocks = dag.collect_cids(root)
            if peer.dht_node is not None:
                peer.dht_node.provide(root)
        catalog.append((root, blocks, request.size))
    return catalog, provider_names


def run_retrieval_trial(task: Mapping[str, object]) -> Dict[str, object]:
    """Publish files, replay one Poisson request stream, measure latency."""
    seed = int(task["seed"])  # type: ignore[arg-type]
    dht = DHTNetwork()
    bitswap = BitSwapNetwork(dht=dht)
    generator = WorkloadGenerator(seed=seed % (2**32))
    catalog, provider_names = _publish_files(task, bitswap, generator)

    client_names = [f"client-{i}" for i in range(int(task["clients"]))]  # type: ignore[arg-type]
    for name in client_names:
        bitswap.create_peer(name, bootstrap=provider_names[0])

    latency_model = LatencyModel(
        base_latency_s=0.005,
        bandwidth_bytes_per_s=float(task["bandwidth_kibps"]) * 1024.0,  # type: ignore[arg-type]
        jitter_fraction=0.1,
    )
    jitter_prng = DeterministicPRNG.from_int(seed, domain="retrieval-jitter")

    rate = float(task["rate_per_s"])  # type: ignore[arg-type]
    request_count = int(task["requests"])  # type: ignore[arg-type]
    horizon = max(1.0, request_count / rate)
    arrivals = generator.poisson_arrival_times(rate, horizon, limit=request_count)
    while len(arrivals) < request_count:  # thin tails: keep the count exact
        arrivals.append((arrivals[-1] if arrivals else 0.0) + 1.0 / rate)

    # The whole request stream's file choices come from one batched
    # weighted draw: bit-identical on the kernel oracle, deterministic in
    # the trial seed.
    if bool(task["zipf_popularity"]):
        popularity = zipf_weights(len(catalog))
    else:
        popularity = [1] * len(catalog)
    requested_files = get_backend().batch_weighted_draw(
        sampler_stream(seed, _REQUEST_STREAM),
        popularity,
        [("draw", request_count)],
    ).keys

    delay_per_size = float(task["delay_per_size"])  # type: ignore[arg-type]
    busy_until: Dict[str, float] = {name: 0.0 for name in provider_names}
    latencies = MetricSeries("latency_s")
    deadline_misses = 0
    unserved = 0
    hops_total = 0
    for request_index, arrival in enumerate(arrivals):
        root, blocks, size = catalog[int(requested_files[request_index])]
        client = bitswap.peer(client_names[request_index % len(client_names)])

        # Provider discovery: a real Kademlia lookup, each hop one RTT.
        providers = sorted(client.dht_node.find_providers(root)) if client.dht_node else []
        hops = client.dht_node.lookup_hops if client.dht_node else 0
        hops_total += hops
        candidates = []
        for name in providers:
            peer = bitswap.peer(name)
            if peer is not None and peer.serves_retrievals:
                candidates.append(name)
        if not candidates:
            unserved += 1
            continue
        # Retrieval-market routing: clients pick the least-backlogged bid.
        chosen = min(candidates, key=lambda name: (busy_until[name], name))

        # Move the actual blocks through BitSwap (byte ledgers, caching).
        try:
            for cid in blocks:
                client.fetch_block(cid, hint_peers=[chosen])
        except BlockNotFoundError:
            unserved += 1
            continue
        finally:
            for cid in blocks:  # consume-and-discard: every request hits the network
                client.store.delete(cid)

        service = latency_model.transfer_time(size, jitter_prng)
        start = max(arrival, busy_until[chosen])
        finish = start + service
        busy_until[chosen] = finish
        latency = (start - arrival) + service + hops * latency_model.base_latency_s
        latencies.record(arrival, latency)
        # Beside the p50/p95 scalars: the full latency distribution, as a
        # fixed-bucket histogram (no-op unless `repro run --metrics`).
        metrics.observe("retrieval.latency_s", latency, category="retrieval")
        if latency > delay_per_size * size:
            deadline_misses += 1

    served = latencies.count()
    served_bytes: Dict[str, int] = {}
    for name in provider_names:
        peer = bitswap.peer(name)
        if peer is not None:
            served_bytes[name] = peer.bytes_sent
    mean_served = sum(served_bytes.values()) / max(1, len(served_bytes))
    # An unserved request certainly did not complete inside its deadline,
    # so it counts as a miss -- otherwise a fully selfish network would
    # report a perfect miss rate.
    return {
        "rate_per_s": rate,
        "requests": request_count,
        "served": served,
        "unserved": unserved,
        "miss_rate": round((deadline_misses + unserved) / max(1, request_count), 4),
        "deadline_misses": deadline_misses,
        "latency_mean_s": round(latencies.mean(), 4),
        "latency_p50_s": round(latencies.percentile(50), 4),
        "latency_p95_s": round(latencies.percentile(95), 4),
        "dht_hops_mean": round(hops_total / max(1, request_count), 2),
        "bytes_served": int(sum(served_bytes.values())),
        "load_imbalance": round(max(served_bytes.values()) / mean_served, 3)
        if mean_served
        else 0.0,
    }


def _aggregate(rows, params):
    """Latency / miss statistics per arrival rate."""
    return compact_summary(
        summarize(
            rows,
            group_by=("rate_per_s",),
            values=(
                "miss_rate",
                "latency_mean_s",
                "latency_p95_s",
                "unserved",
                "load_imbalance",
            ),
        ),
        keep=("mean", "ci95"),
    )


scenario(
    "retrieval_load",
    "Retrieval-market load: Poisson request stream over BitSwap/DHT vs DelayPerSize",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("workload", "retrieval", "bitswap", "dht"),
)(run_retrieval_trial)
