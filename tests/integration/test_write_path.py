"""Write-path cost invariants that must hold without moving any output.

Three pieces of per-packet and per-task bookkeeping used to scale with
the wrong quantity; each is pinned here to the one it should scale with:

* a host's /24 is parsed once per host, not once per packet;
* the per-task isolation reset visits only relays holding connection or
  queue state, and leaves the world exactly as a sweep of every relay;
* a shard worker ships a chunk's entries from the chunk's own pairs,
  the same entries a full-matrix scan finds.
"""

from __future__ import annotations

import functools

import numpy as np

import repro.core.shard as shard
import repro.netsim.addresses as addresses
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.relay import Relay

POLICY = SamplePolicy(samples=4, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=13, n_relays=30)


def _selection(testbed: LiveTorTestbed, n: int = 4):
    return testbed.random_relays(n, testbed.streams.get("write-path.sel"))


def _run_campaign(testbed: LiveTorTestbed) -> None:
    """A non-isolated campaign: it leaves cached OR connections and
    queue state behind in the relays it used."""
    ParallelCampaign(testbed.measurement, _selection(testbed), policy=POLICY).run()


def _holds_state(relay: Relay) -> bool:
    return bool(relay._or_conns or relay._queue_head)


def _full_sweep(testbed: LiveTorTestbed) -> None:
    """The reset as a sweep over every relay of the world."""
    testbed.measurement.proxy.disconnect_or_conns()
    testbed.measurement.relay_w.disconnect_or_conns()
    testbed.measurement.relay_z.disconnect_or_conns()
    for relay in testbed.relays:
        relay.disconnect_or_conns()


class TestPrefixParsedOncePerHost:
    def test_parse_count_scales_with_hosts_not_packets(self, monkeypatch):
        calls = {"n": 0}
        original = addresses.parse_ipv4

        def counting(address):
            calls["n"] += 1
            return original(address)

        monkeypatch.setattr(addresses, "parse_ipv4", counting)
        testbed = FACTORY()
        hosts = len(testbed.topology.hosts)
        at_build = calls["n"]
        events0 = testbed.sim.events_processed
        _run_campaign(testbed)
        events = testbed.sim.events_processed - events0
        assert 0 < at_build <= hosts
        assert events > 20 * hosts
        assert calls["n"] - at_build <= hosts


class TestResetVisitsOnlyTouchedRelays:
    def test_untouched_relays_are_not_visited(self, monkeypatch):
        testbed = FACTORY()
        _run_campaign(testbed)
        stateful = {relay for relay in testbed.relays if _holds_state(relay)}
        assert stateful and len(stateful) < len(testbed.relays)
        visited = []
        original = Relay.disconnect_or_conns

        def recording(relay):
            visited.append(relay)
            original(relay)

        monkeypatch.setattr(Relay, "disconnect_or_conns", recording)
        testbed.reset_connections()
        host = testbed.measurement
        network = [relay for relay in visited if relay in testbed.relays]
        assert visited[:2] == [host.relay_w, host.relay_z]
        assert set(network) == stateful
        order = {relay: i for i, relay in enumerate(testbed.relays)}
        assert network == sorted(network, key=order.__getitem__)

        visited.clear()
        testbed.reset_connections()
        assert visited == [host.relay_w, host.relay_z]

    def test_queue_state_alone_marks_a_relay(self):
        testbed = FACTORY()
        entry, exit_ = testbed.relays[0], testbed.relays[1]
        built = []
        testbed.measurement.proxy.create_circuit(
            [entry.fingerprint, exit_.fingerprint],
            built.append,
            lambda circuit, reason: None,
        )
        testbed.sim.run(stop_when=lambda: bool(built))
        # The exit only ever accepted a connection: queue state, no
        # outbound OR connection of its own.
        assert exit_._queue_head and not exit_._or_conns
        testbed.reset_connections()
        assert not _holds_state(entry) and not _holds_state(exit_)

    def test_outbound_connection_alone_marks_a_relay(self):
        testbed = FACTORY()
        relay, peer = testbed.relays[0], testbed.relays[1]
        relay._or_conn_to(peer.host.address, peer.or_port, lambda conn: None)
        conn = next(iter(relay._or_conns.values()))
        assert not relay._queue_head
        testbed.reset_connections()
        assert conn.closed and not relay._or_conns

    def test_state_after_reset_matches_a_full_sweep(self):
        worlds = []
        for reset in (LiveTorTestbed.reset_connections, _full_sweep):
            testbed = FACTORY()
            _run_campaign(testbed)
            reset(testbed)
            host = testbed.measurement
            for relay in [*testbed.relays, host.relay_w, host.relay_z]:
                assert not _holds_state(relay)
            assert not host.proxy._or_conns
            # Closing connections schedules events and draws delays:
            # drain them, then measure again from the reset world.
            testbed.sim.run()
            worlds.append(testbed)
        swept, reset = worlds[1], worlds[0]
        assert reset.sim.events_processed == swept.sim.events_processed
        assert reset.sim.now == swept.sim.now
        matrices = []
        for testbed in worlds:
            report = ParallelCampaign(
                testbed.measurement,
                _selection(testbed, 5),
                policy=POLICY,
                isolation=testbed.task_isolation(),
            ).run()
            matrices.append(report.matrix.as_array())
        np.testing.assert_array_equal(matrices[0], matrices[1])


class TestChunkEntries:
    def test_shipped_entries_equal_a_full_matrix_scan(self, monkeypatch):
        scanned = []
        run_pairs = ParallelCampaign.run_pairs

        def recording(campaign, pairs):
            report = run_pairs(campaign, pairs)
            scanned.append(list(report.matrix.measured_pairs()))
            return report

        shipped = []
        absorb = shard._absorb_chunks

        def capturing(result, payloads):
            shipped.extend(payloads)
            absorb(result, payloads)

        monkeypatch.setattr(ParallelCampaign, "run_pairs", recording)
        monkeypatch.setattr(shard, "_absorb_chunks", capturing)
        fingerprints = [d.fingerprint for d in _selection(FACTORY(), 6)]
        # Reversed pairs: the shipped entries keep the matrix's own
        # (lower index first) orientation, as the scan does.
        pairs = [(b, a) for a, b in zip(fingerprints, fingerprints[1:])]
        pairs += [(fingerprints[0], fingerprints[3]), (fingerprints[1], fingerprints[5])]
        report = ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=2,
            pairs=pairs,
            force_inline=True,
            steal_chunk_pairs=3,
        ).run()
        assert len(shipped) == len(scanned) == 3
        assert [payload["entries"] for payload in shipped] == scanned
        assert sum(len(entries) for entries in scanned) == report.pairs_measured
