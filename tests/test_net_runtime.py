"""The message-passing deployment runtime (``repro.net``).

Four layers of coverage:

* units — the message network's event heap and the fair-lossy link
  model;
* parity — under zero-delay/zero-loss links the net runtime's whole
  trajectory (activation sets, change sets, round boundaries, final
  configurations) is bit-identical to the ``array`` simulation engine;
* noise — lossy/delayed links slow stabilization boundedly but never
  prevent it, the message counters stay consistent, and pinned noisy
  trajectories guard the noise rng's draw order;
* integration — the ``net-smoke`` campaign's sim/net pairings agree on
  every measured column, and the runner's per-scenario wall-clock
  timeout guard produces deterministic ``status="timeout"`` rows.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.campaigns import (
    Scenario,
    aggregate_results,
    build_campaign,
    run_campaign,
    run_scenario,
    verify_engine_pairing,
)
from repro.baselines.reset_tail_unison import ResetTailUnison
from repro.campaigns.registry import derive_seed
from repro.core.algau import ThinUnison
from repro.core.predicates import is_good_graph
from repro.faults.churn import ChurnProcess
from repro.faults.injection import random_configuration, uniform_configuration
from repro.graphs.biological import quorum_colony
from repro.graphs.generators import random_connected, ring
from repro.model.engine import create_execution
from repro.model.errors import ModelError
from repro.model.goodness import GoodnessLedger
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.net import (
    FairLossyLink,
    LinkConfig,
    MessageNetwork,
    NetExecution,
)

#: SHA-256 of the canonical JSON of the seed-0 ``net-smoke`` aggregates.
NET_SMOKE_DIGEST = "5cec372879f764c95f47b25022cc99146d435e8dcb75237dd76a490f55358e71"


class _PoisonRng:
    """A stand-in rng whose every draw fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} consumed on a noiseless path")


def _copies(net, until):
    """``net.due_batches(until)`` copy by copy: ``(time, order, sender,
    receiver, payload)``, copies numbered in send order."""
    return [
        (time, order + i, sender, receiver, payload)
        for time, order, sender, receivers, payload in net.due_batches(until)
        for i, receiver in enumerate(receivers)
    ]


# ----------------------------------------------------------------------
# The message network.
# ----------------------------------------------------------------------


class TestMessageNetwork:
    def test_deliveries_pop_in_time_then_send_order(self):
        net = MessageNetwork(LinkConfig(), _PoisonRng())
        net.broadcast(2.0, 0, (1,), "a")
        net.broadcast(1.0, 0, (1, 2), "b")
        net.broadcast(2.0, 1, (0,), "c")
        net.broadcast(1.0, 2, (0,), "d")
        net.broadcast(1.0, 0, (1,), "e")
        assert [batch[4] for batch in net.due_batches(1.5)] == ["b", "d", "e"]
        assert [batch[4] for batch in net.due_batches(1.5)] == []
        due = list(net.due_batches(2.0))
        assert [(when, payload) for when, _, _, _, payload in due] == [
            (2.0, "a"),
            (2.0, "c"),
        ]
        assert net.stats.messages_sent == 6

    @pytest.mark.parametrize("delay", [0.0, 0.3, 0.5, 0.7, 1.5])
    @pytest.mark.parametrize("rewind", [False, True])
    def test_noiseless_deliveries_keep_the_heap_order(self, delay, rewind):
        """Under a fixed delay, broadcasts with non-decreasing departures
        (the runtime's) leave ``due_batches``, copy by copy, in exactly
        the order of a heap of ``(time, send order)``, in every drain
        window; with ``rewind`` one departure goes backwards halfway and
        the network falls back to its heap for the rest."""
        import heapq

        rng = np.random.default_rng(int(10 * delay) + rewind)
        net = MessageNetwork(LinkConfig(delay=delay), _PoisonRng())
        reference = []
        sent = 0
        departure = 0.0
        until = 0.0
        for step in range(200):
            departure += float(rng.choice([0.0, 0.0, 0.5, 1.0]))
            at = departure - 2.0 if rewind and step == 100 else departure
            sender = int(rng.integers(0, 6))
            receivers = tuple(int(r) for r in rng.integers(0, 6, rng.integers(1, 5)))
            payload = f"b{step}"
            net.broadcast(at, sender, receivers, payload)
            for receiver in receivers:
                sent += 1
                heapq.heappush(reference, (at + delay, sent, sender, receiver, payload))
            if rng.random() < 0.4:
                until = max(until, departure + float(rng.choice([0.0, 0.5, 1.0])))
                expected = []
                while reference and reference[0][0] <= until:
                    expected.append(heapq.heappop(reference))
                assert _copies(net, until) == expected
            if not rewind:
                assert net._outbox is not None  # the FIFO path ran
        assert _copies(net, float("inf")) == sorted(reference)
        assert net.stats.messages_sent == sent
        assert (net._outbox is None) == rewind

    @pytest.mark.timeout(60)
    def test_a_re_added_edge_starts_a_fresh_loss_streak(self):
        from repro.graphs.dynamic import TopologyDelta

        topology = ring(6)
        execution = NetExecution(
            topology,
            ThinUnison(3),
            uniform_configuration(ThinUnison(3), topology),
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
            link_config=LinkConfig(loss=0.5),
        )
        links = execution.network.links
        execution.step()
        assert {(0, 1), (1, 0)} <= set(links)
        links[(0, 1)].consecutive_losses = 3
        execution.mutate_topology(TopologyDelta(remove_edges=((0, 1),)))
        assert (0, 1) not in links and (1, 0) not in links
        execution.mutate_topology(TopologyDelta(add_edges=((0, 1),)))
        assert (0, 1) not in links
        execution.step()
        assert links[(0, 1)].consecutive_losses <= 1


# ----------------------------------------------------------------------
# Links.
# ----------------------------------------------------------------------


class TestLinks:
    def test_config_validation(self):
        with pytest.raises(ModelError):
            LinkConfig(delay=-1.0)
        with pytest.raises(ModelError):
            LinkConfig(loss=1.0)
        with pytest.raises(ModelError):
            LinkConfig(duplicate=1.5)
        with pytest.raises(ModelError):
            LinkConfig(max_consecutive_loss=0)
        with pytest.raises(ModelError):
            LinkConfig.from_params({"latency": 1.0})

    def test_is_noiseless(self):
        # A fixed delay is deterministic; only jitter/loss/duplication
        # introduce randomness.
        assert LinkConfig().is_noiseless
        assert LinkConfig(delay=0.5).is_noiseless
        assert not LinkConfig(jitter=0.2).is_noiseless
        assert not LinkConfig(loss=0.1).is_noiseless
        assert not LinkConfig(duplicate=0.1).is_noiseless

    def test_noiseless_transmit_consumes_no_randomness(self):
        link = FairLossyLink(LinkConfig())
        assert link.transmit(_PoisonRng()) == (0.0,)

    def test_fair_lossy_bounds_drop_streaks(self):
        config = LinkConfig(loss=0.9, max_consecutive_loss=3)
        link = FairLossyLink(config)
        rng = np.random.default_rng(7)
        streak = worst = 0
        for _ in range(2000):
            if link.transmit(rng):
                streak = 0
            else:
                streak += 1
                worst = max(worst, streak)
        assert worst == config.max_consecutive_loss

    def test_duplicate_emits_two_latencies(self):
        link = FairLossyLink(LinkConfig(duplicate=0.999999, jitter=0.5))
        rng = np.random.default_rng(0)
        latencies = link.transmit(rng)
        assert len(latencies) == 2
        assert all(0.0 <= latency < 0.5 for latency in latencies)


# ----------------------------------------------------------------------
# Zero-noise parity with the array engine.
# ----------------------------------------------------------------------


def _parity_pair(topology, d, scheduler_cls, start, seed, make=ThinUnison):
    algorithm = make(d)
    if start == "uniform":
        initial = uniform_configuration(algorithm, topology)
    else:
        initial = random_configuration(
            algorithm, topology, np.random.default_rng(seed)
        )
    sim = create_execution(
        topology,
        algorithm,
        initial,
        scheduler_cls(),
        rng=np.random.default_rng(seed + 1),
        engine="array",
    )
    net = NetExecution(
        topology,
        make(d),
        initial,
        scheduler_cls(),
        rng=np.random.default_rng(seed + 1),
    )
    return sim, net


def _assert_step_records_match(scheduler_cls, make):
    sim, net = _parity_pair(ring(10), 5, scheduler_cls, "random", seed=42, make=make)
    for _ in range(120):
        a = sim.step()
        b = net.step()
        assert a.t == b.t
        assert a.activated == b.activated
        assert a.changed == b.changed
        assert a.completed_round == b.completed_round
    assert sim.configuration == net.configuration


class TestZeroNoiseParity:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize(
        "scheduler_cls", [SynchronousScheduler, ShuffledRoundRobinScheduler]
    )
    def test_step_records_are_bit_identical(self, scheduler_cls):
        _assert_step_records_match(scheduler_cls, ThinUnison)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize(
        "scheduler_cls", [SynchronousScheduler, ShuffledRoundRobinScheduler]
    )
    def test_reset_tail_step_records_are_bit_identical(self, scheduler_cls):
        _assert_step_records_match(scheduler_cls, ResetTailUnison.for_diameter_bound)

    @pytest.mark.timeout(120)
    def test_stabilization_round_matches_on_gnp(self):
        topology = random_connected(12, 0.5, np.random.default_rng(5))
        sim, net = _parity_pair(
            topology, 4, SynchronousScheduler, "random", seed=9
        )
        sim.run(max_rounds=2000, until=lambda e: e.graph_is_good())
        net.run(max_rounds=2000, until=lambda e: e.graph_is_good())
        assert sim.graph_is_good() and net.graph_is_good()
        assert sim.completed_rounds == net.completed_rounds
        assert sim.configuration == net.configuration

    @pytest.mark.timeout(120)
    def test_poke_and_mask_keep_parity(self):
        topology = quorum_colony(10, 2, np.random.default_rng(2))
        sim, net = _parity_pair(
            topology, 2, SynchronousScheduler, "random", seed=17
        )
        algorithm = ThinUnison(2)
        corrupt = {3: algorithm.random_state(np.random.default_rng(0))}
        for execution in (sim, net):
            execution.run_rounds(2)
            execution.poke_states(corrupt)
            execution.mask_nodes({1})
            execution.run_rounds(6)
        assert sim.configuration == net.configuration


# ----------------------------------------------------------------------
# Noisy links: bounded slowdown, consistent counters.
# ----------------------------------------------------------------------


class TestNoisyTrajectoryPins:
    """Exact noisy trajectories: the tier-1 guard on the order in which
    the link noise rng is drawn."""

    @pytest.mark.timeout(120)
    def test_mixed_noise_ring_run(self):
        topology = ring(12)
        algorithm = ThinUnison(6)
        initial = random_configuration(algorithm, topology, np.random.default_rng(3))
        execution = NetExecution(
            topology,
            ThinUnison(6),
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(4),
            link_config=LinkConfig(delay=0.7, jitter=0.4, loss=0.2, duplicate=0.1),
            noise_seed=8,
        )
        execution.run(max_rounds=2000, until=lambda e: e.graph_is_good())
        stats = execution.stats
        assert execution.graph_is_good()
        assert (execution.completed_rounds, execution.moves) == (69, 211)
        assert (
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_dropped,
            stats.messages_duplicated,
        ) == (1656, 1446, 326, 138)
        codes = [
            int(algorithm.encoding.encode(execution.configuration[v]))
            for v in topology.nodes
        ]
        assert codes == [22, 23, 24, 23, 22, 21, 20, 19, 18, 19, 20, 21]


class TestNoisyLinks:
    @pytest.mark.timeout(120)
    def test_lossy_delayed_links_slow_but_do_not_break_stabilization(self):
        topology = ring(10)
        algorithm = ThinUnison(5)
        initial = random_configuration(
            algorithm, topology, np.random.default_rng(3)
        )

        def rounds_under(config):
            execution = NetExecution(
                topology,
                ThinUnison(5),
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(4),
                link_config=config,
                noise_seed=8,
            )
            execution.run(max_rounds=2000, until=lambda e: e.graph_is_good())
            assert execution.graph_is_good()
            return execution.completed_rounds, execution.stats

        clean_rounds, clean_stats = rounds_under(LinkConfig())
        noisy_rounds, noisy_stats = rounds_under(
            LinkConfig(delay=0.7, jitter=0.4, loss=0.2, duplicate=0.1)
        )
        assert clean_rounds <= noisy_rounds <= 20 * clean_rounds
        assert clean_stats.messages_dropped == 0
        assert clean_stats.messages_duplicated == 0
        assert clean_stats.messages_delivered == clean_stats.messages_sent
        assert noisy_stats.messages_dropped > 0
        assert noisy_stats.messages_duplicated > 0
        # Conservation: every sent or duplicated message is either
        # delivered or dropped (none outstanding after quiescence...
        # in-flight messages at stop time are the slack).
        assert noisy_stats.messages_delivered <= (
            noisy_stats.messages_sent + noisy_stats.messages_duplicated
        )

    @pytest.mark.timeout(120)
    def test_noise_seed_changes_trajectory_not_outcome(self):
        topology = ring(8)
        algorithm = ThinUnison(4)
        initial = random_configuration(
            algorithm, topology, np.random.default_rng(0)
        )
        rounds = []
        for noise_seed in (1, 2):
            execution = NetExecution(
                topology,
                ThinUnison(4),
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(1),
                link_config=LinkConfig(loss=0.3),
                noise_seed=noise_seed,
            )
            execution.run(max_rounds=2000, until=lambda e: e.graph_is_good())
            assert execution.graph_is_good()
            rounds.append(execution.completed_rounds)
        assert all(r >= 1 for r in rounds)


class TestLastWriterWins:
    @pytest.mark.timeout(120)
    def test_stale_deliveries_never_roll_a_register_back(self):
        """Under jitter, duplication and loss, late duplicates and older
        reordered copies do arrive, yet after every slot each register
        holds the newest message its sender got through to it."""
        topology = ring(8)
        algorithm = ThinUnison(4)
        execution = NetExecution(
            topology,
            algorithm,
            random_configuration(algorithm, topology, np.random.default_rng(1)),
            SynchronousScheduler(),
            rng=np.random.default_rng(2),
            link_config=LinkConfig(jitter=2.5, duplicate=0.4, loss=0.2),
            noise_seed=3,
        )
        network = execution.network
        drain = network.due_batches
        delivered = []

        def recording(until):
            for batch in drain(until):
                delivered.append(batch)
                yield batch

        network.due_batches = recording
        registers = execution._registers
        heard = set()
        stale = duplicates = 0
        for _ in range(200):
            before = [dict(table) for table in registers]
            delivered.clear()
            execution.step()
            newest = {}
            for _, _, sender, receivers, message in delivered:
                (receiver,) = receivers  # noisy links: one copy per batch
                key = (receiver, sender)
                seq = message[0]
                duplicates += (key, seq) in heard
                heard.add((key, seq))
                current = newest.get(key, before[receiver][sender])
                stale += seq < current[0]
                newest[key] = max(current, message)
            for u in topology.nodes:
                for v in topology.neighbors(u):
                    assert registers[u][v] == newest.get((u, v), before[u][v])
        assert stale > 0 and duplicates > 0


# ----------------------------------------------------------------------
# NetExecution contract edges.
# ----------------------------------------------------------------------


class TestNetExecutionContract:
    def _execution(self, **kwargs):
        topology = ring(6)
        algorithm = ThinUnison(3)
        initial = uniform_configuration(algorithm, topology)
        return NetExecution(
            topology,
            algorithm,
            initial,
            kwargs.pop("scheduler", SynchronousScheduler()),
            rng=np.random.default_rng(0),
            **kwargs,
        )

    def test_enabled_aware_schedulers_are_rejected(self):
        with pytest.raises(ModelError, match="enabled"):
            self._execution(scheduler=EnabledOnlyScheduler())

    def test_goodness_matches_the_object_predicate(self):
        # Every turn at node 0 of a uniform ring, including a faulty
        # turn whose edges are all protected.
        topology = ring(6)
        algorithm = ThinUnison(3)
        uniform = uniform_configuration(algorithm, topology)
        execution = NetExecution(
            topology,
            algorithm,
            uniform,
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
        )
        verdicts = set()
        for turn in algorithm.encoding.turn_table:
            execution.replace_configuration(uniform)
            execution.poke_states({0: turn})
            good = is_good_graph(algorithm, execution.configuration)
            assert execution.graph_is_good() == good
            verdicts.add(good)
        assert verdicts == {True, False}

    def test_goodness_is_algau_only(self):
        topology = ring(6)
        algorithm = ResetTailUnison.for_diameter_bound(3)
        execution = NetExecution(
            topology,
            algorithm,
            uniform_configuration(algorithm, topology),
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
        )
        execution.step()
        with pytest.raises(ModelError, match="ThinUnison"):
            execution.graph_is_good()

    def test_poke_states_rejects_unknown_nodes(self):
        execution = self._execution()
        with pytest.raises(ModelError, match="unknown"):
            execution.poke_states({99: None})

    @pytest.mark.timeout(60)
    def test_crash_node_freezes_the_node(self):
        execution = self._execution()
        registers = execution._registers
        execution.run_rounds(2)
        before = {u: dict(registers[u]) for u in (1, 3)}
        assert all(2 in table for table in before.values())
        frozen = execution._codes[2]
        execution.crash_node(2)
        execution.run_rounds(3)
        # A crashed node never acts, so its neighbors' registers of it
        # keep its last message while their other neighbor keeps
        # refreshing theirs with newer sequence numbers.
        assert 2 in execution._masked and execution._silent[2]
        assert execution._codes[2] == frozen
        for u, other in ((1, 0), (3, 4)):
            after = registers[u]
            assert after[2] == before[u][2]
            assert after[2][1] == frozen
            assert after[other][0] > before[u][other][0]

    @pytest.mark.timeout(60)
    def test_virtual_time_counts_one_slot_per_step(self):
        execution = self._execution(link_config=LinkConfig(jitter=0.9), noise_seed=3)
        for t in range(1, 41):
            execution.step()
            assert execution.virtual_time == t

    @pytest.mark.timeout(60)
    def test_half_slot_delay_lands_exactly_at_the_next_slot(self):
        topology = ring(6)
        initial = random_configuration(
            ThinUnison(3), topology, np.random.default_rng(5)
        )
        execution = NetExecution(
            topology,
            ThinUnison(3),
            initial,
            SynchronousScheduler(),
            rng=np.random.default_rng(0),
            link_config=LinkConfig(delay=0.5),
        )
        for t in range(8):
            sent_before = execution._seq
            execution.step()
            # Broadcasts from slot t depart at t + 0.5, land at t + 1,
            # and sit in the registers before slot t + 1's acts: every
            # register carries a sequence number of slot t's broadcasts.
            for u in topology.nodes:
                for v in topology.neighbors(u):
                    seq, code = execution._registers[u][v]
                    assert sent_before < seq <= execution._seq
                    assert code == execution._codes[v]

    @pytest.mark.timeout(120)
    def test_changes_list_nodes_in_ascending_order_after_joins(self):
        joins = 0
        for seed in range(6):
            topology = ring(10)
            algorithm = ThinUnison(5)
            initial = random_configuration(
                algorithm, topology, np.random.default_rng(seed)
            )
            execution = NetExecution(
                topology,
                ThinUnison(5),
                initial,
                SynchronousScheduler(),
                rng=np.random.default_rng(seed),
            )
            churn = ChurnProcess(
                topology,
                seed=seed,
                join_rate=0.5,
                leave_rate=0.5,
                initial_state=algorithm.initial_state,
            )
            for _ in range(80):
                delta = churn.sample()
                if delta is not None:
                    joins += len(delta.join)
                    execution.mutate_topology(delta)
                nodes = [v for v, _, _ in execution.step().changed]
                assert nodes == sorted(nodes)
        assert joins > 0


class TestGoodnessFold:
    """``graph_is_good`` answers from the goodness ledger, folded
    through every move, poke, crash and topology delta."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_folded_goodness_equals_a_rescan_after_every_step(self, noisy, seed):
        rng = np.random.default_rng(seed)
        algorithm = ThinUnison(2)
        topology = quorum_colony(12, 2, rng)
        link = LinkConfig(loss=0.3, jitter=0.4, delay=0.5) if noisy else LinkConfig()
        execution = NetExecution(
            topology,
            algorithm,
            random_configuration(algorithm, topology, rng),
            ShuffledRoundRobinScheduler() if seed == 2 else SynchronousScheduler(),
            rng=np.random.default_rng(seed),
            link_config=link,
            noise_seed=seed,
        )
        churn = ChurnProcess(
            topology,
            seed=seed,
            edge_add_rate=0.1,
            edge_remove_rate=0.1,
            join_rate=0.05,
            leave_rate=0.05,
            initial_state=algorithm.initial_state,
        )
        size = algorithm.encoding.size
        folded = 0
        for t in range(300):
            live = [v for v, silent in enumerate(execution._silent) if not silent]
            if t % 11 == 5:
                rows = rng.choice(live, size=min(2, len(live)), replace=False)
                execution.poke_codes(rows, rng.integers(0, size, len(rows)))
            if t == 60:
                execution.crash_node(live[0])
            delta = churn.sample()
            if delta is not None:
                execution.mutate_topology(delta)
            folded += execution._ledger.counts is not None
            execution.step()
            good = execution.graph_is_good()
            assert good == is_good_graph(algorithm, execution.configuration)
            recount = GoodnessLedger(execution._kernel)
            recount.recount(execution.codes, execution.topology.inclusive_csr())
            assert execution._ledger.counts == recount.counts
        assert folded > 100


# ----------------------------------------------------------------------
# Campaign integration: the acceptance differential grid.
# ----------------------------------------------------------------------


class TestNetSmokeCampaign:
    @pytest.mark.timeout(300)
    def test_sim_and_net_lanes_agree_on_every_pairing(self):
        """The PR's acceptance bar: under zero-noise links every
        ``net-smoke`` pairing (ring/gnp/colony x uniform/random x
        synchronous/shuffled x none/byzantine/crash) must be
        bit-identical across the sim and net lanes."""
        scenarios = build_campaign("net-smoke", seed=0)
        results = run_campaign(scenarios, workers=1)
        payload = aggregate_results("net-smoke", scenarios, results, 0)
        rows = payload["rows"]
        assert payload["failures"] == []
        assert [r for r in rows if r["status"]] == []
        assert verify_engine_pairing(rows, allow_unpaired=True) == []
        # The grid really covers the advertised axes.
        paired = [r for r in rows if "pairing" in r["tags"]]
        assert {r["graph"] for r in paired} == {"ring", "gnp", "quorum-colony"}
        assert {r["start"] for r in paired} == {"uniform", "random"}
        kinds = {r["faults"].split("(")[0] for r in paired}
        assert {"none", "byz-frozen", "crash"} <= kinds
        assert {r["runtime"] for r in paired} == {"sim", "net"}
        # The whole aggregate, pinned: this also covers the unpaired
        # delay/loss rows, which run the noisy link path.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NET_SMOKE_DIGEST

    def test_net_scenarios_validate_their_axes(self):
        def scenario(**overrides):
            base = dict(
                campaign="t",
                index=0,
                task="au",
                graph="ring",
                graph_params=(("n", 8),),
                diameter_bound=4,
                scheduler="synchronous",
                engine="array",
                start="random",
                seed=1,
                max_rounds=100,
                runtime="net",
            )
            base.update(overrides)
            return Scenario(**base)

        assert "+net[" in scenario(net_params=(("loss", 0.1),)).scenario_id
        with pytest.raises(ValueError):
            scenario(runtime="cloud")
        with pytest.raises(ValueError):
            scenario(scheduler="enabled-only")
        with pytest.raises(ValueError):
            scenario(net_params=(("loss", 1.5),))
        with pytest.raises(ValueError):
            scenario(net_params=(("bandwidth", 1.0),))
        with pytest.raises(ValueError):
            scenario(runtime="sim", net_params=(("loss", 0.1),))
        with pytest.raises(ValueError):
            scenario(task="le")
        round_trip = Scenario.from_dict(
            scenario(net_params=(("delay", 1.0),)).to_dict()
        )
        assert round_trip == scenario(net_params=(("delay", 1.0),))


# ----------------------------------------------------------------------
# The per-scenario wall-clock timeout guard.
# ----------------------------------------------------------------------


def _slow_scenario() -> Scenario:
    """A scenario that cannot finish within a microscopic budget (the
    random start keeps the stabilization predicate from being
    pre-satisfied, so at least one step always runs)."""
    return Scenario(
        campaign="t",
        index=0,
        task="au",
        graph="ring",
        graph_params=(("n", 12),),
        diameter_bound=6,
        scheduler="shuffled-round-robin",
        engine="array",
        start="random",
        seed=derive_seed(3, 0),
        max_rounds=100_000,
    )


class TestTimeoutGuard:
    def test_timed_out_scenario_reports_a_deterministic_row(self):
        first = run_scenario(_slow_scenario(), timeout_s=1e-9)
        second = run_scenario(_slow_scenario(), timeout_s=1e-9)
        assert first.status == "timeout"
        assert not first.stabilized
        assert "wall-clock budget" in first.detail
        # Deterministic placeholders: identical rows module wall-clock.
        for column in ("rounds", "steps", "n", "m", "detail", "status"):
            assert getattr(first, column) == getattr(second, column)

    def test_generous_budget_leaves_the_row_untouched(self):
        budgeted = run_scenario(_slow_scenario(), timeout_s=600.0)
        plain = run_scenario(_slow_scenario())
        assert budgeted.status == ""
        assert budgeted.stabilized
        assert (budgeted.rounds, budgeted.steps, budgeted.moves) == (
            plain.rounds,
            plain.steps,
            plain.moves,
        )

    def test_run_campaign_threads_the_budget(self):
        results = run_campaign([_slow_scenario()], workers=1, timeout_s=1e-9)
        assert [r.status for r in results] == ["timeout"]

    def test_timeout_rows_round_trip_through_json(self):
        row = run_scenario(_slow_scenario(), timeout_s=1e-9)
        from repro.campaigns import ScenarioResult

        assert ScenarioResult.from_dict(row.to_dict()) == row
