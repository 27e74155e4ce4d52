"""Leader election over fair-lossy links, checked by the LE oracle.

Two classical protocols, adapted to the link model of
:mod:`repro.net.links` (per-send loss/duplication/delay under the
bounded-consecutive-loss fairness guarantee) with the same *stubborn
resend* discipline the AlgAU actors use — a node re-sends its current
protocol message every slot until the protocol moves it on, so fair
lossiness costs only time, never safety:

* :func:`run_lcr_election` — Le Lann/Chang–Roberts maximum-finding on a
  unidirectional ring: every node forwards the largest uid it has seen;
  a node receiving its own uid back knows it is the maximum and
  circulates a leader announcement.
* :func:`run_monarchical_election` — monarchical election on a complete
  graph: every live node heartbeats every slot, each node runs a
  failure detector from :mod:`repro.net.detectors` over the heartbeat
  arrival times, and elects the highest-id node it does not suspect
  (:func:`elect_monarch`).  With crashed nodes silent, detectors
  converge and all live nodes agree on the highest live id.

Both return per-node binary outputs in the exact shape the repo's LE
task oracle (:func:`repro.tasks.spec.check_le_output`, Theorem 13's
task) validates: exactly one node outputs 1.  Determinism: the link
fates are driven by one seeded generator consumed in a fixed
(slot, sender, receiver) order, so a run is a pure function of its
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.model.errors import ModelError
from repro.net.detectors import ExcludeOnTimeout, IncreasingTimeout
from repro.net.links import LinkConfig, MessageNetwork


@dataclass
class ElectionResult:
    """Outcome of one election run."""

    #: Node index of the elected leader (``None`` when undecided).
    leader: Optional[int]
    #: Per-node binary outputs in oracle shape (1 = leader), covering
    #: the participating (live) nodes in index order.
    outputs: List[Optional[int]]
    #: Slots elapsed until the run stopped.
    slots: int
    #: Total point-to-point sends.
    messages: int
    #: Per-node suspected sets at the end (monarchical runs only).
    suspected: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _network(config: Optional[LinkConfig], seed: int) -> MessageNetwork:
    """The election's message network, its link noise seeded apart
    from the AlgAU runtime's."""
    return MessageNetwork(
        config if config is not None else LinkConfig(),
        np.random.default_rng([int(seed), 0x656C6563]),
    )


def run_lcr_election(
    uids: Sequence[int],
    link_config: Optional[LinkConfig] = None,
    seed: int = 0,
    max_slots: int = 10_000,
) -> ElectionResult:
    """LCR maximum-finding election on a unidirectional ring.

    ``uids[i]`` is node ``i``'s unique identifier; node ``i`` sends to
    node ``(i + 1) % n``.  Every slot, a node stubbornly re-sends the
    largest uid it has seen (or, once known, the leader announcement).
    Raises :class:`ModelError` on duplicate uids; returns an undecided
    result (``leader=None``) if ``max_slots`` elapse first.
    """
    n = len(uids)
    if n == 0:
        raise ModelError("LCR election needs at least one node")
    if len(set(uids)) != n:
        raise ModelError("LCR election requires distinct uids")
    net = _network(link_config, seed)
    champion = [uids[i] for i in range(n)]
    leader_uid: List[Optional[int]] = [None] * n
    outputs: List[Optional[int]] = [None] * n

    for slot in range(max_slots):
        # Stubborn phase message: the announcement once known, else the
        # current champion probe.
        for i in range(n):
            successor = (i + 1) % n
            if leader_uid[i] is not None:
                net.send(slot + 1.0, i, successor, ("leader", leader_uid[i]))
            else:
                net.send(slot + 1.0, i, successor, ("probe", champion[i]))
        for _, _, _sender, receiver, payload in net.due(slot + 1):
            kind, uid = payload
            if kind == "probe":
                if uid == uids[receiver]:
                    # Own uid made it around the ring: maximum found.
                    leader_uid[receiver] = uid
                elif uid > champion[receiver]:
                    champion[receiver] = uid
            else:  # leader announcement
                leader_uid[receiver] = uid
        for i in range(n):
            if leader_uid[i] is not None:
                outputs[i] = 1 if leader_uid[i] == uids[i] else 0
        if all(output is not None for output in outputs):
            decided = {uid for uid in leader_uid}
            if len(decided) == 1:
                winner = uids.index(leader_uid[0])
                return ElectionResult(
                    winner, outputs, slot + 1, net.stats.messages_sent
                )
    return ElectionResult(None, outputs, max_slots, net.stats.messages_sent)


def elect_monarch(members: Sequence[int], suspected: Sequence[int]) -> int:
    """The monarchical rule: the highest-id member not suspected."""
    trusted = set(members) - set(suspected)
    if not trusted:
        raise ModelError("every member is suspected; no monarch can be elected")
    return max(trusted)


def run_monarchical_election(
    n: int,
    crashed: Sequence[int] = (),
    link_config: Optional[LinkConfig] = None,
    timeout: float = 4.0,
    seed: int = 0,
    detector: str = "exclude",
    stable_slots: int = 5,
    max_slots: int = 10_000,
) -> ElectionResult:
    """Monarchical election over detector suspicions on a clique.

    Every live node heartbeats every slot; each runs its own failure
    detector (``detector="exclude"`` for :class:`ExcludeOnTimeout`,
    ``"increasing"`` for :class:`IncreasingTimeout`) over heartbeat
    arrival times and elects :func:`elect_monarch` of the nodes it does
    not suspect.  The run stops once every live node has agreed on the
    same live leader for ``stable_slots`` consecutive slots; outputs
    cover the live nodes in index order (oracle shape).
    """
    if n < 1:
        raise ModelError("monarchical election needs at least one node")
    crashed_set: Set[int] = {int(v) for v in crashed}
    unknown = crashed_set - set(range(n))
    if unknown:
        raise ModelError(f"cannot crash unknown nodes {sorted(unknown)}")
    live = [v for v in range(n) if v not in crashed_set]
    if not live:
        raise ModelError("at least one node must stay live")
    net = _network(link_config, seed)

    peers = {i: [j for j in range(n) if j != i] for i in live}
    if detector == "exclude":
        detectors = {i: ExcludeOnTimeout(peers[i], timeout) for i in live}
    elif detector == "increasing":
        detectors = {i: IncreasingTimeout(peers[i], timeout) for i in live}
    else:
        raise ModelError(
            f"unknown detector {detector!r}: valid names are 'exclude', 'increasing'"
        )
    last_heard: Dict[int, Dict[int, float]] = {i: {} for i in live}
    agreement_streak = 0

    for slot in range(max_slots):
        for i in live:
            for j in peers[i]:
                if j in crashed_set:
                    continue
                net.send(slot + 1.0, i, j, "heartbeat")
        for _, _, sender, receiver, _payload in net.due(slot + 1):
            if receiver in crashed_set:
                continue
            last_heard[receiver][sender] = slot + 1.0
        now = slot + 1.0
        choices = []
        for i in live:
            suspected = detectors[i].observe(now, last_heard[i])
            choices.append(elect_monarch(range(n), suspected))
        if len(set(choices)) == 1 and choices[0] in live:
            agreement_streak += 1
            if agreement_streak >= stable_slots:
                leader = choices[0]
                outputs: List[Optional[int]] = [1 if v == leader else 0 for v in live]
                return ElectionResult(
                    leader,
                    outputs,
                    slot + 1,
                    net.stats.messages_sent,
                    suspected={i: tuple(sorted(detectors[i].suspected)) for i in live},
                )
        else:
            agreement_streak = 0
    return ElectionResult(
        None,
        [None] * len(live),
        max_slots,
        net.stats.messages_sent,
        suspected={i: tuple(sorted(detectors[i].suspected)) for i in live},
    )
