#!/usr/bin/env python3
"""A long-lived deployment: chain renewal under flood, end to end.

TESLA-family chains are finite; a crowdsensing service that runs for
months must hand off to fresh chains without re-bootstrapping every
node. This script runs a DAP deployment across several chain epochs
while an attacker floods the channel, and shows:

- handoff messages (next-epoch commitments) surviving the flood through
  DAP's own reservoir defence,
- every epoch authenticated end to end with zero forged acceptances,
- what happens to a victim receiver that misses all handoffs.

Run:  python examples/long_lived_deployment.py
"""

from __future__ import annotations

import random

from repro.protocols import (
    MacAnnouncePacket,
    MessageKeyPacket,
    RenewingDapReceiver,
    RenewingDapSender,
    parse_renewal,
)
from repro.timesync import LooseTimeSync

EPOCH_LENGTH = 12
EPOCHS = 4
ATTACK_P = 0.7
BUFFERS = 6


def main() -> None:
    sender = RenewingDapSender(
        seed=b"city-deployment-2026",
        epoch_length=EPOCH_LENGTH,
        epochs=EPOCHS,
        renewal_lead=3,
        announce_copies=3,
    )
    sync = LooseTimeSync(0.01)
    receiver = RenewingDapReceiver(
        first_commitment=sender.chain(0).commitment,
        epoch_length=EPOCH_LENGTH,
        interval_duration=1.0,
        sync=sync,
        local_key=b"node-17-local-key",
        buffers=BUFFERS,
        draw_key=17,
    )
    # A second receiver that loses every handoff reveal — the failure
    # mode the redundant handoffs protect against.
    victim = RenewingDapReceiver(
        first_commitment=sender.chain(0).commitment,
        epoch_length=EPOCH_LENGTH,
        interval_duration=1.0,
        sync=sync,
        local_key=b"node-99-local-key",
        buffers=BUFFERS,
        draw_key=99,
    )

    rng = random.Random(7)
    forged_per_interval = round(3 * ATTACK_P / (1 - ATTACK_P))
    authenticated_by_epoch = {e: 0 for e in range(EPOCHS)}

    total = sender.total_intervals
    print(
        f"deployment: {EPOCHS} chain epochs x {EPOCH_LENGTH} intervals,"
        f" flood p = {ATTACK_P}, {BUFFERS} buffers/node\n"
    )
    for g in range(1, total + 1):
        now = g - 0.5
        # attacker burst first (worst case for keep-first; harmless here)
        for _ in range(forged_per_interval):
            forged = MacAnnouncePacket(
                g, bytes(rng.getrandbits(8) for _ in range(10)), provenance="forged"
            )
            receiver.receive(forged, now)
            victim.receive(forged, now)
        for packet in sender.packets_for_interval(g):
            for event in receiver.receive(packet, now):
                if event.outcome.value == "authenticated" and event.message:
                    if parse_renewal(event.message) is None:
                        authenticated_by_epoch[(event.index - 1) // EPOCH_LENGTH] += 1
            # the victim never sees handoff reveals
            is_handoff_reveal = isinstance(
                packet, MessageKeyPacket
            ) and parse_renewal(packet.message) is not None
            if not is_handoff_reveal:
                victim.receive(packet, now)

    print("healthy node:")
    print(f"  epochs known        : {receiver.known_epochs}")
    print(f"  renewed via handoff : {sorted(receiver.renewed_epochs)}")
    for epoch, count in authenticated_by_epoch.items():
        print(f"  epoch {epoch}: {count}/{EPOCH_LENGTH} sensing messages authenticated")
    print(f"  forged accepted     : {receiver.stats.forged_accepted}")

    print("\nvictim node (all handoffs lost):")
    print(f"  epochs known        : {victim.known_epochs}")
    print(f"  orphaned epochs     : {sorted(victim.orphaned_epochs)}")
    print(f"  packets undeliverable: {victim.orphaned_packets}")
    print(f"  forged accepted     : {victim.stats.forged_accepted}")

    assert receiver.stats.forged_accepted == 0
    assert victim.stats.forged_accepted == 0
    print(
        "\nhandoffs rode the same DoS-resistant path as data: the flood"
        " could not stop the renewal, and integrity held everywhere."
    )


if __name__ == "__main__":
    main()
