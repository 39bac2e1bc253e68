"""Perf counter, observation and timer names: one constant per name.

Every instrumentation write (``incr``/``observe``/``timer``) and every
read (``counter``/``hit_rate``/``counters.get``/``timers``) names its
counter, observation or timer through these constants, so a misspelt
name is an ``ImportError`` or ``AttributeError`` instead of a counter
that quietly reads zero. The values are the snapshot/JSON keys; the
table in ``docs/API.md`` lists them with the sites that update them.
"""

#: One-way function applications (chain steps).
CRYPTO_HASH = "crypto.hash"
#: MAC/μMAC digests, all schemes (batch calls count per item).
CRYPTO_MAC = "crypto.mac"
#: One tick per ``compute_many``/``verify_many`` call.
CRYPTO_MAC_BATCHES = "crypto.mac.batches"
#: Chain-walk cache hits (O(1) re-verifications).
CRYPTO_WALK_CACHE_HITS = "crypto.walk_cache.hits"
#: Chain-walk cache misses (full back-walks).
CRYPTO_WALK_CACHE_MISSES = "crypto.walk_cache.misses"
#: Observation: back-walk lengths in chain steps.
CRYPTO_CHAIN_WALK = "crypto.chain_walk"
#: Simulator events executed.
SIM_EVENTS = "sim.events"
#: Observation: event-queue depth per event.
SIM_QUEUE_DEPTH = "sim.queue_depth"
#: Packets offered to the broadcast medium.
SIM_BROADCASTS = "sim.broadcasts"
#: Post-loss deliveries scheduled.
SIM_DELIVERIES = "sim.deliveries"
#: Deliveries lost to the channel.
SIM_DROPS = "sim.drops"
#: Observation: wall time per loopback soak.
NET_SOAK_WALL_SECONDS = "net.soak_wall_seconds"
#: Datagrams the soak's network delivered.
NET_DATAGRAMS_DELIVERED = "net.datagrams_delivered"
#: Datagrams the soak's lossy proxy dropped.
NET_DATAGRAMS_DROPPED = "net.datagrams_dropped"
#: Timer: fleet engine master draws and replay-plan build.
SIM_FLEET_PLAN = "sim.fleet.plan"
#: Timer: fleet engine delivery masks, drawn inside the inline shard
#: replays (nested in ``SIM_FLEET_REPLAY``; process-pool shards draw
#: theirs in the workers, untimed).
SIM_FLEET_MASK = "sim.fleet.mask"
#: Timer: fleet engine shard replays, with their streaming fold.
SIM_FLEET_REPLAY = "sim.fleet.replay"
#: Timer: fleet engine summary reduction.
SIM_FLEET_REDUCE = "sim.fleet.reduce"
