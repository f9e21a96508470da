package fleet

import "repro/internal/obs"

// Fleet-tier metrics. The router aggregates these process-wide for the obs
// sidecar; per-replica truth stays on each replica's own counters:
//
//	fleet.replicas.live     members the detector currently trusts
//	fleet.replicas.suspect  members under jittered exponential probing
//	fleet.replicas.evicted  members removed after exhausting their probes
//	fleet.joins             join announcements accepted (first contact or rejoin)
//	fleet.forwards          client requests routed to a replica
//	fleet.failovers         forwards retried on another replica after a failure
//	fleet.hedged_wins       forwards answered by a hedge, not the first pick
//	fleet.shed              requests NACKed at the router (no live replica or
//	                        the inflight cap, which scales with live count)
//	fleet.expired           requests whose deadline budget died at the router
//	                        (StatusExpired sent without burning a replica)
//	fleet.publishes         epoch publications fanned out fleet-wide
//	fleet.publish.chunks    replication chunk frames sent (retries included)
//	fleet.rollbacks         fleet-wide rollbacks to the prior epoch
//	fleet.canary_rejects    publications stopped at the canary gate
//	fleet.catchups          anti-entropy pushes to stale or rejoined replicas
//	fleet.forward.seconds   client-observed forward latency through the router
//	fleet.snapshot_skipped  heartbeat replies sent without the replica's obs
//	                        snapshot because it would not fit the datagram
//	fleet.trace_too_large   stitched trace fetches answered StatusTooLarge
//	                        because the export would not fit one datagram
var (
	liveGauge       = obs.NewGauge("fleet.replicas.live")
	suspectGauge    = obs.NewGauge("fleet.replicas.suspect")
	evictedCount    = obs.NewCounter("fleet.replicas.evicted")
	joinCount       = obs.NewCounter("fleet.joins")
	forwardCount    = obs.NewCounter("fleet.forwards")
	failoverCount   = obs.NewCounter("fleet.failovers")
	hedgedWinCount  = obs.NewCounter("fleet.hedged_wins")
	shedCount       = obs.NewCounter("fleet.shed")
	expiredCount    = obs.NewCounter("fleet.expired")
	publishCount    = obs.NewCounter("fleet.publishes")
	chunkCount      = obs.NewCounter("fleet.publish.chunks")
	rollbackCount   = obs.NewCounter("fleet.rollbacks")
	canaryRejects   = obs.NewCounter("fleet.canary_rejects")
	catchupCount    = obs.NewCounter("fleet.catchups")
	forwardSeconds  = obs.NewLatencyHistogram("fleet.forward.seconds")
	snapshotSkipped = obs.NewCounter("fleet.snapshot_skipped")
	traceTooLarge   = obs.NewCounter("fleet.trace_too_large")
)
