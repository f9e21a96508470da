package fleet

import (
	"bytes"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/airproto"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The router's half of the fleet observability plane: merged fleet
// metrics (from the obs.Snapshot blobs replicas piggyback on heartbeat
// replies), fleet-level KindStats answers, and stitched
// cross-replica KindTrace fetches. KindStats and KindTrace are
// CONTROL-PLANE traffic at the router exactly as they are at replicas:
// Serve answers them itself, outside the inflight cap and the admission
// shed — an operator must be able to read a drowning fleet's vitals.

// FleetSnapshot returns the latest per-replica obs snapshots (keyed by
// member name; replicas that have not piggybacked one yet are absent) and
// their bucket-wise merge. The merge is associative/commutative, so the
// result is independent of heartbeat arrival order.
func (r *Router) FleetSnapshot() (merged obs.Snapshot, per map[string]obs.Snapshot) {
	per = make(map[string]obs.Snapshot)
	snaps := make([]obs.Snapshot, 0, 4)
	for _, m := range r.snapshotMembers() {
		if s := m.snap.Load(); s != nil {
			per[m.name] = *s
			snaps = append(snaps, *s)
		}
	}
	return obs.MergeSnapshots(snaps...), per
}

// BurnRate returns the router's fleet-wide SLO error-budget burn over the
// fast and slow windows (0, 0 while SLO tracking is disabled).
func (r *Router) BurnRate() (fast, slow float64) { return r.fleetSLO.BurnRate() }

// HealthScores returns every member's burn-rate health score in (0, 1],
// keyed by name (1 for members with no latency evidence yet).
func (r *Router) HealthScores() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.snapshotMembers() {
		out[m.name] = r.det.HealthScore(m.name)
	}
	return out
}

// liveMembersSorted returns the Alive members in name order — the
// deterministic fan-out order for trace fetches and stats exports.
func (r *Router) liveMembersSorted() []*member {
	ms := r.snapshotMembers()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := ms[:0]
	for _, m := range ms {
		if r.det.State(m.name) == Alive {
			out = append(out, m)
		}
	}
	return out
}

// answerStats answers a KindStats request at the router with one
// obs.EncodeSnapshot blob — the same encoding replicas answer with: the
// merged replica counters plus the router's own fleet.* counters, and gauges
// for the live replica count, the merged serve.request p99, the fast and
// slow SLO burn rates, and one fleet.health.<name> score per live replica.
func (r *Router) answerStats(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	merged, _ := r.FleetSnapshot()
	live := r.liveMembersSorted()
	snap := obs.Snapshot{Counters: merged.Counters, Gauges: make(map[string]float64, 5+len(live))}
	for name, v := range obs.Default().Snapshot().Counters {
		if strings.HasPrefix(name, "fleet.") {
			snap.Counters[name] += v // replicas count some fleet.* names too
		}
	}
	snap.Gauges["serve.epoch_seq"] = float64(r.CurrentTid())
	snap.Gauges["fleet.replicas.live"] = float64(len(live))
	snap.Gauges["fleet.request.p99_micros"] = merged.Histograms["serve.request.seconds"].Quantile(0.99) * 1e6
	snap.Gauges["fleet.burn.fast"], snap.Gauges["fleet.burn.slow"] = r.BurnRate()
	for _, m := range live {
		snap.Gauges["fleet.health."+m.name] = r.det.HealthScore(m.name)
	}
	r.writeTo(conn, from, airproto.StatsReply(f.ID, obs.EncodeSnapshot(snap)))
}

// answerTrace resolves a KindTrace fetch fleet-wide: the router's own
// retained root segment (if any) plus every live replica's remote segment
// of the same trace ID, stitched into ONE Chrome-JSON document. The
// replicas are asked concurrently, so a fetch waits one HeartbeatTimeout
// for silent members, not one per member; segments are stitched in member
// name order whatever order they arrive in. With no router segment
// (tracing off at the router, or the trace sampled out) the first replica
// segment found anchors the stitch, so the router degrades into a fetch
// relay. The request's TraceFlagNormalize bit is honored locally and
// propagated on the fan-out. A stitched document too large for one
// datagram — or a replica segment that already was — is answered
// StatusTooLarge and counted in fleet.trace_too_large, never stitched
// without the missing segment.
func (r *Router) answerTrace(conn netchaos.PacketConn, f *airproto.Frame, from *net.UDPAddr) {
	id := f.TraceID()
	opt := trace.ExportOptions{Normalize: f.Code&airproto.TraceFlagNormalize != 0}
	var rootDoc []byte
	if tr, flags := r.cfg.Tracer.Get(trace.ID(id)); tr != nil {
		rootDoc = trace.MarshalJSON(tr, flags, opt)
	}
	live := r.liveMembersSorted()
	replies := make([]*airproto.Frame, len(live))
	var wg sync.WaitGroup
	for i, m := range live {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			replies[i] = r.fetchRemoteTrace(m, id, f.Code)
		}(i, m)
	}
	wg.Wait()
	var hopDocs [][]byte
	for _, rep := range replies {
		if rep != nil && rep.IsNack() && rep.Code == airproto.StatusTooLarge {
			traceTooLarge.Inc()
			r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusTooLarge, rep.Label))
			return
		}
		if rep == nil || rep.Kind != airproto.KindTrace {
			continue // silent, or StatusNoTrace: this replica holds no segment
		}
		doc := rep.Body()
		dup := bytes.Equal(doc, rootDoc)
		for _, seen := range hopDocs {
			dup = dup || bytes.Equal(doc, seen)
		}
		if !dup {
			hopDocs = append(hopDocs, doc)
		}
	}
	if rootDoc == nil && len(hopDocs) > 0 {
		rootDoc, hopDocs = hopDocs[0], hopDocs[1:]
	}
	if rootDoc == nil {
		r.writeTo(conn, from, airproto.Nack(f.ID, airproto.StatusNoTrace, 0))
		return
	}
	doc := rootDoc
	if len(hopDocs) > 0 {
		doc = trace.StitchJSON(rootDoc, hopDocs...)
	}
	reply := airproto.TraceReply(f.ID, doc)
	if reply.IsNack() {
		traceTooLarge.Inc()
	}
	r.writeTo(conn, from, reply)
}

// fetchRemoteTrace asks one replica for its segment of a trace over the
// upstream socket under a fresh request ID, returning its reply — the only
// frame that can carry that ID — or nil when it stays silent for
// HeartbeatTimeout.
func (r *Router) fetchRemoteTrace(m *member, id uint64, code uint8) *airproto.Frame {
	req := airproto.TraceRequest(r.newID(), id)
	req.Code = code
	ch := r.await(req.ID)
	defer r.settle(req.ID)
	out, err := req.Marshal()
	if err != nil {
		return nil
	}
	if _, err := r.up.WriteToUDP(out, m.addr); err != nil {
		return nil
	}
	timer := time.NewTimer(r.cfg.HeartbeatTimeout)
	defer timer.Stop()
	select {
	case f := <-ch:
		return f
	case <-timer.C:
	case <-r.stop:
	}
	return nil
}
