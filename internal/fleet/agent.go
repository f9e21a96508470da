package fleet

import (
	"sync"
	"sync/atomic"

	"repro/internal/airproto"
)

// Journal reasons a replica records when it publishes a fleet-applied
// epoch. They mark the epoch as replication-born: a coordinator watching
// that replica's journal must NOT re-publish such epochs (only organic
// deploys, heals, and local rollbacks replicate), or every push would
// bounce back through the fleet forever.
const (
	ReasonReplicate = "replicate"
	ReasonRollback  = "fleet-rollback"
)

// ackCacheSize bounds the per-agent cache of completed-transfer verdicts.
// A retransmitted chunk for a transfer that already APPLIED must be
// answered with the SAME final ack (the coordinator may have missed it),
// not re-applied and not re-reassembled. Entries are keyed by the
// (transfer ID, coordinator nonce) pair: transfer IDs restart from 1 with
// every coordinator incarnation, and a cached verdict about one
// incarnation's bytes must never answer another's. Only AckApplied
// verdicts are cached: a rejection may be the fault of the WIRE (a
// corrupted chunk tearing the reassembly or the sealed bytes), so caching
// it would brick every future retry of the same transfer — the coordinator
// retries the whole push and the replica must reassemble it for real.
const ackCacheSize = 8

// ApplyFunc installs one replicated epoch on the replica. sealed is the
// complete sealed checkpoint exactly as the coordinator journaled it; mode
// is the airproto push mode (PushCommit, PushCanary, PushRollback); tid is
// the coordinator-assigned transfer/fleet sequence. It returns the measured
// canary agreement (1 when the push is not a canary or no probes are
// configured) and an error when the epoch must be refused — corrupt seal,
// failed validation, wrong dataset, or a deployment that will not build.
type ApplyFunc func(sealed []byte, mode uint8, tid uint32) (agreement float64, err error)

// Agent is the replica-side half of the fleet protocol: it answers the
// router's heartbeats with the replica's health vector and receives chunked
// epoch pushes, reassembling, applying, and acking them. It is wired into
// the serving read loop — one socket carries data, liveness, and
// replication.
type Agent struct {
	health func() []uint64
	apply  ApplyFunc

	// fleetVer packs (incarnation nonce << 32 | transfer seq) of the last
	// applied push; 0 until a push lands. One word so heartbeat replies read
	// both halves atomically.
	fleetVer atomic.Uint64

	// snapSource, when set, supplies an encoded obs.Snapshot blob
	// (obs.EncodeSnapshot) to piggyback on heartbeat replies — the
	// replica's contribution to the router's merged fleet snapshot. Nil
	// (the default, and whenever observability is disabled) sends the
	// gauges alone.
	snapSource atomic.Pointer[func() []byte]

	mu       sync.Mutex
	reasm    *Reassembler
	acks     map[uint32]*airproto.Frame // final ack per completed transfer; it echoes its nonce
	ackOrder []uint32
}

// NewAgent builds a replica agent. health supplies the HBVector gauges for
// heartbeat replies; apply installs completed epoch transfers (nil refuses
// every push — a heartbeat-only agent).
func NewAgent(health func() []uint64, apply ApplyFunc) *Agent {
	if health == nil {
		health = func() []uint64 { return nil }
	}
	return &Agent{health: health, apply: apply, reasm: NewReassembler(), acks: make(map[uint32]*airproto.Frame)}
}

// FleetSeq returns the coordinator-assigned sequence of the last epoch this
// agent applied, reported in every heartbeat reply.
func (a *Agent) FleetSeq() uint64 { return a.fleetVer.Load() & 0xffffffff }

// FleetVersion returns the fleet's convergence variable: the sequence of
// the last applied epoch and the incarnation nonce of the coordinator that
// pushed it. The pair is what makes the variable unique across coordinator
// restarts — sequences alone restart from 1 with each incarnation.
func (a *Agent) FleetVersion() (seq uint64, nonce uint32) {
	v := a.fleetVer.Load()
	return v & 0xffffffff, uint32(v >> 32)
}

// SetSnapshotSource installs (or, with nil, removes) the callback that
// supplies an encoded obs.Snapshot blob for heartbeat-reply piggybacking.
// The serving binary wires a throttled obs.EncodeSnapshot of its default
// registry here when the observability sidecar is armed. Safe to call
// concurrently with HandleFrame.
func (a *Agent) SetSnapshotSource(src func() []byte) {
	if src == nil {
		a.snapSource.Store(nil)
		return
	}
	a.snapSource.Store(&src)
}

// attachSnapshot appends the snapshot blob to the reply's payload, after
// the health gauges. A blob too big for the datagram is skipped — liveness
// must never lose to telemetry — and counted in fleet.snapshot_skipped,
// since the router's fleet view then goes stale for this replica.
func (a *Agent) attachSnapshot(reply *airproto.Frame) {
	srcp := a.snapSource.Load()
	if srcp == nil {
		return
	}
	blob := (*srcp)()
	if len(blob) == 0 {
		return
	}
	if airproto.HeaderLen+len(reply.Payload)+len(blob) > airproto.MaxDatagram {
		snapshotSkipped.Inc()
		return
	}
	reply.Payload = append(reply.Payload, blob...)
}

// HandleFrame processes one fleet-control frame and returns the reply to
// send, or ok=false when the frame needs no answer (join replies, other
// router-side frames that reached a replica, and push chunks corrupted in
// flight, which the coordinator re-sends on timeout).
func (a *Agent) HandleFrame(f *airproto.Frame) (*airproto.Frame, bool) {
	switch f.Kind {
	case airproto.KindHeartbeat:
		if f.IsHeartbeatReply() {
			return nil, false // a reply, not a ping; not ours to answer
		}
		reply := airproto.HeartbeatReply(f.ID, a.health())
		a.attachSnapshot(reply)
		return reply, true
	case airproto.KindEpochPush:
		if reply := a.handlePush(f); reply != nil {
			return reply, true
		}
		// Chunk corrupted on the wire (per-chunk digest failed): silence.
		// The coordinator's stop-and-wait re-sends it exactly like a drop.
		return nil, false
	}
	// KindJoin replies (and any stray KindEpochAck) land here: consumed
	// silently so a replica never answers a reply with a reply.
	return nil, false
}

func (a *Agent) handlePush(f *airproto.Frame) *airproto.Frame {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, _, _, nonce, ok := f.ChunkPayload()
	if !ok {
		// The digest failed or the headers lie: this chunk was mangled in
		// flight (even its transfer ID may be garbage), so it must not touch
		// any transfer's state, evict any cached verdict, or earn a NACK —
		// answering would let one corrupt datagram abort a healthy transfer.
		return nil
	}
	if cached, ok := a.acks[f.ID]; ok {
		if _, _, _, n := cached.AckInfo(); n == nonce {
			// The transfer already completed; whatever chunk this is, the
			// coordinator needs the verdict again.
			return cached
		}
		// Same transfer ID, different coordinator incarnation: a restarted
		// coordinator reusing tid 1 for NEW bytes. The cached verdict says
		// nothing about this transfer — forget it and reassemble for real.
		a.forgetAck(f.ID)
	}
	idx, _ := f.ChunkInfo()
	sealed, mode, done, err := a.reasm.Add(f)
	if err != nil {
		return a.finishTransfer(f.ID, idx, nonce, airproto.AckRejected, 0)
	}
	if !done {
		return airproto.EpochAck(f.ID, idx, airproto.AckChunk, 0, 0, nonce)
	}
	if a.apply == nil {
		return a.finishTransfer(f.ID, idx, nonce, airproto.AckRejected, 0)
	}
	agreement, err := a.apply(sealed, mode, f.ID)
	if err != nil {
		return a.finishTransfer(f.ID, idx, nonce, airproto.AckRejected, agreement)
	}
	a.fleetVer.Store(uint64(nonce)<<32 | uint64(f.ID))
	return a.finishTransfer(f.ID, idx, nonce, airproto.AckApplied, agreement)
}

// finishTransfer builds the completing ack for a transfer under coordinator
// incarnation nonce, caching it only when the transfer applied — rejections
// are transient (possibly corruption-born) and must not poison retries.
// Callers hold mu.
func (a *Agent) finishTransfer(tid uint32, idx int, nonce uint32, code uint8, agreement float64) *airproto.Frame {
	ack := airproto.EpochAck(tid, idx, code, agreement, a.FleetSeq(), nonce)
	if code != airproto.AckApplied {
		a.forgetAck(tid)
		return ack
	}
	if len(a.ackOrder) >= ackCacheSize {
		delete(a.acks, a.ackOrder[0])
		a.ackOrder = a.ackOrder[1:]
	}
	a.acks[tid] = ack
	a.ackOrder = append(a.ackOrder, tid)
	return ack
}

// forgetAck drops one cached verdict. Callers hold mu.
func (a *Agent) forgetAck(tid uint32) {
	delete(a.acks, tid)
	for i, id := range a.ackOrder {
		if id == tid {
			a.ackOrder = append(a.ackOrder[:i], a.ackOrder[i+1:]...)
			break
		}
	}
}
