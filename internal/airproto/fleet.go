package airproto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Fleet control frames. The router/coordinator tier (internal/fleet) speaks
// three more exchanges over the same dumb-datagram protocol the data path
// uses, so a replica needs exactly one socket for serving, liveness, and
// replication. Every payload below follows the Version byte, little endian:
//
//   - KindHeartbeat: the router pings each replica with an empty (version
//     only) payload; the reply carries the HBVector health gauges as u64s
//     — fleet seq, epoch seq, fleet nonce, queue depth, served, shed,
//     nacked, heals — optionally followed by the replica's
//     obs.EncodeSnapshot blob, which the router merges into its fleet view.
//
//   - KindJoin: a replica announces itself to the router from its serving
//     socket — the datagram's source address IS the address clients get
//     routed to. The payload carries u64 fleet seq, u64 local journal seq,
//     u32 fleet nonce; the router's reply carries its own current seq and
//     incarnation nonce in the same layout, so a stale replica learns
//     immediately that a catch-up push is coming.
//
//   - KindEpochPush / KindEpochAck: epoch replication. The payload is a
//     sealed internal/checkpoint epoch — CRC envelope and all, so the wire
//     format IS the journal format and a replica can journal what it
//     applied byte-for-byte. Sealed epochs outgrow one datagram, so the
//     push is chunked: every chunk frame carries (index, total) in Label
//     and u32 byte offset, u32 total length, u32 coordinator incarnation
//     nonce, and a u32 CRC32 over headers and bytes in its payload, with
//     the chunk bytes behind them. The replica acks every chunk with f64
//     canary agreement, u64 applied fleet seq, and the u32 echoed nonce;
//     only the final, completing chunk's ack carries a verdict.
//
// Chunks are idempotent and may arrive duplicated or out of order; the
// (transfer ID, nonce) pair keys reassembly. The nonce exists because
// transfer IDs are a coordinator-local counter that restarts from 1 with
// the coordinator process: a replica that caches the final verdict of
// transfer 1 from one coordinator incarnation must not answer a NEW
// incarnation's transfer 1 — different bytes — from that cache. Each
// coordinator incarnation draws a random nonce at startup and stamps it on
// everything it sends; replicas report the nonce of their applied epoch
// back (heartbeats, joins), so fleet convergence is decided on the
// (nonce, seq) pair, never on a counter that two incarnations both start
// at 1.

// Push modes carried in a KindEpochPush frame's Code field.
const (
	// PushCommit: apply unconditionally after CRC + semantic validation.
	PushCommit uint8 = 0
	// PushCanary: measure prediction agreement against the current serving
	// epoch on the held-out probes, apply, and report the agreement — the
	// coordinator gates the fleet-wide fan-out on it.
	PushCanary uint8 = 1
	// PushRollback: apply an OLDER epoch; the replica journals it with
	// reason "fleet-rollback" instead of "replicate".
	PushRollback uint8 = 2
)

// Ack verdicts carried in a KindEpochAck frame's Code field.
const (
	// AckChunk acknowledges receipt of one non-completing chunk.
	AckChunk uint8 = 0
	// AckApplied: the transfer completed, decoded, validated, and is now
	// the replica's serving epoch.
	AckApplied uint8 = 1
	// AckRejected: the transfer completed but the replica refused it —
	// corrupt seal, failed validation, or a deployment that would not
	// build. The epoch must not be trusted anywhere.
	AckRejected uint8 = 2
)

// HBVector indexes the health gauges a KindHeartbeat reply carries.
// HBFleetSeq is the coordinator-assigned sequence of the last replicated
// epoch the replica applied (0 until a push lands) — the fleet's
// convergence variable; HBEpochSeq is the replica's own journal sequence.
// HBFleetNonce is the coordinator incarnation nonce stamped on that
// replicated epoch (0 until a push lands): paired with HBFleetSeq it makes
// the convergence variable unique across coordinator restarts, whose
// transfer sequences both start at 1.
const (
	HBFleetSeq = iota
	HBEpochSeq
	HBFleetNonce
	HBQueueDepth
	HBServed
	HBShed
	HBNacked
	HBHeals
	HBVectorLen
)

// hbReplyLen is a heartbeat reply's payload length before the optional
// snapshot blob: the version byte and one u64 per gauge.
const hbReplyLen = 1 + 8*HBVectorLen

// Payload lengths of the other fixed-layout control frames, version byte
// included.
const (
	joinLen     = 1 + 8 + 8 + 4
	chunkHdrLen = 1 + 4*4
	ackLen      = 1 + 8 + 8 + 4
)

// MaxChunkBytes is the largest sealed-epoch slice one push frame can carry.
const MaxChunkBytes = MaxDatagram - HeaderLen - chunkHdrLen

// Heartbeat builds the router's liveness ping.
func Heartbeat(id uint32) *Frame {
	return &Frame{Kind: KindHeartbeat, ID: id, Payload: control(0)}
}

// HeartbeatReply builds a replica's answer carrying the HBVector gauges
// (missing entries encode as 0). A replica may append its obs snapshot
// blob to the payload afterwards.
func HeartbeatReply(id uint32, health []uint64) *Frame {
	p := control(hbReplyLen - 1)
	for i := 0; i < HBVectorLen; i++ {
		var v uint64
		if i < len(health) {
			v = health[i]
		}
		p = binary.LittleEndian.AppendUint64(p, v)
	}
	return &Frame{Kind: KindHeartbeat, ID: id, Payload: p}
}

// IsHeartbeatReply tells a heartbeat reply from a ping.
func (f *Frame) IsHeartbeatReply() bool {
	return f.Kind == KindHeartbeat && len(f.Payload) >= hbReplyLen
}

// HealthVector extracts the HBVector gauges from a heartbeat reply (all
// zero for any other frame).
func (f *Frame) HealthVector() []uint64 {
	out := make([]uint64, HBVectorLen)
	if !f.IsHeartbeatReply() {
		return out
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(f.Payload[1+8*i:])
	}
	return out
}

// HeartbeatSnapshot returns the obs snapshot blob a heartbeat reply
// carries after its gauges (nil when it carries none).
func (f *Frame) HeartbeatSnapshot() []byte {
	if !f.IsHeartbeatReply() || len(f.Payload) == hbReplyLen {
		return nil
	}
	return f.Payload[hbReplyLen:]
}

// Join builds a replica's membership announcement: the fleet epoch seq it
// last applied (with the coordinator incarnation nonce that stamped it) and
// its local journal seq.
func Join(id uint32, fleetSeq, localSeq uint64, fleetNonce uint32) *Frame {
	p := control(joinLen - 1)
	p = binary.LittleEndian.AppendUint64(p, fleetSeq)
	p = binary.LittleEndian.AppendUint64(p, localSeq)
	p = binary.LittleEndian.AppendUint32(p, fleetNonce)
	return &Frame{Kind: KindJoin, ID: id, Payload: p}
}

// JoinInfo extracts the (fleet, local) epoch sequences and the fleet
// nonce from a join frame or a join reply (where the fleet fields carry the
// router's current seq and incarnation). A short payload decodes to zeros.
func (f *Frame) JoinInfo() (fleetSeq, localSeq uint64, fleetNonce uint32) {
	if f.Kind != KindJoin || len(f.Payload) < joinLen {
		return 0, 0, 0
	}
	p := f.Payload[1:]
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint32(p[16:])
}

// chunkDigest is the per-chunk integrity check: a CRC32 over every header
// field a push frame carries (transfer, mode, index, total, offset, total
// length, nonce) plus the chunk bytes themselves. Frames have no payload
// checksum of their own, so without this a single corrupted datagram can
// tear a multi-chunk reassembly or land garbage bytes at a valid offset —
// the receiver only discovers it when the sealed epoch's own CRC fails at
// apply time, wasting the entire transfer.
func chunkDigest(transfer uint32, mode uint8, index, total int, offset, totalLen, nonce uint32, chunk []byte) uint32 {
	var hdr [25]byte
	binary.LittleEndian.PutUint32(hdr[0:], transfer)
	hdr[4] = mode
	binary.LittleEndian.PutUint32(hdr[5:], uint32(index))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(total))
	binary.LittleEndian.PutUint32(hdr[13:], offset)
	binary.LittleEndian.PutUint32(hdr[17:], totalLen)
	binary.LittleEndian.PutUint32(hdr[21:], nonce)
	return crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, chunk)
}

// EpochChunk builds one replication chunk: slice index of total, carrying
// chunk bytes at byte offset into a totalLen-byte sealed epoch, stamped
// with the coordinator's incarnation nonce. The offset rides its own header
// field so reassembly never has to infer a stride — chunks of any size
// land at their exact position even when duplicated or reordered. A CRC32
// digest over headers and bytes lets a receiver tell a chunk mangled on
// the wire from a clean one and discard it for re-send.
func EpochChunk(transfer uint32, mode uint8, index, total int, chunk []byte, offset, totalLen int, nonce uint32) (*Frame, error) {
	if len(chunk) > MaxChunkBytes {
		return nil, fmt.Errorf("airproto: chunk of %d bytes exceeds %d", len(chunk), MaxChunkBytes)
	}
	if index < 0 || total < 1 || index >= total || total > 0xffff {
		return nil, fmt.Errorf("airproto: chunk index %d of %d out of range", index, total)
	}
	if offset < 0 || totalLen < 0 || offset+len(chunk) > totalLen || uint64(totalLen) > math.MaxUint32 {
		return nil, fmt.Errorf("airproto: chunk [%d, %d) outside %d-byte transfer", offset, offset+len(chunk), totalLen)
	}
	p := control(chunkHdrLen - 1 + len(chunk))
	p = binary.LittleEndian.AppendUint32(p, uint32(offset))
	p = binary.LittleEndian.AppendUint32(p, uint32(totalLen))
	p = binary.LittleEndian.AppendUint32(p, nonce)
	p = binary.LittleEndian.AppendUint32(p, chunkDigest(transfer, mode, index, total, uint32(offset), uint32(totalLen), nonce, chunk))
	return &Frame{
		Kind:    KindEpochPush,
		Code:    mode,
		ID:      transfer,
		Label:   int32(uint32(index)<<16 | uint32(total)),
		Payload: append(p, chunk...),
	}, nil
}

// ChunkInfo decodes the (index, total) pair from a push frame's Label.
func (f *Frame) ChunkInfo() (index, total int) {
	u := uint32(f.Label)
	return int(u >> 16), int(u & 0xffff)
}

// ChunkPayload extracts the chunk bytes (aliasing the frame's payload),
// their byte offset, the transfer's total byte length, and the coordinator
// nonce from a push frame. It returns ok=false for a frame whose headers
// disagree with its payload — a malformed or truncated chunk that must not
// enter reassembly — and for any frame whose CRC32 digest does not match
// its headers and bytes: a chunk corrupted anywhere on the wire (header
// byte, length, payload) reads as not-a-chunk, and the sender's
// stop-and-wait loop re-sends it like a drop.
func (f *Frame) ChunkPayload() (chunk []byte, offset, totalLen int, nonce uint32, ok bool) {
	if f.Kind != KindEpochPush || len(f.Payload) < chunkHdrLen {
		return nil, 0, 0, 0, false
	}
	p := f.Payload[1:]
	off, tl, nonce := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint32(p[8:])
	chunk = f.Payload[chunkHdrLen:]
	if uint64(off)+uint64(len(chunk)) > uint64(tl) {
		return nil, 0, 0, 0, false
	}
	index, total := f.ChunkInfo()
	if binary.LittleEndian.Uint32(p[12:]) != chunkDigest(f.ID, f.Code, index, total, off, tl, nonce, chunk) {
		return nil, 0, 0, 0, false
	}
	return chunk, int(off), int(tl), nonce, true
}

// EpochAck builds a replica's chunk acknowledgement. For the completing
// chunk, code carries the apply verdict; every ack carries the canary
// agreement, the applied fleet seq, and echoes the transfer's coordinator
// nonce, so the sender can tell a fresh verdict from a cached one about
// another incarnation's transfer. Intermediate chunks ack with AckChunk.
func EpochAck(transfer uint32, index int, code uint8, agreement float64, seq uint64, nonce uint32) *Frame {
	p := control(ackLen - 1)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(agreement))
	p = binary.LittleEndian.AppendUint64(p, seq)
	p = binary.LittleEndian.AppendUint32(p, nonce)
	return &Frame{Kind: KindEpochAck, Code: code, ID: transfer, Label: int32(index), Payload: p}
}

// AckInfo extracts the chunk index, canary agreement, applied fleet
// sequence, and echoed nonce from an ack frame (a short payload decodes to
// zeros).
func (f *Frame) AckInfo() (index int, agreement float64, seq uint64, nonce uint32) {
	index = int(f.Label)
	if f.Kind != KindEpochAck || len(f.Payload) < ackLen {
		return index, 0, 0, 0
	}
	p := f.Payload[1:]
	return index, math.Float64frombits(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint32(p[16:])
}
