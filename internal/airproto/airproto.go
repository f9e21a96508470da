// Package airproto is the little UDP wire protocol the deployment demos
// speak: fixed little-endian frames carrying complex vectors — modulated
// symbols on the uplink (sensor → air), per-class accumulators on the
// downlink (air → edge) — and, for the control plane, raw bytes. One
// datagram per transmission keeps the protocol as dumb as the commodity IoT
// transmitters the paper targets.
//
// Frame layout (little endian):
//
//	uint8   kind     KindData, KindNack, KindDataTraced, or a control kind
//	                 (KindStats, KindTrace, and the fleet kinds
//	                 KindHeartbeat, KindJoin, KindEpochPush, KindEpochAck —
//	                 see fleet.go)
//	uint8   code     status code; on data frames, the client's remaining
//	                 deadline budget in DeadlineUnit ticks (0 = no deadline)
//	uint32  id       sample/transmission identifier
//	int32   label    data: ground-truth label for accounting (-1 if unknown)
//	                 nack: detail value (e.g. the deployed U for StatusWrongLen)
//	uint16  n        vector length
//	n × (float32 re, float32 im)
//	payload          every byte after the samples (Frame.Payload)
//
// Data and NACK frames carry no payload (stray trailing bytes land in
// Payload and are ignored). Control frames carry no samples
// (n = 0): their payload starts with the protocol Version byte, followed
// by the kind's typed little-endian fields. A payload whose version this
// build does not speak fails Unmarshal with a *VersionError instead of
// being misread.
//
// NACK frames give clients an explicit failure signal instead of silence:
// a malformed or mis-sized request is answered with KindNack and a status
// code, and a degraded server sheds load with StatusDegraded — "healthy
// request, busy air, retry with backoff" — which clients must treat
// differently from a bad frame of their own making.
package airproto

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame kinds.
const (
	// KindData is a payload frame: symbols uplink, accumulators downlink.
	KindData uint8 = 0
	// KindNack is a status/negative-acknowledgement frame; Code says why and
	// Label carries the code-specific detail.
	KindNack uint8 = 1
	// KindStats is a serving-counter exchange: a client sends StatsRequest
	// and the server answers with StatsReply, whose body is an
	// obs.EncodeSnapshot blob of its serving counters. It gives probes a
	// health read without the HTTP sidecar.
	KindStats uint8 = 2
	// KindTrace is a retained-trace fetch: the client sends TraceRequest
	// naming a 64-bit trace ID, and the server answers with TraceReply,
	// whose body is the trace's Chrome-format JSON export. A server with
	// tracing disabled or no such retained trace answers
	// KindNack/StatusNoTrace; an export too large for one datagram is
	// answered KindNack/StatusTooLarge. It lets `metaai-serve -probe
	// -trace <id>` pull a trace over the air when the HTTP sidecar is
	// unreachable.
	KindTrace uint8 = 3
	// KindHeartbeat is the fleet router's liveness probe, answered with the
	// HBVector health gauges (see fleet.go).
	KindHeartbeat uint8 = 4
	// KindJoin is a replica's membership announcement to the fleet router,
	// sent from its serving socket so the source address doubles as the
	// routing address (see fleet.go).
	KindJoin uint8 = 5
	// KindEpochPush carries one chunk of a sealed checkpoint epoch from the
	// coordinator to a replica (see fleet.go).
	KindEpochPush uint8 = 6
	// KindEpochAck acknowledges a push chunk; the completing chunk's ack
	// carries the apply verdict and canary agreement (see fleet.go).
	KindEpochAck uint8 = 7
	// KindDataTraced is a KindData frame whose payload carries
	// distributed-trace context (trace ID + parent span ID, see
	// AttachTraceContext) — what a fleet router forwards when it is tracing
	// the request, so the replica's serve.request span parents under the
	// router's hop span. Replicas strip the context and process the rest as
	// plain KindData; the reply is an ordinary KindData frame.
	KindDataTraced uint8 = 8
)

// maxKind is the highest frame kind this build speaks; anything above it is
// rejected at both Marshal and Unmarshal so unknown kinds never cross the
// wire silently.
const maxKind = KindDataTraced

// isControl reports whether kind is a control kind: no samples, a
// versioned byte payload.
func isControl(kind uint8) bool {
	return kind == KindStats || kind == KindTrace || (kind >= KindHeartbeat && kind <= KindEpochAck)
}

// Version is the control-payload protocol version: the first payload byte
// of every control frame.
const Version uint8 = 1

// VersionError reports a control frame whose payload speaks a protocol
// version this build does not.
type VersionError struct {
	Kind, Got uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("airproto: kind %d payload version %d, want %d", e.Kind, e.Got, Version)
}

// Status codes carried by NACK frames.
const (
	// StatusBadFrame: the request failed to parse; sender should fix, not
	// retry.
	StatusBadFrame uint8 = 1
	// StatusWrongLen: the symbol count does not match the deployed U; the
	// NACK's Label carries the expected U. Sender should re-encode, not
	// retry.
	StatusWrongLen uint8 = 2
	// StatusDegraded: the service is degraded or shedding load; the request
	// was well-formed and a retry with backoff is expected to succeed.
	StatusDegraded uint8 = 3
	// StatusNoTrace: a KindTrace request named a trace the server does not
	// retain (never traced, sampled out, or evicted). Not retryable.
	StatusNoTrace uint8 = 4
	// StatusExpired: the request's deadline budget ran out before the server
	// (or router) would have started inference, so the work was dropped
	// unstarted — goal-oriented shedding, not a failure of the frame. The
	// NACK's Label carries how far past the deadline the request was, in
	// milliseconds. Retryable with a fresh budget if the result still
	// matters.
	StatusExpired uint8 = 5
	// StatusRetryAfter: admission control is browning out non-control
	// traffic because the serving latency exceeds its SLO; the NACK's Label
	// carries a suggested wait in milliseconds before retrying. The request
	// was well-formed — back off at least the hint, then retry.
	StatusRetryAfter uint8 = 6
	// StatusTooLarge: the answer exists but does not fit one datagram (a
	// trace export past MaxDatagram); the NACK's Label carries the answer's
	// byte length. Not retryable over the wire — fetch it from the HTTP
	// sidecar instead.
	StatusTooLarge uint8 = 7
)

// HeaderLen is the byte length of the fixed frame header.
const HeaderLen = 12

// MaxDatagram is the largest frame on the wire: the largest UDP payload an
// IPv4 datagram carries.
const MaxDatagram = 65507

// MaxVector is the largest vector a single frame can carry.
const MaxVector = (MaxDatagram - HeaderLen) / 8

// Frame is one protocol message.
type Frame struct {
	Kind  uint8
	Code  uint8
	ID    uint32
	Label int32
	Data  []complex128
	// Payload is the raw bytes after the samples: the versioned typed
	// fields of a control frame, or the trace context of KindDataTraced.
	Payload []byte
}

// Nack builds a status frame answering request id with the given code;
// detail rides the Label field (StatusWrongLen puts the deployed U there).
func Nack(id uint32, code uint8, detail int32) *Frame {
	return &Frame{Kind: KindNack, Code: code, ID: id, Label: detail}
}

// IsNack reports whether the frame is a status/negative acknowledgement.
func (f *Frame) IsNack() bool { return f.Kind == KindNack }

// validate checks the frame shape both directions agree on: a known kind,
// a frame that fits one datagram (which bounds the vector at MaxVector),
// control frames with no samples and a payload in this build's version,
// and a traced data frame with exactly its trace context.
func validate(kind uint8, n int, payload []byte) error {
	if kind > maxKind {
		return fmt.Errorf("airproto: unknown frame kind %d", kind)
	}
	if size := HeaderLen + 8*n + len(payload); size > MaxDatagram {
		return fmt.Errorf("airproto: %d-byte frame exceeds the %d-byte datagram", size, MaxDatagram)
	}
	switch {
	case isControl(kind):
		if n != 0 {
			return fmt.Errorf("airproto: control kind %d carries %d samples", kind, n)
		}
		if len(payload) == 0 {
			return fmt.Errorf("airproto: control kind %d without a payload", kind)
		}
		if payload[0] != Version {
			return &VersionError{Kind: kind, Got: payload[0]}
		}
	case kind == KindDataTraced && len(payload) != traceCtxLen:
		return fmt.Errorf("airproto: traced data frame with %d context bytes, want %d", len(payload), traceCtxLen)
	}
	return nil
}

// Marshal serializes the frame.
func (f *Frame) Marshal() ([]byte, error) {
	return f.MarshalAppend(make([]byte, 0, HeaderLen+8*len(f.Data)+len(f.Payload)))
}

// MarshalAppend serializes the frame onto buf and returns the extended
// slice, reusing buf's capacity — the zero-alloc variant for reply loops
// that recycle a scratch buffer (pass buf[:0] to overwrite it). The wire
// bytes are identical to Marshal's.
func (f *Frame) MarshalAppend(buf []byte) ([]byte, error) {
	if err := validate(f.Kind, len(f.Data), f.Payload); err != nil {
		return nil, err
	}
	buf = append(buf, f.Kind, f.Code)
	buf = binary.LittleEndian.AppendUint32(buf, f.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Label))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Data)))
	for _, v := range f.Data {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(real(v))))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(imag(v))))
	}
	return append(buf, f.Payload...), nil
}

// Unmarshal parses one datagram into a frame. The frame owns its Data and
// Payload: nothing aliases b, so callers may recycle the read buffer as
// soon as Unmarshal returns.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("airproto: short frame (%d bytes)", len(b))
	}
	f := &Frame{
		Kind:  b[0],
		Code:  b[1],
		ID:    binary.LittleEndian.Uint32(b[2:6]),
		Label: int32(binary.LittleEndian.Uint32(b[6:10])),
	}
	n := int(binary.LittleEndian.Uint16(b[10:12]))
	off := HeaderLen + 8*n
	if len(b) < off {
		return nil, fmt.Errorf("airproto: truncated frame: %d bytes for n=%d", len(b), n)
	}
	if err := validate(f.Kind, n, b[off:]); err != nil {
		return nil, err
	}
	if len(b) > off {
		f.Payload = append([]byte(nil), b[off:]...)
	}
	f.Data = make([]complex128, n)
	off = HeaderLen
	for i := range f.Data {
		re := math.Float32frombits(binary.LittleEndian.Uint32(b[off : off+4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[off+4 : off+8]))
		f.Data[i] = complex(float64(re), float64(im))
		off += 8
	}
	return f, nil
}

// control starts a control payload: the version byte, with room for n more.
func control(n int) []byte {
	return append(make([]byte, 0, 1+n), Version)
}

// Body returns a control frame's payload after the version byte — the
// opaque blob of a stats or trace reply (nil on other frames).
func (f *Frame) Body() []byte {
	if !isControl(f.Kind) || len(f.Payload) == 0 {
		return nil
	}
	return f.Payload[1:]
}

// StatsRequest builds a KindStats request.
func StatsRequest(id uint32) *Frame {
	return &Frame{Kind: KindStats, ID: id, Payload: control(0)}
}

// StatsReply answers stats request id with an obs.EncodeSnapshot blob.
func StatsReply(id uint32, snapshot []byte) *Frame {
	return &Frame{Kind: KindStats, ID: id, Payload: append(control(len(snapshot)), snapshot...)}
}
