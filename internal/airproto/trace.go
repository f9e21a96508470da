package airproto

import "encoding/binary"

// Over-the-air tracing. A KindTrace request's payload carries the 64-bit
// trace ID it fetches, so the frame ID stays a per-request ID like every
// other exchange's; the reply's body is the raw Chrome-format JSON export.
// A forwarded data frame carries the router's trace context as its raw
// 16-byte payload under KindDataTraced.

// TraceFlagNormalize, set on a KindTrace REQUEST's Code field, asks the
// responder to export with deterministic normalized timestamps
// (trace.ExportOptions.Normalize) — the form CI gates diff byte-for-byte.
// Responders ignore unknown bits, so the flag is forward-compatible.
const TraceFlagNormalize uint8 = 1

// TraceRequest builds request id's KindTrace fetch of a 64-bit trace ID.
func TraceRequest(id uint32, traceID uint64) *Frame {
	return &Frame{Kind: KindTrace, ID: id, Payload: binary.LittleEndian.AppendUint64(control(8), traceID)}
}

// TraceID returns the 64-bit trace ID a KindTrace request fetches (0 for a
// frame that names none).
func (f *Frame) TraceID() uint64 {
	if f.Kind != KindTrace || len(f.Payload) != 1+8 {
		return 0
	}
	return binary.LittleEndian.Uint64(f.Payload[1:])
}

// TraceReply answers trace request id with a JSON export — or, when the
// export cannot fit one datagram, with a StatusTooLarge NACK whose detail
// is the export's byte length, so the client learns why instead of
// receiving a cut document.
func TraceReply(id uint32, doc []byte) *Frame {
	if HeaderLen+1+len(doc) > MaxDatagram {
		return Nack(id, StatusTooLarge, int32(len(doc)))
	}
	return &Frame{Kind: KindTrace, ID: id, Payload: append(control(len(doc)), doc...)}
}

// traceCtxLen is a KindDataTraced frame's payload: trace ID + parent span
// ID, little endian.
const traceCtxLen = 16

// AttachTraceContext rewrites a KindData frame into KindDataTraced carrying
// the 64-bit trace ID and parent span ID as its payload. It refuses
// (returning false, frame untouched) on non-data frames, a zero trace ID,
// or a vector too large to leave room for the context.
func AttachTraceContext(f *Frame, traceID, parentSpan uint64) bool {
	if f.Kind != KindData || traceID == 0 || HeaderLen+8*len(f.Data)+traceCtxLen > MaxDatagram {
		return false
	}
	ctx := binary.LittleEndian.AppendUint64(make([]byte, 0, traceCtxLen), traceID)
	f.Payload = binary.LittleEndian.AppendUint64(ctx, parentSpan)
	f.Kind = KindDataTraced
	return true
}

// StripTraceContext reverses AttachTraceContext: it removes the context,
// restores Kind to KindData, and returns the carried trace ID and parent
// span ID. ok is false (frame untouched) when f is not a well-formed
// KindDataTraced frame.
func StripTraceContext(f *Frame) (traceID, parentSpan uint64, ok bool) {
	if f.Kind != KindDataTraced || len(f.Payload) != traceCtxLen {
		return 0, 0, false
	}
	traceID = binary.LittleEndian.Uint64(f.Payload)
	if traceID == 0 {
		return 0, 0, false
	}
	parentSpan = binary.LittleEndian.Uint64(f.Payload[8:])
	f.Payload = nil
	f.Kind = KindData
	return traceID, parentSpan, true
}
