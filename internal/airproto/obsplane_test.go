package airproto

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestTraceContextRoundTrip(t *testing.T) {
	payload := []complex128{complex(1, 2), complex(3, 4), complex(5, 6)}
	f := &Frame{Kind: KindData, ID: 77, Label: 3, Data: append([]complex128(nil), payload...)}
	if !AttachTraceContext(f, 0xdeadbeefcafef00d, 0x0123456789abcdef) {
		t.Fatal("attach refused a well-formed data frame")
	}
	if f.Kind != KindDataTraced || len(f.Data) != len(payload) || len(f.Payload) != traceCtxLen {
		t.Fatalf("attach produced kind=%d len=%d ctx=%d", f.Kind, len(f.Data), len(f.Payload))
	}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != HeaderLen+8*len(payload)+traceCtxLen {
		t.Fatalf("traced frame costs %d wire bytes", len(wire))
	}
	g, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	tid, parent, ok := StripTraceContext(g)
	if !ok {
		t.Fatal("strip refused a traced frame")
	}
	if tid != 0xdeadbeefcafef00d || parent != 0x0123456789abcdef {
		t.Fatalf("context mangled: trace=%x parent=%x", tid, parent)
	}
	if g.Kind != KindData || g.Payload != nil || !reflect.DeepEqual(g.Data, payload) {
		t.Fatalf("strip did not restore the original frame: kind=%d data=%v payload=%x", g.Kind, g.Data, g.Payload)
	}
}

func TestTraceContextRefusals(t *testing.T) {
	if AttachTraceContext(&Frame{Kind: KindStats}, 1, 2) {
		t.Fatal("attach accepted a non-data frame")
	}
	if AttachTraceContext(&Frame{Kind: KindData}, 0, 2) {
		t.Fatal("attach accepted a zero trace ID")
	}
	full := &Frame{Kind: KindData, Data: make([]complex128, MaxVector)}
	if AttachTraceContext(full, 1, 2) {
		t.Fatal("attach overflowed the datagram")
	}
	if full.Kind != KindData || full.Payload != nil {
		t.Fatal("refused attach still mutated the frame")
	}
	if _, _, ok := StripTraceContext(&Frame{Kind: KindData, Data: make([]complex128, 16)}); ok {
		t.Fatal("strip accepted a plain data frame")
	}
	short := &Frame{Kind: KindDataTraced, Payload: make([]byte, traceCtxLen-1)}
	if _, _, ok := StripTraceContext(short); ok {
		t.Fatal("strip accepted an under-length traced frame")
	}
	if _, err := short.Marshal(); err == nil {
		t.Fatal("under-length traced frame marshaled")
	}
}

// TestStatsForwardCompat pins the stats reply's evolution rule: it is an
// obs snapshot keyed by name, so a reply from a newer build carrying
// counters this build has never heard of still decodes, every known entry
// intact. Only a new control-payload Version breaks compatibility, and
// that fails loudly (TestVersionMismatchIsTypedError).
func TestStatsForwardCompat(t *testing.T) {
	future := obs.Snapshot{
		Counters: map[string]int64{"serve.served": 101, "serve.some_future_counter": 7},
		Gauges:   map[string]float64{"serve.epoch_seq": 9, "fleet.some_future_gauge": 0.5},
	}
	b, err := StatsReply(9, obs.EncodeSnapshot(future)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("stats reply failed to decode: %v", err)
	}
	snap, err := obs.DecodeSnapshot(g.Body())
	if err != nil {
		t.Fatalf("stats body failed to decode: %v", err)
	}
	if snap.Counters["serve.served"] != 101 || snap.Gauges["serve.epoch_seq"] != 9 {
		t.Fatalf("known entries lost: %+v", snap)
	}
	if len(StatsRequest(9).Body()) != 0 {
		t.Fatal("stats request carries a body")
	}
}

// TestVersionMismatchIsTypedError: a control payload from a different
// protocol version is refused with *VersionError at Unmarshal — never
// parsed with this build's field layout — and so is a control frame that
// lost its version byte or smuggles samples.
func TestVersionMismatchIsTypedError(t *testing.T) {
	for _, f := range []*Frame{
		StatsRequest(1), StatsReply(1, []byte("x")), TraceRequest(1, 2), Heartbeat(1),
		HeartbeatReply(1, []uint64{1, 2, 3}), Join(1, 2, 3, 4), EpochAck(1, 2, AckApplied, 1, 3, 4),
	} {
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b[HeaderLen] = Version + 1
		_, err = Unmarshal(b)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Kind != f.Kind || ve.Got != Version+1 {
			t.Fatalf("kind %d with version %d decoded to err %v, want *VersionError", f.Kind, Version+1, err)
		}
		if _, err := Unmarshal(b[:HeaderLen]); err == nil {
			t.Fatalf("kind %d without a version byte accepted", f.Kind)
		}
		if _, err := (&Frame{Kind: f.Kind, Payload: b[HeaderLen:]}).Marshal(); !errors.As(err, &ve) {
			t.Fatalf("kind %d marshaled a foreign-version payload: %v", f.Kind, err)
		}
	}
	if _, err := (&Frame{Kind: KindStats, Data: []complex128{1}, Payload: []byte{Version}}).Marshal(); err == nil {
		t.Fatal("control frame with samples marshaled")
	}
}
