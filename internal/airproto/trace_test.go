package airproto

import (
	"bytes"
	"testing"
)

func TestTraceRequestIDRoundTrip(t *testing.T) {
	for i, id := range []uint64{0, 1, 0xdeadbeefcafef00d, ^uint64(0)} {
		f := TraceRequest(uint32(i+1), id)
		if f.Kind != KindTrace || f.ID != uint32(i+1) {
			t.Fatalf("kind = %d, id = %d", f.Kind, f.ID)
		}
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if g.TraceID() != id || g.ID != uint32(i+1) {
			t.Fatalf("wire round trip: trace %x id %d, want %x id %d", g.TraceID(), g.ID, id, i+1)
		}
	}
}

func TestControlBodyRoundTripsThroughWire(t *testing.T) {
	bodies := [][]byte{
		nil,
		{0},
		{255},
		[]byte(`{"traceEvents":[{"name":"req","ph":"X"}]}`),
		bytes.Repeat([]byte{0, 127, 255, 3}, 300),
		bytes.Repeat([]byte{9}, 301),
	}
	for _, body := range bodies {
		for _, f := range []*Frame{TraceReply(5, body), StatsReply(6, body)} {
			b, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != HeaderLen+1+len(body) {
				t.Fatalf("%d-byte body costs %d wire bytes", len(body), len(b))
			}
			g, err := Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Body(); !bytes.Equal(got, body) {
				t.Fatalf("kind %d body corrupted: got %q want %q", f.Kind, got, body)
			}
		}
	}
}

func TestTraceReplyTooLargeNacks(t *testing.T) {
	fits := make([]byte, MaxDatagram-HeaderLen-1)
	if f := TraceReply(3, fits); f.Kind != KindTrace {
		t.Fatalf("a %d-byte export that fits was answered kind %d", len(fits), f.Kind)
	}
	big := make([]byte, len(fits)+1)
	f := TraceReply(3, big)
	if !f.IsNack() || f.Code != StatusTooLarge || f.ID != 3 || int(f.Label) != len(big) {
		t.Fatalf("oversize export answered %+v, want a StatusTooLarge NACK carrying %d", f, len(big))
	}
}

func TestKindTraceValidOnWireUnknownKindsStillRejected(t *testing.T) {
	b, err := TraceRequest(1, 2).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err != nil {
		t.Fatalf("KindTrace rejected: %v", err)
	}
	bad := &Frame{Kind: maxKind + 1}
	if _, err := bad.Marshal(); err == nil {
		t.Fatalf("kind %d marshaled", maxKind+1)
	}
	b[0] = maxKind + 1
	if _, err := Unmarshal(b); err == nil {
		t.Fatalf("kind %d unmarshaled", maxKind+1)
	}
}
