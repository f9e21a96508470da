package airproto

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	src := rng.New(1)
	f := &Frame{ID: 42, Label: -1, Data: make([]complex128, 64)}
	for i := range f.Data {
		f.Data[i] = src.ComplexNormal(1)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Label != -1 || len(got.Data) != 64 {
		t.Fatalf("header lost: %+v", got)
	}
	for i := range f.Data {
		// float32 wire precision.
		if cmplx.Abs(got.Data[i]-f.Data[i]) > 1e-6*(1+cmplx.Abs(f.Data[i])) {
			t.Fatalf("element %d corrupted: %v vs %v", i, got.Data[i], f.Data[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Every kind this build speaks — data, NACK, traced data, stats, trace,
	// and the four fleet kinds — must round-trip its full header (kind,
	// code, ID, label), samples, and payload bit-exactly through the wire
	// format. Control kinds carry a versioned payload instead of samples;
	// traced data carries exactly its 16-byte context.
	err := quick.Check(func(kindSel, code uint8, id uint32, label int32, raw []float64, body []byte) bool {
		kind := kindSel % (maxKind + 1)
		if len(raw) > 200 {
			raw = raw[:200]
		}
		data := make([]complex128, len(raw)/2)
		for i := range data {
			re, im := raw[2*i], raw[2*i+1]
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return true // skip non-finite inputs
			}
			data[i] = complex(float64(float32(re)), float64(float32(im)))
		}
		var payload []byte
		switch {
		case isControl(kind):
			data, payload = nil, append([]byte{Version}, body...)
		case kind == KindDataTraced:
			payload = make([]byte, traceCtxLen)
			copy(payload, body)
		}
		f := &Frame{Kind: kind, Code: code, ID: id, Label: label, Data: data, Payload: payload}
		b, err := f.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil || got.Kind != kind || got.Code != code || got.ID != id ||
			got.Label != label || len(got.Data) != len(data) || !bytes.Equal(got.Payload, payload) {
			return false
		}
		for i := range data {
			if got.Data[i] != data[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestDataAndNackGoldenBytes pins the data-plane encoding: data and NACK
// frames are the physics and the client contract, so their bytes must
// never move when the control plane does. The hex strings are fixed:
// every deployed client sends and expects exactly these bytes.
func TestDataAndNackGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		f    *Frame
		want string
	}{
		{"data", &Frame{Code: EncodeDeadline(250 * time.Millisecond), ID: 0x01020304, Label: -1,
			Data: []complex128{1 + 2i, -0.5 + 0.25i, 3.14159 - 2.71828i}},
			"001904030201ffffffff03000000803f00000040000000bf0000803ed00f49404df82dc0"},
		{"wrong-len nack", Nack(0xa1b2c3d4, StatusWrongLen, 784), "0102d4c3b2a1100300000000"},
		{"expired nack", ExpiredNack(9, 40*time.Millisecond), "010509000000280000000000"},
	}
	for _, c := range cases {
		b, err := c.f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s encodes to %s, want %s", c.name, got, c.want)
		}
		want, _ := hex.DecodeString(c.want)
		g, err := Unmarshal(want)
		if err != nil || g.Kind != c.f.Kind || g.ID != c.f.ID || g.Label != c.f.Label || len(g.Payload) != 0 {
			t.Errorf("%s golden bytes decode to %+v (%v)", c.name, g, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("expected error for empty datagram")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Error("expected error for short frame")
	}
	// Header claims 100 elements but carries none.
	f := &Frame{ID: 1, Data: make([]complex128, 100)}
	b, _ := f.Marshal()
	if _, err := Unmarshal(b[:HeaderLen]); err == nil {
		t.Error("expected error for truncated payload")
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	f := &Frame{Data: make([]complex128, MaxVector+1)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("expected error for oversized vector")
	}
}

func TestNackRoundTrip(t *testing.T) {
	n := Nack(99, StatusWrongLen, 784)
	b, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNack() || got.Code != StatusWrongLen || got.ID != 99 || got.Label != 784 || len(got.Data) != 0 {
		t.Fatalf("NACK lost fields: %+v", got)
	}
	if (&Frame{ID: 1}).IsNack() {
		t.Fatal("data frame classified as NACK")
	}
}

func TestRejectsUnknownKind(t *testing.T) {
	b, _ := (&Frame{ID: 1, Data: []complex128{1}}).Marshal()
	b[0] = maxKind + 1
	if _, err := Unmarshal(b); err == nil {
		t.Error("expected error for unknown frame kind")
	}
	if _, err := (&Frame{Kind: maxKind + 1}).Marshal(); err == nil {
		t.Error("expected marshal error for unknown frame kind")
	}
	b[0] = 0xff
	if _, err := Unmarshal(b); err == nil {
		t.Error("expected error for kind 255")
	}
}

func TestUnmarshalRejectsOversizeClaim(t *testing.T) {
	// A header claiming more elements than any datagram can carry must be
	// rejected on the length field itself, not by allocating first.
	b, _ := (&Frame{ID: 1}).Marshal()
	b[10], b[11] = 0xff, 0xff // n = 65535 > MaxVector
	if _, err := Unmarshal(b); err == nil {
		t.Error("expected error for oversized length claim")
	}
}

// fuzzCorpus seeds FuzzUnmarshal with the failure shapes the serving stack
// meets in the wild: truncated headers, length-field lies, arbitrary
// (non-UTF8) byte soup, well-formed data and NACK frames, and every
// control kind's versioned payload layout. The seeds run under plain `go
// test` as well, so the corpus is a regression suite even when fuzzing is
// off. New seeds go at the END: seeds are named by position.
func fuzzCorpus() [][]byte {
	data, _ := (&Frame{ID: 7, Label: 3, Data: []complex128{1 + 2i, -3 - 4i}}).Marshal()
	nack, _ := Nack(9, StatusDegraded, 0).Marshal()
	big, _ := (&Frame{ID: 8, Data: make([]complex128, 300)}).Marshal()
	stats, _ := StatsReply(11, []byte("snapshot blob")).Marshal()
	trc, _ := TraceRequest(12, 0x8be9ac2c03521f46).Marshal()
	oversize := append([]byte(nil), data...)
	oversize[10], oversize[11] = 0xff, 0xff // n lies far past the payload
	// Fleet control frames: liveness, membership, and both halves of the
	// chunked epoch-replication exchange.
	hb, _ := Heartbeat(21).Marshal()
	hbReply := HeartbeatReply(21, []uint64{3, 7, 0xdeadbeef, 1, 500, 2, 0, 1})
	hbReply.Payload = append(hbReply.Payload, "snapshot"...)
	hbReplyWire, _ := hbReply.Marshal()
	join, _ := Join(22, 5, 9, 0xabcdef01).Marshal()
	chunkFrame, _ := EpochChunk(23, PushCanary, 1, 3, []byte{0xde, 0xad, 0xbe}, 500, 1000, 0xbeef0123)
	chunk, _ := chunkFrame.Marshal()
	chunkCut := chunk[:len(chunk)-5] // chunk cut mid-header
	ackChunk, _ := EpochAck(23, 1, AckChunk, 0, 0, 0xbeef0123).Marshal()
	ackDone, _ := EpochAck(23, 2, AckApplied, 0.97, 6, 0xbeef0123).Marshal()
	// Overload-control frames: a deadline-stamped data request, the expired
	// verdict, and a brownout retry-after hint.
	deadlined, _ := (&Frame{ID: 31, Label: -1, Code: EncodeDeadline(250 * time.Millisecond), Data: []complex128{1i, 2}}).Marshal()
	expired, _ := ExpiredNack(31, 40*time.Millisecond).Marshal()
	retryAfter, _ := RetryAfterNack(32, 75*time.Millisecond).Marshal()
	// The rest of the control layouts, a payload from a future protocol
	// version, and a control frame stripped of its version byte.
	statsReq, _ := StatsRequest(41).Marshal()
	traceReply, _ := TraceReply(42, []byte(`{"traceEvents":[]}`)).Marshal()
	tooLarge, _ := TraceReply(43, make([]byte, MaxDatagram)).Marshal()
	traced := &Frame{ID: 44, Data: []complex128{1, 2i}}
	AttachTraceContext(traced, 0xfeedface01234567, 0x89abcdef)
	tracedWire, _ := traced.Marshal()
	future := append([]byte(nil), join...)
	future[HeaderLen] = Version + 1
	bare := join[:HeaderLen]
	return [][]byte{
		{},                 // empty datagram
		{0x00},             // 1-byte runt
		data[:HeaderLen-1], // header cut one byte short
		data[:HeaderLen],   // header only, payload missing
		data[:len(data)-3], // payload cut mid-element
		oversize,           // oversized length claim
		{0xff, 0xfe, 0x80, 0x81, 0xc3, 0x28, 0xa0, 0xa1, 0x00, 0x00, 0x00, 0x00}, // non-UTF8 byte soup, header-sized
		data,
		nack,
		big,
		stats,
		trc,
		hb,
		hbReplyWire,
		join,
		chunk,
		chunkCut,
		ackChunk,
		ackDone,
		deadlined,
		expired,
		retryAfter,
		statsReq,
		traceReply,
		tooLarge,
		tracedWire,
		future,
		bare,
	}
}

func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := Unmarshal(b)
		if err != nil {
			return
		}
		if fr.Kind > maxKind {
			t.Fatalf("accepted frame with unknown kind %d", fr.Kind)
		}
		if len(fr.Data) > MaxVector {
			t.Fatalf("accepted frame with %d elements (max %d)", len(fr.Data), MaxVector)
		}
		if isControl(fr.Kind) && (len(fr.Data) != 0 || len(fr.Payload) == 0 || fr.Payload[0] != Version) {
			t.Fatalf("accepted control frame with %d samples and payload %x", len(fr.Data), fr.Payload)
		}
		// Accepted frames must re-marshal to a parseable frame that carries
		// the same header, samples, and payload bytes.
		b2, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted frame failed to marshal: %v", err)
		}
		fr2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-marshaled frame failed to parse: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Code != fr.Code || fr2.ID != fr.ID || fr2.Label != fr.Label || len(fr2.Data) != len(fr.Data) {
			t.Fatalf("round trip changed header: %+v vs %+v", fr2, fr)
		}
		if !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip changed payload: %x vs %x", fr2.Payload, fr.Payload)
		}
		for i := range fr.Data {
			b1 := [2]uint32{math.Float32bits(float32(real(fr.Data[i]))), math.Float32bits(float32(imag(fr.Data[i])))}
			b2 := [2]uint32{math.Float32bits(float32(real(fr2.Data[i]))), math.Float32bits(float32(imag(fr2.Data[i])))}
			if b1 != b2 {
				t.Fatalf("round trip changed element %d: %v vs %v", i, fr.Data[i], fr2.Data[i])
			}
		}
	})
}

// TestFuzzCorpusSeeded runs the seed corpus through the fuzz invariant in a
// plain test, so the regression coverage does not depend on -fuzz being
// enabled in CI.
func TestFuzzCorpusSeeded(t *testing.T) {
	for i, b := range fuzzCorpus() {
		fr, err := Unmarshal(b)
		if err != nil {
			continue // rejection is a valid outcome; the fuzz target checks the rest
		}
		if _, err := fr.Marshal(); err != nil {
			t.Errorf("corpus %d: accepted frame failed to marshal: %v", i, err)
		}
	}
}
