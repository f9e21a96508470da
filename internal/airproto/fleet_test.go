package airproto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Full-width values: every one sits past 2^24, the last integer a float32
// sample could have carried exactly.
const (
	wideSeq   = uint64(1)<<40 + 12345
	wideNonce = uint32(0xfedcba98)
)

func TestHeartbeatRoundTrip(t *testing.T) {
	b, err := Heartbeat(42).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindHeartbeat || got.ID != 42 || got.IsHeartbeatReply() {
		t.Fatalf("heartbeat ping lost fields: %+v", got)
	}

	health := make([]uint64, HBVectorLen)
	for i := range health {
		health[i] = wideSeq + uint64(i)
	}
	health[HBFleetNonce] = uint64(wideNonce)
	reply := HeartbeatReply(42, health)
	reply.Payload = append(reply.Payload, "obs snapshot"...)
	b, err = reply.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsHeartbeatReply() {
		t.Fatal("heartbeat reply read as a ping")
	}
	hv := got.HealthVector()
	for i, v := range health {
		if hv[i] != v {
			t.Fatalf("health[%d] = %d, want %d", i, hv[i], v)
		}
	}
	if snap := got.HeartbeatSnapshot(); string(snap) != "obs snapshot" {
		t.Fatalf("snapshot blob %q", snap)
	}
	// Without a blob, the reply carries none; a ping carries no gauges.
	if snap := HeartbeatReply(42, health).HeartbeatSnapshot(); snap != nil {
		t.Fatalf("blob-less reply yielded %q", snap)
	}
	if hv := Heartbeat(42).HealthVector(); len(hv) != HBVectorLen || hv[HBFleetSeq] != 0 {
		t.Fatalf("ping decoded to gauges %v", hv)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	b, err := Join(7, wideSeq, wideSeq+1, wideNonce).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindJoin || got.ID != 7 {
		t.Fatalf("join lost fields: %+v", got)
	}
	fs, ls, nonce := got.JoinInfo()
	if fs != wideSeq || ls != wideSeq+1 || nonce != wideNonce {
		t.Fatalf("join info (%d, %d, %#x), want (%d, %d, %#x)", fs, ls, nonce, wideSeq, wideSeq+1, wideNonce)
	}
	if fs, ls, nonce := (&Frame{Kind: KindJoin, Payload: []byte{Version}}).JoinInfo(); fs != 0 || ls != 0 || nonce != 0 {
		t.Fatalf("empty join decoded to (%d, %d, %d)", fs, ls, nonce)
	}
}

func TestEpochChunkRoundTrip(t *testing.T) {
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f, err := EpochChunk(99, PushCanary, 2, 5, payload, 600, 1500, wideNonce)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen+chunkHdrLen+len(payload) {
		t.Fatalf("chunk of %d bytes costs %d wire bytes", len(payload), len(b))
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindEpochPush || got.Code != PushCanary || got.ID != 99 {
		t.Fatalf("chunk lost header: %+v", got)
	}
	idx, total := got.ChunkInfo()
	if idx != 2 || total != 5 {
		t.Fatalf("chunk info (%d, %d), want (2, 5)", idx, total)
	}
	chunk, offset, totalLen, nonce, ok := got.ChunkPayload()
	if !ok {
		t.Fatal("valid chunk rejected")
	}
	if offset != 600 || totalLen != 1500 || nonce != wideNonce || !bytes.Equal(chunk, payload) {
		t.Fatalf("chunk payload corrupted: offset %d, total %d, nonce %#x, %d bytes", offset, totalLen, nonce, len(chunk))
	}
}

func TestEpochChunkFullWidthHeaders(t *testing.T) {
	// Offsets, lengths, nonces, and digests all cross the wire at their
	// full 32-bit width.
	sawWideCRC := false
	for _, nonce := range []uint32{1, 1<<24 - 1, 1 << 24, 0xabcdef01, ^uint32(0)} {
		off, total := 1<<25+3, 1<<26
		f, err := EpochChunk(1<<30, PushCommit, 0, 1, []byte{1, 2}, off, total, nonce)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := f.Marshal()
		got, _ := Unmarshal(b)
		_, o, tl, n, ok := got.ChunkPayload()
		if !ok || n != nonce || o != off || tl != total {
			t.Fatalf("chunk (offset %d, total %d, nonce %#x) arrived as (%d, %d, %#x) ok=%v", off, total, nonce, o, tl, n, ok)
		}
		sawWideCRC = sawWideCRC || binary.LittleEndian.Uint32(got.Payload[13:]) >= 1<<24
	}
	if !sawWideCRC {
		t.Fatal("no digest past 2^24 exercised")
	}
}

func TestEpochChunkOddLength(t *testing.T) {
	f, err := EpochChunk(1, PushCommit, 0, 1, []byte{1, 2, 3}, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := f.Marshal()
	got, _ := Unmarshal(b)
	chunk, offset, totalLen, _, ok := got.ChunkPayload()
	if !ok || offset != 0 || totalLen != 3 || !bytes.Equal(chunk, []byte{1, 2, 3}) {
		t.Fatalf("odd chunk corrupted: %v (offset %d, total %d, ok %v)", chunk, offset, totalLen, ok)
	}
}

func TestEpochChunkRejectsMalformed(t *testing.T) {
	if _, err := EpochChunk(1, PushCommit, 0, 1, make([]byte, MaxChunkBytes+1), 0, MaxChunkBytes+1, 0); err == nil {
		t.Error("oversized chunk accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 3, 3, nil, 0, 0, 0); err == nil {
		t.Error("out-of-range chunk index accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 0, 0x10000, nil, 0, 0, 0); err == nil {
		t.Error("chunk total beyond the 16-bit label field accepted")
	}
	if _, err := EpochChunk(1, PushCommit, 0, 2, []byte{1, 2}, 99, 100, 0); err == nil {
		t.Error("chunk overrunning the transfer accepted")
	}
	// The largest chunk fills the datagram exactly.
	f, err := EpochChunk(1, PushCommit, 0, 1, make([]byte, MaxChunkBytes), 0, MaxChunkBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := f.Marshal(); err != nil || len(b) != MaxDatagram {
		t.Fatalf("max chunk marshals to %d bytes (%v), want %d", len(b), err, MaxDatagram)
	}
	// Headers that disagree with the bytes must not enter reassembly. The
	// digest would catch these too; ChunkPayload refuses them on geometry
	// before hashing.
	lie := func(field int, v uint32) *Frame {
		f, _ := EpochChunk(1, PushCommit, 0, 2, []byte{1, 2, 3, 4}, 0, 100, 0)
		binary.LittleEndian.PutUint32(f.Payload[1+4*field:], v)
		return f
	}
	if _, _, _, _, ok := lie(1, 2).ChunkPayload(); ok {
		t.Error("total-lying chunk accepted")
	}
	if _, _, _, _, ok := lie(0, 98).ChunkPayload(); ok {
		t.Error("offset-lying chunk accepted")
	}
	if _, _, _, _, ok := lie(0, ^uint32(0)).ChunkPayload(); ok {
		t.Error("wrapping offset accepted")
	}
	if _, _, _, _, ok := (&Frame{Kind: KindEpochPush, Payload: []byte{Version}}).ChunkPayload(); ok {
		t.Error("headerless chunk accepted")
	}
}

func TestEpochChunkDigestDetectsTamper(t *testing.T) {
	// Every field the digest covers: flipping any of them after build must
	// make ChunkPayload refuse the frame, because a chunk corrupted in
	// flight (airproto frames carry no checksum of their own) would
	// otherwise land garbage bytes at a valid offset or open a phantom
	// transfer under a mangled ID.
	build := func() *Frame {
		f, err := EpochChunk(7, PushCommit, 1, 3, []byte{9, 8, 7, 6, 5}, 16, 48, 0xabcdef12)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tampers := []struct {
		name string
		mut  func(f *Frame)
	}{
		{"transfer ID", func(f *Frame) { f.ID ^= 1 }},
		{"push mode", func(f *Frame) { f.Code ^= 1 }},
		{"chunk index/total", func(f *Frame) { f.Label ^= 1 << 16 }},
		{"byte offset", func(f *Frame) { f.Payload[1] += 2 }},
		{"total length", func(f *Frame) { f.Payload[5]++ }},
		{"nonce", func(f *Frame) { f.Payload[9] ^= 1 }},
		{"digest itself", func(f *Frame) { f.Payload[13] ^= 1 }},
		{"payload byte", func(f *Frame) { f.Payload[chunkHdrLen] ^= 1 }},
		{"truncated payload", func(f *Frame) { f.Payload = f.Payload[:len(f.Payload)-1] }},
	}
	for _, tc := range tampers {
		f := build()
		tc.mut(f)
		if _, _, _, _, ok := f.ChunkPayload(); ok {
			t.Errorf("tampered %s accepted", tc.name)
		}
	}
	// And the untampered frame still round-trips through the wire.
	b, err := build().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if chunk, off, totalLen, nonce, ok := got.ChunkPayload(); !ok ||
		off != 16 || totalLen != 48 || nonce != 0xabcdef12 || !bytes.Equal(chunk, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("clean chunk refused: %v (offset %d, total %d, nonce %#x, ok %v)", chunk, off, totalLen, nonce, ok)
	}
}

func TestEpochAckRoundTrip(t *testing.T) {
	b, err := EpochAck(5, 3, AckChunk, 0, 0, 9).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindEpochAck || got.Code != AckChunk {
		t.Fatalf("chunk ack lost fields: %+v", got)
	}
	if idx, _, _, _ := got.AckInfo(); idx != 3 {
		t.Fatalf("chunk ack index %d, want 3", idx)
	}

	// Completing ack: verdict plus agreement, full-width seq and nonce.
	b, err = EpochAck(5, 4, AckApplied, 0.875, wideSeq, wideNonce).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	idx, agree, seq, nonce := got.AckInfo()
	if got.Code != AckApplied || idx != 4 || agree != 0.875 || seq != wideSeq || nonce != wideNonce {
		t.Fatalf("final ack decoded to (%d, %v, %d, %#x, code %d)", idx, agree, seq, nonce, got.Code)
	}
}
