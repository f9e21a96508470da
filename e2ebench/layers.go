package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/fleet"
	"repro/internal/ota"
)

// rounds is how many timed rounds each in-process layer measurement takes;
// the median round is reported.
const rounds = 7

// timed runs f calls times per round and returns the median per-call time,
// recording one span per round under parent.
func (b *bench) timed(name string, parent uint64, calls int, f func(i int)) time.Duration {
	per := make([]float64, rounds)
	for r := range per {
		t := time.Now()
		for i := 0; i < calls; i++ {
			f(r*calls + i)
		}
		end := time.Now()
		b.spans.add(name, parent, 0, t, end)
		per[r] = float64(end.Sub(t)) / float64(calls)
	}
	return time.Duration(median(per))
}

// layerTimings times the public entry points of each module on the served
// deployment and epoch, with no load running, into m.
func (b *bench) layerTimings(ep *checkpoint.Epoch, m metrics) error {
	t0 := time.Now()
	root := b.spans.add("layers", 0, 0, t0, t0) // end patched below
	defer func() { b.spans.spans[root-1].end = time.Now() }()

	// ota: one inference into a reused accumulator, and a batch of 8 — the
	// calls a replica worker makes per request.
	d := b.pipe.Deployment()
	sess := d.SessionFromSeed(0x5e55)
	xs := b.pipe.Test.X
	acc := make(cplx.Vec, d.Classes())
	m.set("ota.accumulate_us", us(b.timed("ota.AccumulateInto", root, 200, func(i int) {
		sess.AccumulateInto(xs[i%len(xs)], acc)
	})), "us")
	batchX := make([][]complex128, 8)
	batchAcc := make([]cplx.Vec, 8)
	for k := range batchAcc {
		batchAcc[k] = make(cplx.Vec, d.Classes())
	}
	m.set("ota.batch8_us_per_inf", us(b.timed("ota.AccumulateBatch", root, 25, func(i int) {
		for k := range batchX {
			batchX[k] = xs[(8*i+k)%len(xs)]
		}
		sess.AccumulateBatch(batchX, batchAcc)
	}))/8, "us")
	var fsErr error
	m.set("ota.from_state_ms", ms(b.timed("ota.FromState", root, 3, func(int) {
		if _, err := ota.FromState(ep.State); err != nil {
			fsErr = err
		}
	})), "ms")
	if fsErr != nil {
		return fmt.Errorf("ota.FromState: %w", fsErr)
	}

	// airproto: decode a U=64 request and encode an R=10 reply, as the
	// replica's read loop and worker do.
	req, err := (&airproto.Frame{ID: 7, Data: xs[0]}).Marshal()
	if err != nil {
		return err
	}
	m.set("airproto.unmarshal_ns", float64(b.timed("airproto.Unmarshal", root, 2000, func(int) {
		_, _ = airproto.Unmarshal(req)
	}).Nanoseconds()), "ns")
	m.set("airproto.unmarshal_allocs", allocsPerCall(1000, func() { _, _ = airproto.Unmarshal(req) }), "count")
	reply := airproto.Frame{ID: 7, Data: acc}
	out := make([]byte, 0, 256)
	m.set("airproto.marshal_ns", float64(b.timed("airproto.MarshalAppend", root, 2000, func(int) {
		out, _ = reply.MarshalAppend(out[:0])
	}).Nanoseconds()), "ns")

	// checkpoint: seal and open the served epoch, and append it durably.
	var sealed []byte
	m.set("checkpoint.encode_epoch_ms", ms(b.timed("checkpoint.EncodeEpoch", root, 3, func(int) {
		sealed = checkpoint.EncodeEpoch(ep)
	})), "ms")
	var decErr error
	m.set("checkpoint.decode_epoch_ms", ms(b.timed("checkpoint.DecodeEpoch", root, 3, func(int) {
		if _, err := checkpoint.DecodeEpoch(sealed); err != nil {
			decErr = err
		}
	})), "ms")
	if decErr != nil {
		return fmt.Errorf("checkpoint.DecodeEpoch: %w", decErr)
	}
	j, err := checkpoint.OpenJournal(b.tmp + "/layer-journal")
	if err != nil {
		return err
	}
	var appErr error
	m.set("checkpoint.append_ms", ms(b.timed("checkpoint.Journal.Append", root, 1, func(int) {
		if _, err := j.Append(ep); err != nil {
			appErr = err
		}
	})), "ms")
	if appErr != nil {
		return fmt.Errorf("checkpoint.Journal.Append: %w", appErr)
	}

	// fleet + airproto: the epoch's replication frames, and reassembling
	// them from wire-decoded copies as a replica's agent does.
	var frames []*airproto.Frame
	var chErr error
	m.set("fleet.chunks_ms", ms(b.timed("fleet.Chunks", root, 3, func(int) {
		frames, chErr = fleet.Chunks(1, airproto.PushCommit, sealed, fleet.DefaultChunkBytes, 1)
	})), "ms")
	if chErr != nil {
		return fmt.Errorf("fleet.Chunks: %w", chErr)
	}
	wire := 0
	decoded := make([]*airproto.Frame, len(frames))
	for i, f := range frames {
		raw, err := f.Marshal()
		if err != nil {
			return err
		}
		wire += len(raw)
		if decoded[i], err = airproto.Unmarshal(raw); err != nil {
			return err
		}
	}
	m.set("airproto.epoch_frames", float64(len(frames)), "count")
	m.set("airproto.epoch_wire_bytes", float64(wire), "bytes")
	var raErr error
	m.set("fleet.reassemble_ms", ms(b.timed("fleet.Reassembler.Add", root, 3, func(int) {
		ra := fleet.NewReassembler()
		for _, f := range decoded {
			if _, _, _, err := ra.Add(f); err != nil {
				raErr = err
			}
		}
	})), "ms")
	if raErr != nil {
		return fmt.Errorf("fleet.Reassembler.Add: %w", raErr)
	}
	return nil
}

// allocsPerCall counts heap allocations per call of f, GC held off.
func allocsPerCall(calls int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&z)
	return float64(z.Mallocs-a.Mallocs) / float64(calls)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
