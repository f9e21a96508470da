package ota

import (
	"testing"

	"repro/internal/cplx"
	"repro/internal/rng"
)

// smallSession builds a serve-scale (4 classes × 16 symbols) random-weight
// deployment — the BENCH_serve workload — with the given option tweak, plus
// one encoded input.
func smallSession(b *testing.B, mod func(*Options)) (*Session, []complex128) {
	b.Helper()
	src := rng.New(1)
	w := cplx.NewMat(4, 16)
	wsrc := rng.New(7)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	opts := NewOptions(src.Split())
	if mod != nil {
		mod(&opts)
	}
	d, err := NewDeployment(w, opts, src)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, d.InputLen())
	for i := range x {
		x[i] = cplx.Expi(src.Phase())
	}
	return d.NewSession(src.Split()), x
}

// Serve-scale single inference on the default impairment set via the
// zero-alloc fast replay loop.
func BenchmarkSmallAccumulateInto(b *testing.B) {
	sess, x := smallSession(b, nil)
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(x, dst)
	}
}

// The same workload forced through the general replay loop by a
// passthrough fault hook (identical physics, per-symbol channel calls). The
// delta against BenchmarkSmallAccumulateInto is the fastReplay gain; the
// bit-identity of the two is pinned by
// TestFastReplayBitIdenticalToGeneralLoop.
func BenchmarkSmallAccumulateSlowPath(b *testing.B) {
	sess, x := smallSession(b, nil)
	sess.SetFaultHook(passthroughHook{})
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(x, dst)
	}
}

// Serve-scale inference on a static-channel epoch (compensated quasi-static
// env, no jitter): the deployment's cached flat response rows make the
// inner loop a fused multiply-add — the batched serving tier of
// BENCH_serve.
func BenchmarkSmallAccumulateStatic(b *testing.B) {
	sess, x := smallSession(b, staticComp)
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(x, dst)
	}
}

// Serve-scale batched sweep, 8 requests per wakeup on the static epoch;
// per-op time is per batch (divide by 8 for per-inference cost).
func BenchmarkSmallAccumulateStaticBatch8(b *testing.B) {
	sess, x := smallSession(b, staticComp)
	xs := make([][]complex128, 8)
	accs := make([]cplx.Vec, 8)
	for i := range xs {
		xs[i] = x
		accs[i] = make(cplx.Vec, sess.Deployment().Classes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateBatch(xs, accs)
	}
}
