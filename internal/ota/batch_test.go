package ota

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/rng"
)

// deployVariant deploys the memoized model with the given option tweak from
// a fixed seed and returns a session on it. Calling it twice with the same
// seed and tweak yields independent systems carrying bit-identical schedules
// and equal random streams.
func deployVariant(t testing.TB, seed uint64, mod func(*Options)) *Session {
	t.Helper()
	m, _, _ := trained(t)
	src := rng.New(seed)
	opts := NewOptions(src.Split())
	if mod != nil {
		mod(&opts)
	}
	d, err := NewDeployment(m.Weights(), opts, src)
	if err != nil {
		t.Fatal(err)
	}
	return d.NewSession(src)
}

// staticComp switches options to the Eqn 8 compensation scheme in a static
// laboratory environment — the configuration whose composed per-class
// response the deployment caches as a flat slice (staticOK).
func staticComp(o *Options) {
	o.SubSamples = 0
	o.JitterStd = 0
	o.CompensateEnv = true
	o.Channel.Env = channel.Laboratory
	o.Channel.Antenna = channel.Omni
	o.Channel.Interf = channel.NoInterferer
}

func TestAccumulateBatchBitIdenticalToSequential(t *testing.T) {
	// The tentpole contract: a batch of n produces the exact accumulator
	// bits n sequential calls would, for every replay variant — the
	// batched path hoists overhead, never draws.
	_, test, _ := trained(t)
	variants := map[string]func(*Options){
		"default":    nil,
		"staticComp": staticComp,
		"noJitter":   func(o *Options) { o.JitterStd = 0 },
		"syncOffset": func(o *Options) {
			o.SyncSampler = func(src *rng.Source) float64 { return 0.25 + 0.1*src.Float64() }
		},
	}
	for name, mod := range variants {
		for _, bsz := range []int{1, 4, 16} {
			seq := deployVariant(t, 31, mod)
			bat := deployVariant(t, 31, mod)
			xs := make([][]complex128, bsz)
			want := make([]cplx.Vec, bsz)
			for b := 0; b < bsz; b++ {
				xs[b] = test.X[b%len(test.X)]
				want[b] = seq.Accumulate(xs[b])
			}
			got := bat.AccumulateBatch(xs, nil)
			if len(got) != bsz {
				t.Fatalf("%s batch %d: got %d accumulators", name, bsz, len(got))
			}
			for b := range got {
				for r := range got[b] {
					if got[b][r] != want[b][r] {
						t.Fatalf("%s batch %d: request %d class %d: batched %v != sequential %v",
							name, bsz, b, r, got[b][r], want[b][r])
					}
				}
			}
		}
	}
}

func TestAccumulateBatchReusesDst(t *testing.T) {
	sess := deployVariant(t, 32, nil)
	_, test, _ := trained(t)
	xs := [][]complex128{test.X[0], test.X[1]}
	dst := make([]cplx.Vec, 2)
	dst[0] = make(cplx.Vec, sess.Deployment().Classes())
	first := &dst[0][0]
	out := sess.AccumulateBatch(xs, dst)
	if &out[0][0] != first {
		t.Fatal("right-sized dst entry was reallocated instead of reused")
	}
	if len(out) != 2 || len(out[1]) != sess.Deployment().Classes() {
		t.Fatalf("missing entries were not grown: %d accumulators", len(out))
	}
}

// passthroughHook is a FaultHook that perturbs nothing. Installing it
// routes every replay through slowReplay — the general per-symbol loop,
// which keeps the seed's channel calls, scatter draws included — without
// changing the physics.
type passthroughHook struct{}

func (passthroughHook) BeginTransmission(int) {}

func (passthroughHook) Symbol(_, _ int, h, x complex128) (complex128, complex128, complex128) {
	return h, x, 0
}

// servedSampler is the clock-offset sampler every served deployment carries:
// the coarse detector's Gamma residual, scaled to a u-symbol stream.
func servedSampler(u int) func(*rng.Source) float64 {
	return clocksync.CoarseSampler(clocksync.ScaledDetector(u), 1e6)
}

// sameAccumulators fails the test unless got and want carry the same bits.
func sameAccumulators(t *testing.T, what string, got, want cplx.Vec) {
	t.Helper()
	for r := range want {
		if math.Float64bits(real(got[r])) != math.Float64bits(real(want[r])) ||
			math.Float64bits(imag(got[r])) != math.Float64bits(imag(want[r])) {
			t.Fatalf("%s class %d: fast loop %v != general loop %v", what, r, got[r], want[r])
		}
	}
}

func TestEffectiveResponseFastPathBitIdentical(t *testing.T) {
	// A constant sync offset below the fractional-blend epsilon (1e-9)
	// describes a perfectly synchronized clock but takes the general
	// offset arithmetic (Floor, wrap, the rotation branch of scheduleRow);
	// the passthrough hook sends it through the general replay loop. Its
	// accumulators must match the offset==0 fast paths bit for bit —
	// pinning the direct-index row and the static-channel cache against
	// the seed arithmetic they replaced.
	_, test, _ := trained(t)
	epsSampler := func(o *Options) {
		o.SyncSampler = func(*rng.Source) float64 { return 1e-12 }
	}
	variants := map[string][2]func(*Options){
		"subsampleJitter": {nil, epsSampler},
		"staticComp":      {staticComp, func(o *Options) { staticComp(o); epsSampler(o) }},
		"envNoJitter": {
			func(o *Options) { o.SubSamples = 0; o.JitterStd = 0 },
			func(o *Options) { o.SubSamples = 0; o.JitterStd = 0; epsSampler(o) },
		},
	}
	for name, mods := range variants {
		fast := deployVariant(t, 33, mods[0])
		slow := deployVariant(t, 33, mods[1]).SetFaultHook(passthroughHook{})
		for i, x := range test.X[:20] {
			sameAccumulators(t, fmt.Sprintf("%s sample %d", name, i), fast.Accumulate(x), slow.Accumulate(x))
		}
	}
}

func TestScheduleRowMatchesPerSymbolBlend(t *testing.T) {
	// scheduleRow builds a class's offset-shifted row once, walking two
	// source indices. Each entry must carry the bits of the per-symbol
	// arithmetic it replaced: Floor, Euclidean wrap of both indices, and
	// the fractional blend, or the plain entry below the 1e-9 epsilon. Both
	// replay loops read this row, so this is what pins them to the seed.
	d := deployVariant(t, 38, nil).Deployment()
	u := d.InputLen()
	want := func(r, i int, offset float64) complex128 {
		base := math.Floor(offset)
		frac := offset - base
		h0 := d.Realized.At(r, wrapIdx(i-int(base), u))
		if frac < 1e-9 {
			return h0
		}
		h1 := d.Realized.At(r, wrapIdx(i-int(base)-1, u))
		return h0*complex(1-frac, 0) + h1*complex(frac, 0)
	}
	sess := d.NewSession(rng.New(39))
	for _, offset := range []float64{0, 1e-12, 3, 2.37, 0.5, float64(u), float64(2*u+5) + 0.81, -1.5, -float64(u) - 7} {
		for r := 0; r < d.Classes(); r++ {
			row := sess.scheduleRow(r, offset)
			for i, h := range row {
				if w := want(r, i, offset); math.Float64bits(real(h)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(h)) != math.Float64bits(imag(w)) {
					t.Fatalf("offset %v class %d symbol %d: row %v, per-symbol blend %v", offset, r, i, h, w)
				}
			}
		}
	}
}

func TestFastReplayBitIdenticalToGeneralLoop(t *testing.T) {
	// Every unhooked replay without exact jitter takes fastReplay, whatever
	// its clock offset: one shifted schedule row per class, and no scatter
	// draws on a static multi-sampled MTS path. A passthrough hook forces
	// the same physics through slowReplay. The two must agree bit for bit
	// for every offset shape (Gamma residual, integer rotation, wrap past
	// U, negative) and channel configuration, single and batched — on the
	// R4 and Doppler channels the fast loop must still step the channel.
	m, test, _ := trained(t)
	u := m.Weights().Cols
	offsets := map[string]func(*rng.Source) float64{
		"coarse":   servedSampler(u),
		"integer":  func(*rng.Source) float64 { return 3 },
		"wrap":     func(src *rng.Source) float64 { return float64(2*u+5) + src.Float64() },
		"negative": func(*rng.Source) float64 { return -1.5 },
	}
	configs := map[string]func(*Options){
		"served":     nil,
		"noJitter":   func(o *Options) { o.JitterStd = 0 },
		"envJitter":  func(o *Options) { o.SubSamples = 0 },
		"cascadeK2":  func(o *Options) { o.Stack = testStack(t, 2) },
		"blockageR4": func(o *Options) { o.Channel.Interf = channel.RegionR4 },
		"doppler":    func(o *Options) { o.Channel.DopplerHz = 500 },
	}
	xs := test.X[:6]
	for cname, mod := range configs {
		d := deployVariant(t, 36, mod).Deployment()
		for oname, sampler := range offsets {
			ds := d.WithSyncSampler(sampler)
			fast := ds.NewSession(rng.New(37))
			slow := ds.NewSession(rng.New(37)).SetFaultHook(passthroughHook{})
			for i, x := range xs {
				what := fmt.Sprintf("%s/%s AccumulateInto sample %d", cname, oname, i)
				sameAccumulators(t, what, fast.Accumulate(x), slow.Accumulate(x))
			}
			fb := fast.AccumulateBatch(xs, nil)
			sb := slow.AccumulateBatch(xs, nil)
			for b := range xs {
				sameAccumulators(t, fmt.Sprintf("%s/%s AccumulateBatch request %d", cname, oname, b), fb[b], sb[b])
			}
		}
	}
}

func TestAccumulateSteadyStateZeroAlloc(t *testing.T) {
	// After warmup (session scratch built, dst owned by the caller) the
	// single-request and batched hot paths allocate nothing per inference.
	m, test, _ := trained(t)
	variants := map[string]func(*Options){
		"default":    nil,
		"staticComp": staticComp,
		"served":     func(o *Options) { o.SyncSampler = servedSampler(m.Weights().Cols) },
	}
	for name, mod := range variants {
		sess := deployVariant(t, 34, mod)
		d := sess.Deployment()
		dst := make(cplx.Vec, d.Classes())
		sess.AccumulateInto(test.X[0], dst)
		if n := testing.AllocsPerRun(50, func() {
			sess.AccumulateInto(test.X[1], dst)
		}); n != 0 {
			t.Errorf("%s: AccumulateInto allocates %.1f/op in steady state, want 0", name, n)
		}

		xs := make([][]complex128, 8)
		accs := make([]cplx.Vec, 8)
		for b := range xs {
			xs[b] = test.X[b]
			accs[b] = make(cplx.Vec, d.Classes())
		}
		sess.AccumulateBatch(xs, accs)
		if n := testing.AllocsPerRun(20, func() {
			sess.AccumulateBatch(xs, accs)
		}); n != 0 {
			t.Errorf("%s: AccumulateBatch allocates %.1f/op in steady state, want 0", name, n)
		}
	}
}

// servedSession is a steady-state session on the served configuration: the
// default impairment set plus the clock-offset sampler every served epoch
// carries, so every replay runs under a nonzero Gamma offset.
func servedSession(b *testing.B) *Session {
	m, _, _ := trained(b)
	return deployVariant(b, 35, func(o *Options) { o.SyncSampler = servedSampler(m.Weights().Cols) })
}

// Single steady-state served inference — the serve hot path at batch 1.
func BenchmarkAccumulateInto(b *testing.B) {
	_, test, _ := trained(b)
	sess := servedSession(b)
	dst := make(cplx.Vec, sess.Deployment().Classes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateInto(test.X[i%len(test.X)], dst)
	}
}

// Batched steady-state served inference, 8 requests per sweep; per-op time
// is per batch (divide by 8 for per-inference cost).
func BenchmarkAccumulateBatch8(b *testing.B) {
	_, test, _ := trained(b)
	sess := servedSession(b)
	xs := make([][]complex128, 8)
	accs := make([]cplx.Vec, 8)
	for i := range xs {
		xs[i] = test.X[i]
		accs[i] = make(cplx.Vec, sess.Deployment().Classes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.AccumulateBatch(xs, accs)
	}
}
