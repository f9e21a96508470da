package ota

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/cplx"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// Session is one worker's view of a shared Deployment: it owns every piece
// of mutable runtime state an inference needs — the channel/noise source,
// the sync-offset sampler's draws, and the jitter replay stream. Sessions
// are cheap to create and independent of each other; a Session must not be
// used from more than one goroutine at a time, but any number of Sessions
// may run concurrently against the same Deployment.
type Session struct {
	d    *Deployment
	src  *rng.Source
	hook FaultHook
	span *trace.Span

	// Steady-state scratch, lazily built on the first inference: the
	// per-transmission channel source is re-seeded in place (SplitInto) and
	// the realization re-initialized in place (NewRealizationInto), consuming
	// draws exactly as freshly allocated ones would. After warmup,
	// AccumulateInto allocates nothing.
	chSrc *rng.Source
	rz    channel.Realization
	// row holds the current class's offset-shifted schedule row
	// (scheduleRow), built once per class under a nonzero clock offset.
	row []complex128
}

// FaultHook intercepts a Session's per-symbol physics to inject discrete
// hardware and channel faults (package faults implements the repertoire:
// shift-register glitches, symbol erasures, burst interference, coherence
// collapse). A hook belongs to exactly one session and must draw randomness
// only from its own sources — never from the session's — so that a hook
// whose fault rates are all zero leaves the session's random stream, and
// therefore its accumulators, bit-identical to an unhooked run.
type FaultHook interface {
	// BeginTransmission is called once before each output replay r, letting
	// per-transmission fault processes draw their windows.
	BeginTransmission(r int)
	// Symbol may perturb one per-symbol term: h is the effective MTS
	// response (after sync blending, jitter, and channel scaling), x the
	// data symbol. It returns the possibly perturbed pair plus an additive
	// interference sample (zero when no interference fires).
	Symbol(r, i int, h, x complex128) (hOut, xOut, interference complex128)
}

// SetFaultHook installs (or, with nil, removes) the session's fault hook
// and returns the session for chaining. Hooks are per-session state: wire
// each worker's session its own hook instance.
func (s *Session) SetFaultHook(h FaultHook) *Session {
	s.hook = h
	return s
}

// SetSpan parents the session's next inferences under a trace span (nil
// detaches). Sessions are single-goroutine, so the caller that owns the
// request trace — a serve worker, Pipeline.InferSession — sets the span
// before the inference and clears it after; the span itself never draws
// from the session's random stream, so tracing leaves accumulators
// bit-identical.
func (s *Session) SetSpan(sp *trace.Span) *Session {
	s.span = sp
	return s
}

// Deployment returns the shared immutable deployment this session draws
// inference from.
func (s *Session) Deployment() *Deployment { return s.d }

// Accumulate runs one full over-the-air inference: every output class r is
// computed by replaying the symbol stream against its weight schedule, with
// multipath, noise, jitter, and clock offset applied. It returns the
// complex accumulator per class (before the magnitude of Eqn 3).
func (s *Session) Accumulate(x []complex128) cplx.Vec {
	return s.AccumulateInto(x, make(cplx.Vec, s.d.classes))
}

// AccumulateInto is Accumulate writing into dst (len == Classes) — the
// zero-alloc variant for steady-state serving loops. The accumulator bits
// are identical to Accumulate's: reusing dst and the session's internal
// scratch changes where results live, never what is drawn or summed.
func (s *Session) AccumulateInto(x []complex128, dst cplx.Vec) cplx.Vec {
	d := s.d
	if len(x) != d.u {
		panic(fmt.Sprintf("ota: input length %d, deployed for U=%d", len(x), d.u))
	}
	if len(dst) != d.classes {
		panic(fmt.Sprintf("ota: accumulator length %d, deployment has %d classes", len(dst), d.classes))
	}
	t := obs.StartTimer()
	defer t.ObserveInto(otaInferSeconds)
	otaInferences.Inc()
	otaTransmissions.Add(int64(d.classes))
	otaSymbols.Add(int64(d.classes) * int64(d.u))
	asp := s.span.Child("ota.accumulate")
	asp.SetNum("classes", float64(d.classes))
	asp.SetNum("u", float64(d.u))
	if n := len(d.opts.Stack); n > 0 {
		asp.SetNum("layers", float64(n+1))
	}
	s.accumulate(x, dst, asp)
	asp.End()
	return dst
}

// AccumulateBatch runs one inference per input of xs into dst, amortizing
// the per-call bookkeeping — timer, counters, span construction — across
// the batch. Requests are replayed strictly in order on the session's
// single random stream, so the accumulators are bit-identical to len(xs)
// sequential AccumulateInto calls for any batch size; the speedup comes
// from hoisted overhead and the session's reused realization scratch, not
// from reusing draws across requests. dst is grown as needed (entries with
// the right length are reused in place) and returned as dst[:len(xs)].
func (s *Session) AccumulateBatch(xs [][]complex128, dst []cplx.Vec) []cplx.Vec {
	d := s.d
	n := len(xs)
	for b, x := range xs {
		if len(x) != d.u {
			panic(fmt.Sprintf("ota: batch input %d length %d, deployed for U=%d", b, len(x), d.u))
		}
	}
	if cap(dst) < n {
		grown := make([]cplx.Vec, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	t := obs.StartTimer()
	otaInferences.Add(int64(n))
	otaTransmissions.Add(int64(n) * int64(d.classes))
	otaSymbols.Add(int64(n) * int64(d.classes) * int64(d.u))
	asp := s.span.Child("ota.accumulate")
	asp.SetNum("classes", float64(d.classes))
	asp.SetNum("u", float64(d.u))
	asp.SetNum("batch", float64(n))
	if k := len(d.opts.Stack); k > 0 {
		asp.SetNum("layers", float64(k+1))
	}
	for b, x := range xs {
		if len(dst[b]) != d.classes {
			dst[b] = make(cplx.Vec, d.classes)
		}
		s.accumulate(x, dst[b], asp)
	}
	asp.End()
	// One histogram observation per request at the per-request mean keeps
	// the ota.infer.seconds series count- and scale-comparable with the
	// unbatched path.
	t.ObserveMeanInto(otaInferSeconds, n)
	return dst
}

// accumulate is the shared physics core: one full inference into dst, with
// per-class replay spans hung under asp when tracing is live. Each class
// replay re-seeds the session's scratch channel source and realization in
// place — draw-for-draw what freshly split/allocated ones would consume —
// then dispatches to the fast replay loop, or to the general loop when a
// fault hook or exact jitter needs per-symbol work.
func (s *Session) accumulate(x []complex128, dst cplx.Vec, asp *trace.Span) {
	d := s.d
	for r := 0; r < d.classes; r++ {
		var rsp *trace.Span
		if asp != nil {
			rsp = asp.Child("ota.replay")
			rsp.SetNum("class", float64(r))
		}
		if s.hook != nil {
			s.hook.BeginTransmission(r)
		}
		s.chSrc = s.src.SplitInto(s.chSrc)
		var rz *channel.Realization
		if d.compensate {
			// The calibrated quasi-static components persist; only scatter
			// and blockage vary. If the environment has drifted since
			// calibration (a dynamic interferer), the stale estimate leaks.
			rz = d.ch.NewRealizationFromInto(&s.rz, d.envBase, d.calMTSPhase, s.chSrc)
		} else {
			rz = d.ch.NewRealizationInto(&s.rz, s.chSrc)
		}
		var offset float64
		if d.opts.SyncSampler != nil {
			offset = d.opts.SyncSampler(s.src)
		}
		var sum complex128
		if s.hook == nil && !d.exactJitter() {
			sum = s.fastReplay(r, x, rz, offset)
		} else {
			sum = s.slowReplay(r, x, rz, offset)
		}
		dst[r] = sum
		if rsp != nil {
			rsp.SetNum("acc_re", real(sum))
			rsp.SetNum("acc_im", imag(sum))
			rsp.End()
		}
	}
}

// fastReplay is the per-symbol loop for every unhooked replay without exact
// jitter, whatever its clock offset: the offset is folded into one shifted
// schedule row per class (scheduleRow), so the loop reads the row by direct
// index. Per-symbol channel state comes from one fused Realization.Step
// call, and noise/jitter draws use the hoisted standard deviations. With
// multi-sampling the environment term cancels, so on a static MTS path
// (no Doppler, no R4 blockage) the scale is the realization's constant
// MTSPhase and Step is skipped: its only draws are scatter samples from the
// per-class channel source, which is re-seeded from the session stream
// every class and whose values this branch would discard. When the
// deployment's static-channel cache is valid (staticOK, which implies no
// sync sampler), the composed response row is a precomputed flat slice and
// the loop is a straight multiply-add. Every variant consumes the session
// stream in the general path's order and keeps its exact floating-point
// grouping, so accumulators are bit-identical to slowReplay's.
func (s *Session) fastReplay(r int, x []complex128, rz *channel.Realization, offset float64) complex128 {
	d := s.d
	noiseSD := d.noiseSD
	var sum complex128
	if d.staticOK {
		// Static-channel epoch: the cached row already carries the pinned
		// calibrated MTS phase, so only the environmental term and noise
		// remain per symbol. staticOK guarantees no Doppler ramp and no
		// blockage Bernoulli, so the per-symbol channel state is exactly the
		// scatter draw(s) — inlined here with Step's draw order and
		// floating-point grouping, leaving a straight multiply-add loop.
		envScale := complex(d.envScale, 0)
		row := d.staticResp[r*d.u : (r+1)*d.u]
		base := rz.Base()
		scatSD := rz.ScatterSD()
		ch, ns := s.chSrc, s.src
		if rz.HasDrift() {
			driftSD := rz.DriftSD()
			for i, xi := range x {
				scatter := ch.ComplexNormalSD(scatSD)
				scatter += ch.ComplexNormalSD(driftSD)
				env := base + scatter
				sum += (row[i]+env*envScale)*xi + ns.ComplexNormalSD(noiseSD)
			}
		} else {
			for i, xi := range x {
				env := base + ch.ComplexNormalSD(scatSD)
				sum += (row[i]+env*envScale)*xi + ns.ComplexNormalSD(noiseSD)
			}
		}
		return sum
	}
	row := s.scheduleRow(r, offset)
	if d.opts.SubSamples > 0 {
		scale := rz.MTSPhase()
		step := !d.opts.Channel.StaticMTSPath()
		if d.opts.JitterStd > 0 {
			jatt, jsd := complex(d.jitterAtt, 0), d.jitterSD
			for i, xi := range x {
				if step {
					_, scale = rz.Step(i)
				}
				h := (row[i]*jatt + s.src.ComplexNormalSD(jsd)) * scale
				sum += h*xi + s.src.ComplexNormalSD(noiseSD)
			}
		} else {
			for i, xi := range x {
				if step {
					_, scale = rz.Step(i)
				}
				sum += (row[i]*scale)*xi + s.src.ComplexNormalSD(noiseSD)
			}
		}
		return sum
	}
	envScale := complex(d.envScale, 0)
	if d.opts.JitterStd > 0 {
		jatt, jsd := complex(d.jitterAtt, 0), d.jitterSD
		for i, xi := range x {
			env, scale := rz.Step(i)
			h := (row[i]*jatt + s.src.ComplexNormalSD(jsd)) * scale
			sum += (h+env*envScale)*xi + s.src.ComplexNormalSD(noiseSD)
		}
	} else {
		for i, xi := range x {
			env, scale := rz.Step(i)
			sum += (row[i]*scale+env*envScale)*xi + s.src.ComplexNormalSD(noiseSD)
		}
	}
	return sum
}

// slowReplay is the general per-symbol loop, reached only by fault hooks
// and exact jitter. It reads the same shifted schedule row as fastReplay
// (exact jitter evaluates the scheduled configurations atom by atom
// instead) and keeps the seed's per-symbol channel calls, scatter draws
// included, so a hook that perturbs nothing reproduces the unhooked
// accumulators bit for bit.
func (s *Session) slowReplay(r int, x []complex128, rz *channel.Realization, offset float64) complex128 {
	d := s.d
	noise2 := d.noise2
	exact := d.exactJitter()
	var row []complex128
	if !exact {
		row = s.scheduleRow(r, offset)
	}
	var sum complex128
	for i := range x {
		var h complex128
		if exact {
			h = s.effectiveResponse(r, i, offset)
		} else {
			h = row[i]
			if d.opts.JitterStd > 0 {
				h = h*complex(d.jitterAtt, 0) + s.src.ComplexNormalSD(d.jitterSD)
			}
		}
		h *= rz.MTSScaleAt(i)
		xi := x[i]
		var extra complex128
		if s.hook != nil {
			h, xi, extra = s.hook.Symbol(r, i, h, xi)
		}
		if d.opts.SubSamples > 0 {
			// Zero-mean chips + synchronized MTS sign flips: the static
			// within-symbol environment integrates to zero, the MTS path
			// adds coherently, and the combined noise keeps the
			// single-sample variance (chip noise is wider-band).
			sum += h*xi + s.src.ComplexNormal(noise2)
		} else {
			env := rz.EnvAt(i) * complex(d.envScale, 0)
			sum += (h+env)*xi + s.src.ComplexNormal(noise2)
		}
		if extra != 0 {
			sum += extra
		}
	}
	return sum
}

// scheduleRow returns class r's realized schedule row as the data stream
// sees it under a clock offset (in symbols): data symbol i meets entry
// i−⌊offset⌋ (wrapping around the row), and a fractional part f mixes that
// entry with the one before it in proportion to their time overlap. Offset
// 0 returns the realized row itself; any other offset builds the row once
// into the session's scratch, walking the two source indices instead of
// wrapping per symbol. Each entry is the blend expression of the seed's
// per-symbol arithmetic — a plain rotation when f < 1e-9 — so it carries
// the same bits.
func (s *Session) scheduleRow(r int, offset float64) []complex128 {
	u := s.d.u
	src := s.d.Realized.Data[r*u : (r+1)*u]
	if offset == 0 {
		return src
	}
	if len(s.row) != u {
		s.row = make([]complex128, u)
	}
	row := s.row
	base := math.Floor(offset)
	frac := offset - base
	i0 := wrapIdx(-int(base), u)
	if frac < 1e-9 {
		n := copy(row, src[i0:])
		copy(row[n:], src[:i0])
		return row
	}
	i1 := wrapIdx(i0-1, u)
	w0, w1 := complex(1-frac, 0), complex(frac, 0)
	for i := range row {
		row[i] = src[i0]*w0 + src[i1]*w1
		if i0++; i0 == u {
			i0 = 0
		}
		if i1++; i1 == u {
			i1 = 0
		}
	}
	return row
}

// wrapIdx reduces k into [0, n) with Euclidean wrap-around — the schedule
// index under a clock offset.
func wrapIdx(k, n int) int {
	return ((k % n) + n) % n
}

// exactJitter reports whether replays evaluate per-atom phase jitter atom by
// atom (Options.ExactJitter with a nonzero JitterStd).
func (d *Deployment) exactJitter() bool {
	return d.opts.ExactJitter && d.opts.JitterStd > 0
}

// effectiveResponse returns the exact-jitter MTS response seen by data
// symbol i of output r under a schedule/data clock offset (in symbols): the
// scheduled configuration(s) are re-evaluated atom by atom with fresh phase
// jitter — composed per layer when a cascade is deployed — and an offset
// with fractional part f mixes the two adjacent entries in proportion to
// their time overlap, as scheduleRow does for the closed-form path.
func (s *Session) effectiveResponse(r, i int, offset float64) complex128 {
	d := s.d
	base := math.Floor(offset)
	frac := offset - base
	i0 := wrapIdx(i-int(base), d.u)
	h := d.exactJitterResponse(r, i0, s.src)
	if frac >= 1e-9 {
		i1 := wrapIdx(i-int(base)-1, d.u)
		h1 := d.exactJitterResponse(r, i1, s.src)
		h = h*complex(1-frac, 0) + h1*complex(frac, 0)
	}
	return h
}

// Logits returns |accumulator| per class — the y_r of Eqn 3.
func (s *Session) Logits(x []complex128) []float64 {
	return s.Accumulate(x).Abs()
}

// Predict classifies one encoded input over the air.
func (s *Session) Predict(x []complex128) int {
	return cplx.Argmax(s.Logits(x))
}
