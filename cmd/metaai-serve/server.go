package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/cplx"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mobility"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// journalKeep bounds the state directory: every publish prunes the epoch
// journal down to this many newest entries. Two is the floor (the current
// epoch plus the rollback target); eight keeps a little history for
// post-mortems without letting the directory grow with uptime.
const journalKeep = 8

// epoch is one immutable serving generation: a deployment plus one session
// per worker. Workers resolve the current epoch per request through an
// atomic pointer, so a heal swaps the whole generation without a lock and
// without disturbing requests already running on the previous one.
type epoch struct {
	d        *ota.Deployment
	sessions []*ota.Session
}

// serverConfig assembles an airServer.
type serverConfig struct {
	// deployment is the serving deployment (possibly carrying injected
	// stuck-atom damage).
	deployment *ota.Deployment
	// injector, when non-nil, supplies the dynamic fault hooks for every
	// session and the masked-atom re-solve behind heal().
	injector *faults.Injector
	// monitor, when non-nil, arms self-healing: workers feed it decision
	// margins and the supervisor heals when it reports degradation.
	monitor *mobility.Monitor
	// workers is the number of inference goroutines (min 1).
	workers int
	// batch is the most pending requests one worker drains per wakeup and
	// accumulates as a single Session.AccumulateBatch sweep (min 1). Batch 1
	// is exactly the classic per-request path; larger batches amortize the
	// per-inference bookkeeping while keeping accumulator bits identical to
	// sequential processing.
	batch int
	// queue bounds in-flight requests; a full queue sheds load with a
	// StatusDegraded NACK instead of blocking the read loop. Defaults to
	// workers*4.
	queue int
	// healEvery is the supervisor's polling period (default 250ms).
	healEvery time.Duration
	// sessionSrc seeds the per-epoch session fleets.
	sessionSrc *rng.Source
	// journal, when non-nil, durably records every published epoch (the
	// initial deployment, each heal, each rollback) as a sealed checkpoint —
	// the crash-recovery WAL. Writes happen under healMu, entirely off the
	// request path.
	journal *checkpoint.Journal
	// meta is stamped into every journaled epoch so recovery can match the
	// dataset and rebuild the clock-sync sampler.
	meta checkpoint.Meta
	// initialReason labels the first journaled epoch: "deploy" on a cold
	// start, "recover" when the deployment was restored from the journal.
	initialReason string
	// reference, when non-nil, is the known-healthy deployment whose
	// predictions define the canary's golden outputs (defaults to
	// deployment, which is correct only when deployment itself is healthy —
	// a fault-injected server must point this at the pre-damage one).
	reference *ota.Deployment
	// canaryProbes, when non-empty, gate every heal candidate: its
	// predictions on these held-out inputs must agree with the reference's
	// on at least canaryFrac of them, or the candidate is rejected without
	// ever being published.
	canaryProbes [][]complex128
	// canaryFrac is the minimum golden-output agreement (default 0.8).
	canaryFrac float64
	// canarySeed seeds the canary evaluation sessions so the gate is
	// deterministic for a given candidate.
	canarySeed uint64
	// rollbackFrac arms the post-publication supervisor: once the margin
	// window refills after a heal, a mean below rollbackFrac times the
	// pre-heal mean rolls the server back to the previous epoch. Zero
	// disables rollback.
	rollbackFrac float64
	// admit, when non-nil, arms adaptive admission control: a brownout
	// controller that sheds a rising fraction of data frames (with a
	// StatusRetryAfter hint) when the live p99 exceeds its SLO. Control-
	// plane traffic — heartbeats, joins, epoch replication, stats, trace
	// fetches — is handled before the admission point and is never shed.
	admit *admission.Controller
	// admitEvery is the period of the p99 → controller feedback loop
	// (default 100ms). The loop reads the live serve.request.seconds p99,
	// so brownout needs obs enabled to ever engage.
	admitEvery time.Duration
	// logf receives progress lines; nil silences them.
	logf func(format string, args ...interface{})
	// preInfer, when non-nil, runs in each worker just before it processes
	// a dequeued request — a test hook for pinning requests in flight while
	// the read loop is torn down (the drain-path tests) and for slowing one
	// replica of an in-process fleet (the hedged-trace tests).
	preInfer func()
	// tracer is the tracer this server's serve.request / serve.heal spans
	// start on and KindTrace fetches read from; nil means the process-wide
	// trace.Default(). Injectable so an in-process test fleet can give each
	// replica its own retention ring, as separate processes naturally have.
	tracer *trace.Tracer
}

// airServer answers airproto frames over UDP with over-the-air inference,
// monitors its own health, and hot-swaps its deployment when degraded.
type airServer struct {
	cfg serverConfig
	cur atomic.Pointer[epoch]

	served        atomic.Int64  // data frames answered
	shed          atomic.Int64  // load-shedding NACKs sent (queue full + brownout)
	brownout      atomic.Int64  // the admission-control subset of shed
	expired       atomic.Int64  // requests dropped at dequeue past their deadline
	nacked        atomic.Int64  // bad-frame / wrong-length NACKs sent
	swaps         atomic.Int64  // epochs published after the first
	heals         atomic.Int64  // heal() invocations
	rollbacks     atomic.Int64  // published heals rolled back by the supervisor
	canaryRejects atomic.Int64  // heal candidates the canary gate refused
	epochSeq      atomic.Uint64 // journal sequence of the current epoch (0 when unjournaled)
	reqSeq        atomic.Uint64 // per-server request ordinal, the trace-ID tiebreaker
	healSeq       atomic.Uint64 // per-server heal-episode ordinal for heal traces
	inflight      atomic.Int64  // requests queued for the worker fleet (the HBQueueDepth gauge)

	// fleetAgent answers the fleet router's heartbeats with this server's
	// health vector and installs replicated epochs pushed over the wire. It
	// is always constructed — a server that never joins a fleet simply never
	// receives a fleet-control frame.
	fleetAgent *fleet.Agent

	healMu sync.Mutex // serializes heal()/rollback and guards watch
	// watch, when non-nil, is the post-publication rollback supervisor's
	// state: the margin level before the last heal and the epoch to return
	// to if the heal regresses.
	watch *healWatch
}

// healWatch is armed when a heal publishes and resolved on the first
// supervisor tick after the margin window refills with post-heal readouts.
type healWatch struct {
	preMean float64 // mean margin immediately before the heal published
	prev    *ota.Deployment
	hid     trace.ID // the heal episode's trace, for rollback correlation
}

func newAirServer(cfg serverConfig) *airServer {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.queue <= 0 {
		cfg.queue = cfg.workers * 4
	}
	if cfg.healEvery <= 0 {
		cfg.healEvery = 250 * time.Millisecond
	}
	if cfg.sessionSrc == nil {
		cfg.sessionSrc = rng.New(1)
	}
	if cfg.canaryFrac <= 0 {
		cfg.canaryFrac = 0.8
	}
	if cfg.reference == nil {
		cfg.reference = cfg.deployment
	}
	if cfg.initialReason == "" {
		cfg.initialReason = "deploy"
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...interface{}) {}
	}
	if cfg.tracer == nil {
		cfg.tracer = trace.Default()
	}
	s := &airServer{cfg: cfg}
	s.fleetAgent = fleet.NewAgent(s.healthVector, s.applyFleetEpoch)
	s.cur.Store(&epoch{d: cfg.deployment, sessions: s.newSessions(cfg.deployment)})
	// The initial deploy's checkpoint-write correlates to the build trace,
	// which is still the most recently started trace at construction time.
	s.journalAppend(cfg.deployment, cfg.initialReason, cfg.tracer.LastActive())
	return s
}

// newSessions derives one session per worker over deployment d, threading
// the injector's dynamic fault hooks when faults are armed.
func (s *airServer) newSessions(d *ota.Deployment) []*ota.Session {
	out := make([]*ota.Session, s.cfg.workers)
	for w := range out {
		if s.cfg.injector != nil {
			out[w] = s.cfg.injector.SessionFor(d, s.cfg.sessionSrc.Split())
		} else {
			out[w] = d.NewSession(s.cfg.sessionSrc.Split())
		}
	}
	return out
}

// journalAppend durably records a published deployment when a journal is
// configured, stamping the checkpoint-write event with the episode's trace
// (the heal trace on heal/rollback publishes, the build trace on the
// initial deploy). Failures are logged, never fatal: serving beats
// durability.
func (s *airServer) journalAppend(d *ota.Deployment, reason string, tid trace.ID) {
	j := s.cfg.journal
	if j == nil {
		return
	}
	e := &checkpoint.Epoch{Reason: reason, Meta: s.cfg.meta, State: d.State()}
	if mon := s.cfg.monitor; mon != nil {
		e.Th = checkpoint.Thresholds{Threshold: mon.Threshold(), Window: mon.Window()}
	}
	seq, err := j.Append(e)
	if err != nil {
		s.cfg.logf("journal: append (%s): %v", reason, err)
		return
	}
	s.epochSeq.Store(seq)
	events.Default().EmitTraced(tid, events.CheckpointWrite, "epoch journaled",
		events.Num("epoch_seq", float64(seq)),
		events.Str("reason", reason))
	if err := j.Prune(journalKeep); err != nil {
		s.cfg.logf("journal: prune: %v", err)
	}
}

// publish swaps in a new serving generation and journals it. Callers hold
// healMu. In-flight requests keep their old epoch's sessions — the swap
// loses nothing.
func (s *airServer) publish(nd *ota.Deployment, reason string, tid trace.ID) {
	s.cur.Store(&epoch{d: nd, sessions: s.newSessions(nd)})
	s.journalAppend(nd, reason, tid)
	events.Default().EmitTraced(tid, events.Publish, "epoch published",
		events.Str("reason", reason),
		events.Num("epoch_seq", float64(s.epochSeq.Load())))
	if s.cfg.monitor != nil {
		s.cfg.monitor.Reset()
	}
	s.swaps.Add(1)
	swapCount.Inc()
}

// canaryPass validates a heal candidate before publication by comparing its
// predictions against the healthy reference's on the held-out canary probes
// (sessions seeded identically on both sides, so the check is
// deterministic). Margins cannot play this role — a scrambled schedule can
// be confidently wrong — but golden-output agreement catches exactly that.
// It returns the verdict and the observed agreement fraction (1 when no
// probes are configured) so the caller can journal the canary-verdict
// event with the number the decision turned on.
func (s *airServer) canaryPass(candidate *ota.Deployment) (bool, float64) {
	if len(s.cfg.canaryProbes) == 0 {
		return true, 1
	}
	agree := mobility.Agreement(
		candidate.SessionFromSeed(s.cfg.canarySeed),
		s.cfg.reference.SessionFromSeed(s.cfg.canarySeed),
		s.cfg.canaryProbes)
	if agree >= s.cfg.canaryFrac {
		s.cfg.logf("canary: candidate agrees with reference on %.0f%% of %d probes, publishing",
			100*agree, len(s.cfg.canaryProbes))
		return true, agree
	}
	s.cfg.logf("canary: candidate agrees with reference on only %.0f%% of %d probes (< %.0f%%), rejecting",
		100*agree, len(s.cfg.canaryProbes), 100*s.cfg.canaryFrac)
	return false, agree
}

// heal publishes a recovered epoch: the masked-atom re-solve when the
// injector still carries unhealed stuck damage, a recalibration republish
// otherwise. Re-solve candidates are canary-validated before publication and
// watched after it — see canaryPass and checkRollback.
func (s *airServer) heal() {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	s.heals.Add(1)
	healCount.Inc()
	// The heal episode gets its own trace: the preview's masked re-solve
	// and the canary run show up as spans, and the heal events it emits
	// tail-retain any request trace open across the swap. Events are
	// stamped with hid explicitly — LastActive would name whichever
	// concurrent request trace started last, not this episode.
	hid := trace.Derive(0x4ea1, s.healSeq.Add(1))
	hroot := s.cfg.tracer.Start("serve.heal", hid)
	defer hroot.Finish(0)
	prev := s.cur.Load().d
	var nd *ota.Deployment
	if in := s.cfg.injector; in != nil && !in.Healed() {
		candidate, err := in.PreviewHealSpan(hroot)
		if err != nil {
			s.cfg.logf("heal: masked re-solve failed: %v", err)
			return
		}
		events.Default().EmitTraced(hid, events.HealPreview, "heal candidate re-solved",
			events.Num("stuck_atoms", float64(len(in.StuckAtoms()))),
			events.Num("layer", float64(in.Layer())))
		csp := hroot.Child("serve.canary")
		pass, agree := s.canaryPass(candidate)
		csp.SetNum("agreement", agree)
		csp.End()
		verdict := "accept"
		if !pass {
			verdict = "reject"
		}
		events.Default().EmitTraced(hid, events.CanaryVerdict, "canary judged heal candidate",
			events.Str("verdict", verdict),
			events.Num("agreement", agree),
			events.Num("min_agreement", s.cfg.canaryFrac))
		if !pass {
			s.canaryRejects.Add(1)
			canaryRejectCount.Inc()
			if s.cfg.monitor != nil {
				s.cfg.monitor.Reset() // refill before the next verdict; don't hot-loop
			}
			return
		}
		in.CommitHeal(candidate)
		nd = candidate
		s.cfg.logf("heal: re-solved schedule around %d stuck atoms (residual %.4f)",
			len(in.StuckAtoms()), in.ResidualError())
	} else {
		// Nothing left to re-solve: republish a recalibration at the
		// current geometry so transient degradation gets a fresh epoch.
		cur := prev
		nd = cur.Recomputed(cur.Options().Geometry)
		s.cfg.logf("heal: republished recalibrated deployment")
	}
	// Arm the rollback watch with the pre-heal margin level so the
	// supervisor can tell whether the published heal actually helped.
	if s.cfg.monitor != nil && s.cfg.rollbackFrac > 0 {
		if preMean, ok := s.cfg.monitor.Mean(); ok {
			s.watch = &healWatch{preMean: preMean, prev: prev, hid: hid}
		}
	}
	s.publish(nd, "heal", hid)
}

// checkRollback resolves an armed heal watch: once the monitor window has
// refilled with post-heal readouts, a mean margin below rollbackFrac times
// the pre-heal level means the heal regressed the service — republish the
// previous journaled epoch (with fresh sessions; the old ones may still be
// running in-flight requests) and count the rollback.
func (s *airServer) checkRollback() {
	if s.cfg.monitor == nil || s.cfg.rollbackFrac <= 0 {
		return
	}
	s.healMu.Lock()
	defer s.healMu.Unlock()
	w := s.watch
	if w == nil {
		return
	}
	postMean, ok := s.cfg.monitor.Mean()
	if !ok {
		return // window still refilling after the publish
	}
	s.watch = nil
	if postMean >= s.cfg.rollbackFrac*w.preMean {
		s.cfg.logf("heal holding: margin %.4f vs %.4f pre-heal", postMean, w.preMean)
		return
	}
	s.rollbacks.Add(1)
	rollbackCount.Inc()
	s.cfg.logf("rollback: post-heal margin %.4f fell below %.0f%% of pre-heal %.4f, restoring previous epoch",
		postMean, 100*s.cfg.rollbackFrac, w.preMean)
	events.Default().EmitTraced(w.hid, events.Rollback, "regressed heal rolled back",
		events.Num("post_margin", postMean),
		events.Num("pre_margin", w.preMean),
		events.Num("min_frac", s.cfg.rollbackFrac))
	s.publish(w.prev, "rollback", w.hid)
}

// statsFrame answers a KindStats request with an obs.EncodeSnapshot blob
// of THIS server's serving counters and current epoch sequence — built
// from its own atomics rather than the process-wide registry, which
// in-process fleets share and which is inert while obs is disabled.
func (s *airServer) statsFrame(id uint32) *airproto.Frame {
	snap := obs.Snapshot{
		Counters: map[string]int64{
			"serve.served":         s.served.Load(),
			"serve.heals":          s.heals.Load(),
			"serve.swaps":          s.swaps.Load(),
			"serve.rollbacks":      s.rollbacks.Load(),
			"serve.canary_rejects": s.canaryRejects.Load(),
			"serve.shed":           s.shed.Load(),
			"serve.expired":        s.expired.Load(),
		},
		Gauges: map[string]float64{"serve.epoch_seq": float64(s.epochSeq.Load())},
	}
	return airproto.StatsReply(id, obs.EncodeSnapshot(snap))
}

// healthVector supplies the gauges a fleet heartbeat reply carries: the
// replicated-epoch (sequence, coordinator nonce) pair — the fleet's
// convergence variable — the local journal epoch, queue pressure, and the
// serving counters. Every read is an atomic load, so the read loop answers
// heartbeats without touching a lock.
func (s *airServer) healthVector() []uint64 {
	hv := make([]uint64, airproto.HBVectorLen)
	fleetSeq, fleetNonce := s.fleetAgent.FleetVersion()
	hv[airproto.HBFleetSeq] = fleetSeq
	hv[airproto.HBFleetNonce] = uint64(fleetNonce)
	hv[airproto.HBEpochSeq] = s.epochSeq.Load()
	hv[airproto.HBQueueDepth] = uint64(s.inflight.Load())
	hv[airproto.HBServed] = uint64(s.served.Load())
	hv[airproto.HBShed] = uint64(s.shed.Load())
	hv[airproto.HBNacked] = uint64(s.nacked.Load())
	hv[airproto.HBHeals] = uint64(s.heals.Load())
	return hv
}

// applyFleetEpoch installs one epoch replicated by the fleet coordinator:
// decode the sealed checkpoint, refuse a dataset mismatch, rebuild the
// deployment, and — on a canary push — measure prediction agreement against
// the CURRENT serving deployment on the held-out probes so the coordinator
// can gate the fleet-wide fan-out on a number this replica actually
// observed. The publish itself reuses the heal path's machinery (fresh
// sessions, journal append, publish event) under healMu, and the replicated
// epoch becomes the new canary reference: the fleet's truth supersedes
// whatever this replica was deployed with.
func (s *airServer) applyFleetEpoch(sealed []byte, mode uint8, tid uint32) (float64, error) {
	ep, err := checkpoint.DecodeEpoch(sealed)
	if err != nil {
		return 0, err
	}
	if ds := s.cfg.meta.Dataset; ds != "" && ep.Meta.Dataset != "" && ep.Meta.Dataset != ds {
		return 0, fmt.Errorf("replicated epoch holds dataset %q, serving %q", ep.Meta.Dataset, ds)
	}
	nd, err := restoreDeployment(ep)
	if err != nil {
		return 0, err
	}
	agreement := 1.0
	if mode == airproto.PushCanary && len(s.cfg.canaryProbes) > 0 {
		agreement = mobility.Agreement(
			nd.SessionFromSeed(s.cfg.canarySeed),
			s.cur.Load().d.SessionFromSeed(s.cfg.canarySeed),
			s.cfg.canaryProbes)
	}
	reason := fleet.ReasonReplicate
	if mode == airproto.PushRollback {
		reason = fleet.ReasonRollback
	}
	s.healMu.Lock()
	defer s.healMu.Unlock()
	// The replicated epoch supersedes any armed local rollback watch (the
	// pre-heal margin it captured described a deployment that no longer
	// serves) and becomes the reference future heal candidates are judged
	// against.
	s.watch = nil
	s.cfg.reference = nd
	s.publish(nd, reason, trace.Derive(0xf1ee7, uint64(tid)))
	s.cfg.logf("fleet: %s epoch %d installed (journal seq %d)", reason, tid, s.epochSeq.Load())
	return agreement, nil
}

// request is one validated inbound frame awaiting inference.
type request struct {
	frame *airproto.Frame
	from  *net.UDPAddr
	// expires is the wall-clock deadline derived from the frame's budget at
	// enqueue; zero means the client set no deadline. Checked again at
	// dequeue: a request that can no longer make its deadline is answered
	// with StatusExpired instead of burning inference time.
	expires time.Time
	// t times the request from enqueue to reply written (zero, and
	// therefore inert, while obs is disabled).
	t obs.Timer
	// span is the request's root trace span (nil while tracing is
	// disabled); the worker hangs the inference's stage spans under it and
	// finishes it when the reply is written.
	span *trace.Span
}

// startRequestTrace opens the root span for one inbound data frame. The
// trace ID derives from the client's request ID plus the server's arrival
// ordinal — stable identifiers, so a fixed-seed run traces identically —
// and the span carries the airproto request ID and the serving epoch. A
// frame that arrived with router trace context (rid != 0) instead joins
// the ROUTER'S trace: the replica's serve.request span parents under the
// router's fleet.hop span, so one fetch yields the whole cross-hop story.
// The arrival ordinal bumps either way — local trace IDs must not depend
// on whether the previous request came through a router.
func (s *airServer) startRequestTrace(f *airproto.Frame, rid, parent uint64) *trace.Span {
	seq := s.reqSeq.Add(1)
	var sp *trace.Span
	if rid != 0 {
		sp = s.cfg.tracer.StartRemote("serve.request", trace.ID(rid), trace.ID(parent))
	} else {
		sp = s.cfg.tracer.Start("serve.request", trace.Derive(0x5e12e, uint64(f.ID), seq))
	}
	sp.SetNum("request_id", float64(f.ID))
	sp.SetNum("epoch_seq", float64(s.epochSeq.Load()))
	return sp
}

// traceFrame answers a KindTrace request: the retained trace's Chrome
// JSON export, a StatusNoTrace NACK when tracing is off or the ID is not
// retained, or a StatusTooLarge NACK (counted in serve.trace_too_large)
// when the export does not fit one datagram.
func (s *airServer) traceFrame(f *airproto.Frame) *airproto.Frame {
	tr, flags := s.cfg.tracer.Get(trace.ID(f.TraceID()))
	if tr == nil {
		return airproto.Nack(f.ID, airproto.StatusNoTrace, 0)
	}
	// The request's Code carries export flags: the normalize bit asks for
	// deterministic timestamps, the form the stitch gate diffs byte-for-byte.
	reply := airproto.TraceReply(f.ID, trace.MarshalJSON(tr, flags, trace.ExportOptions{
		Normalize: f.Code&airproto.TraceFlagNormalize != 0,
	}))
	if reply.IsNack() {
		traceTooLargeCount.Inc()
	}
	return reply
}

// answerControl answers one control-plane frame inline on the read loop:
// stats are a handful of atomic loads, a trace fetch is a ring lookup plus
// an export render, a heartbeat reply is atomic loads, and a chunk ack is a
// copy. The one expensive case — the final chunk's apply — happens once
// per fleet publication, and the kernel buffers data frames for the few
// milliseconds it takes. Frames that need no answer (join replies, chunks
// corrupted in flight) get none.
func (s *airServer) answerControl(conn udpWriter, to *net.UDPAddr, f *airproto.Frame) {
	var reply *airproto.Frame
	switch f.Kind {
	case airproto.KindStats:
		reply = s.statsFrame(f.ID)
	case airproto.KindTrace:
		reply = s.traceFrame(f)
	default:
		reply, _ = s.fleetAgent.HandleFrame(f)
	}
	if reply == nil {
		return
	}
	out, err := reply.Marshal()
	if err == nil {
		_, err = conn.WriteToUDP(out, to)
	}
	if err != nil {
		s.cfg.logf("control reply to %s: %v", to, err)
	}
}

// serve answers frames on conn until the connection is closed (the caller
// owns shutdown: close conn to stop). It runs the worker fleet, the read
// loop, and — when a monitor is armed — the self-healing supervisor. conn
// is the netchaos.PacketConn surface: a bare *net.UDPConn in production,
// or a chaos-wrapped one under `-chaos-*` flags and in the chaosgate soak.
func (s *airServer) serve(conn netchaos.PacketConn) error {
	reqs := make(chan request, s.cfg.queue)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(conn, w, reqs)
		}()
	}

	stopHeal := make(chan struct{})
	var healWG sync.WaitGroup
	if ac := s.cfg.admit; ac != nil {
		// The brownout feedback loop: feed the live p99 into the AIMD
		// controller off the read loop. The admit decision itself stays on
		// the hot path (lock-free, allocation-free); only the policy update
		// ticks here.
		every := s.cfg.admitEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		healWG.Add(1)
		go func() {
			defer healWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stopHeal:
					return
				case <-t.C:
					ac.Observe(requestP99())
					admitFraction.Set(ac.Fraction() * 1e6)
				}
			}
		}()
	}
	if s.cfg.monitor != nil {
		healWG.Add(1)
		go func() {
			defer healWG.Done()
			t := time.NewTicker(s.cfg.healEvery)
			defer t.Stop()
			for {
				select {
				case <-stopHeal:
					return
				case <-t.C:
					// A pending rollback watch resolves first: a regressed
					// heal must be rolled back, not "healed" again on top.
					s.checkRollback()
					if s.cfg.monitor.Degraded() {
						mean, _ := s.cfg.monitor.Mean()
						s.cfg.logf("monitor: margin %.4f below threshold %.4f, healing",
							mean, s.cfg.monitor.Threshold())
						s.heal()
					}
				}
			}
		}()
	}

	// Read buffers are pooled per request: airproto.Unmarshal copies the
	// symbol payload out, so a buffer returns to the pool as soon as the
	// frame is parsed.
	bufs := sync.Pool{New: func() interface{} { return make([]byte, 65535) }}
	var readErr error
	for {
		buf := bufs.Get().([]byte)
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			bufs.Put(buf) //nolint:staticcheck // fixed-size buffer
			readErr = err
			break
		}
		frame, err := airproto.Unmarshal(buf[:n])
		bufs.Put(buf) //nolint:staticcheck // fixed-size buffer
		if err != nil {
			// The sender gets an explicit rejection instead of silence; the
			// frame did not parse, so no request ID is available to echo.
			s.cfg.logf("bad frame from %s: %v", from, err)
			s.nack(conn, from, airproto.Nack(0, airproto.StatusBadFrame, 0))
			continue
		}
		if frame.IsNack() {
			continue // never answer a status frame with a status frame
		}
		// A router-forwarded data frame carries its distributed-trace context
		// as its payload under KindDataTraced; the strip restores KindData,
		// so it must happen before the control dispatch or the frame would
		// be swallowed there.
		rid, parentSpan, _ := airproto.StripTraceContext(frame)
		if frame.Kind != airproto.KindData {
			s.answerControl(conn, from, frame)
			continue
		}
		// Adaptive admission: everything above this point — fleet control,
		// stats, trace fetches — is never shed; only data frames brown out,
		// and they get an explicit RetryAfter hint so clients desynchronize
		// their retries instead of hammering a server already over SLO. The
		// check runs before the trace span opens: under overload the shed
		// path should cost as little as possible.
		if ac := s.cfg.admit; ac != nil && !ac.Admit() {
			s.shed.Add(1)
			s.brownout.Add(1)
			shedCount.Inc()
			brownoutShedCount.Inc()
			s.nack(conn, from, airproto.RetryAfterNack(frame.ID, ac.RetryAfter()))
			continue
		}
		sp := s.startRequestTrace(frame, rid, parentSpan)
		u := s.cur.Load().d.InputLen()
		if len(frame.Data) != u {
			s.cfg.logf("frame %d from %s: %d symbols, deployed for U=%d", frame.ID, from, len(frame.Data), u)
			s.nack(conn, from, airproto.Nack(frame.ID, airproto.StatusWrongLen, int32(u)))
			sp.SetStr("outcome", "nack_wrong_len")
			sp.Finish(trace.FlagNack)
			continue
		}
		var expires time.Time
		if d := frame.Deadline(); d > 0 {
			expires = time.Now().Add(d)
		}
		select {
		case reqs <- request{frame: frame, from: from, expires: expires, t: obs.StartTimer(), span: sp}:
			queueDepth.Add(1)
			s.inflight.Add(1)
		default:
			// Queue full: shed load explicitly. The client distinguishes
			// this retryable NACK from a malformed-request rejection.
			s.shed.Add(1)
			shedCount.Inc()
			s.nack(conn, from, airproto.Nack(frame.ID, airproto.StatusDegraded, 0))
			sp.SetStr("outcome", "shed")
			sp.Finish(trace.FlagShed)
		}
	}

	close(reqs) // drain: let in-flight requests finish
	wg.Wait()
	close(stopHeal)
	healWG.Wait()
	return readErr
}

// udpWriter is the reply surface workers write to — *net.UDPConn in
// production, an in-memory stub in the zero-alloc steady-state test.
type udpWriter interface {
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
}

// workerScratch bundles one worker's reusable buffers: the drained batch,
// the validated run and its input views, the per-request accumulators, the
// magnitude scratch the monitor consumes, and the reply frame plus marshal
// buffer. Everything is reused across wakeups, so a steady-state worker
// loop allocates nothing.
type workerScratch struct {
	batch []request
	run   []request
	xs    [][]complex128
	accs  []cplx.Vec
	mags  []float64
	out   []byte
	resp  airproto.Frame
}

// scratchPool recycles worker scratch across worker lifetimes — workers are
// long-lived, but tests and fleet restarts construct servers repeatedly.
var scratchPool = sync.Pool{New: func() interface{} { return new(workerScratch) }}

// worker consumes requests on its own per-epoch session, draining up to
// cfg.batch pending requests per wakeup from the bounded queue — the
// natural batching point: under light load every batch has size 1 (latency
// unchanged), and under pressure the queue's depth becomes batched sweeps.
// The epoch pointer is resolved per batch, so a heal takes effect on the
// next dequeue; sessions are indexed by worker, so no session is ever
// shared.
func (s *airServer) worker(conn udpWriter, w int, reqs <-chan request) {
	sc := scratchPool.Get().(*workerScratch)
	defer scratchPool.Put(sc)
	for r := range reqs {
		queueDepth.Add(-1)
		s.inflight.Add(-1)
		sc.batch = append(sc.batch[:0], r)
	drain:
		for len(sc.batch) < s.cfg.batch {
			select {
			case r2, ok := <-reqs:
				if !ok {
					break drain
				}
				queueDepth.Add(-1)
				s.inflight.Add(-1)
				sc.batch = append(sc.batch, r2)
			default:
				break drain
			}
		}
		s.processBatch(conn, w, sc)
	}
}

// processBatch runs one drained batch through worker w's session and writes
// the replies. Requests are accumulated strictly in dequeue order on the
// session's single random stream, so a batch of n produces bit-identical
// accumulators to n sequential single-request wakeups.
func (s *airServer) processBatch(conn udpWriter, w int, sc *workerScratch) {
	if s.cfg.preInfer != nil {
		for range sc.batch {
			s.cfg.preInfer()
		}
	}
	ep := s.cur.Load()
	u := ep.d.InputLen()
	// Re-validate the symbol count against the epoch resolved NOW: the read
	// loop validated against the epoch at enqueue time, and a hot swap that
	// changes U between enqueue and dequeue would otherwise panic the
	// session (killing the worker and silently dropping everything queued
	// behind the request). A swapped-out length gets the same explicit
	// StatusWrongLen the read loop sends.
	sc.run = sc.run[:0]
	sc.xs = sc.xs[:0]
	for _, r := range sc.batch {
		// Deadline check at dequeue, batch drain included: a request whose
		// budget ran out while it sat in the queue (or crossed the wire) is
		// answered with StatusExpired before any inference is spent on it —
		// the goal-oriented drop. Requests without a deadline skip the clock
		// read entirely, keeping the steady-state loop allocation-free.
		if !r.expires.IsZero() {
			if now := time.Now(); now.After(r.expires) {
				s.expired.Add(1)
				expiredCount.Inc()
				s.nack(conn, r.from, airproto.ExpiredNack(r.frame.ID, now.Sub(r.expires)))
				r.span.SetStr("outcome", "expired")
				r.span.Finish(trace.FlagShed)
				continue
			}
		}
		if len(r.frame.Data) != u {
			s.cfg.logf("frame %d: %d symbols, deployed for U=%d after epoch swap", r.frame.ID, len(r.frame.Data), u)
			s.nack(conn, r.from, airproto.Nack(r.frame.ID, airproto.StatusWrongLen, int32(u)))
			r.span.SetStr("outcome", "nack_wrong_len")
			r.span.Finish(trace.FlagNack)
			continue
		}
		sc.run = append(sc.run, r)
		sc.xs = append(sc.xs, r.frame.Data)
	}
	bsz := len(sc.run)
	if bsz == 0 {
		return
	}
	classes := ep.d.Classes()
	if cap(sc.accs) < bsz {
		grown := make([]cplx.Vec, bsz)
		copy(grown, sc.accs[:cap(sc.accs)])
		sc.accs = grown
	}
	sc.accs = sc.accs[:bsz]
	for b := range sc.accs {
		if len(sc.accs[b]) != classes {
			sc.accs[b] = make(cplx.Vec, classes)
		}
	}
	sess := ep.sessions[w]
	if bsz == 1 {
		// Single request: the classic path, span-parented per request —
		// bit-identical to pre-batching serving in spans as well as bits.
		r := sc.run[0]
		r.span.SetNum("worker", float64(w))
		r.span.SetNum("batch", 1)
		sess.SetSpan(r.span)
		sess.AccumulateInto(r.frame.Data, sc.accs[0])
		sess.SetSpan(nil)
	} else {
		sess.AccumulateBatch(sc.xs, sc.accs)
	}
	mon := s.cfg.monitor
	for b, r := range sc.run {
		acc := sc.accs[b]
		if mon != nil {
			sc.mags = cplx.AbsInto(sc.mags, acc)
			mon.Observe(sc.mags)
		}
		if bsz > 1 {
			r.span.SetNum("worker", float64(w))
			r.span.SetNum("batch", float64(bsz))
		}
		sc.resp = airproto.Frame{ID: r.frame.ID, Label: r.frame.Label, Data: acc}
		out, err := sc.resp.MarshalAppend(sc.out[:0])
		if err != nil {
			s.cfg.logf("frame %d: %v", r.frame.ID, err)
			r.span.SetStr("outcome", "marshal_error")
			r.span.Finish(trace.FlagError)
			continue
		}
		sc.out = out
		// UDPConn writes are goroutine-safe; replies interleave freely.
		if _, err := conn.WriteToUDP(out, r.from); err != nil {
			s.cfg.logf("reply to %s: %v", r.from, err)
			r.span.Finish(trace.FlagError)
			continue
		}
		servedCount.Inc()
		r.t.ObserveInto(reqSeconds)
		r.span.Finish(0)
		s.served.Add(1)
	}
}

func (s *airServer) nack(conn udpWriter, to *net.UDPAddr, f *airproto.Frame) {
	// Shed (queue-full, brownout) and expired verdicts have their own
	// counters; nacked counts protocol rejections the client should fix.
	switch f.Code {
	case airproto.StatusDegraded, airproto.StatusRetryAfter, airproto.StatusExpired:
	default:
		s.nacked.Add(1)
		nackedCount.Inc()
	}
	out, err := f.Marshal()
	if err != nil {
		return
	}
	if _, err := conn.WriteToUDP(out, to); err != nil {
		s.cfg.logf("nack to %s: %v", to, err)
	}
}
