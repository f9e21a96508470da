// Command e2ebench is the repository's end-to-end benchmark. It starts the
// real metaai-serve replicas (and a metaai-fleet router) as child
// processes on loopback, drives them with open-loop Poisson traffic of
// encoded test samples over airproto/UDP, checks every reply, and prints
// one JSON result line. See README.md for the metrics and workloads.
//
//	bash e2ebench/run.sh --workload direct --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
)

// workload is one traffic mix against one topology.
type workload struct {
	replicas int
	router   bool // clients talk to a metaai-fleet router
	// publish appends one fresh epoch to the router's publish journal
	// a quarter of the way into each phase's load, so that the router's
	// 2 s journal poll picks it up while the load still runs: a deploy
	// landing under traffic.
	publish bool
	// low is the fixed offered rate (req/s) of the open-loop phases. The
	// saturation phases offer as much as the front door takes.
	low float64
}

var workloads = map[string]workload{
	// One replica, no router: the ota physics dominates.
	"direct": {replicas: 1, low: 1000},
	// A router in front of two replicas: adds the router hop.
	"fleet": {replicas: 2, router: true, low: 300},
	// The fleet while a fresh epoch replicates through the router.
	"publish": {replicas: 2, router: true, publish: true, low: 300},
}

const (
	// replyTimeout is how long a request may go unanswered before it
	// counts as lost.
	replyTimeout = time.Second
	// pickupTimeout bounds the wait for the router's journal poll (every
	// 2 s by default) to pick up an appended epoch.
	pickupTimeout = 5 * time.Second
	// publishTimeout bounds one publication's convergence.
	publishTimeout = 5 * time.Second
	// maxLateShare flags a phase invalid when the generator's median
	// lateness exceeds this share of the median latency it measured.
	maxLateShare = 0.2
	// maxSatRate sizes a saturation phase's request log: no front door
	// answers faster than this many requests per second.
	maxSatRate = 60000
	// accuracyZ is the sampling bound, in standard errors, within which
	// served accuracy must match the in-process pipeline's.
	accuracyZ = 4
)

type bench struct {
	name     string
	wl       workload
	seed     uint64
	secs     float64
	serveBin string
	fleetBin string
	tmp      string

	pipe    *core.Pipeline
	frames  [][]byte // marshaled request per test sample (ID patched per send)
	labels  []int
	classes int
	spans   spanLog
	t0      time.Time
	epoch   *checkpoint.Epoch // the served epoch, from a replica's cold-start journal entry

	invalid []string // reasons the run's figures cannot be trusted
}

func main() {
	var (
		name    = flag.String("workload", "direct", "workload: direct, fleet or publish")
		seed    = flag.Uint64("seed", 1, "seed for the arrival schedule and sample order")
		seconds = flag.Float64("seconds", 30, "seconds of traffic per run")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding metaai-serve and metaai-fleet")
		work    = flag.String("work", ".bench_build", "directory for temporary state and trace output")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs float64, traced bool, bin, work string) (err error) {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if secs <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if stale := staleServers(); len(stale) > 0 {
		return fmt.Errorf("refusing to start: stale servers running: %s", strings.Join(stale, ", "))
	}
	b := &bench{name: name, wl: wl, seed: seed, secs: secs, t0: time.Now(),
		serveBin: filepath.Join(bin, "metaai-serve"), fleetBin: filepath.Join(bin, "metaai-fleet")}
	for _, p := range []string{b.serveBin, b.fleetBin} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if b.tmp, err = os.MkdirTemp(work, "run-"); err != nil {
		return err
	}
	// Children and the temporary directory go away on every exit path,
	// including an interrupt.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		stopAll()
		os.RemoveAll(b.tmp)
		fmt.Fprintln(os.Stderr, "e2ebench: interrupted by", s)
		os.Exit(2)
	}()
	defer func() {
		stopAll()
		if rmErr := os.RemoveAll(b.tmp); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	newS, trainS, deployS, err := b.buildPipeline()
	if err != nil {
		return err
	}
	airAcc := b.pipe.AirAccuracy()

	var res result
	if traced {
		res, err = b.tracedRun()
		if err == nil {
			res.metrics.set("core.new_s", newS, "s")
			res.metrics.set("core.train_s", trainS, "s")
			res.metrics.set("core.deploy_s", deployS, "s")
			tracePath := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
			if werr := b.spans.write(tracePath, b.t0); werr != nil {
				return werr
			}
			res.meta["trace_file"] = tracePath
		}
	} else {
		res, err = b.untracedRun()
	}
	if err != nil {
		return err
	}

	// Served accuracy must agree with the in-process pipeline's within
	// sampling error: the test set's own (n_test) plus the replies' (n).
	n := float64(res.accOK)
	acc := float64(res.accCorrect) / math.Max(n, 1)
	bound := accuracyZ * math.Sqrt(airAcc*(1-airAcc)*(1/float64(len(b.labels))+1/math.Max(n, 1)))
	res.meta["accuracy_check"] = map[string]any{"served": acc, "in_process": airAcc, "bound": bound, "replies": res.accOK}
	if !traced {
		res.metrics.set("accuracy", acc, "ratio")
	}
	correct := true
	var why []string
	if math.Abs(acc-airAcc) > bound {
		why = append(why, fmt.Sprintf("served accuracy %.4f is outside %.4f±%.4f", acc, airAcc, bound))
	}
	why = append(why, b.invalid...)
	if len(why) > 0 {
		correct = false
		res.meta["invalid"] = why
	}
	b.meta(res.meta, traced)
	if err := printResult(os.Stdout, correct, res); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("run failed its checks: %s", strings.Join(why, "; "))
	}
	return nil
}

// buildPipeline rebuilds the served deployment in-process exactly as a
// replica's cold start does (mnist, seed 1) and encodes the test set into
// request frames. It returns the build time split by the pipeline's own
// train and deploy histograms.
func (b *bench) buildPipeline() (newS, trainS, deployS float64, err error) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	t := time.Now()
	b.pipe, err = core.New(core.DefaultConfig("mnist"))
	if err != nil {
		return 0, 0, 0, err
	}
	newS = time.Since(t).Seconds()
	b.spans.add("core.New", 0, 0, t, time.Now())
	h := obs.Default().Snapshot().Histograms
	trainS, deployS = h["pipeline.train.seconds"].Sum, h["pipeline.deploy.seconds"].Sum

	b.classes = b.pipe.Test.Classes
	for i, x := range b.pipe.Test.X {
		label := b.pipe.Test.Labels[i]
		f, err := (&airproto.Frame{Label: int32(label), Data: x}).Marshal()
		if err != nil {
			return 0, 0, 0, err
		}
		b.frames = append(b.frames, f)
		b.labels = append(b.labels, label)
	}
	return newS, trainS, deployS, nil
}

// phase is what one fresh cluster did under one load.
type phase struct {
	name      string
	rate      float64       // offered req/s; 0 for a saturation phase
	busy      time.Duration // saturation: phase start → last reply
	setup     time.Duration
	t         tally
	cpu       time.Duration // all children, over the load
	routerCPU time.Duration
	rss       int64
	conv      []float64    // publication convergence times, ms
	pickup    []float64    // journal append → the router's poll reading it, ms
	replicas  obs.Snapshot // traced: merged replica metrics over the load
	router    obs.Snapshot // traced: router metrics over the load
	stray     int64
}

// rps is a saturation phase's throughput: correct replies per second from
// its first send to its last reply.
func (p *phase) rps() float64 {
	return float64(p.t.ok) / math.Max(p.busy.Seconds(), 1e-9)
}

// src derives an independent random stream per phase from the run seed.
func (b *bench) src(phase string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%s", b.seed, b.name, phase)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:]))))
}

// runPhase starts a fresh cluster and offers it rate requests per second
// for secs seconds or, with rate 0, saturates it for secs seconds. The
// publish workload publishes one epoch a quarter of the way into the load.
func (b *bench) runPhase(name string, rate, secs float64, traced bool) (*phase, error) {
	c, err := b.startCluster(name, traced)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	p := &phase{name: name, rate: rate, setup: c.setup}
	if traced && b.epoch == nil {
		if b.epoch, err = c.servedEpoch(); err != nil {
			return nil, err
		}
	}

	var before map[*child]obs.Snapshot
	if traced {
		if before, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	var pub *publisher
	if b.wl.publish {
		if pub, err = c.publisher(); err != nil {
			return nil, err
		}
		defer pub.close()
	}

	// Spinners run through the load and the publication within it, both
	// of which are chains of wake-ups across processes.
	defer spinIdle()()
	// A saturation phase takes its sample order from a schedule it ignores.
	draw := rate
	if rate == 0 {
		draw = maxSatRate
	}
	l := newLoad(b.src(name), draw, int(draw*secs), len(b.frames))
	cpu0, err := cpuOf(c.all())
	if err != nil {
		return nil, err
	}
	router0, err := cpuOf(c.routers())
	if err != nil {
		return nil, err
	}
	pubDone := make(chan error, 1)
	if pub != nil {
		go func() { pubDone <- publishAt(pub, p, time.Duration(secs/4*float64(time.Second))) }()
	} else {
		close(pubDone)
	}
	var base time.Time
	if rate > 0 {
		base, err = l.drive(c.front, b.frames, b.classes, replyTimeout)
	} else {
		base, p.busy, err = l.saturate(c.front, b.frames, b.classes, time.Duration(secs*float64(time.Second)), replyTimeout)
	}
	if pubErr := <-pubDone; err == nil {
		err = pubErr
	}
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuOf(c.all())
	if err != nil {
		return nil, err
	}
	router1, err := cpuOf(c.routers())
	if err != nil {
		return nil, err
	}
	p.cpu, p.routerCPU = cpu1-cpu0, router1-router0
	p.stray = l.stray
	p.t = tallyRecords(l.records(b.labels), int64(replyTimeout))
	if late, lat := median(p.t.late), median(p.t.lat)*1e3; late > maxLateShare*lat {
		b.invalid = append(b.invalid, fmt.Sprintf("%s: generator ran %.0f µs late at p50 against a %.0f µs p50 latency", name, late, lat))
	}
	if p.t.malformed > 0 || p.stray > 0 {
		b.invalid = append(b.invalid, fmt.Sprintf("%s: %d malformed and %d unmatched replies", name, p.t.malformed, p.stray))
	}
	if p.rss, err = c.peakRSS(); err != nil {
		return nil, err
	}
	if traced {
		after, err := c.scrape()
		if err != nil {
			return nil, err
		}
		var reps []obs.Snapshot
		for _, r := range c.replicas {
			reps = append(reps, delta(before[r], after[r]))
		}
		p.replicas = obs.MergeSnapshots(reps...)
		if c.router != nil {
			p.router = delta(before[c.router], after[c.router])
		}
		// Frame IDs are 32-bit; the span count so far keeps request IDs
		// unique across phases.
		b.spans.addRequests(name, l, base, replyTimeout, uint64(len(b.spans.spans))<<32)
	}
	return p, nil
}

// publishAt publishes the served epoch once, after the given delay into
// the load, recording when the router picked it up and how long the fleet
// then took to converge.
func publishAt(pub *publisher, p *phase, after time.Duration) error {
	time.Sleep(after)
	pickup, conv, err := pub.publish()
	if err != nil {
		return fmt.Errorf("%s: publish under load: %w", p.name, err)
	}
	p.pickup, p.conv = append(p.pickup, ms(pickup)), append(p.conv, ms(conv))
	return nil
}
