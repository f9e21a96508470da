package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is one run's outcome before printing.
type result struct {
	metrics           metrics
	meta              map[string]any
	attempted, failed int
	// accOK and accCorrect count successful replies and those whose
	// argmax matched the test label, for the accuracy check.
	accOK, accCorrect int
}

func newResult() result { return result{metrics: metrics{}, meta: map[string]any{}} }

// account adds a phase's requests to the result and its figures to the
// meta line.
func (r *result) account(p *phase) {
	r.attempted += p.t.sent + len(p.conv)
	r.failed += p.t.failed()
	r.accOK += p.t.ok
	r.accCorrect += p.t.correct
	r.meta["phase."+p.name] = phaseMeta(p)
}

func phaseMeta(p *phase) map[string]any {
	all := p.t.latAll(int64(replyTimeout))
	sort.Float64s(all)
	p50, _ := percentile(all, 0.5)
	late50, _ := percentile(p.t.late, 0.5)
	late99, _ := percentile(p.t.late, 0.99)
	m := map[string]any{
		"rate": p.rate, "sent": p.t.sent, "ok": p.t.ok, "nack": p.t.nack, "timeout": p.t.timeout,
		"malformed": p.t.malformed, "unmatched": p.stray, "lat_p50_ms": p50,
		"gen_late_p50_us": late50, "gen_late_p99_us": late99, "setup_s": p.setup.Seconds(),
		"cpu_s": p.cpu.Seconds(), "rss_mb": float64(p.rss) / (1 << 20),
	}
	if p99, ok := percentile(all, 0.99); ok {
		m["lat_p99_ms"] = p99
	}
	if p.rate == 0 {
		m["busy_s"], m["rps"] = p.busy.Seconds(), p.rps()
	}
	if len(p.conv) > 0 {
		m["publish_converge_ms"], m["publish_pickup_ms"] = p.conv, p.pickup
	}
	return m
}

// satPhases is how many saturation phases an end-to-end run takes. A
// saturation figure is the median over them: each runs on fresh processes
// whose threads the scheduler places anew, and on one replica that
// placement alone can move throughput by a third (see README.md).
const satPhases = 6

// untracedRun measures the end-to-end metrics with every sidecar off: two
// open-loop phases at the low rate and satPhases saturation phases, each
// on a fresh cluster, in the order low, sat, sat, sat, low, sat, sat, sat.
func (b *bench) untracedRun() (result, error) {
	res := newResult()
	var ps, lows, sats []*phase
	secs := b.secs / float64(satPhases+2)
	for i := 0; i < satPhases+2; i++ {
		name, rate := fmt.Sprintf("sat%d", len(sats)+1), 0.0
		if i%(satPhases/2+1) == 0 {
			name, rate = fmt.Sprintf("low%d", len(lows)+1), b.wl.low
		}
		p, err := b.runPhase(name, rate, secs, false)
		if err != nil {
			return res, err
		}
		res.account(p)
		ps = append(ps, p)
		if rate > 0 {
			lows = append(lows, p)
		} else {
			sats = append(sats, p)
		}
	}

	m := res.metrics
	var setups, rss, conv, rps, satP50, cpu []float64
	for _, p := range ps {
		setups, rss = append(setups, p.setup.Seconds()), append(rss, float64(p.rss)/(1<<20))
		conv = append(conv, p.conv...)
	}
	for _, p := range sats {
		p50, _ := percentile(p.t.latAll(int64(replyTimeout)), 0.5)
		rps, satP50 = append(rps, p.rps()), append(satP50, p50)
		cpu = append(cpu, us(p.cpu)/float64(max(p.t.ok, 1)))
	}
	m.set("setup_s", median(setups), "s")
	m.set("sat_rps", median(rps), "1/s")
	m.set("lat_p50_ms.sat", median(satP50), "ms")
	m.set("server_cpu_us_per_req", median(cpu), "us")
	m.set("rss_mb", median(rss), "MiB")

	// Pooled over each kind of phase: the failures, the open-loop p50,
	// and the p99s, which are reported but not gated — on a shared host
	// they track the host's stalls more than the code (see README.md). A
	// run too short to support a p99 omits it.
	tails := map[string]float64{}
	samples := map[string]int{"setup_s": len(setups), "sat_phases": len(sats), "publish_converge_ms": len(conv)}
	for _, r := range []struct {
		tag string
		ps  []*phase
	}{{"low", lows}, {"sat", sats}} {
		var ts []tally
		failed := 0
		for _, p := range r.ps {
			ts = append(ts, p.t)
			failed += p.t.failed()
		}
		all := pooledLatency(int64(replyTimeout), ts...)
		m.set("ok_frac."+r.tag, 1-float64(failed)/float64(max(len(all), 1)), "ratio")
		if p99, ok := percentile(all, 0.99); ok {
			tails["lat_p99_ms."+r.tag] = p99
		}
		if r.tag == "low" {
			p50, _ := percentile(all, 0.5)
			m.set("lat_p50_ms.low", p50, "ms")
		}
		samples["lat."+r.tag] = len(all)
	}
	res.meta["tail"] = tails
	res.meta["publish_converge_ms"] = median(conv)
	samples["accuracy"] = res.accOK
	res.meta["samples"] = samples
	res.meta["spread"] = map[string]float64{
		"setup_s": spread(setups), "rss_mb": spread(rss), "publish_converge_ms": spread(conv),
		"sat_rps": spread(rps), "lat_p50_ms.sat": spread(satP50), "server_cpu_us_per_req": spread(cpu),
	}
	return res, nil
}

// tracedRun measures the per-layer metrics: an untraced low-rate phase as
// the overhead baseline, the same load with every child's sidecar on, a
// traced saturation phase, and the in-process layer timings with no load.
func (b *bench) tracedRun() (result, error) {
	res := newResult()
	base, err := b.runPhase("untraced-low", b.wl.low, b.secs/4, false)
	if err != nil {
		return res, err
	}
	low, err := b.runPhase("traced-low", b.wl.low, b.secs/4, true)
	if err != nil {
		return res, err
	}
	sat, err := b.runPhase("traced-sat", 0, b.secs/4, true)
	if err != nil {
		return res, err
	}
	for _, p := range []*phase{base, low, sat} {
		res.account(p)
	}
	m := res.metrics
	if err := b.layerTimings(b.epoch, m); err != nil {
		return res, err
	}

	basep50, _ := percentile(pooledLatency(int64(replyTimeout), base.t), 0.5)
	clientP50, _ := percentile(pooledLatency(int64(replyTimeout), low.t), 0.5)
	m.set("trace_overhead", clientP50-basep50, "ms")
	late50, _ := percentile(low.t.late, 0.5)
	late99, _ := percentile(low.t.late, 0.99)
	m.set("gen.late_p50_us", late50, "us")
	m.set("gen.late_p99_us", late99, "us")
	m.set("fail_frac.low", low.t.failFrac(), "ratio")
	m.set("fail_frac.sat", sat.t.failFrac(), "ratio")

	// Where a low-rate request's time went: inside the replica (queue wait
	// plus inference plus reply), across the router hop, and the rest —
	// the wire and the client.
	req := low.replicas.Histograms["serve.request.seconds"]
	inf := low.replicas.Histograms["ota.infer.seconds"]
	reqP50 := req.Quantile(0.5) * 1e6
	m.set("serve.request_p50_us", reqP50, "us")
	m.set("serve.request_p99_us", req.Quantile(0.99)*1e6, "us")
	m.set("ota.infer_p50_us", inf.Quantile(0.5)*1e6, "us")
	m.set("serve.queue_wait_us", (meanOf(req)-meanOf(inf))*1e6, "us")
	hc := sat.replicas.Counters
	m.set("serve.shed_frac", ratio(hc["serve.shed"], hc["serve.served"]+hc["serve.shed"]), "ratio")

	fwd := low.router.Histograms["fleet.forward.seconds"]
	fwdP50 := fwd.Quantile(0.5) * 1e6
	inner := reqP50
	if b.wl.router {
		inner = fwdP50
		m.set("fleet.hop_us", fwdP50-reqP50, "us")
	} else {
		m.set("fleet.hop_us", 0, "us")
	}
	m.set("client.wire_us", clientP50*1e3-inner, "us")
	m.set("fleet.forward_p50_us", fwdP50, "us")
	m.set("fleet.forward_p99_us", fwd.Quantile(0.99)*1e6, "us")
	rc := sat.router.Counters
	m.set("fleet.shed_frac", ratio(rc["fleet.shed"], rc["fleet.forwards"]+rc["fleet.shed"]), "ratio")
	m.set("fleet.failover_frac", ratio(rc["fleet.failovers"], rc["fleet.forwards"]), "ratio")
	m.set("fleet.hedge_frac", ratio(rc["fleet.hedged_wins"], rc["fleet.forwards"]), "ratio")
	routerCPU := 0.0
	if b.wl.router {
		routerCPU = us(sat.routerCPU) / float64(max(sat.t.ok, 1))
	}
	m.set("fleet.router_cpu_us_per_req", routerCPU, "us")
	lc := low.router.Counters
	m.set("fleet.publish_chunks", ratio(lc["fleet.publish.chunks"]+rc["fleet.publish.chunks"],
		lc["fleet.publishes"]+rc["fleet.publishes"]), "count")
	m.set("fleet.publish_converge_ms", median(append(append([]float64(nil), low.conv...), sat.conv...)), "ms")

	res.meta["samples"] = map[string]int{
		"lat.traced_low": low.t.sent, "lat.untraced_low": base.t.sent,
		"serve.request": int(req.Count), "fleet.forward": int(fwd.Count),
		"publishes": int(lc["fleet.publishes"] + rc["fleet.publishes"]),
	}
	return res, nil
}

func meanOf(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// meta records the machine, the build and the settings beside the figures,
// so two results can be compared.
func (b *bench) meta(m map[string]any, traced bool) {
	m["workload"], m["seed"], m["seconds"], m["traced"] = b.name, b.seed, b.secs, traced
	m["nproc"], m["gomaxprocs"] = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	m["go_version"], m["cpu_model"] = runtime.Version(), cpuModel()
	m["commit"], m["source_sha256"] = gitCommit(), sourceDigest(".")
	m["rates"] = map[string]any{
		"low": b.wl.low, "window": window, "publish_per_phase": b.wl.publish,
		"reply_timeout_ms": replyTimeout.Milliseconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "" when the working directory is
// not the root of a git work tree.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, so runs
// from checkouts without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printResult writes the metadata line, then the result line (always
// last), and a readable summary on stderr.
func printResult(w io.Writer, correct bool, res result) error {
	metaLine, err := json.Marshal(map[string]any{"meta": res.meta})
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, res.metrics})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", metaLine, line)
	return err
}
