package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// replicaArgs is the ROADMAP baseline replica shape.
var replicaArgs = []string{"-dataset", "mnist", "-seed", "1", "-workers", "2", "-batch", "8", "-addr", "127.0.0.1:0"}

// cluster is one fresh set of children serving a phase: replicas, and a
// router in front of them when the workload has one.
type cluster struct {
	dir      string
	replicas []*child
	repAddrs []*net.UDPAddr
	router   *child
	front    *net.UDPAddr // where clients send: the router, else the replica
	pubDir   string       // the journal the router replicates from
	sidecars map[*child]string
	setup    time.Duration // exec of the first child → first correct reply at front
}

// startCluster launches the phase's children and waits for the first
// correct reply through the front door. With traced set, every child runs
// its metrics sidecar.
func (b *bench) startCluster(phase string, traced bool) (*cluster, error) {
	c := &cluster{dir: filepath.Join(b.tmp, phase), sidecars: map[*child]string{}}
	c.pubDir = filepath.Join(c.dir, "publish")
	if err := os.MkdirAll(c.pubDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < b.wl.replicas; i++ {
		name := fmt.Sprintf("replica%d", i)
		args := append(append([]string(nil), replicaArgs...), "-state-dir", filepath.Join(c.dir, name))
		ch, err := c.spawn(b.serveBin, name, traced, args)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, ch)
	}
	for _, r := range c.replicas {
		a, err := r.waitAddr(60 * time.Second)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.repAddrs = append(c.repAddrs, a)
	}
	c.front = c.repAddrs[0]
	if b.wl.router {
		a, err := c.startRouter(b.fleetBin, traced)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.front = a
	}
	if err := firstReply(c.front, b.frames[0], b.classes, 60*time.Second); err != nil {
		c.stop()
		return nil, fmt.Errorf("%s: %w", phase, err)
	}
	c.setup = time.Since(t0)
	return c, nil
}

func (c *cluster) spawn(bin, name string, traced bool, args []string) (*child, error) {
	var side string
	if traced {
		var err error
		if side, err = freeTCPPort(); err != nil {
			return nil, err
		}
		args = append(args, "-metrics-addr", side)
	}
	ch, err := startChild(c.dir, name, bin, args...)
	if err != nil {
		return nil, err
	}
	if side != "" {
		c.sidecars[ch] = "http://" + side
	}
	return ch, nil
}

// startRouter puts a metaai-fleet router in front of the replicas, watching
// the cluster's publish journal at its default poll period, and returns its
// client-facing address.
func (c *cluster) startRouter(bin string, traced bool) (*net.UDPAddr, error) {
	reps := make([]string, len(c.repAddrs))
	for i, a := range c.repAddrs {
		reps[i] = a.String()
	}
	ch, err := c.spawn(bin, "router", traced, []string{"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(reps, ","), "-publish", c.pubDir})
	if err != nil {
		return nil, err
	}
	c.router = ch
	return ch.waitAddr(30 * time.Second)
}

func (c *cluster) all() []*child {
	all := append([]*child(nil), c.replicas...)
	if c.router != nil {
		all = append(all, c.router)
	}
	return all
}

// routers returns the router, if the cluster has one, as a list.
func (c *cluster) routers() []*child {
	if c.router == nil {
		return nil
	}
	return []*child{c.router}
}

func (c *cluster) stop() { stopChildren(c.all()) }

// cpuOf sums the CPU time of the given children.
func cpuOf(chs []*child) (time.Duration, error) {
	var sum time.Duration
	for _, ch := range chs {
		d, err := ch.cpu()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSS sums the children's peak resident sets.
func (c *cluster) peakRSS() (int64, error) {
	var sum int64
	for _, ch := range c.all() {
		n, err := ch.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// firstReply sends frame to addr until a correct reply comes back: a
// KindData frame naming the request, with one accumulator per class.
func firstReply(addr *net.UDPAddr, frame []byte, classes int, timeout time.Duration) error {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 65536)
	req := append([]byte(nil), frame...)
	deadline := time.Now().Add(timeout)
	for id := uint32(1); time.Now().Before(deadline); id++ {
		binary.LittleEndian.PutUint32(req[2:6], id)
		if _, err := conn.Write(req); err != nil {
			time.Sleep(5 * time.Millisecond) // ICMP from a socket not bound yet
			continue
		}
		_ = conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err == nil && f.Kind == airproto.KindData && f.ID == id && len(f.Data) == classes {
				return nil
			}
		}
	}
	return fmt.Errorf("no correct reply from %s within %v", addr, timeout)
}

// servedEpoch decodes the epoch replica 0 journaled at its cold start: the
// deployment the cluster actually serves.
func (c *cluster) servedEpoch() (*checkpoint.Epoch, error) {
	j, err := checkpoint.OpenJournal(filepath.Join(c.dir, "replica0"))
	if err != nil {
		return nil, err
	}
	// The replica journals its first epoch off the serving path, so the
	// entry can trail the first reply by a moment.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ep, err := j.Recover()
		if err == nil || !errors.Is(err, checkpoint.ErrNoEpoch) || time.Now().After(deadline) {
			return ep, err
		}
	}
}

// scrape reads every sidecar's /metrics.json.
func (c *cluster) scrape() (map[*child]obs.Snapshot, error) {
	out := map[*child]obs.Snapshot{}
	for ch := range c.sidecars {
		s, err := c.scrapeOne(ch)
		if err != nil {
			return nil, err
		}
		out[ch] = s
	}
	return out, nil
}

// scrapeOne reads one child's /metrics.json, retrying while its sidecar
// comes up.
func (c *cluster) scrapeOne(ch *child) (obs.Snapshot, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	var err error
	for try := 0; try < 100; try++ {
		var resp *http.Response
		if resp, err = cl.Get(c.sidecars[ch] + "/metrics.json"); err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		var s obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err == nil {
			return s, nil
		}
	}
	return obs.Snapshot{}, fmt.Errorf("scrape %s: %w", ch.name, err)
}

// delta returns after minus before for counters and histograms, so a
// phase's figures exclude the set-up requests.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		p := before.Histograms[k]
		out := obs.HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
		for i, bk := range h.Buckets {
			if i < len(p.Buckets) {
				bk.Count -= p.Buckets[i].Count
			}
			out.Buckets = append(out.Buckets, bk)
		}
		d.Histograms[k] = out
	}
	return d
}

// publisher replicates epochs through the router's publish journal. It
// times each publication from the router's poll reading the new journal
// entry, seen as an inotify open event, until every replica reports the new
// fleet sequence in its heartbeat health vector, so the router's poll period
// is not part of the figure.
type publisher struct {
	journal  *checkpoint.Journal
	epoch    *checkpoint.Epoch
	opens    *os.File // inotify descriptor watching opens in the journal directory
	replicas []*net.UDPAddr
	conn     *net.UDPConn
	seq      uint64 // fleet sequence the replicas last converged on
	hbID     uint32
	buf      []byte
}

func (c *cluster) publisher() (*publisher, error) {
	ep, err := c.servedEpoch()
	if err != nil {
		return nil, err
	}
	j, err := checkpoint.OpenJournal(c.pubDir)
	if err != nil {
		return nil, err
	}
	opens, err := watchOpens(c.pubDir)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		opens.Close()
		return nil, err
	}
	return &publisher{journal: j, epoch: ep, opens: opens, replicas: c.repAddrs, conn: conn, buf: make([]byte, 65536)}, nil
}

func (p *publisher) close() {
	p.conn.Close()
	p.opens.Close()
}

// watchOpens returns a non-blocking inotify descriptor reporting every open
// of a file in dir, by any process.
func watchOpens(dir string) (*os.File, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_OPEN); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch %s: %w", dir, err)
	}
	return os.NewFile(uintptr(fd), "inotify"), nil
}

// awaitOpen returns when a process opens the file name in the watched
// directory. A journal append creates its entry by renaming a temporary
// file, so the first open of the entry's name is the router's poll.
func (p *publisher) awaitOpen(name string, timeout time.Duration) error {
	if err := p.opens.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	for {
		n, err := p.opens.Read(p.buf)
		if err != nil {
			return fmt.Errorf("no open of %s within %v: %w", name, timeout, err)
		}
		// struct inotify_event: wd, mask, cookie, len, then len bytes of
		// NUL-padded name.
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			mask := binary.NativeEndian.Uint32(p.buf[off+4:])
			nameLen := int(binary.NativeEndian.Uint32(p.buf[off+12:]))
			off += syscall.SizeofInotifyEvent
			evName := strings.TrimRight(string(p.buf[off:off+nameLen]), "\x00")
			off += nameLen
			if mask&syscall.IN_OPEN != 0 && evName == name {
				return nil
			}
		}
	}
}

// publish appends the epoch and returns the time until the router's poll
// read it (pickup) and from then until every replica had applied it
// (conv).
func (p *publisher) publish() (pickup, conv time.Duration, err error) {
	want := p.seq + 1
	t0 := time.Now()
	seq, err := p.journal.Append(p.epoch)
	if err != nil {
		return 0, 0, err
	}
	// The journal's on-disk entry name (checkpoint's journalPattern).
	if err := p.awaitOpen(fmt.Sprintf("epoch-%08d.ckpt", seq), pickupTimeout); err != nil {
		return 0, 0, fmt.Errorf("router did not read the appended epoch: %w", err)
	}
	t1 := time.Now()
	for time.Since(t1) < publishTimeout {
		if p.converged(want) {
			p.seq = want
			return t1.Sub(t0), time.Since(t1), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, 0, fmt.Errorf("replicas did not reach fleet sequence %d within %v", want, publishTimeout)
}

// converged heartbeats every replica and reports whether all of them hold
// fleet sequence want.
func (p *publisher) converged(want uint64) bool {
	for _, r := range p.replicas {
		p.hbID++
		out, err := airproto.Heartbeat(p.hbID).Marshal()
		if err != nil {
			return false
		}
		if _, err := p.conn.WriteToUDP(out, r); err != nil {
			return false
		}
		if seq, ok := p.awaitHeartbeat(p.hbID); !ok || seq < want {
			return false
		}
	}
	return true
}

func (p *publisher) awaitHeartbeat(id uint32) (uint64, bool) {
	_ = p.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	for {
		n, err := p.conn.Read(p.buf)
		if err != nil {
			return 0, false
		}
		f, err := airproto.Unmarshal(p.buf[:n])
		if err != nil || f.Kind != airproto.KindHeartbeat || f.ID != id {
			continue // a late reply to an earlier poll
		}
		return uint64(f.HealthVector()[airproto.HBFleetSeq]), true
	}
}
