package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// cpuSet is a sched_setaffinity(2) CPU mask.
type cpuSet [16]uint64

// each returns one single-CPU set for every CPU in s.
func (s *cpuSet) each() []cpuSet {
	var out []cpuSet
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			var one cpuSet
			one[i] = w & -w
			out = append(out, one)
		}
	}
	return out
}

func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return e
	}
	return nil
}

// allCPUs are the CPUs the benchmark may run on. The generator's threads
// run on the first and the children on the rest, so the load never
// competes with the servers it measures for a CPU, and the scheduler
// cannot place them differently from one phase to the next. With a single
// CPU nothing is pinned.
var (
	allCPUs, _             = getAffinity()
	clientCPUs, serverCPUs = splitCPUs(allCPUs)
)

func splitCPUs(all cpuSet) (client, server cpuSet) {
	cpus := all.each()
	if len(cpus) < 2 {
		return all, all
	}
	for _, c := range cpus[1:] {
		for i := range server {
			server[i] |= c[i]
		}
	}
	return cpus[0], server
}

// pinThread locks the calling goroutine to its OS thread and confines the
// thread to cpus. The returned function restores the thread's CPUs and
// unlocks it.
func pinThread(cpus cpuSet) (unpin func()) {
	runtime.LockOSThread()
	old, err := getAffinity()
	if err != nil || setAffinity(cpus) != nil {
		return runtime.UnlockOSThread
	}
	return func() {
		_ = setAffinity(old)
		runtime.UnlockOSThread()
	}
}

// child is one metaai-* process the benchmark started. It runs in its own
// process group, so stopping it also stops anything it forked, and with a
// parent-death signal, so a benchmark killed without ceremony takes it
// along.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string
}

// children tracks every live child so a signal or a failure stops them all.
var children = struct {
	sync.Mutex
	m map[*child]bool
}{m: map[*child]bool{}}

func startChild(dir, name, bin string, args ...string) (*child, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, cmd: cmd, log: logPath}
	children.Lock()
	defer children.Unlock()
	// The fork runs on this thread, so the child inherits its CPUs.
	unpin := pinThread(serverCPUs)
	err = cmd.Start()
	unpin()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.m[c] = true
	return c, nil
}

// stopGrace is how long a child may take to exit on SIGTERM before its
// process group is killed. The children's state is thrown away, so a
// graceful drain buys nothing; a replica takes about 1.4 s for it.
const stopGrace = 300 * time.Millisecond

// stop signals the child's process group with SIGTERM, falls back to
// SIGKILL after stopGrace, and waits for the child to be reaped.
func (c *child) stop() {
	children.Lock()
	live := children.m[c]
	delete(children.m, c)
	children.Unlock()
	if !live {
		return
	}
	pgid := c.cmd.Process.Pid
	_ = syscall.Kill(-pgid, syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { _ = c.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-exited
	}
	_ = syscall.Kill(-pgid, syscall.SIGKILL) // anything the child forked
}

// stopChildren stops the given children at once.
func stopChildren(chs []*child) {
	var wg sync.WaitGroup
	for _, ch := range chs {
		wg.Add(1)
		go func(ch *child) { defer wg.Done(); ch.stop() }(ch)
	}
	wg.Wait()
}

// stopAll stops every live child.
func stopAll() {
	children.Lock()
	all := make([]*child, 0, len(children.m))
	for ch := range children.m {
		all = append(all, ch)
	}
	children.Unlock()
	stopChildren(all)
}

var listenRE = regexp.MustCompile(`(?:listening on|fleet router on) (127\.0\.0\.1:\d+)`)

// waitAddr polls the child's log for the address it bound.
func (c *child) waitAddr(timeout time.Duration) (*net.UDPAddr, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		b, _ := os.ReadFile(c.log)
		if m := listenRE.FindSubmatch(b); m != nil {
			return net.ResolveUDPAddr("udp", string(m[1]))
		}
		if c.cmd.ProcessState != nil || syscall.Kill(c.cmd.Process.Pid, 0) != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("%s did not start listening: %s", c.name, tail(c.log))
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// cpu returns the CPU time the child's threads have run, from each
// thread's /proc schedstat, which counts in nanoseconds where utime and
// stime count 10 ms ticks.
func (c *child) cpu() (time.Duration, error) {
	stats, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(stats) == 0 {
		return 0, fmt.Errorf("no threads for %s", c.name)
	}
	var sum int64
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("bad schedstat for %s", c.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat for %s", c.name)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// peakRSS returns the child's peak resident set (VmHWM) in bytes.
func (c *child) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", c.name)
}

// staleServers lists running metaai-* processes this benchmark did not
// start. A leftover replica from an earlier run competes for the CPU and
// silently inflates every latency, so the benchmark refuses to start.
func staleServers() []string {
	procs, _ := filepath.Glob("/proc/[0-9]*/comm")
	var stale []string
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if name := strings.TrimSpace(string(b)); strings.HasPrefix(name, "metaai-") {
			stale = append(stale, fmt.Sprintf("%s (pid %s)", name, filepath.Base(filepath.Dir(p))))
		}
	}
	return stale
}

// freeTCPPort asks the kernel for an unused loopback TCP port for a
// child's metrics sidecar, which logs only the address it was given.
func freeTCPPort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
