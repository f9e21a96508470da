package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/airproto"
)

// leadIn delays the first arrival so both I/O threads are parked in their
// syscalls before traffic starts.
const leadIn = 5 * time.Millisecond

// window bounds the requests a generator has in flight at once. It equals
// a replica's request queue (metaai-serve queues 4 per worker, and the
// benchmark runs 2 workers), so a burst of late requests after a host stall
// waits at the client, where its latency still counts from the schedule,
// instead of overflowing the replica's queue into shed NACKs.
const window = 8

// load is one open-loop request stream against one front door: a seeded
// Poisson schedule, the test sample each request carries, and what came
// back. The generator writes sent, the reply reader recv, out and stray;
// the generator reads recv atomically to bound its window, and both have
// finished before anything else reads them.
type load struct {
	sched  []int64  // scheduled send time, ns on the phase clock
	sample []int32  // test-set index each request carries
	sent   []int64  // actual send time
	recv   []int64  // reply time (0: no reply)
	out    []uint32 // outcome<<16 | detail (predicted class or NACK code)
	stray  int64    // replies naming no request, or one already answered
	oldest int      // generator: no request before this one is in flight
}

// newLoad draws the arrival schedule of n requests at rate per second and
// their sample order from src.
func newLoad(src *rand.Rand, rate float64, n, samples int) *load {
	l := &load{
		sched:  make([]int64, n),
		sample: make([]int32, n),
		sent:   make([]int64, n),
		recv:   make([]int64, n),
		out:    make([]uint32, n),
	}
	t := float64(leadIn)
	for i := range l.sched {
		t += src.ExpFloat64() / rate * 1e9
		l.sched[i] = int64(t)
		l.sample[i] = int32(src.Intn(samples))
	}
	return l
}

// records snapshots every request for tallying.
func (l *load) records(labels []int) []reqRecord {
	recs := make([]reqRecord, len(l.sched))
	for i := range recs {
		o := l.out[i]
		recs[i] = reqRecord{
			sched: l.sched[i], sent: l.sent[i], recv: l.recv[i],
			outcome: o >> 16, detail: o & 0xffff, label: labels[l.sample[i]],
		}
	}
	return recs
}

// onReply classifies one reply datagram.
func (l *load) onReply(b []byte, now int64, classes int) {
	if len(b) < airproto.HeaderLen {
		l.stray++
		return
	}
	id := binary.LittleEndian.Uint32(b[2:6])
	if id == 0 || int(id) > len(l.sched) || atomic.LoadInt64(&l.recv[id-1]) != 0 {
		l.stray++
		return
	}
	i := int(id) - 1
	n := int(binary.LittleEndian.Uint16(b[10:12]))
	var o uint32
	switch {
	case b[0] == airproto.KindNack:
		o = outNack<<16 | uint32(b[1])
	case b[0] == airproto.KindData && n == classes && len(b) == airproto.HeaderLen+8*n:
		best, arg := -1.0, 0
		for r := 0; r < n; r++ {
			off := airproto.HeaderLen + 8*r
			re := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:])))
			im := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:])))
			if m := re*re + im*im; m > best {
				best, arg = m, r
			}
		}
		o = outData<<16 | uint32(arg)
	default:
		o = outMalformed << 16
	}
	l.out[i] = o
	atomic.StoreInt64(&l.recv[i], now)
}

// inflight counts the requests before n that were sent, are unanswered and
// have not yet timed out at now.
func (l *load) inflight(n int, now, timeout int64) int {
	for l.oldest < n && (atomic.LoadInt64(&l.recv[l.oldest]) != 0 || now-l.sent[l.oldest] > timeout) {
		l.oldest++
	}
	k := 0
	for j := l.oldest; j < n; j++ {
		if atomic.LoadInt64(&l.recv[j]) == 0 && now-l.sent[j] <= timeout {
			k++
		}
	}
	return k
}

// dialRaw opens a blocking UDP socket connected to addr. The I/O threads
// use raw syscalls on it so neither the sender's pacing nor the reply
// timestamps go through the Go netpoller's wakeup latency.
func dialRaw(addr *net.UDPAddr) (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	// A large receive buffer keeps reply bursts from being dropped on the
	// client side, where a loss would be charged to the server.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 8<<20)
	// The receive timeout lets the reader notice the end of a phase.
	tv := syscall.Timeval{Usec: 20000}
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("SO_RCVTIMEO: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: addr.Port}
	copy(sa.Addr[:], addr.IP.To4())
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("connect %s: %w", addr, err)
	}
	return fd, nil
}

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK. Linux rounds a normal
// thread's sleeps up by 50 µs of slack; 1 ns makes nanosleep wake on time.
const prSetTimerslack = 29

// pause sleeps d on the calling thread with nanosleep.
func pause(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil) // EINTR just re-checks the clock
}

// windowPoll is how often a generator with a full window looks for a reply.
const windowPoll = 10 * time.Microsecond

// generate sends every scheduled request on a locked OS thread, sleeping
// with nanosleep until each is due, and then until fewer than window
// requests are in flight, and sending at once when late.
func (l *load) generate(fd int, frames [][]byte, base time.Time, timeout time.Duration) {
	defer pinThread(clientCPUs)()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 50000, 0)
	buf := make([]byte, 0, 65536)
	for i, due := range l.sched {
		for {
			d := due - int64(time.Since(base))
			if d <= 0 {
				break
			}
			pause(d)
		}
		for l.inflight(i, int64(time.Since(base)), int64(timeout)) >= window {
			pause(int64(windowPoll))
		}
		buf = append(buf[:0], frames[l.sample[i]]...)
		binary.LittleEndian.PutUint32(buf[2:6], uint32(i+1))
		l.sent[i] = int64(time.Since(base))
		// An error (typically ECONNREFUSED from an earlier ICMP) means the
		// request never left: it stays unanswered and counts as lost.
		for {
			if _, err := syscall.Write(fd, buf); err != syscall.EINTR {
				break
			}
		}
	}
}

// read records replies on a locked OS thread until done is set.
func (l *load) read(fd int, base time.Time, classes int, done *atomic.Bool) {
	defer pinThread(clientCPUs)()
	buf := make([]byte, 65536)
	for !done.Load() {
		n, err := syscall.Read(fd, buf)
		now := int64(time.Since(base))
		if err != nil {
			continue // receive timeout, EINTR, or a stale ICMP error
		}
		l.onReply(buf[:n], now, classes)
	}
}

// drive runs the load against addr and returns the phase clock's zero. GC
// is off while traffic runs so the generator's heap never pauses it.
func (l *load) drive(addr *net.UDPAddr, frames [][]byte, classes int, timeout time.Duration) (time.Time, error) {
	fd, err := dialRaw(addr)
	if err != nil {
		return time.Time{}, err
	}
	defer syscall.Close(fd)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var done atomic.Bool
	var reader sync.WaitGroup
	base := time.Now()
	reader.Add(1)
	go func() { defer reader.Done(); l.read(fd, base, classes, &done) }()
	l.generate(fd, frames, base, timeout)
	// Let the last replies land or time out.
	for l.inflight(len(l.sched), int64(time.Since(base)), int64(timeout)) > 0 {
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	reader.Wait()
	return base, nil
}

// saturate runs the load closed-loop against addr for dur: one locked OS
// thread keeps window requests in flight, sending the next as soon as a
// reply lands, so the front door is never idle and never offered more
// than its queue holds. A request's scheduled time is its send time. It
// returns the phase clock's zero and the time the last reply landed; the
// load is cut to the requests sent.
func (l *load) saturate(addr *net.UDPAddr, frames [][]byte, classes int, dur, timeout time.Duration) (base time.Time, last time.Duration, err error) {
	fd, err := dialRaw(addr)
	if err != nil {
		return time.Time{}, 0, err
	}
	defer syscall.Close(fd)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer pinThread(clientCPUs)()

	out, in := make([]byte, 0, 65536), make([]byte, 65536)
	base = time.Now()
	n, inflight := 0, 0
	for {
		now := int64(time.Since(base))
		for inflight < window && n < len(l.sched) && now < int64(dur) {
			out = append(out[:0], frames[l.sample[n]]...)
			binary.LittleEndian.PutUint32(out[2:6], uint32(n+1))
			l.sched[n], l.sent[n] = now, now
			for {
				if _, err := syscall.Write(fd, out); err != syscall.EINTR {
					break
				}
			}
			n, inflight = n+1, inflight+1
			now = int64(time.Since(base))
		}
		if inflight == 0 {
			break
		}
		k, err := syscall.Read(fd, in)
		now = int64(time.Since(base))
		if err == nil {
			l.onReply(in[:k], now, classes)
			last = time.Duration(now)
		}
		// A reply frees its slot; so does a request past its timeout.
		inflight = l.inflight(n, now, int64(timeout))
	}
	l.sched, l.sample, l.sent, l.recv, l.out = l.sched[:n], l.sample[:n], l.sent[:n], l.recv[:n], l.out[:n]
	return base, last, nil
}

// schedIdle is sched_setscheduler(2)'s SCHED_IDLE policy.
const schedIdle = 5

// spinIdle keeps every CPU busy with a SCHED_IDLE spinner pinned to it and
// returns the function that stops them. A SCHED_IDLE thread runs only
// when nothing else is runnable and yields at once when anything wakes, so
// it takes no time from the children or the I/O threads; what it removes is
// the halt of an idle vCPU, whose wake-up through the hypervisor otherwise
// adds tens of microseconds to every hop of a request and, on a busy host,
// milliseconds. The effect is that of booting the guest with idle=poll.
func spinIdle() (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	cpus := allCPUs.each()
	// The spinners hold one P each; the generator, the reader and the
	// runtime keep theirs.
	prev := runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + len(cpus))
	for _, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pinThread(cpu)()
			var param int32 // struct sched_param{sched_priority: 0}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				return // no spinner beats one at normal priority
			}
			defer syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, 0, uintptr(unsafe.Pointer(&param)))
			for !done.Load() {
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}
