package main

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/airproto"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) supported=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if c.n == 1000 && v != 990 {
			t.Errorf("p99 of 1..1000 = %v, want 990", v)
		}
	}
}

func TestLatencyRunsFromScheduledSend(t *testing.T) {
	ms := int64(time.Millisecond)
	// Due at 1 ms, sent 2 ms late, answered 1 ms after sending: the
	// request waited 3 ms, not the 1 ms a send-time clock would show.
	tl := tallyRecords([]reqRecord{{sched: ms, sent: 3 * ms, recv: 4 * ms, outcome: outData, detail: 7, label: 7}}, 200*ms)
	if len(tl.lat) != 1 || tl.lat[0] != 3 {
		t.Fatalf("latency = %v ms, want [3]", tl.lat)
	}
	if tl.late[0] != 2000 {
		t.Fatalf("lateness = %v µs, want 2000", tl.late[0])
	}
	if tl.correct != 1 {
		t.Fatalf("correct = %d, want 1", tl.correct)
	}
}

func TestNacksTimeoutsAndMalformedRepliesFail(t *testing.T) {
	ms := int64(time.Millisecond)
	recs := []reqRecord{
		{sched: ms, sent: ms, recv: 2 * ms, outcome: outData},            // ok
		{sched: ms, sent: ms, recv: 2 * ms, outcome: outNack, detail: 3}, // shed
		{sched: ms, sent: ms}, // never answered
		{sched: ms, sent: ms, recv: 500 * ms, outcome: outData},    // answered after the timeout
		{sched: ms, sent: ms, recv: 2 * ms, outcome: outMalformed}, // wrong kind or shape
	}
	tl := tallyRecords(recs, 200*ms)
	if tl.sent != 5 || tl.ok != 1 || tl.nack != 1 || tl.timeout != 2 || tl.malformed != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	if tl.failed() != 4 || tl.failFrac() != 0.8 {
		t.Fatalf("failed = %d (%.2f), want 4 (0.80)", tl.failed(), tl.failFrac())
	}
}

func TestOnReplyClassifiesFrames(t *testing.T) {
	l := newLoad(rand.New(rand.NewSource(1)), 1000, 4, 1)
	data, _ := (&airproto.Frame{ID: 1, Data: make([]complex128, 10)}).Marshal()
	data[airproto.HeaderLen+8*3+3] = 0x40 // real part of class 3 = 2.0: the argmax
	nack, _ := airproto.Nack(2, airproto.StatusDegraded, 0).Marshal()
	short, _ := (&airproto.Frame{ID: 3, Data: make([]complex128, 9)}).Marshal()
	unknown, _ := (&airproto.Frame{ID: 99, Data: make([]complex128, 10)}).Marshal()
	for _, b := range [][]byte{data, nack, short, unknown, data} {
		l.onReply(b, 5, 10)
	}
	want := []uint32{outData<<16 | 3, outNack<<16 | uint32(airproto.StatusDegraded), outMalformed << 16, outPending}
	for i, w := range want {
		if got := l.out[i]; got != w {
			t.Errorf("request %d outcome = %#x, want %#x", i+1, got, w)
		}
	}
	if s := l.stray; s != 2 { // the unknown ID and the duplicate
		t.Errorf("stray = %d, want 2", s)
	}
}

// responder serves an in-process airproto echo: a KindData reply with 10
// zero accumulators to every request, or silence when mute is set.
func responder(t *testing.T, mute bool) *net.UDPAddr {
	t.Helper()
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go func() {
		buf := make([]byte, 65536)
		for {
			n, from, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err != nil || mute {
				continue
			}
			out, _ := (&airproto.Frame{ID: f.ID, Label: f.Label, Data: make([]complex128, 10)}).Marshal()
			_, _ = srv.WriteToUDP(out, from)
		}
	}()
	return srv.LocalAddr().(*net.UDPAddr)
}

// TestDriveSendsOnScheduleNeverEarly drives an in-process airproto
// responder: every request must leave at or after its scheduled time, get
// its reply, and be timed from the schedule.
func TestDriveSendsOnScheduleNeverEarly(t *testing.T) {
	frame, _ := (&airproto.Frame{Data: make([]complex128, 64)}).Marshal()
	l := newLoad(rand.New(rand.NewSource(1)), 2000, 200, 1)
	if _, err := l.drive(responder(t, false), [][]byte{frame}, 10, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := range l.sched {
		if l.sent[i] < l.sched[i] {
			t.Fatalf("request %d sent %d ns before its schedule", i, l.sched[i]-l.sent[i])
		}
	}
	recs := l.records([]int{0})
	tl := tallyRecords(recs, int64(50*time.Millisecond))
	if tl.ok != 200 || tl.correct != 200 || l.stray != 0 {
		t.Fatalf("ok %d, correct %d, stray %d; want 200, 200, 0", tl.ok, tl.correct, l.stray)
	}
	for _, r := range recs {
		if want := float64(r.recv-r.sched) / 1e6; want < float64(r.recv-r.sent)/1e6 {
			t.Fatalf("latency from schedule %.3f ms is shorter than from send", want)
		}
	}
}

func TestPooledLatencyCountsFailuresAtTimeout(t *testing.T) {
	ms := int64(time.Millisecond)
	var a, b []reqRecord
	for i := 0; i < 30; i++ {
		a = append(a, reqRecord{sched: 0, sent: 0, recv: 3 * ms, outcome: outData})
		b = append(b, reqRecord{sched: 0, sent: 0, recv: 1 * ms, outcome: outData})
	}
	for i := 0; i < 20; i++ { // 20 of b's 30 fail: shed, or never answered
		if i%2 == 0 {
			b[i].outcome = outNack
		} else {
			b[i].outcome = outPending
		}
	}
	all := pooledLatency(200*ms, tallyRecords(a, 200*ms), tallyRecords(b, 200*ms))
	if len(all) != 60 {
		t.Fatalf("pooled %d latencies, want 60", len(all))
	}
	// 10 at 1 ms, 30 at 3 ms, 20 at the 200 ms timeout, in order.
	if all[0] != 1 || all[10] != 3 || all[40] != 200 || all[59] != 200 {
		t.Fatalf("pooled = %v", all)
	}
	if p50, ok := percentile(all, 0.5); !ok || p50 != 3 {
		t.Fatalf("p50 = %v (supported %v), want 3 ms", p50, ok)
	}
}

// TestWindowHoldsLateRequestsAtTheClient drives a responder that never
// answers: only window requests may be in flight, so each later request
// waits until an earlier one times out, and that wait counts as latency
// because it runs from the schedule.
func TestWindowHoldsLateRequestsAtTheClient(t *testing.T) {
	const timeout = 30 * time.Millisecond
	frame, _ := (&airproto.Frame{Data: make([]complex128, 64)}).Marshal()
	l := newLoad(rand.New(rand.NewSource(1)), 20000, 2*window, 1)
	if _, err := l.drive(responder(t, true), [][]byte{frame}, 10, timeout); err != nil {
		t.Fatal(err)
	}
	for i := window; i < len(l.sent); i++ {
		if l.sent[i] < l.sent[i-window]+int64(timeout) {
			t.Fatalf("request %d sent %v after request %d, before its %v timeout freed a slot",
				i, time.Duration(l.sent[i]-l.sent[i-window]), i-window, timeout)
		}
	}
	tl := tallyRecords(l.records([]int{0}), int64(timeout))
	if tl.timeout != 2*window {
		t.Fatalf("timeouts = %d, want %d", tl.timeout, 2*window)
	}
}

// TestSaturateKeepsTheWindowFull runs the closed loop against a responder:
// every request sent is answered and timed from its send, and no reply is
// left over. A front door that never answers gets exactly window requests.
func TestSaturateKeepsTheWindowFull(t *testing.T) {
	mute := newLoad(rand.New(rand.NewSource(1)), 1, 1000, 1)
	frame0, _ := (&airproto.Frame{Data: make([]complex128, 64)}).Marshal()
	if _, _, err := mute.saturate(responder(t, true), [][]byte{frame0}, 10, 20*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	if len(mute.sched) != window {
		t.Fatalf("sent %d requests to a silent front door, want %d", len(mute.sched), window)
	}

	frame, _ := (&airproto.Frame{Data: make([]complex128, 64)}).Marshal()
	l := newLoad(rand.New(rand.NewSource(1)), 1, 100000, 1)
	_, busy, err := l.saturate(responder(t, false), [][]byte{frame}, 10, 50*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.sched) <= window || len(l.sched) == 100000 {
		t.Fatalf("sent %d requests in 50 ms", len(l.sched))
	}
	if busy < 50*time.Millisecond {
		t.Fatalf("last reply at %v, before the 50 ms load ended", busy)
	}
	tl := tallyRecords(l.records([]int{0}), int64(time.Second))
	if tl.ok != len(l.sched) || l.stray != 0 {
		t.Fatalf("ok %d of %d, stray %d", tl.ok, len(l.sched), l.stray)
	}
	for i := range l.sched {
		if l.sched[i] != l.sent[i] {
			t.Fatalf("request %d timed from %d, sent at %d", i, l.sched[i], l.sent[i])
		}
	}
}

func TestSplitCPUsGivesTheGeneratorOneCPU(t *testing.T) {
	var three, one cpuSet
	three[0], one[1] = 0b10110, 0b1000
	client, server := splitCPUs(three)
	if client[0] != 0b10 || server[0] != 0b10100 {
		t.Fatalf("split %b = client %b, server %b; want 10, 10100", three[0], client[0], server[0])
	}
	if client, server := splitCPUs(one); client != one || server != one {
		t.Fatalf("a single CPU must be shared, got client %v, server %v", client, server)
	}
}
