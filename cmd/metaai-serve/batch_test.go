package main

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/clocksync"
	"repro/internal/cplx"
	"repro/internal/mobility"
	"repro/internal/obs/trace"
	"repro/internal/ota"
	"repro/internal/rng"
)

// smallDeployment builds a deployment with a different symbol count than
// testDeployment's U=16, for epoch swaps that change the wire contract.
func smallDeployment(t testing.TB, seed uint64, u int) *ota.Deployment {
	t.Helper()
	src := rng.New(seed)
	w := cplx.NewMat(4, u)
	wsrc := rng.New(9)
	for i := range w.Data {
		w.Data[i] = cplx.Expi(wsrc.Phase()) * complex(0.5+wsrc.Float64(), 0)
	}
	d, err := ota.NewDeployment(w, ota.NewOptions(src.Split()), src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEpochSwapChangingUNacksQueuedRequests pins the enqueue/dequeue
// validation gap: a request validated against the old epoch's U at enqueue
// used to hit the new epoch's session at dequeue after a swap that changed
// U, panicking the worker (killing it for the process lifetime and dropping
// everything queued behind the request). The worker must instead re-check U
// against the epoch it resolves and answer StatusWrongLen carrying the new
// U — and keep serving afterwards.
func TestEpochSwapChangingUNacksQueuedRequests(t *testing.T) {
	d16 := testDeployment(t, 21)
	d8 := smallDeployment(t, 22, 8)
	var srv *airServer
	var once sync.Once
	srv = newAirServer(serverConfig{
		deployment: d16,
		workers:    1,
		queue:      8,
		sessionSrc: rng.New(3),
		logf:       t.Logf,
		// preInfer runs after dequeue and before the worker resolves its
		// epoch: swapping here guarantees the first request was validated
		// against U=16 but is processed under U=8.
		preInfer: func() {
			once.Do(func() {
				srv.healMu.Lock()
				defer srv.healMu.Unlock()
				srv.publish(d8, "swap", trace.ID(0))
			})
		},
	})
	addr, stop := startServer(t, srv)
	defer stop()
	client := dialServer(t, addr)

	req := &airproto.Frame{ID: 1, Data: testSymbols(16, 1)}
	out, _ := req.Marshal()
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no reply to the swapped-out request (worker died?): %v", err)
	}
	resp, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsNack() || resp.Code != airproto.StatusWrongLen {
		t.Fatalf("got kind %d code %d, want StatusWrongLen NACK", resp.Kind, resp.Code)
	}
	if resp.Label != 8 {
		t.Fatalf("NACK advertises U=%d, want the new epoch's 8", resp.Label)
	}

	// The worker survived the mismatch; a request sized for the new epoch
	// must be served normally.
	req2 := &airproto.Frame{ID: 2, Data: testSymbols(8, 2)}
	out2, _ := req2.Marshal()
	if _, err := client.Write(out2); err != nil {
		t.Fatal(err)
	}
	n, err = client.Read(buf)
	if err != nil {
		t.Fatalf("worker stopped serving after the wrong-length NACK: %v", err)
	}
	resp2, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp2.IsNack() || resp2.ID != 2 {
		t.Fatalf("follow-up request got kind %d code %d id %d, want a data frame for id 2", resp2.Kind, resp2.Code, resp2.ID)
	}
	waitServed(t, srv, 1)
}

// nullWriter satisfies udpWriter without touching a socket: the kernel
// write path may allocate, and the zero-alloc measurement is about our
// serving loop, not the syscall.
type nullWriter struct{}

func (nullWriter) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) { return len(b), nil }

// TestWorkerBatchSteadyStateZeroAlloc measures the worker's per-wakeup body
// (processBatch) in steady state with the margin monitor armed, on a
// deployment carrying the clock-offset sampler served epochs re-attach:
// after warmup, an 8-request batch must allocate nothing — accumulators,
// shifted schedule rows, magnitude scratch, reply frame, and marshal buffer
// all live in the worker's reusable scratch.
func TestWorkerBatchSteadyStateZeroAlloc(t *testing.T) {
	d := testDeployment(t, 23)
	d = d.WithSyncSampler(clocksync.CoarseSampler(clocksync.ScaledDetector(d.InputLen()), d.Options().SymbolRateHz))
	srv := newAirServer(serverConfig{
		deployment: d,
		monitor:    mobility.NewMonitor(math.MaxFloat64, 8),
		workers:    1,
		batch:      8,
		sessionSrc: rng.New(3),
		logf:       t.Logf,
	})
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i] = request{
			frame: &airproto.Frame{ID: uint32(i + 1), Label: -1, Data: testSymbols(d.InputLen(), uint64(i+1))},
			from:  from,
		}
	}
	sc := scratchPool.Get().(*workerScratch)
	defer scratchPool.Put(sc)
	run := func() {
		sc.batch = append(sc.batch[:0], reqs...)
		srv.processBatch(nullWriter{}, 0, sc)
	}
	run() // warmup: builds accumulators, mags, and marshal buffer
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("steady-state batch wakeup allocates %.1f/op, want 0", n)
	}
}

// TestBatchedServingBitIdenticalToSequential drives the same request
// stream through a batch=1 server and a batch=8 server built from
// identical seeds and asserts byte-identical reply frames per request ID —
// the end-to-end half of the batching contract.
func TestBatchedServingBitIdenticalToSequential(t *testing.T) {
	replies := func(batch int) map[uint32][]byte {
		d := testDeployment(t, 24)
		srv := newAirServer(serverConfig{
			deployment: d,
			workers:    1,
			batch:      batch,
			queue:      32,
			sessionSrc: rng.New(5),
			logf:       t.Logf,
		})
		addr, stop := startServer(t, srv)
		defer stop()
		client := dialServer(t, addr)
		const n = 12
		for i := 1; i <= n; i++ {
			req := &airproto.Frame{ID: uint32(i), Data: testSymbols(d.InputLen(), uint64(i))}
			out, _ := req.Marshal()
			if _, err := client.Write(out); err != nil {
				t.Fatal(err)
			}
		}
		got := make(map[uint32][]byte)
		buf := make([]byte, 65535)
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		for len(got) < n {
			sz, err := client.Read(buf)
			if err != nil {
				t.Fatalf("after %d/%d replies at batch %d: %v", len(got), n, batch, err)
			}
			resp, err := airproto.Unmarshal(buf[:sz])
			if err != nil || resp.IsNack() {
				t.Fatalf("bad reply at batch %d: %v (nack=%v)", batch, err, resp != nil && resp.IsNack())
			}
			got[resp.ID] = append([]byte(nil), buf[:sz]...)
		}
		return got
	}
	seq := replies(1)
	bat := replies(8)
	for id, want := range seq {
		if string(bat[id]) != string(want) {
			t.Fatalf("request %d: batch=8 reply differs from batch=1 reply", id)
		}
	}
}
