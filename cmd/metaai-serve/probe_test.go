package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/rng"
)

// TestExchangeNoBackoffAfterFinalFailure pins the retry-loop fix: the
// jittered exponential backoff sleeps only BETWEEN attempts. Once the final
// attempt has failed, exchange returns the verdict immediately instead of
// sleeping one more (useless, and largest) backoff interval first.
func TestExchangeNoBackoffAfterFinalFailure(t *testing.T) {
	addr, received := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		return []*airproto.Frame{airproto.Nack(req.ID, airproto.StatusDegraded, 0)}
	})
	conn := dialServer(t, addr)

	const base = 150 * time.Millisecond
	start := time.Now()
	_, err := exchange(conn, &airproto.Frame{ID: 6, Data: []complex128{1}},
		2*time.Second, 0, base, 3, rng.New(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange succeeded against a permanently degraded server")
	}
	if got := received.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	// Two inter-attempt sleeps happened (each at least base/2, so ≥ 225ms
	// total for the 1× and 2× intervals)...
	if elapsed < 225*time.Millisecond {
		t.Fatalf("exchange returned in %v: the inter-attempt backoff never ran", elapsed)
	}
	// ...but never a third: the post-final-failure sleep would be the 4×
	// interval, at least 300ms on top of the ≤675ms the two legitimate
	// sleeps can take.
	if elapsed > 900*time.Millisecond {
		t.Fatalf("exchange took %v: it slept after the final attempt's failure", elapsed)
	}
}

// TestExchangeBudgetBoundsRetries pins the overall-deadline contract: with a
// budget that covers one attempt but not the retry schedule behind it, the
// exchange fails with a budget error well before attempts × timeout, the
// remaining attempts are never sent, and the exhaustion counts in its own
// counter rather than blending into the per-attempt timeouts.
func TestExchangeBudgetBoundsRetries(t *testing.T) {
	// A silent server: every attempt times out at its read deadline.
	addr, received := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		return nil
	})
	conn := dialServer(t, addr)

	before := probeBudgetExhausted.Value()
	const timeout, budget = 200 * time.Millisecond, 250 * time.Millisecond
	start := time.Now()
	_, err := exchange(conn, &airproto.Frame{ID: 8, Data: []complex128{1}},
		timeout, budget, 400*time.Millisecond, 5, rng.New(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange succeeded against a silent server")
	}
	// Unbudgeted, 5 silent attempts plus 4 backoffs would run multiple
	// seconds; the budget caps the whole exchange near 250ms (the first
	// attempt's full timeout, then the backoff that would overrun).
	if elapsed > budget+300*time.Millisecond {
		t.Fatalf("exchange took %v against a %v budget", elapsed, budget)
	}
	if got := received.Load(); got > 2 {
		t.Fatalf("server saw %d attempts inside a budget that affords at most 2", got)
	}
	if got := probeBudgetExhausted.Value() - before; got != 1 {
		t.Fatalf("probe.budget_exhausted advanced by %d, want 1", got)
	}
}

// TestExchangeBudgetClipsAttemptTimeout pins the other half of the budget
// arithmetic: the final attempt's read deadline is the REMAINING budget, not
// the full per-attempt timeout, so the exchange never overruns its contract
// just because timeout > budget.
func TestExchangeBudgetClipsAttemptTimeout(t *testing.T) {
	addr, _ := fakeResponder(t, func(req *airproto.Frame, n int) []*airproto.Frame {
		return nil
	})
	conn := dialServer(t, addr)

	const budget = 150 * time.Millisecond
	start := time.Now()
	_, err := exchange(conn, &airproto.Frame{ID: 9, Data: []complex128{1}},
		10*time.Second, budget, time.Millisecond, 1, rng.New(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange succeeded against a silent server")
	}
	if elapsed > budget+200*time.Millisecond {
		t.Fatalf("single attempt waited %v: the %v budget did not clip the 10s timeout", elapsed, budget)
	}
}

// TestProbeStatsReadsServerCounters exercises the KindStats exchange end to
// end: a real airServer answers the probe's counter request with its served/
// heal/swap/rollback/canary/epoch numbers, decoded by serverStats.
func TestProbeStatsReadsServerCounters(t *testing.T) {
	d := testDeployment(t, 71)
	journal, err := checkpoint.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newAirServer(serverConfig{
		deployment: d,
		journal:    journal,
		meta:       checkpoint.Meta{Dataset: "synthetic", Seed: 71},
		workers:    2,
		sessionSrc: rng.New(4),
		logf:       t.Logf,
	})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	// One data request, one republish heal: known counter values.
	req := &airproto.Frame{ID: 1, Data: testSymbols(d.InputLen(), 1)}
	if _, err := exchange(conn, req, 5*time.Second, 0, time.Millisecond, 3, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	srv.heal()

	stats, fleetStats, err := serverStats(conn, 99, 5*time.Second, 0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if fleetStats != nil {
		t.Fatalf("a plain replica answered with fleet stats: %v", fleetStats)
	}
	want := map[string]int64{
		"served": 1, "heals": 1, "swaps": 1,
		"rollbacks": 0, "canary_rejects": 0, "epoch_seq": 2,
	}
	for k, v := range want {
		if stats[k] != v {
			t.Fatalf("server stats[%q] = %d, want %d (full: %v)", k, stats[k], v, stats)
		}
	}
}

// TestProbeTraceTooLargeIsError: a retained trace whose export cannot fit
// one datagram is answered with a StatusTooLarge NACK carrying its length —
// never a cut, unparseable document — counted in serve.trace_too_large, and
// the probe reports it as an error instead of printing anything.
func TestProbeTraceTooLargeIsError(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	tracer := &trace.Tracer{}
	tracer.Enable(8, 1.0)
	id := trace.Derive(0x700b16)
	sp := tracer.Start("serve.request", id)
	sp.SetStr("pad", strings.Repeat("x", airproto.MaxDatagram))
	sp.Finish(0)

	d := testDeployment(t, 72)
	srv := newAirServer(serverConfig{deployment: d, sessionSrc: rng.New(5), logf: t.Logf, tracer: tracer})
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn := dialServer(t, addr)

	before := traceTooLargeCount.Value()
	err := fetchTrace(conn, id.String(), 2*time.Second, 0, rng.New(6))
	if err == nil || !strings.Contains(err.Error(), "does not fit one datagram") {
		t.Fatalf("oversize trace fetch returned %v, want a too-large error", err)
	}
	if got := traceTooLargeCount.Value() - before; got != 1 {
		t.Fatalf("serve.trace_too_large advanced by %d, want 1", got)
	}
}
