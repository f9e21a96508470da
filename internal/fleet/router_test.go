package fleet

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/airproto"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// traceMember binds a fake replica on loopback. With a non-nil doc it
// answers every KindTrace fetch with that export; with nil it stays silent,
// an Alive member that never answers.
func traceMember(t *testing.T, doc []byte) Replica {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err != nil || f.Kind != airproto.KindTrace || doc == nil {
				continue
			}
			if out, err := airproto.TraceReply(f.ID, doc).Marshal(); err == nil {
				conn.WriteToUDP(out, from)
			}
		}
	}()
	return Replica{Addr: conn.LocalAddr().String()}
}

// startRouter starts a router over members with the given heartbeat
// cadence and returns it with a client socket connected to its front.
func startRouter(t *testing.T, hbEvery, timeout time.Duration, members ...Replica) (*Router, *net.UDPConn) {
	t.Helper()
	r, err := NewRouter(Config{
		Replicas:         members,
		HeartbeatEvery:   hbEvery,
		HeartbeatTimeout: timeout,
		Tracer:           &trace.Tracer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(front)
	t.Cleanup(func() { r.Close(); front.Close() })
	client, err := net.DialUDP("udp", nil, front.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return r, client
}

// ask sends req to the router and returns its reply and how long it took.
func ask(t *testing.T, client *net.UDPConn, req *airproto.Frame, wait time.Duration) (*airproto.Frame, time.Duration) {
	t.Helper()
	out, _ := req.Marshal()
	start := time.Now()
	if _, err := client.Write(out); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, 65535)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	f, err := airproto.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return f, elapsed
}

// fetchViaRouter starts a router over members (no heartbeats, so every
// member stays Alive), sends one trace fetch through its front socket, and
// returns the reply and how long it took.
func fetchViaRouter(t *testing.T, timeout time.Duration, members ...Replica) (*airproto.Frame, time.Duration) {
	t.Helper()
	_, client := startRouter(t, time.Hour, timeout, members...)
	return ask(t, client, airproto.TraceRequest(5, 0xabc), 10*timeout)
}

// TestRouterTraceFanOutConcurrent: one replica holds the segment and two
// Alive members never answer. The router asks all three at once, so the
// fetch costs one HeartbeatTimeout for the silent pair, not one each.
func TestRouterTraceFanOutConcurrent(t *testing.T) {
	const timeout = 300 * time.Millisecond
	doc := []byte(`{"traceEvents":[{"name":"serve.request"}]}`)
	f, elapsed := fetchViaRouter(t, timeout, traceMember(t, nil), traceMember(t, doc), traceMember(t, nil))
	if f.Kind != airproto.KindTrace || f.ID != 5 || !bytes.Equal(f.Body(), doc) {
		t.Fatalf("fetch answered kind %d id %d body %q", f.Kind, f.ID, f.Body())
	}
	if elapsed >= 2*timeout {
		t.Fatalf("fan-out over two silent members took %v, want under %v", elapsed, 2*timeout)
	}
}

// TestRouterTraceTooLargeNacks: two segments that each fit a datagram
// stitch into a document that does not, and a replica may already answer
// StatusTooLarge for its own segment. Either way the router answers
// StatusTooLarge — never a cut export, nor a stitch missing a segment —
// and counts it.
func TestRouterTraceTooLargeNacks(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := traceTooLarge.Value()
	seg := func(name string) []byte {
		return []byte(fmt.Sprintf(`{"traceEvents":[{"name":%q,"pad":"%s"}]}`, name, bytes.Repeat([]byte("x"), 40_000)))
	}
	f, _ := fetchViaRouter(t, 300*time.Millisecond, traceMember(t, seg("a")), traceMember(t, seg("b")))
	if !f.IsNack() || f.Code != airproto.StatusTooLarge || f.ID != 5 || f.Label <= airproto.MaxDatagram {
		t.Fatalf("oversize stitch answered kind %d code %d label %d", f.Kind, f.Code, f.Label)
	}
	huge := seg(strings.Repeat("y", airproto.MaxDatagram))
	f, _ = fetchViaRouter(t, 300*time.Millisecond, traceMember(t, seg("a")), traceMember(t, huge))
	if !f.IsNack() || f.Code != airproto.StatusTooLarge || int(f.Label) != len(huge) {
		t.Fatalf("oversize replica segment answered kind %d code %d label %d, want StatusTooLarge %d",
			f.Kind, f.Code, f.Label, len(huge))
	}
	if got := traceTooLarge.Value() - before; got != 2 {
		t.Fatalf("fleet.trace_too_large advanced by %d, want 2", got)
	}
}

// TestRouterStatsSumsReplicaFleetCounters: a fleet.* counter that replicas
// count (fleet.snapshot_skipped) must reach the router's KindStats reply as
// the replicas' sum plus the router's own value, not be replaced by the
// router's value alone.
func TestRouterStatsSumsReplicaFleetCounters(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	blob := obs.EncodeSnapshot(obs.Snapshot{Counters: map[string]int64{"fleet.snapshot_skipped": 3, "serve.served": 7}})
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := airproto.Unmarshal(buf[:n])
			if err != nil || f.Kind != airproto.KindHeartbeat {
				continue
			}
			reply := airproto.HeartbeatReply(f.ID, nil)
			reply.Payload = append(reply.Payload, blob...)
			if out, err := reply.Marshal(); err == nil {
				conn.WriteToUDP(out, from)
			}
		}
	}()
	r, client := startRouter(t, 10*time.Millisecond, time.Second, Replica{Addr: conn.LocalAddr().String()})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, per := r.FleetSnapshot(); len(per) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never merged the replica's snapshot")
		}
	}
	own := obs.Default().Snapshot().Counters
	f, _ := ask(t, client, airproto.StatsRequest(6), 5*time.Second)
	snap, err := obs.DecodeSnapshot(f.Body())
	if f.Kind != airproto.KindStats || err != nil {
		t.Fatalf("stats answered kind %d: %v", f.Kind, err)
	}
	if got, want := snap.Counters["fleet.snapshot_skipped"], 3+own["fleet.snapshot_skipped"]; got != want {
		t.Fatalf("fleet.snapshot_skipped = %d, want replica 3 + router %d", got, own["fleet.snapshot_skipped"])
	}
	if got := snap.Counters["serve.served"]; got != 7 {
		t.Fatalf("serve.served = %d, want the replica's 7", got)
	}
}
