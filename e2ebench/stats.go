package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 21.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted and whether the
// sample supports it (at least minTail samples strictly beyond its rank).
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minTail
}

// median returns the median of xs (mean of the middle pair for even
// lengths), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread is the distance between the first and third quartiles of xs as a
// share of their median (0 for fewer than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { // linear interpolation, like numpy's default
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// Outcome classes of one request, as the reply reader records them.
const (
	outPending   uint32 = iota // no reply yet
	outData                    // KindData reply naming the request, with R accumulators
	outNack                    // KindNack naming the request (shed, expired, degraded, ...)
	outMalformed               // any other frame naming the request
)

// tally summarises a run of requests.
type tally struct {
	sent, ok, nack, timeout, malformed, correct int
	lat                                         []float64 // ms from the scheduled send, successful replies only
	late                                        []float64 // µs the generator sent after schedule
}

func (t tally) failed() int { return t.nack + t.timeout + t.malformed }

// latAll returns every attempted request's latency in ms, with each failed
// request counted at the reply timeout: a failure misses any latency limit.
func (t tally) latAll(timeout int64) []float64 {
	all := append(make([]float64, 0, t.sent), t.lat...)
	for i := 0; i < t.failed(); i++ {
		all = append(all, float64(timeout)/1e6)
	}
	return all
}

func (t tally) failFrac() float64 {
	if t.sent == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.sent)
}

// reqRecord is one request's raw timeline, in ns on the phase clock; recv
// is 0 when no reply landed.
type reqRecord struct {
	sched, sent, recv int64
	outcome, detail   uint32
	label             int
}

// tallyRecords classifies requests. Latency runs from the SCHEDULED send
// time, so a stalled generator or a full queue charges every request it
// delayed (no coordinated omission). A reply later than timeout counts as
// lost, as does a request with no reply; a NACK or malformed reply counts
// as failed.
func tallyRecords(recs []reqRecord, timeout int64) tally {
	t := tally{sent: len(recs)}
	for _, r := range recs {
		t.late = append(t.late, float64(r.sent-r.sched)/1e3)
		switch {
		case r.outcome == outPending || r.recv-r.sched > timeout:
			t.timeout++
		case r.outcome == outNack:
			t.nack++
		case r.outcome == outMalformed:
			t.malformed++
		default:
			t.ok++
			t.lat = append(t.lat, float64(r.recv-r.sched)/1e6)
			if int(r.detail) == r.label {
				t.correct++
			}
		}
	}
	sort.Float64s(t.lat)
	sort.Float64s(t.late)
	return t
}

// pooledLatency returns every request's latency in ms over the given
// tallies, ascending, with failures at the reply timeout.
func pooledLatency(timeout int64, ts ...tally) []float64 {
	var all []float64
	for _, t := range ts {
		all = append(all, t.latAll(timeout)...)
	}
	sort.Float64s(all)
	return all
}
