package main

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/trace"
)

// Serving metrics, mirrored alongside the airServer's own atomics (tests
// assert exact per-server values on the atomics; the obs counters aggregate
// process-wide for the sidecar):
//
//	serve.request.seconds  per-request latency, enqueue to reply written
//	serve.queue.depth      in-flight requests queued for the worker fleet
//	serve.served           data frames answered
//	serve.shed             load-shedding NACKs (queue-full StatusDegraded
//	                       plus brownout StatusRetryAfter)
//	serve.brownout_shed    the brownout subset of serve.shed: admission-
//	                       control rejections with a RetryAfter hint
//	serve.expired          requests dropped at dequeue because their
//	                       deadline budget ran out (StatusExpired NACKs)
//	serve.admit_fraction   the admission controller's current shed fraction
//	                       in parts per million (gauge; 0 = fully open)
//	serve.nacked           bad-frame / wrong-length NACKs
//	serve.heals            heal() invocations (monitor-triggered or manual)
//	serve.swaps            epochs published after the first
//	serve.canary_rejects   heal candidates rejected by the canary gate
//	serve.rollbacks        published heals rolled back by the supervisor
//	serve.trace_too_large  trace fetches answered StatusTooLarge because the
//	                       export would not fit one datagram
var (
	reqSeconds         = obs.NewLatencyHistogram("serve.request.seconds")
	queueDepth         = obs.NewGauge("serve.queue.depth")
	servedCount        = obs.NewCounter("serve.served")
	shedCount          = obs.NewCounter("serve.shed")
	brownoutShedCount  = obs.NewCounter("serve.brownout_shed")
	expiredCount       = obs.NewCounter("serve.expired")
	admitFraction      = obs.NewGauge("serve.admit_fraction")
	nackedCount        = obs.NewCounter("serve.nacked")
	healCount          = obs.NewCounter("serve.heals")
	swapCount          = obs.NewCounter("serve.swaps")
	canaryRejectCount  = obs.NewCounter("serve.canary_rejects")
	rollbackCount      = obs.NewCounter("serve.rollbacks")
	traceTooLargeCount = obs.NewCounter("serve.trace_too_large")
)

// Probe-side counters. The retry/backoff and stale-drain paths used to be
// invisible in snapshots — a probe that quietly burned its attempts or
// swallowed a stale NACK left no trace. Now every retry and every stale
// NACK drained off the socket counts:
//
//	probe.retries           exchange attempts beyond each request's first
//	probe.stale_nacks       stale NACK datagrams discarded by drainStale
//	probe.budget_exhausted  exchanges abandoned because the overall deadline
//	                        budget ran out (counted separately from the
//	                        per-attempt timeouts it subsumes)
var (
	probeRetries         = obs.NewCounter("probe.retries")
	probeStaleNacks      = obs.NewCounter("probe.stale_nacks")
	probeBudgetExhausted = obs.NewCounter("probe.budget_exhausted")
)

// requestP99 reads the live 99th-percentile request latency out of the obs
// histogram — the tail sampler's "slow" threshold. Zero (sampler treats
// nothing as slow on latency grounds) until requests have been observed.
func requestP99() time.Duration {
	h, ok := obs.Default().Snapshot().Histograms["serve.request.seconds"]
	if !ok {
		return 0
	}
	return time.Duration(h.Quantile(0.99) * float64(time.Second))
}

// metricsMux builds the observability sidecar: the obs snapshot in text and
// JSON, the expvar dump, and the full pprof suite.
func metricsMux() *http.ServeMux {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := obs.Default().Snapshot().WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.Default().Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteList(w, trace.Default().List()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		idHex := strings.TrimPrefix(r.URL.Path, "/trace/")
		id, err := trace.ParseID(idHex)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tr, flags := trace.Default().Get(id)
		if tr == nil {
			http.Error(w, "trace not retained (sampled out, evicted, or never recorded)", http.StatusNotFound)
			return
		}
		// Chrome trace-event JSON: save the body and load it in
		// chrome://tracing or https://ui.perfetto.dev.
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteJSON(w, tr, flags, trace.ExportOptions{}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := events.Default().WriteNDJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "metaai-serve observability sidecar: /metrics /metrics.json /traces /trace/<id> /events /debug/vars /debug/pprof/")
	})
	return mux
}
