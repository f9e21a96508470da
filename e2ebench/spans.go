package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanRec is one span of the benchmark's own trace: a layer call it timed,
// or one stage of a request's life (schedule → send → reply). Spans of one
// request share its request ID.
type spanRec struct {
	name       string
	id, parent uint64
	req        uint64
	start, end time.Time
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	spans []spanRec
}

func (s *spanLog) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := uint64(len(s.spans) + 1)
	s.spans = append(s.spans, spanRec{name: name, id: id, parent: parent, req: req, start: start, end: end})
	return id
}

// maxSpanRequests caps the requests a phase records spans for: a
// saturation phase sends about 100 000, which would make the trace file
// some 30 MB.
const maxSpanRequests = 20000

// addRequests records each of the first maxSpanRequests requests of a
// traced phase as a root span from its scheduled time to its reply (or its
// timeout), with a "gen.wait" child up to the actual send and a
// "wire+server" child from send to reply. Request IDs are the airproto
// frame IDs, offset by phase so they stay unique.
func (s *spanLog) addRequests(phase string, l *load, base time.Time, timeout time.Duration, reqBase uint64) {
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	for i := range l.sched[:min(len(l.sched), maxSpanRequests)] {
		sent, end := l.sent[i], l.recv[i]
		if end == 0 || end-l.sched[i] > int64(timeout) {
			end = l.sched[i] + int64(timeout)
		}
		req := reqBase + uint64(i+1)
		root := s.add(phase+".request", 0, req, at(l.sched[i]), at(end))
		s.add("gen.wait", root, req, at(l.sched[i]), at(sent))
		s.add("wire+server", root, req, at(sent), at(end))
	}
}

// write exports the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto), timestamps in µs since t0.
func (s *spanLog) write(path string, t0 time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	_, _ = w.WriteString(`{"traceEvents":[` + "\n")
	for i, sp := range s.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		ev := event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.req,
			Ts:   float64(sp.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": sp.id, "parent": sp.parent, "request": sp.req},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
