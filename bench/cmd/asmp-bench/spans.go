package main

import (
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory until the run ends
// and chrome renders them. Spans are recorded only around calls this
// package makes into a layer (a CLI invocation, an HTTP request, a call
// into an internal package), never inside the program. A nil *recorder
// records nothing, which is how end-to-end runs keep tracing off.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed interval. Parent is the ID of the span that caused
// it (0 for none); spans of one served request share a Tid.
type span struct {
	ID, Parent int
	Tid        int
	Cat, Name  string
	Start, End time.Duration
	Args       map[string]any
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now()} //asmp:allow walltime benchmark timing
}

// begin opens a span and returns its ID and the function that closes it.
func (r *recorder) begin(cat, name string, parent, tid int, args map[string]any) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0) //asmp:allow walltime benchmark timing
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Tid: tid, Cat: cat, Name: name, Start: start, End: -1, Args: args})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0) //asmp:allow walltime benchmark timing
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chrome renders every closed span as a Chrome trace-event document,
// with each span's ID and parent in its args.
func (r *recorder) chrome() chromeTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Tid, Args: args,
		})
	}
	return tr
}
