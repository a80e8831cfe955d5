package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a step or a request
// (Parent 0), or a call into one layer beneath it. Spans of one step or
// request share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps a traced run's spans in memory; write dumps them when
// the run ends. It is safe for concurrent use (train_sync's two workers
// and serve_mixed's clients record into one log).
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []*span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// root opens a top-level span (a step or a request) with a fresh trace.
func (l *spanLog) root(name string) *span {
	return l.begin(name, nil, time.Now())
}

// rootAt opens a top-level span that started at t (a request timed
// from its due time).
func (l *spanLog) rootAt(name string, t time.Time) *span {
	return l.begin(name, nil, t)
}

// child opens a span under parent.
func (l *spanLog) child(parent *span, name string) *span {
	return l.begin(name, parent, time.Now())
}

func (l *spanLog) begin(name string, parent *span, t time.Time) *span {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	s := &span{ID: l.next, Trace: l.next, Name: name, Start: int64(t.Sub(l.epoch))}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	l.spans = append(l.spans, s)
	return s
}

// end closes s now and returns its duration.
func (l *spanLog) end(s *span) time.Duration {
	s.End = int64(time.Since(l.epoch))
	return s.dur()
}

// durations returns the durations of every span called name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for each finished span called name, its duration
// minus the time its direct children cover — the time no layer call
// beneath it accounts for.
func (l *spanLog) selfTimes(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 && s.End > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-covered[s.ID]))
		}
	}
	return out
}

// write dumps the spans as JSON lines, after one header line holding
// the run's provenance.
func (l *spanLog) write(path string, prov map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
