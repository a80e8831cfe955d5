package obs

import (
	"io"
	"log/slog"
)

// Logger is the structured logger the serving and fleet components
// share: slog text output with a trace_id attribute riding the tracing
// spine, so a log line and the flight-recorder trace it belongs to
// carry the same identity.
//
// A nil *Logger is the silent logger — every method is a pointer test,
// which is what libraries default to so tests stay quiet; the CLIs
// install a real one on stderr.
type Logger struct {
	s *slog.Logger
}

// NewLogger builds a text-format logger writing to w.
func NewLogger(w io.Writer) *Logger {
	return &Logger{s: slog.New(slog.NewTextHandler(w, nil))}
}

// With returns a logger that adds the given attribute pairs to every
// record (nil-safe).
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// WithTrace returns a logger stamping trace_id on every record. An
// empty id (a request with tracing disabled) returns l unchanged.
func (l *Logger) WithTrace(traceID string) *Logger {
	if l == nil || traceID == "" {
		return l
	}
	return l.With("trace_id", traceID)
}

// Info logs at info level with alternating key/value args (nil-safe).
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn logs at warn level (nil-safe).
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, args...)
}

// Error logs at error level (nil-safe).
func (l *Logger) Error(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Error(msg, args...)
}
