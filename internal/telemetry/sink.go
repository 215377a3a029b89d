package telemetry

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"mobileqoe/internal/atomicfile"
)

// Sink delivers rendered exposition snapshots to one of two targets:
//
//   - a file path: every Update atomically replaces the file (tmp+rename
//     via internal/atomicfile), so a concurrent reader never sees a torn
//     snapshot;
//   - a listen address (":9090", "127.0.0.1:9090"): a tiny HTTP server serves
//     GET /metrics (Content-Type text/plain; version=0.0.4) and GET /healthz.
//
// The HTTP handler serves only pre-rendered bytes stored by Update — all
// rendering happens on the caller's goroutine, under the caller's locks — so
// the listener adds no data races against the (single-owner, not
// concurrency-safe) metrics registry.
type Sink struct {
	mu   sync.Mutex
	path string
	snap []byte

	ln  net.Listener
	srv *http.Server
}

// IsAddr reports whether a -telemetry target names a listen address rather
// than a snapshot file: ":port", or "host:port" with a numeric port.
func IsAddr(target string) bool {
	if strings.HasPrefix(target, ":") {
		_, err := strconv.Atoi(target[1:])
		return err == nil
	}
	host, port, err := net.SplitHostPort(target)
	if err != nil || host == "" {
		return false
	}
	_, err = strconv.Atoi(port)
	return err == nil
}

// NewSink opens the target. Address targets bind immediately (so a bad port
// fails at startup, not at first scrape) and serve until Close.
func NewSink(target string) (*Sink, error) {
	if target == "" {
		return nil, fmt.Errorf("telemetry: empty target")
	}
	s := &Sink{}
	if !IsAddr(target) {
		s.path = target
		return s, nil
	}
	ln, err := net.Listen("tcp", target)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.mu.Lock()
		snap := s.snap
		s.mu.Unlock()
		w.Write(snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Update publishes one rendered snapshot. Nil-safe (a nil Sink means
// -telemetry was not given).
func (s *Sink) Update(snapshot []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.snap = snapshot
	path := s.path
	s.mu.Unlock()
	if path == "" {
		return nil
	}
	if err := atomicfile.Write(path, snapshot, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// Close stops the HTTP listener (no-op for file sinks and nil sinks). The
// port is free when it returns: the listener is closed here too, because
// the serving goroutine may not have registered it with the server yet.
func (s *Sink) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	if cerr := s.ln.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
		err = cerr
	}
	return err
}
