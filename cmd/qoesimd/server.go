package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/engine"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

// maxRequestBytes bounds a submitted request document. Scenario and fleet
// specs are small; anything past this is a mistake or abuse.
const maxRequestBytes = 1 << 20

// server routes the HTTP API onto one engine.
type server struct {
	eng   *engine.Engine
	mux   *http.ServeMux
	start time.Time
}

func newServer(eng *engine.Engine) *server {
	s := &server{eng: eng, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /v1/runs", s.submit)
	s.mux.HandleFunc("GET /v1/runs", s.list)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.events)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// submit accepts an engine.Request document. Responses map the engine's
// submit outcomes onto HTTP: composition failures are the client's fault
// (400), a full queue is load (429 + Retry-After), draining is shutdown
// (503), and a result-cache hit is a job that is already done (200, with
// the result one GET away and zero simulation work spent).
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request document exceeds %d bytes", maxRequestBytes))
		return
	}
	req, err := engine.ParseRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.eng.Submit(*req)
	switch {
	case errors.Is(err, engine.ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, engine.ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := j.Snapshot()
	w.Header().Set("Location", "/v1/runs/"+j.ID)
	code := http.StatusAccepted
	if st.State == engine.Done {
		code = http.StatusOK // served from the result cache at submit time
	}
	writeJSON(w, code, st)
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.eng.Jobs()})
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*engine.Job, bool) {
	j, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

// result serves the rendered table. The bytes come straight from the job's
// (possibly cache-served) output, so identical requests get identical
// bodies down to the last byte.
func (s *server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	switch j.State() {
	case engine.Queued, engine.Running:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusAccepted, fmt.Errorf("job %s is %s", j.ID, j.State()))
		return
	case engine.Failed:
		writeError(w, http.StatusInternalServerError, j.Err())
		return
	}
	out, err := j.Output()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ct := "text/plain; charset=utf-8"
	if j.Req.CSV {
		ct = "text/csv; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Qoesim-Cached", fmt.Sprintf("%t", j.Cached()))
	w.Write(out)
}

// events streams the job's NDJSON run log: full replay first, then live
// follow until the log closes or the client goes away. Every flushed chunk
// ends on a record boundary only because the log writer emits whole lines —
// consumers should still split on newlines, not chunks.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	j.Log().Follow(r.Context(), func(p []byte) error {
		if _, err := w.Write(p); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// metrics renders the Prometheus exposition from a fresh registry per
// scrape (counters accumulate on Add, so a shared registry would
// double-count): engine serving counters, the result cache, and the
// process-global corpus/script caches, then the wall-clock health block.
// The server has no run of cells, so it renders no cell families: the
// engine's completed and request counters already count its jobs.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	reg := trace.NewMetrics()
	s.eng.PublishMetrics(reg)
	cache.Publish(reg)
	var buf bytes.Buffer
	if err := telemetry.Render(&buf, reg); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	telemetry.RenderHealth(&buf, telemetry.Health{
		ElapsedMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Runtime:   runlog.CaptureRuntime(),
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.eng.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
