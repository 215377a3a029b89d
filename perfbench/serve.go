package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serve drives a real qoesimd process over loopback HTTP from a cold and a
// warm client, each on its own keep-alive connection. The cold client
// submits fig3a at seeds never seen before, so each request generates a
// corpus and fills the result cache; the warm client resubmits requests
// the set-up completed, which are result-cache reads. The clients take
// turns in one closed loop, in rounds of the load test's mix (see
// coldPerRound), so the run keeps one thread busy at a time (see
// README.md). Every request is an operation; the timed unit is a cold
// request, from submit to result.
type serve struct {
	bin  string
	seed uint64
	// warmN is the number of distinct requests the set-up completes for
	// the warm client to replay.
	warmN int

	cmd        *exec.Cmd
	stderrDone chan struct{}
	base       string
	cold, warm *http.Client
	warmSet    []warmReq
	nextCold   uint64
	// corrupt, when set, damages each warm body before it is checked (the
	// self-test uses it to prove the check can fail).
	corrupt func([]byte) []byte
}

// coldPerRound and warmPerRound are the traffic mix of the checked-in load
// test, LOADTEST_2026-08-08.json: 3 result-cache loads and 16 hits over its
// 3 distinct requests. One round sends the cold requests, then the warm
// ones, so the result cache's designed hit ratio is 16/19, the load test's.
const coldPerRound, warmPerRound = 3, 16

type warmReq struct {
	doc, body []byte
}

func newServe(bin string, seed uint64) *serve {
	return &serve{bin: bin, seed: seed, warmN: coldPerRound}
}

// client returns an HTTP client that holds at most one keep-alive
// connection, so the two clients use two connections in all.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func fig3aDoc(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"experiment":"fig3a","seed":%d}`, seed))
}

// setup starts qoesimd, waits for /healthz, and computes the warm set; the
// first warm-set request is the untimed cold operation.
func (s *serve) setup(clk *refClock) error {
	s.cold, s.warm = client(), client()
	s.cmd = exec.Command(s.bin, "-addr", "127.0.0.1:0", "-workers", "1")
	s.cmd.Env = append(os.Environ(), singleCPU)
	// qoesimd must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("serve: start %s: %w", s.bin, err)
	}
	s.stderrDone = make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "qoesimd: serving on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.stderrDone:
		return errors.New("serve: qoesimd exited before listening")
	case <-time.After(30 * time.Second):
		return errors.New("serve: qoesimd did not report its address within 30s")
	}
	if err := s.healthz(); err != nil {
		return err
	}
	for i := 0; i < s.warmN; i++ {
		doc := fig3aDoc(s.seed*10000 + uint64(i))
		op, err := s.coldOp(nil, 0, doc)
		if err != nil {
			return fmt.Errorf("serve: warm-set request %s: %w", doc, err)
		}
		s.warmSet = append(s.warmSet, warmReq{doc: doc, body: op.body})
	}
	s.nextCold = s.seed*10000 + 100
	return nil
}

func (s *serve) healthz() error {
	resp, err := s.warm.Get(s.base + "/healthz")
	if err != nil {
		return fmt.Errorf("serve: healthz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: healthz answered %d", resp.StatusCode)
	}
	return nil
}

// submit posts a request document and returns the status code and job id.
func (s *serve) submit(c *http.Client, doc []byte) (int, string, error) {
	resp, err := c.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(doc))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, "", fmt.Errorf("decode submit answer: %w", err)
		}
	}
	return resp.StatusCode, st.ID, nil
}

// result fetches a finished job's body and whether it came from the result
// cache. The run log can close a moment before the job is marked done, so
// a 202 right after the log ended is retried at once, never after a sleep.
func (s *serve) result(c *http.Client, id string) ([]byte, bool, error) {
	for try := 0; ; try++ {
		resp, err := c.Get(s.base + "/v1/runs/" + id + "/result")
		if err != nil {
			return nil, false, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, false, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return body, resp.Header.Get("X-Qoesim-Cached") == "true", nil
		case resp.StatusCode == http.StatusAccepted && try < 1000:
			continue
		default:
			return nil, false, fmt.Errorf("result of %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
}

// coldResult is one cold request's outcome.
type coldResult struct {
	body []byte
	id   string
	took time.Duration
	// submit and result are the two HTTP round trips inside took.
	submit, result time.Duration
	logDone        time.Time // when the job's run log ended
	logSpan        int
	req            int64
}

// coldOp submits a request that must miss the result cache, waits for it by
// reading its run log to the end, and fetches the result.
func (s *serve) coldOp(tr *tracer, req int64, doc []byte) (coldResult, error) {
	res := coldResult{req: req}
	start := time.Now()
	root := tr.begin("bench.cold", 0, req)
	defer tr.end(root)
	sp := tr.begin("qoesimd.submit", root, req)
	code, id, err := s.submit(s.cold, doc)
	tr.end(sp)
	res.submit = time.Since(start)
	if err != nil {
		return res, err
	}
	if code != http.StatusAccepted {
		return res, fmt.Errorf("cold submit answered %d, want 202 (a new job)", code)
	}
	res.id = id
	res.logSpan = tr.begin("qoesimd.events", root, req)
	err = s.readLog(id)
	res.logDone = time.Now()
	tr.end(res.logSpan)
	if err != nil {
		return res, err
	}
	sp = tr.begin("qoesimd.result", root, req)
	body, cached, err := s.result(s.cold, id)
	tr.end(sp)
	res.took = time.Since(start)
	res.result = time.Since(res.logDone)
	if err != nil {
		return res, err
	}
	if cached {
		return res, fmt.Errorf("cold request %s was served from the result cache", doc)
	}
	res.body = body
	return res, nil
}

// readLog reads the job's NDJSON run log to the end of the stream, which
// is when the job has finished.
func (s *serve) readLog(id string) error {
	resp, err := s.cold.Get(s.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// warmOp resubmits a completed request: it must be a result-cache hit whose
// body is byte-identical to the cold body.
func (s *serve) warmOp(tr *tracer, req int64, w warmReq) error {
	root := tr.begin("bench.warm", 0, req)
	defer tr.end(root)
	sp := tr.begin("qoesimd.submit", root, req)
	code, id, err := s.submit(s.warm, w.doc)
	tr.sample("qoesimd.submit_ms", ms(tr.end(sp)))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("warm submit answered %d, want 200 (a result-cache hit)", code)
	}
	sp = tr.begin("qoesimd.result", root, req)
	body, cached, err := s.result(s.warm, id)
	tr.sample("qoesimd.result_ms", ms(tr.end(sp)))
	if err != nil {
		return err
	}
	if !cached {
		return fmt.Errorf("warm request %s was not served from the result cache", w.doc)
	}
	if s.corrupt != nil {
		body = s.corrupt(body)
	}
	if !bytes.Equal(body, w.body) {
		return fmt.Errorf("warm body of %s (%d bytes) differs from its cold body (%d bytes)", w.doc, len(body), len(w.body))
	}
	return nil
}

// jobWallMS reads the engine's own run time of a finished job.
func (s *serve) jobWallMS(id string) (float64, error) {
	resp, err := s.cold.Get(s.base + "/v1/runs/" + id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		WallMS float64 `json:"wall_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decode status of %s: %w", id, err)
	}
	return st.WallMS, nil
}

// scrape reads every unlabeled sample of qoesimd's /metrics.
func (s *serve) scrape() (map[string]float64, error) {
	resp, err := s.warm.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "mobileqoe_")] = v
		}
	}
	return out, sc.Err()
}

func (s *serve) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	before, err := s.scrape()
	if err != nil {
		t.check(fmt.Errorf("serve: scrape /metrics: %w", err))
		return t
	}
	var coldOK, warmOK int
	for i := 0; time.Now().Before(deadline); {
		for c := 0; c < coldPerRound; c, i = c+1, i+1 {
			opTr := alternate(tr, i)
			doc := fig3aDoc(s.nextCold)
			s.nextCold++
			clk := startClock()
			op, err := s.coldOp(opTr, opTr.newReq(), doc)
			t.add([]float64{clk.lap()}, opTr != nil, err)
			if err == nil {
				coldOK++
				if opTr != nil {
					s.traceCold(opTr, op)
				}
			}
		}
		for k := 0; k < warmPerRound; k++ {
			wTr := alternate(tr, k)
			w := s.warmSet[k%len(s.warmSet)]
			err := s.warmOp(wTr, wTr.newReq(), w)
			t.add(nil, wTr != nil, err)
			if err == nil {
				warmOK++
			}
		}
	}
	after, err := s.scrape()
	if err != nil {
		t.check(fmt.Errorf("serve: scrape /metrics: %w", err))
		return t
	}
	d := func(name string) float64 { return after[name] - before[name] }
	// Every warm submit is one result-cache hit; every cold request one load.
	hits, loads := d("cache_engine_results_hits"), d("cache_engine_results_loads")
	if hits != float64(warmOK) || loads != float64(coldOK) {
		t.check(fmt.Errorf("serve: result cache counted %g hits and %g loads, want %d warm and %d cold", hits, loads, warmOK, coldOK))
	}
	t.allocBytes = d("go_alloc_bytes_total")
	if wall := d("run_elapsed_ms"); wall > 0 {
		// qoesimd exposes GC pause time, not GC CPU time: report the pause
		// share of its wall time.
		t.gcFrac = d("go_gc_pause_ms_total") / wall
	}
	if tr != nil {
		ratio := func(h, m float64) float64 {
			if h+m > 0 {
				return h / (h + m)
			}
			return 0
		}
		tr.sample("cache.result_hit_ratio", ratio(hits, loads))
		tr.sample("cache.profiles_hit_ratio", ratio(d("cache_webpage_profiles_hits"), d("cache_webpage_profiles_misses")))
		tr.sample("cache.programs_hit_ratio", ratio(d("cache_script_programs_hits"), d("cache_script_programs_misses")))
		tr.sample("cache.corpus_loads", d("cache_webpage_corpus_loads"))
	}
	return t
}

// traceCold derives the engine's share of a traced cold request: its run
// time as the job reports it, and the queueing left once the HTTP round
// trips and the run are taken out.
func (s *serve) traceCold(tr *tracer, op coldResult) {
	wall, err := s.jobWallMS(op.id)
	if err != nil {
		return // the metrics then lack this request's sample, nothing more
	}
	tr.record("engine.run", op.logSpan, op.req, op.logDone.Add(-time.Duration(wall*float64(time.Millisecond))), op.logDone)
	tr.sample("engine.run_ms", wall)
	tr.sample("engine.queue_ms", ms(op.took)-wall-ms(op.submit)-ms(op.result))
}

func (s *serve) digest() string {
	h := sha256.New()
	for _, w := range s.warmSet {
		h.Write(w.body)
	}
	return "warm bodies sha256:" + hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is qoesimd's peak RSS, not the client's.
func (s *serve) peakRSSMB() (float64, error) {
	if s.cmd == nil || s.cmd.Process == nil {
		return 0, errors.New("serve: qoesimd is not running")
	}
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// close drains qoesimd with SIGTERM and waits for it to exit.
func (s *serve) close() error {
	if s.cmd == nil || s.cmd.Process == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderrDone:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.stderrDone
	}
	err := s.cmd.Wait()
	s.cmd = nil
	if err != nil {
		return fmt.Errorf("serve: qoesimd: %w", err)
	}
	return nil
}
