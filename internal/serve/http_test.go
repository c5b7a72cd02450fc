package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	tel := telemetry.NewServer()
	s := newTestScheduler(t, cfg, tel)
	ts := httptest.NewServer(NewHandler(s, tel))
	t.Cleanup(ts.Close)
	return s, ts
}

// TestHTTPRejectsTransportField pins that a spec still naming a rank
// fabric is refused, not silently run on the one fabric there is.
func TestHTTPRejectsTransportField(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 1})
	defer s.Drain()
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"type":"advect","ranks":2,"steps":2,"transport":"shm"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "transport") {
		t.Errorf("spec with transport: %d %s, want 400 naming the field", resp.StatusCode, body)
	}
}

// tinySpec is a valid advect spec that finishes in milliseconds.
const tinySpec = `{"type":"advect","ranks":2,"steps":2,"level":1,"max_level":1,"adapt_every":-1,"checkpoint_every":-1}`

func postSpec(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestHTTPRejectsOversizedSpec pins the body limit of POST /jobs: a body
// over 1 MiB is answered 413 and never reaches the queue.
func TestHTTPRejectsOversizedSpec(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 1})
	defer s.Drain()
	if code := postSpec(t, ts.URL, strings.Repeat(" ", maxSpecBytes)+tinySpec); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", code)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
}

// TestHTTPRejectsTrailingData pins that the body of POST /jobs is exactly
// one spec: a second value or trailing garbage is a 400, white space is not.
func TestHTTPRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 1})
	defer s.Drain()
	for _, body := range []string{tinySpec + tinySpec, tinySpec + " junk"} {
		if code := postSpec(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("%q: %d, want 400", body, code)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs admitted, want 0", n)
	}
	if code := postSpec(t, ts.URL, tinySpec+"\n"); code != http.StatusCreated {
		t.Errorf("spec with a trailing newline: %d, want 201", code)
	}
}

func TestHTTPJobAPI(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 2})
	defer s.Drain()

	// Bad JSON and bad specs are 400s.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"type":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad type: %d, want 400", resp.StatusCode)
	}

	// Submit, read back, list.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"type":"advect","ranks":2,"steps":2,"tag":"api"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d, want 201", resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" || view.Type != TypeAdvect || view.Tag != "api" {
		t.Fatalf("view = %+v", view)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("get: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get missing: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 || views[0].ID != view.ID {
		t.Errorf("list = %+v", views)
	}

	j := s.Job(view.ID)
	waitTerminal(t, j, time.Minute)

	// Files: list + fetch + traversal rejection.
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/files")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	if err := json.NewDecoder(resp.Body).Decode(&files); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hasManifest := false
	for _, f := range files {
		if f == "manifest.json" {
			hasManifest = true
		}
	}
	if !hasManifest {
		t.Errorf("files = %v, want manifest.json", files)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/files/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fetch manifest: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/files/..%2f..%2fetc%2fpasswd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal: %d, want 404", resp.StatusCode)
	}

	// Telemetry endpoints ride on the same handler.
	for _, path := range []string{"/metrics", "/metrics.json", "/healthz"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
	}
}

// TestHTTPEventsSSE follows a job's SSE stream live and checks framing,
// ordering, and termination; then replays with ?after=.
func TestHTTPEventsSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 1})
	defer s.Drain()
	j, err := s.Submit(JobSpec{Type: TypeAdvect, Ranks: 2, Steps: 3, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var seqs []int64
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event %q: %v", data, err)
			}
			seqs = append(seqs, ev.Seq)
			last = ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 5 { // queued, running, 3 progress, result, done
		t.Fatalf("only %d events: %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("seqs not dense: %v", seqs)
		}
	}
	if last.Type != "state" || last.Data["state"] != string(StateDone) {
		t.Errorf("last event %+v, want terminal state", last)
	}

	// Replay from the middle.
	resp2, err := http.Get(fmt.Sprintf("%s/jobs/%s/events?after=%d", ts.URL, j.ID, seqs[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	var first int64 = -1
	for sc2.Scan() {
		if data, ok := strings.CutPrefix(sc2.Text(), "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			first = ev.Seq
			break
		}
	}
	if first != seqs[2]+1 {
		t.Errorf("replay started at %d, want %d", first, seqs[2]+1)
	}
}

// TestHTTPCancel cancels a long job over the API once it is stepping, and
// checks that a job stopped mid-run publishes nothing a finished job
// would: it ends canceled with the steps it actually took and no field
// hash, result event, manifest or trace.
func TestHTTPCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxActive: 1})
	defer s.Drain()
	const steps = 100000
	j, err := s.Submit(JobSpec{
		Type: TypeAdvect, Ranks: 2, Steps: steps,
		AdaptEvery: -1, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first completed step: the cancel must hit a running loop.
	for i := 0; ; i++ {
		ev, ok := j.events.next(i, nil)
		if !ok {
			t.Fatal("job ended before its first step")
		}
		if ev.Type == "progress" {
			break
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	if st := waitTerminal(t, j, time.Minute); st != StateCanceled {
		t.Errorf("state = %s, want canceled", st)
	}

	v := j.View()
	if v.FieldHash != "" {
		t.Errorf("canceled job published field hash %s", v.FieldHash)
	}
	if got := v.Result["steps"]; got < 1 || got >= steps {
		t.Errorf("result steps = %v, want the steps actually taken (1 <= n < %d)", got, steps)
	}
	progress := 0
	for i := 0; ; i++ {
		ev, ok := j.events.next(i, nil)
		if !ok {
			break
		}
		switch ev.Type {
		case "result":
			t.Errorf("canceled job emitted a result event: %v", ev.Data)
		case "progress":
			progress++
		}
	}
	if float64(progress) != v.Result["steps"] {
		t.Errorf("%d progress events, result steps = %v", progress, v.Result["steps"])
	}
	for _, f := range []string{"manifest.json", "trace.json", "flight-error.trace.json"} {
		if fileExists(t, j, f) {
			t.Errorf("canceled job left %s", f)
		}
	}
}
