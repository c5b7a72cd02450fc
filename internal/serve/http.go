package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// NewHandler mounts the job API on top of the telemetry server's
// observability endpoints:
//
//	POST   /jobs               submit (201; 400 bad spec; 413 body over 1 MiB; 429 queue full; 503 draining)
//	GET    /jobs               list all jobs
//	GET    /jobs/{id}          one job's state
//	DELETE /jobs/{id}          request cancellation (202)
//	GET    /jobs/{id}/events   SSE stream of the job's event log
//	GET    /jobs/{id}/files    list the job directory
//	GET    /jobs/{id}/files/{name}  download a result artifact
//	GET    /metrics, /metrics.json, /healthz, /debug/pprof/*  (telemetry)
func NewHandler(s *Scheduler, tel *telemetry.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/files", s.handleFilesList)
	mux.HandleFunc("GET /jobs/{id}/files/{name}", s.handleFile)
	if tel != nil {
		mux.Handle("/", tel.Handler())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a POST /jobs body; a job spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The body is one spec: anything after it but white space is refused.
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("more than one JSON value in the body")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decode job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Admission control: the client learns immediately and retries
		// with backoff — the queue bounds memory, it never silently drops.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.View())
}

func (s *Scheduler) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, views)
}

// jobFor resolves {id} or replies 404.
func (s *Scheduler) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j
}

func (s *Scheduler) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.View())
	}
}

func (s *Scheduler) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, j.View())
}

// handleEvents streams the job's event log as Server-Sent Events: full
// replay from the start (or ?after=SEQ), then live follow until the job
// reaches a terminal state or the client disconnects.
func (s *Scheduler) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	after := int64(-1)
	if a := r.URL.Query().Get("after"); a != "" {
		n, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad after=%q", a))
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	done := r.Context().Done()
	for i := int(after + 1); ; i++ {
		ev, ok := j.events.next(i, done)
		if !ok {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		fl.Flush()
	}
}

func (s *Scheduler) handleFilesList(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	var names []string
	filepath.WalkDir(j.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if rel, err := filepath.Rel(j.Dir, path); err == nil {
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

func (s *Scheduler) handleFile(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	// The name is a single path element; anything trying to escape the
	// job directory 404s. (Nested artifacts like ckpt/advect.forest are
	// addressed by their basename's directory via the files listing and
	// fetched with an escaped slash.)
	name := r.PathValue("name")
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean != filepath.Base(clean) || clean == ".." || clean == "." {
		writeError(w, http.StatusNotFound, fmt.Errorf("no file %q", name))
		return
	}
	path := filepath.Join(j.Dir, clean)
	if fi, err := os.Stat(path); err != nil || fi.IsDir() {
		writeError(w, http.StatusNotFound, fmt.Errorf("no file %q", name))
		return
	}
	http.ServeFile(w, r, path)
}
