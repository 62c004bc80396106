package serve

// HTTP surface: the JSON API and the HTML dashboard (rendered by
// internal/report). Routing uses the method+pattern mux so handlers are
// method-exact and path parameters come from r.PathValue.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"invisispec/internal/conform"
	"invisispec/internal/leakage"
	"invisispec/internal/report"
	"invisispec/internal/runner"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /api/v1/jobs/{id}/verdict", s.handleVerdict)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /{$}", s.handleDashIndex)
	mux.HandleFunc("GET /jobs/{id}", s.handleDashJob)
	mux.HandleFunc("GET /trends", s.handleDashTrends)
	return mux
}

// jsonEncoder is the API's uniform encoder: two-space indent, trailing
// newline (encoding/json.Encoder semantics).
func jsonEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}

// writeJSON emits a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jsonEncoder(w).Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// jobStatus is the GET /api/v1/jobs/{id} document (and the list entry).
type jobStatus struct {
	ID       string   `json:"id"`
	Type     string   `json:"type"`
	Name     string   `json:"name"`
	State    JobState `json:"state"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	Progress struct {
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Total     int   `json:"total"`
	} `json:"progress"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Cancelled int64 `json:"cancelled,omitempty"`
	} `json:"cache"`
	Degraded    int    `json:"degraded,omitempty"`
	Error       string `json:"error,omitempty"`
	ArtifactURL string `json:"artifact_url,omitempty"`
	VerdictURL  string `json:"verdict_url,omitempty"`
}

// statusFor snapshots a job. Callers must NOT hold s.mu.
func (s *Server) statusFor(j *Job) jobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *Job) jobStatus {
	st := jobStatus{
		ID:      j.ID,
		Type:    j.Req.Type,
		Name:    j.Req.Name,
		State:   j.stateV,
		Created: j.Created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	st.Progress.Completed = j.completed.Load()
	st.Progress.Failed = j.failed.Load()
	st.Progress.Total = j.totalCells
	st.Cache.Hits = j.cacheHits.Load()
	st.Cache.Misses = j.cacheMisses.Load()
	st.Cache.Cancelled = j.cancelled.Load()
	st.Degraded = j.degraded
	st.Error = j.errText
	if j.stateV == StateDone {
		st.ArtifactURL = "/api/v1/jobs/" + j.ID + "/artifact"
		if j.verdict != nil {
			st.VerdictURL = "/api/v1/jobs/" + j.ID + "/verdict"
		}
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after restart (completed cells are cached)")
		return
	}
	s.nextID++
	job := &Job{
		ID:      fmt.Sprintf("j%d", s.nextID),
		Req:     req,
		Created: time.Now(),
		stateV:  StatePending,
		srv:     s,
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(job)
	writeJSON(w, http.StatusAccepted, s.statusFor(job))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobStatus `json:"jobs"`
	}{Jobs: out})
}

// jobFor resolves the {id} path parameter (nil after writing a 404).
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.statusFor(j))
	}
}

// handleArtifact streams the finished job's artifact bytes — exactly the
// bytes the executor assembled, so clients can compare them byte-for-byte
// with CLI-produced artifacts.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, art, ct := j.stateV, j.artifact, j.contentType
	s.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "job %s is %s; artifact available once done", j.ID, state)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Write(art)
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, v := j.stateV, j.verdict
	s.mu.Unlock()
	switch {
	case state != StateDone:
		writeError(w, http.StatusConflict, "job %s is %s; verdict available once done", j.ID, state)
	case v == nil:
		writeError(w, http.StatusNotFound, "job %s has no verdict (not a sweep, or no baseline configured)", j.ID)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(v)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.isDraining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}

// reportRow converts a job snapshot for the dashboard.
func reportRow(st jobStatus) report.JobRow {
	return report.JobRow{
		ID: st.ID, Type: st.Type, Name: st.Name, State: string(st.State),
		Completed: int(st.Progress.Completed), Failed: int(st.Progress.Failed),
		Total: st.Progress.Total, Degraded: st.Degraded,
		CacheHits: st.Cache.Hits, CacheMisses: st.Cache.Misses,
		Error: st.Error,
	}
}

func (s *Server) handleDashIndex(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rows := make([]report.JobRow, 0, len(s.order))
	for _, id := range s.order {
		rows = append(rows, reportRow(s.statusLocked(s.jobs[id])))
	}
	s.mu.Unlock()
	m := s.Metrics()
	d := report.IndexData{
		Jobs: rows,
		Metrics: report.MetricsView{
			HitRate: m.CacheHitRate, Hits: m.Cache.Hits, Misses: m.Cache.Misses,
			FlightHits: m.Cache.FlightHits, Corrupt: m.Cache.Corrupt, Entries: m.Cache.Entries, Bytes: m.Cache.Bytes,
			QueueDepth: int(m.QueueDepth), WorkersBusy: int(m.WorkersBusy),
			WorkersTotal: m.WorkersTotal,
		},
		Draining:  m.Draining,
		HasTrends: s.opts.HistoryDir != "",
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	report.RenderIndex(w, d)
}

func (s *Server) handleDashJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	st := s.statusFor(j)
	page := report.JobPage{Job: reportRow(st), Cell: r.URL.Query().Get("cell")}
	s.mu.Lock()
	art, verdict := j.artifact, j.verdict
	s.mu.Unlock()
	if st.State == StateDone && art != nil {
		switch st.Type {
		case TypeSweep:
			if b, err := runner.ReadBenchJSON(bytes.NewReader(art)); err == nil {
				page.Bench = b
			}
			if verdict != nil {
				var v runner.DiffVerdict
				if json.Unmarshal(verdict, &v) == nil {
					page.Verdict = &v
				}
			}
		case TypeLeakscan:
			if rep, err := leakage.ReadJSON(bytes.NewReader(art)); err == nil {
				page.Leakage = rep
			}
		case TypeConform:
			if rep, err := conform.ReadReportJSON(bytes.NewReader(art)); err == nil {
				page.Conform = rep
			}
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	report.RenderJob(w, page)
}

func (s *Server) handleDashTrends(w http.ResponseWriter, r *http.Request) {
	if s.opts.HistoryDir == "" {
		writeError(w, http.StatusNotFound, "no history directory configured")
		return
	}
	hist, err := report.LoadHistory(s.opts.HistoryDir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "loading history: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	report.RenderTrends(w, hist)
}
