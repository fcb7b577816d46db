package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPJobRoundTrip drives the whole wire surface: submit, poll the
// lifecycle, fetch the result, re-submit for a cache hit, then drain
// and watch readiness flip while liveness stays up.
func TestHTTPJobRoundTrip(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}, delay: 2 * time.Millisecond}
	s := openMem(t, Options{Workers: 1, Lookup: lookupOf(fr)})
	h := s.Handler()

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := do(http.MethodPost, "/jobs", `{"workload":"fake","flags":{"dim":"1","rows":"4"}}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit status %+v", st)
	}

	deadline := time.Now().Add(5 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
		rec = do(http.MethodGet, "/jobs/"+st.ID, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.ResultURL == "" {
		t.Fatalf("done status has no result_url: %+v", st)
	}

	rec = do(http.MethodGet, st.ResultURL, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result = %d", rec.Code)
	}
	body1 := rec.Body.String()
	if !strings.Contains(body1, `"fake"`) {
		t.Fatalf("result body does not look like a report: %s", body1)
	}

	// Cache hit: 200, cached flag, identical bytes.
	rec = do(http.MethodPost, "/jobs", `{"workload":"fake","flags":{"rows":"4","dim":"1"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cached submit = %d", rec.Code)
	}
	var st2 JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("cached submit status %+v", st2)
	}
	if got := do(http.MethodGet, st2.ResultURL, "").Body.String(); got != body1 {
		t.Fatalf("cached result differs:\n%s\n---\n%s", got, body1)
	}

	// Unknown job: typed 404. Result of a never-submitted id likewise.
	if rec := do(http.MethodGet, "/jobs/j999", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job = %d", rec.Code)
	}

	// Health and readiness across drain.
	if rec := do(http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := do(http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d", rec.Code)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rec := do(http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, liveness must hold", rec.Code)
	}
	if rec := do(http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", rec.Code)
	}
	if rec := do(http.MethodPost, "/jobs", `{"workload":"fake"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 lacks Retry-After")
	}

	var stats Stats
	rec = do(http.MethodGet, "/stats", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admitted != 2 || stats.CacheHits != 1 || !stats.Draining {
		t.Fatalf("stats %+v", stats)
	}
}

// TestHTTPResultBeforeDone: polling the result of a queued/running job
// is a 409, not a hang or an empty 200.
func TestHTTPResultBeforeDone(t *testing.T) {
	fr := &fakeRunner{name: "slow", block: true}
	s := openMem(t, Options{Workers: 1, JobTimeout: 50 * time.Millisecond, Lookup: lookupOf(fr)})
	defer s.Drain(time.Second)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"workload":"slow"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID+"/result", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("result of unfinished job = %d, want 409", rec.Code)
	}
}
