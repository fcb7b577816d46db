package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzParseJob hammers the submission parser and the full POST /jobs
// path with arbitrary bodies: every input must produce either an
// admitted job or a typed 4xx — never a panic, never a 5xx.
func FuzzParseJob(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"workload":"fake"}`,
		`{"workload":"fake","flags":{"dim":"2","rows":"10"}}`,
		`{"workload":"fake","flags":{"rows":"10","dim":"2"}}`,
		`{"experiment":"E1"}`,
		`{"workload":"fake","experiment":"E1"}`,
		`{"workload":"nosuch"}`,
		`{"experiment":"E99"}`,
		`{"workload":"fake","flags":{"bogus":"1"}}`,
		`{"workload":"fake","flags":{"dim":"notanint"}}`,
		`{"workload":"fake","flags":{"seed":"99999999999999999999"}}`,
		`{"workload":"fake","flags":{"pad":"5x"}}`,
		`{"workload":"fake","flags":{"faults":"crash=@"}}`,
		`{"workload":"fake","flags":{"chaos":"=,="}}`,
		`{"tenant":"` + strings.Repeat("t", 100) + `","workload":"fake"}`,
		`{"workload":"` + strings.Repeat("w", 300) + `"}`,
		`{"workload":"fake","flags":{"` + strings.Repeat("k", 100) + `":"1"}}`,
		`{"workload":"fake","flags":{"dim":"` + strings.Repeat("9", 500) + `"}}`,
		`{"workload":"fake"} {"workload":"fake"}`,
		`{"unknown_field":true,"workload":"fake"}`,
		`[{"workload":"fake"}]`,
		`"workload"`,
		`nul`,
		`{"workload":"fake","flags":null}`,
		`{"workload":"","experiment":""}`,
	} {
		f.Add([]byte(seed))
	}

	// One server for the whole fuzz run: a fake workload so fully valid
	// specs exercise admission end to end, generous quotas so the only
	// 429s are real queue pressure.
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows", "pad", "faults", "chaos"}}
	srv := openMem(f, Options{Workers: 2, Queue: 64, Rate: 1e9, Burst: 1e9, MaxInFlight: 1 << 30,
		Lookup: lookupOf(fr)})
	handler := srv.Handler()
	// Fuzz workers may leave admitted jobs in flight; unwind the pool
	// when the run ends.
	f.Cleanup(func() { srv.Drain(10 * time.Second) })

	f.Fuzz(func(t *testing.T, body []byte) {
		// The pure parser: must never panic, and a success must satisfy
		// the spec invariants.
		if spec, apiErr := ParseJobSpec(body); apiErr == nil {
			if spec == nil {
				t.Fatal("nil spec with nil error")
			}
			if (spec.Workload == "") == (spec.Experiment == "") {
				t.Fatalf("parsed spec violates workload XOR experiment: %+v", spec)
			}
			if spec.Tenant == "" {
				t.Fatal("parsed spec has empty tenant")
			}
		} else if apiErr.Status < 400 || apiErr.Status >= 500 || apiErr.Code == "" {
			t.Fatalf("parser rejection is not a typed 4xx: %+v", apiErr)
		}

		// The full HTTP path.
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		code := rec.Code
		if code >= 500 {
			t.Fatalf("POST /jobs returned %d for %q", code, body)
		}
		if code >= 400 {
			// Typed rejection envelope.
			var e struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil || e.Error.Code == "" {
				t.Fatalf("%d rejection is not a typed error envelope: %s", code, rec.Body.Bytes())
			}
		}
	})
}
