package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tseries/internal/durable"
)

// quietLogf keeps recovery notes out of test output while still
// exercising the logging path.
func quietLogf(t *testing.T) func(string, ...interface{}) {
	return func(format string, args ...interface{}) { t.Logf(format, args...) }
}

// noResidue asserts the data dir holds no stranded temp files.
func noResidue(t *testing.T, root string) {
	t.Helper()
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stranded temp file %s", path)
		}
		return nil
	})
}

// noOpenFDs asserts this process holds no file descriptors into root —
// the drain path must have closed the journal and every store handle.
func noOpenFDs(t *testing.T, root string) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			t.Errorf("leaked fd %s -> %s", fd.Name(), target)
		}
	}
}

// resultOf fetches a done job's body the way the HTTP layer would.
func resultOf(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	s.mu.Lock()
	body, key := j.body, j.task.key
	s.mu.Unlock()
	if body == nil {
		var hit bool
		if body, hit = s.lookupResult(key); !hit {
			t.Fatalf("job %s done but result unavailable", id)
		}
	}
	return body
}

// TestColdStartEmptyDataDirIsReady: a fresh data dir recovers nothing
// and is immediately ready; a normal job round-trips durably.
func TestColdStartEmptyDataDirIsReady(t *testing.T) {
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
	s, err := Open(Options{Workers: 1, DataDir: t.TempDir(), Lookup: lookupOf(fr), Logf: quietLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if !s.Ready() {
		t.Fatal("empty data dir not immediately ready")
	}
	j, fresh, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2"}))
	if apiErr != nil || !fresh {
		t.Fatalf("submit: fresh=%v err=%v", fresh, apiErr)
	}
	if st := waitTerminal(t, s, j.id); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	snap := s.Snapshot()
	if !snap.Durable || snap.Degraded || snap.StorePuts != 1 || snap.JournalAppends == 0 {
		t.Fatalf("durability stats off: %+v", snap)
	}
}

// TestRestartServesCompletedResultsFromStore: results computed before a
// clean restart are served byte-identically afterwards — from the store,
// without re-running the workload.
func TestRestartServesCompletedResultsFromStore(t *testing.T) {
	dir := t.TempDir()
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
	open := func() *Server {
		s, err := Open(Options{Workers: 1, DataDir: dir, Lookup: lookupOf(fr), Logf: quietLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := open()
	j, _, apiErr := s1.Submit(spec("fake", map[string]string{"dim": "3", "rows": "5"}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, s1, j.id)
	want := resultOf(t, s1, j.id)
	if err := s1.Drain(time.Second); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Drain(time.Second)
	if !s2.Ready() {
		t.Fatal("restart with only terminal jobs should be ready at once")
	}
	// The old job id still answers, served from the store.
	st := waitTerminal(t, s2, j.id)
	if st.State != StateDone {
		t.Fatalf("recovered job state %s: %s", st.State, st.Error)
	}
	if got := resultOf(t, s2, j.id); string(got) != string(want) {
		t.Fatalf("recovered result diverged:\n%s\nvs\n%s", got, want)
	}
	// A fresh submission of the same spec is a hit, not a re-run.
	runsBefore := fr.runs.Load()
	j2, fresh, apiErr := s2.Submit(spec("fake", map[string]string{"dim": "3", "rows": "5"}))
	if apiErr != nil || fresh {
		t.Fatalf("resubmit: fresh=%v err=%v", fresh, apiErr)
	}
	if st := waitTerminal(t, s2, j2.id); st.State != StateDone {
		t.Fatalf("resubmit state %s", st.State)
	}
	if fr.runs.Load() != runsBefore {
		t.Fatal("stored result was recomputed")
	}
	if got := resultOf(t, s2, j2.id); string(got) != string(want) {
		t.Fatal("cache-hit bytes diverged from the original run")
	}
}

// seedJournal writes raw lifecycle records into dir's journal the way a
// crashed process would have left them.
func seedJournal(t *testing.T, dir string, recs ...durable.Record) {
	t.Helper()
	jnl, _, err := durable.OpenJournal(filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRerunsInterruptedJobs: accepted-but-unfinished journal
// records are deterministically re-run on startup; /readyz holds until
// they finish.
func TestRecoveryRerunsInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}, delay: 20 * time.Millisecond}
	opts := Options{Workers: 1, DataDir: dir, Lookup: lookupOf(fr), Logf: quietLogf(t)}

	// Resolve the spec once (memory-only) to learn its content key, then
	// plant the crashed process's journal.
	scratch := openMem(t, Options{Lookup: lookupOf(fr)})
	sp := spec("fake", map[string]string{"dim": "2", "rows": "9"})
	tsk, apiErr := scratch.resolve(sp)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	scratch.Drain(time.Second)
	seedJournal(t, dir,
		durable.Record{Op: durable.OpAccepted, Job: "j7", Tenant: "anon", Key: tsk.key, Spec: marshalSpec(sp)},
		durable.Record{Op: durable.OpRunning, Job: "j7"},
	)

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if s.Ready() {
		t.Fatal("ready while a recovered job is still re-running")
	}
	if snap := s.Snapshot(); !snap.Recovering || snap.RecoveredJobs != 1 {
		t.Fatalf("recovery stats off: %+v", snap)
	}
	st := waitTerminal(t, s, "j7")
	if st.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped after recovery finished")
		}
		time.Sleep(time.Millisecond)
	}
	if snap := s.Snapshot(); snap.Recovering || snap.RecoveryNs <= 0 {
		t.Fatalf("recovery stats after finish: %+v", snap)
	}
	// Re-run must have produced the same bytes a direct run would.
	direct := openMem(t, Options{Lookup: lookupOf(&fakeRunner{name: "fake", flags: []string{"dim", "rows"}})})
	defer direct.Drain(time.Second)
	dj, _, apiErr := direct.Submit(sp)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, direct, dj.id)
	if got, want := resultOf(t, s, "j7"), resultOf(t, direct, dj.id); string(got) != string(want) {
		t.Fatalf("recovered re-run diverged:\n%s\nvs\n%s", got, want)
	}
	// The id counter continued past the recovered id: no collisions.
	j2, _, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2", "rows": "10"}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if jobNum(j2.id) <= 7 {
		t.Fatalf("fresh id %s collides with recovered history", j2.id)
	}
}

// TestRecoveryUnresolvableSpecFailsLoudly: a journaled job whose
// workload no longer exists recovers as failed, not lost and not stuck.
func TestRecoveryUnresolvableSpecFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir, durable.Record{
		Op: durable.OpAccepted, Job: "j1", Tenant: "anon",
		Key:  "workload=gone",
		Spec: []byte(`{"workload":"gone"}`),
	})
	s, err := Open(Options{Workers: 1, DataDir: dir,
		Lookup: lookupOf(&fakeRunner{name: "fake"}), Logf: quietLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if !s.Ready() {
		t.Fatal("an unresolvable job must not hold readiness")
	}
	st := waitTerminal(t, s, "j1")
	if st.State != StateFailed || !strings.Contains(st.Error, "no longer resolvable") {
		t.Fatalf("unresolvable job recovered as %s: %q", st.State, st.Error)
	}
}

// TestTornJournalTailTolerated: a crash mid-append leaves a truncated
// final record; startup recovers the clean prefix and serves.
func TestTornJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
	scratch := openMem(t, Options{Lookup: lookupOf(fr)})
	sp := spec("fake", map[string]string{"dim": "2"})
	tsk, _ := scratch.resolve(sp)
	scratch.Drain(time.Second)
	seedJournal(t, dir,
		durable.Record{Op: durable.OpAccepted, Job: "j1", Tenant: "anon", Key: tsk.key, Spec: marshalSpec(sp)})

	// Tear the tail of the newest segment, as SIGKILL mid-write would.
	seg := newestSegment(t, filepath.Join(dir, "journal"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Options{Workers: 1, DataDir: dir, Lookup: lookupOf(fr), Logf: quietLogf(t)})
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	defer s.Drain(time.Second)
	if st := waitTerminal(t, s, "j1"); st.State != StateDone {
		t.Fatalf("job after torn-tail recovery: %s", st.State)
	}
}

// TestCorruptJournalRefusesStartup: mid-file corruption is a typed,
// actionable startup error — the server must not serve from it.
func TestCorruptJournalRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		durable.Record{Op: durable.OpAccepted, Job: "j1", Tenant: "anon", Key: "k", Spec: []byte(`{"workload":"w"}`)},
		durable.Record{Op: durable.OpAccepted, Job: "j2", Tenant: "anon", Key: "k2", Spec: []byte(`{"workload":"w"}`)})
	seg := newestSegment(t, filepath.Join(dir, "journal"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{DataDir: dir, Lookup: lookupOf(&fakeRunner{name: "fake"}), Logf: quietLogf(t)})
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt journal: err = %v, want *durable.CorruptError in the chain", err)
	}
	if !strings.Contains(err.Error(), seg) {
		t.Fatalf("error does not name the bad segment: %v", err)
	}
}

func newestSegment(t *testing.T, jdir string) string {
	t.Helper()
	entries, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(jdir, e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no journal segments")
	}
	return segs[len(segs)-1]
}

// TestStoreCorruptionTriggersRerun: a done job whose stored result rots
// on disk is quarantined and deterministically re-run on restart — the
// id keeps answering, with correct bytes.
func TestStoreCorruptionTriggersRerun(t *testing.T) {
	dir := t.TempDir()
	fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
	open := func() *Server {
		s, err := Open(Options{Workers: 1, DataDir: dir, Lookup: lookupOf(fr), Logf: quietLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := open()
	j, _, apiErr := s1.Submit(spec("fake", map[string]string{"dim": "2", "rows": "4"}))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, s1, j.id)
	want := resultOf(t, s1, j.id)
	s1.Drain(time.Second)

	// Rot every stored result body.
	storeDir := filepath.Join(dir, "store")
	var rotted int
	filepath.Walk(storeDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.Contains(path, "quarantine") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		data[len(data)-1] ^= 0x01
		os.WriteFile(path, data, 0o644)
		rotted++
		return nil
	})
	if rotted == 0 {
		t.Fatal("no stored results to corrupt")
	}

	s2 := open()
	defer s2.Drain(time.Second)
	st := waitTerminal(t, s2, j.id)
	if st.State != StateDone {
		t.Fatalf("re-run after store rot ended %s: %s", st.State, st.Error)
	}
	if got := resultOf(t, s2, j.id); string(got) != string(want) {
		t.Fatalf("re-run diverged from original bytes")
	}
	if snap := s2.Snapshot(); snap.StoreCorruptions == 0 {
		t.Fatalf("corruption not counted: %+v", snap)
	}
	q, err := os.ReadDir(filepath.Join(storeDir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Fatalf("rotted file not quarantined (err %v)", err)
	}
}

// TestDiskFaultDegradesToMemory: a planned ENOSPC mid-journal flips the
// server to memory-only; it keeps serving correct results and flags the
// degradation in /stats.
func TestDiskFaultDegradesToMemory(t *testing.T) {
	for _, kind := range []durable.FaultKind{durable.FaultENOSPC, durable.FaultEIO} {
		t.Run(kind.String(), func(t *testing.T) {
			fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
			var warned bool
			s, err := Open(Options{
				Workers: 1, DataDir: t.TempDir(),
				DiskFaults: durable.FaultAt(300, kind),
				Lookup:     lookupOf(fr),
				Logf: func(format string, args ...interface{}) {
					if strings.Contains(format, "degraded") {
						warned = true
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain(time.Second)
			var ids []string
			for i := 0; i < 6; i++ {
				j, _, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2", "rows": fmt.Sprint(i)}))
				if apiErr != nil {
					t.Fatal(apiErr)
				}
				ids = append(ids, j.id)
			}
			for _, id := range ids {
				if st := waitTerminal(t, s, id); st.State != StateDone {
					t.Fatalf("job %s ended %s under disk faults: %s", id, st.State, st.Error)
				}
			}
			snap := s.Snapshot()
			if !snap.Degraded || snap.DegradedReason == "" {
				t.Fatalf("fault did not degrade: %+v", snap)
			}
			if !warned {
				t.Fatal("degradation was not logged")
			}
			// Degraded is one-way: still serving, still correct.
			if got := resultOf(t, s, ids[0]); len(got) == 0 {
				t.Fatal("degraded server stopped serving results")
			}
		})
	}
}

// TestDrainLeavesNoResidue sweeps the shutdown paths — graceful drain,
// forced drain with an in-flight job, and a panicking job — for
// stranded temp files and leaked file descriptors into the data dir.
func TestDrainLeavesNoResidue(t *testing.T) {
	t.Run("graceful", func(t *testing.T) {
		dir := t.TempDir()
		fr := &fakeRunner{name: "fake", flags: []string{"dim", "rows"}}
		s, err := Open(Options{Workers: 2, DataDir: dir, Lookup: lookupOf(fr), Logf: quietLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, _, apiErr := s.Submit(spec("fake", map[string]string{"dim": "2", "rows": fmt.Sprint(i)})); apiErr != nil {
				t.Fatal(apiErr)
			}
		}
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		noResidue(t, dir)
		noOpenFDs(t, dir)
	})
	t.Run("forced", func(t *testing.T) {
		dir := t.TempDir()
		blocker := &fakeRunner{name: "stuck", block: true}
		s, err := Open(Options{Workers: 1, DataDir: dir, Lookup: lookupOf(blocker), Logf: quietLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		j, _, apiErr := s.Submit(spec("stuck", nil))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if err := s.Drain(20 * time.Millisecond); err == nil {
			t.Fatal("forced drain reported clean")
		}
		if st := waitTerminal(t, s, j.id); st.State != StateCanceled {
			t.Fatalf("blocked job ended %s", st.State)
		}
		noResidue(t, dir)
		noOpenFDs(t, dir)
	})
	t.Run("panic", func(t *testing.T) {
		dir := t.TempDir()
		p := &fakeRunner{name: "bomb", panicMsg: "kaboom"}
		s, err := Open(Options{Workers: 1, DataDir: dir, Lookup: lookupOf(p), Logf: quietLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		j, _, apiErr := s.Submit(spec("bomb", nil))
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if st := waitTerminal(t, s, j.id); st.State != StateFailed {
			t.Fatalf("panicking job ended %s", st.State)
		}
		if err := s.Drain(time.Second); err != nil {
			t.Fatal(err)
		}
		noResidue(t, dir)
		noOpenFDs(t, dir)
	})
}
