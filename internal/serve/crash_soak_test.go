package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The crash soak runs a real tsimd-shaped server in a child process and
// SIGKILLs it at seeded-random moments under concurrent load. TestMain
// re-execs the test binary as that child when the env var is set.
const (
	crashChildEnv = "TSIMD_CRASH_CHILD"
	crashDirEnv   = "TSIMD_CRASH_DIR"
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		crashChildMain()
		return
	}
	os.Exit(m.Run())
}

// crashChildMain is the process under test: a durable server on a
// loopback port, announced on stdout, running until killed. It uses the
// real workload registry (Options.Lookup default) so recovered re-runs
// exercise the actual simulator.
func crashChildMain() {
	s, err := Open(Options{
		Workers:      2,
		DataDir:      os.Getenv(crashDirEnv),
		SegmentBytes: 4096, // rotate and compact within the soak
		Rate:         10000, Burst: 10000, MaxInFlight: 10000,
		Logf: func(format string, args ...interface{}) {},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(3)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child listen: %v\n", err)
		os.Exit(3)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	os.Stdout.Sync()
	// No graceful path: the parent only ever SIGKILLs this process. Serve
	// until that happens.
	http.Serve(ln, s.Handler())
}

// soakSpecs are the jobs the soak cycles through: small but real
// workload runs with distinct content keys.
func soakSpecs() []*JobSpec {
	var specs []*JobSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, &JobSpec{
			Workload: "saxpy",
			Flags:    map[string]string{"dim": "1", "rows": fmt.Sprint(3 + i), "seed": fmt.Sprint(100 + i)},
		})
	}
	return specs
}

// goldenBodies computes the expected result bytes for the soak specs in
// this process with a plain in-memory server — the reference every
// recovered result must match byte for byte.
func goldenBodies(t *testing.T, specs []*JobSpec) map[string][]byte {
	t.Helper()
	s := openMem(t, Options{Workers: 2, Rate: 10000, Burst: 10000, MaxInFlight: 10000})
	defer s.Drain(10 * time.Second)
	golden := map[string][]byte{}
	for _, sp := range specs {
		j, _, apiErr := s.Submit(sp)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if st := waitTerminal(t, s, j.id); st.State != StateDone {
			t.Fatalf("golden run failed: %s", st.Error)
		}
		golden[soakKey(sp)] = resultOf(t, s, j.id)
	}
	return golden
}

func soakKey(sp *JobSpec) string { return sp.Flags["rows"] + "/" + sp.Flags["seed"] }

// crashChild manages one child lifetime.
type crashChild struct {
	cmd  *exec.Cmd
	addr string
}

func startChild(t *testing.T, dir string) *crashChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			go io.Copy(io.Discard, stdout)
			return &crashChild{cmd: cmd, addr: addr}
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("child never announced its address (corrupt journal refused startup?)")
	return nil
}

func (c *crashChild) kill(t *testing.T) {
	t.Helper()
	c.cmd.Process.Kill() // SIGKILL: no deferred cleanup runs
	c.cmd.Wait()
}

func (c *crashChild) url(path string) string { return "http://" + c.addr + path }

// submitSoak posts one spec; a 202/200 is an ack (the job must survive
// any crash), a 429/503 is a clean rejection (no durability obligation).
func submitSoak(client *http.Client, c *crashChild, sp *JobSpec) (id string, acked bool) {
	body, _ := json.Marshal(sp)
	resp, err := client.Post(c.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false // crashed mid-request: no ack reached us
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", false
	}
	var st JobStatus
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return "", false
	}
	return st.ID, true
}

// TestCrashSoakNoAcceptedJobLost is the tentpole's proof: repeatedly
// SIGKILL a durable server under concurrent load at seeded-random
// points, restart it, and require that every job the server ever
// acknowledged reaches done with bytes identical to a clean in-process
// run. Finally the data dir must hold no stranded temp files and the
// recovered results must match even after one more clean restart.
func TestCrashSoakNoAcceptedJobLost(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak spawns and kills subprocesses; skipped in -short")
	}
	dir := t.TempDir()
	specs := soakSpecs()
	golden := goldenBodies(t, specs)
	rng := rand.New(rand.NewSource(7))
	client := &http.Client{Timeout: 2 * time.Second}

	type ackedJob struct {
		id  string
		key string
	}
	var acked []ackedJob
	cycles := 4
	if testing.Short() {
		cycles = 2
	}
	for cycle := 0; cycle < cycles; cycle++ {
		c := startChild(t, dir)
		// Concurrent submitters hammer the child until it dies.
		stop := make(chan struct{})
		ackCh := make(chan ackedJob, 4096)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			seed := rng.Int63()
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					sp := specs[wrng.Intn(len(specs))]
					if id, ok := submitSoak(client, c, sp); ok {
						ackCh <- ackedJob{id: id, key: soakKey(sp)}
					}
				}
			}(seed)
		}
		time.Sleep(time.Duration(30+rng.Intn(120)) * time.Millisecond)
		c.kill(t)
		close(stop)
		wg.Wait()
		close(ackCh)
		for a := range ackCh {
			acked = append(acked, a)
		}
	}
	if len(acked) == 0 {
		t.Fatal("soak never got a single ack; harness broken")
	}
	t.Logf("soak: %d acked jobs across %d kill cycles", len(acked), cycles)

	// Final restart: every acknowledged job must recover and complete
	// with the golden bytes.
	c := startChild(t, dir)
	defer c.kill(t)
	waitReady(t, client, c)
	for _, a := range acked {
		st := pollJob(t, client, c, a.id)
		if st.State != StateDone {
			t.Fatalf("acked job %s recovered as %s: %s", a.id, st.State, st.Error)
		}
		body := fetchResult(t, client, c, a.id)
		if !bytes.Equal(body, golden[a.key]) {
			t.Fatalf("job %s bytes diverged from clean run:\n%s\nvs\n%s", a.id, body, golden[a.key])
		}
	}
	// No stranded temp files anywhere in the data dir.
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("stranded temp file %s", path)
		}
		return nil
	})
}

func waitReady(t *testing.T, client *http.Client, c *crashChild) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(c.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("child never became ready after recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func pollJob(t *testing.T, client *http.Client, c *crashChild, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(c.url("/jobs/" + id))
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st.ID == "" {
			t.Fatalf("acked job %s lost after recovery", id)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after recovery", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, client *http.Client, c *crashChild, id string) []byte {
	t.Helper()
	resp, err := client.Get(c.url("/jobs/" + id + "/result"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
