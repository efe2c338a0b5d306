package unixhash

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTelemetryEndToEnd is the CI smoke for the live observation
// surface: it builds hashbench and dbcli, starts `hashbench serve`
// (a traced workload with the telemetry server up), scrapes every
// endpoint — including a one-second CPU profile — and watches the
// workload through `dbcli hashmon`. Any non-200 status or empty body
// fails.
func TestTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"hashbench", "dbcli"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	// Start the serving workload and read the listen address from its
	// first output line ("telemetry http://HOST:PORT").
	serve := exec.Command(filepath.Join(bin, "hashbench"), "-n", "2000", "-dur", "30s", "serve")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		serve.Process.Kill()
		serve.Wait()
	}()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("hashbench serve produced no output: %v", sc.Err())
	}
	first := sc.Text()
	base, ok := strings.CutPrefix(first, "telemetry ")
	if !ok {
		t.Fatalf("unexpected first line %q", first)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		return body
	}

	if body := string(get("/metrics")); !strings.Contains(body, "# TYPE hash_gets_total counter") {
		t.Fatalf("/metrics missing hash counters:\n%.500s", body)
	}
	var stats struct {
		Method string `json:"method"`
	}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats.Method != "hash" {
		t.Fatalf("/stats method = %q", stats.Method)
	}
	var events struct {
		Count int `json:"count"`
	}
	// On a loaded single-CPU host the workload goroutine may not have
	// been scheduled between the server coming up and this scrape, so
	// poll briefly before declaring the ring dead.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if err := json.Unmarshal(get("/debug/events"), &events); err != nil {
			t.Fatalf("/debug/events not JSON: %v", err)
		}
		if events.Count > 0 || time.Now().After(deadline) {
			break
		}
	}
	if events.Count == 0 {
		t.Fatal("/debug/events empty under live load")
	}
	get("/debug/events?type=split-begin")
	var hm struct {
		Buckets uint32 `json:"buckets"`
	}
	if err := json.Unmarshal(get("/debug/heatmap"), &hm); err != nil {
		t.Fatalf("/debug/heatmap not JSON: %v", err)
	}
	if hm.Buckets == 0 {
		t.Fatal("/debug/heatmap reports zero buckets")
	}
	get("/debug/pprof/profile?seconds=1")

	// hashmon: two quick polls must see the workload moving.
	addr := strings.TrimPrefix(base, "http://")
	out, err := exec.Command(filepath.Join(bin, "dbcli"), "hashmon", addr, "300ms", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("dbcli hashmon: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "changed)") || !strings.Contains(string(out), "hash_gets_total") {
		t.Fatalf("hashmon saw no movement:\n%s", out)
	}
	fmt.Println("telemetry smoke ok:", base)
}
