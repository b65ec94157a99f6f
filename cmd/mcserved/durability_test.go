package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// inProcess is a server run() in-process: its base URL, the channel
// that stops it, and the one run's result lands on.
type inProcess struct {
	base string
	stop chan os.Signal
	done chan error
}

// startServer boots run() in-process on an ephemeral port and waits
// for readiness.
func startServer(t *testing.T, out io.Writer, args ...string) inProcess {
	t.Helper()
	ready := make(chan net.Addr, 1)
	srv := inProcess{stop: make(chan os.Signal, 1), done: make(chan error, 1)}
	go func() {
		srv.done <- run(append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, args...), out, ready, srv.stop)
	}()
	select {
	case addr := <-ready:
		srv.base = fmt.Sprintf("http://%s", addr)
		return srv
	case err := <-srv.done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

func post(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// stopServer sends srv its own SIGTERM and waits for run to return.
func stopServer(t *testing.T, srv inProcess) {
	t.Helper()
	srv.stop <- syscall.SIGTERM
	select {
	case err := <-srv.done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestDataDirRestart: facts appended to a -data-dir server survive a
// graceful restart — the shutdown checkpoint plus recovery hand the
// next process the same database, warm enough that no WAL replay runs.
func TestDataDirRestart(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	srv := startServer(t, &out, "-data-dir", dir, "-quiet")
	post(t, srv.base+"/v1/facts", `{"parent": [{"from":"ann","to":"bob"}, {"from":"amy","to":"bob"}]}`)
	post(t, srv.base+"/v1/facts", `{"parent": [{"from":"zoe","to":"bob"}]}`)
	stopServer(t, srv)

	var out2 bytes.Buffer
	srv2 := startServer(t, &out2, "-data-dir", dir, "-quiet")
	defer stopServer(t, srv2)
	if !strings.Contains(out2.String(), "recovered") || !strings.Contains(out2.String(), "generation 2") {
		t.Fatalf("no recovery log line: %q", out2.String())
	}
	if !strings.Contains(out2.String(), "0 wal records replayed") {
		t.Fatalf("graceful restart should recover from the snapshot alone: %q", out2.String())
	}
	var q struct {
		Answers    []string `json:"answers"`
		Generation uint64   `json:"generation"`
	}
	if err := json.Unmarshal(post(t, srv2.base+"/v1/query", `{"source": "ann"}`), &q); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(q.Answers) != fmt.Sprint([]string{"amy", "ann", "zoe"}) || q.Generation != 2 {
		t.Fatalf("recovered answers %v at gen %d, want [amy ann zoe] at 2", q.Answers, q.Generation)
	}
}

// TestIncompatibleFormatRejected: a data directory written by a
// different on-disk format version fails startup with a clear error
// instead of misparsing the log.
func TestIncompatibleFormatRejected(t *testing.T) {
	dir := t.TempDir()
	// A segment header stamped with a future format version.
	header := append([]byte("MCWAL"), 99, 0, 0)
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), header, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, io.Discard, nil, nil)
	if err == nil {
		t.Fatal("run succeeded on an incompatible data directory")
	}
	if !strings.Contains(err.Error(), "format version") {
		t.Fatalf("error does not name the version mismatch: %v", err)
	}

	// An unknown -fsync spelling is rejected up front too.
	if err := run([]string{"-fsync", "sometimes"}, io.Discard, nil, nil); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("bad -fsync not rejected: %v", err)
	}
}

// TestKillRecovery is the hard acceptance path: a real mcserved
// process is SIGKILLed mid-serving — no shutdown hook runs — and a
// restart on the same directory must serve the same database, because
// every acknowledged append was fsynced ahead of the commit. The
// restarted process is then stopped by a real SIGTERM, the signal path
// in-process tests do not take: it must exit cleanly after its final
// checkpoint, so the next restart replays no WAL record. This is also
// the CI recovery-smoke entry point.
func TestKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "mcserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	dir := t.TempDir()

	// child is one server process: its base URL, its "recovered" log
	// line, and every line after "listening on", delivered once its
	// stdout closes.
	type child struct {
		cmd       *exec.Cmd
		base      string
		recovered string
		rest      chan []string
	}
	start := func() child {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "always", "-quiet")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		deadline := time.After(10 * time.Second)
		lines := make(chan string, 16)
		go func() {
			for sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		c := child{cmd: cmd, rest: make(chan []string, 1)}
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					cmd.Process.Kill()
					t.Fatal("server exited before listening")
				}
				if strings.Contains(line, "mcserved: recovered") {
					c.recovered = line
				}
				if i := strings.Index(line, "listening on "); i >= 0 {
					go func() {
						var rest []string
						for line := range lines {
							rest = append(rest, line)
						}
						c.rest <- rest
					}()
					c.base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
					return c
				}
			case <-deadline:
				cmd.Process.Kill()
				t.Fatal("server never became ready")
			}
		}
	}

	first := start()
	post(t, first.base+"/v1/facts", `{"parent": [{"from":"ann","to":"bob"}, {"from":"amy","to":"bob"}]}`)
	post(t, first.base+"/v1/facts", `{"parent": [{"from":"zoe","to":"bob"}, {"from":"bob","to":"cat"}]}`)
	statsBefore := post(t, first.base+"/v1/query/batch", `{"sources": ["ann", "bob", "zoe"]}`)

	// SIGKILL: no handler, no checkpoint, no goodbye.
	if err := first.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.cmd.Wait()

	second := start()
	stopped := false
	defer func() {
		if !stopped {
			second.cmd.Process.Kill()
			second.cmd.Wait()
		}
	}()
	if !strings.Contains(second.recovered, "wal records replayed") || strings.Contains(second.recovered, " 0 wal records replayed") {
		t.Fatalf("restart after SIGKILL replayed no WAL record: %q", second.recovered)
	}
	base2 := second.base
	statsAfter := post(t, base2+"/v1/query/batch", `{"sources": ["ann", "bob", "zoe"]}`)

	var before, after struct {
		Items []struct {
			Source  string   `json:"source"`
			Answers []string `json:"answers"`
		} `json:"items"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(statsBefore, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(statsAfter, &after); err != nil {
		t.Fatal(err)
	}
	if before.Generation != after.Generation {
		t.Fatalf("generation %d after kill, was %d", after.Generation, before.Generation)
	}
	for i := range before.Items {
		if fmt.Sprint(before.Items[i].Answers) != fmt.Sprint(after.Items[i].Answers) {
			t.Fatalf("source %s: answers %v after kill, were %v",
				before.Items[i].Source, after.Items[i].Answers, before.Items[i].Answers)
		}
	}

	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sa map[string]any
	err = json.NewDecoder(resp.Body).Decode(&sa)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"facts_l", "facts_e", "facts_r"} {
		if sa[key].(float64) == 0 {
			t.Fatalf("stats after kill: %s = 0", key)
		}
	}
	if sa["durable"] != true {
		t.Fatalf("stats after kill: durable = %v", sa["durable"])
	}

	// SIGTERM: the process's own signal channel shuts it down cleanly.
	if err := second.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	select {
	case rest = <-second.rest:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit on SIGTERM")
	}
	stopped = true
	if err := second.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	if !strings.Contains(strings.Join(rest, "\n"), "shutting down") {
		t.Fatalf("no shutdown line after SIGTERM: %q", rest)
	}
	third := start()
	defer func() { third.cmd.Process.Kill(); third.cmd.Wait() }()
	if !strings.Contains(third.recovered, fmt.Sprintf("generation %d,", before.Generation)) || !strings.Contains(third.recovered, " 0 wal records replayed") {
		t.Fatalf("restart after SIGTERM should recover gen %d from the snapshot alone: %q", before.Generation, third.recovered)
	}
	var warm struct {
		Items []struct {
			Answers []string `json:"answers"`
		} `json:"items"`
	}
	if err := json.Unmarshal(post(t, third.base+"/v1/query/batch", `{"sources": ["ann", "bob", "zoe"]}`), &warm); err != nil {
		t.Fatal(err)
	}
	for i := range before.Items {
		if fmt.Sprint(before.Items[i].Answers) != fmt.Sprint(warm.Items[i].Answers) {
			t.Fatalf("source %s: answers %v after SIGTERM restart, were %v",
				before.Items[i].Source, warm.Items[i].Answers, before.Items[i].Answers)
		}
	}
}
