package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeAndShutdown boots the server on an ephemeral port, drives
// one facts-load/query round trip over real HTTP, and shuts it down
// with SIGTERM sent on its own signal channel.
func TestServeAndShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	stop := make(chan os.Signal, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, ready, stop) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := fmt.Sprintf("http://%s", addr)

	resp, err := http.Post(base+"/v1/facts", "application/json",
		strings.NewReader(`{"parent": [{"from":"ann","to":"bob"}, {"from":"amy","to":"bob"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"source": "ann"}`))
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Answers []string `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fmt.Sprint(q.Answers) != fmt.Sprint([]string{"amy", "ann"}) {
		t.Fatalf("answers = %v, want [amy ann]", q.Answers)
	}
	// Request logging: every response carries a request id.
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header on the query response")
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("unexpected log output: %q", out.String())
	}
	// The log buffer is only safe to read now, after Shutdown has
	// waited out every handler: the id echoed to the client must
	// appear in the structured log next to the request path.
	if !strings.Contains(out.String(), "id="+id) || !strings.Contains(out.String(), "path=/v1/query") {
		t.Fatalf("request log missing id %q or path: %q", id, out.String())
	}
}

// TestQuietSuppressesRequestLog: -quiet drops per-request lines (and
// the X-Request-Id header that comes with the middleware) but keeps
// the lifecycle messages.
func TestQuietSuppressesRequestLog(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	stop := make(chan os.Signal, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-quiet"}, &out, ready, stop) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/query", addr), "application/json",
		strings.NewReader(`{"source": "nobody"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		t.Fatalf("quiet server still sets X-Request-Id %q", id)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if strings.Contains(out.String(), "msg=request") {
		t.Fatalf("quiet server logged requests: %q", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("expected flag error")
	}
}

// TestDebugAddrServesPprof boots with -debug-addr and checks the
// profiling index answers there while staying off the service mux.
func TestDebugAddrServesPprof(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	stop := make(chan os.Signal, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, &out, ready, stop)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	// The pprof line is printed before the ready signal.
	line := out.String()
	i := strings.Index(line, "pprof on ")
	if i < 0 {
		t.Fatalf("no pprof line in output: %q", line)
	}
	debugURL := "http://" + strings.TrimSpace(strings.TrimSuffix(line[i+len("pprof on "):strings.Index(line[i:], "\n")+i], "/debug/pprof/"))

	resp, err := http.Get(debugURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	// The service listener must not expose the profiler.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service listener should not serve pprof")
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestShardsFlagIgnored: -shards is still accepted, so launch lines that
// pass it keep starting, and it changes nothing — a -shards 4 server
// answers every source like the default one across two regions and a
// bridging append, and its /v1/stats carries no shards block.
func TestShardsFlagIgnored(t *testing.T) {
	def := startServer(t, &bytes.Buffer{}, "-quiet")
	defer stopServer(t, def)
	sharded := startServer(t, &bytes.Buffer{}, "-quiet", "-shards", "4")
	defer stopServer(t, sharded)
	sources := []string{"ann", "amy", "t2_a", "t2_c", "nobody"}
	for _, facts := range []string{
		`{"parent": [{"from":"ann","to":"bob"}, {"from":"amy","to":"bob"}]}`,
		`{"parent": [{"from":"t2_a","to":"t2_b"}, {"from":"t2_c","to":"t2_b"}]}`,
		`{"parent": [{"from":"bob","to":"t2_b"}]}`, // bridges the two regions
	} {
		for _, srv := range []inProcess{def, sharded} {
			post(t, srv.base+"/v1/facts", facts)
		}
		for _, src := range sources {
			body := fmt.Sprintf(`{"source": %q, "strategy": "multiple"}`, src)
			var want, got struct {
				Answers    []string       `json:"answers"`
				Stats      map[string]any `json:"stats"`
				Generation uint64         `json:"generation"`
			}
			if err := json.Unmarshal(post(t, def.base+"/v1/query", body), &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(post(t, sharded.base+"/v1/query", body), &got); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("source %s: -shards 4 answered %+v, the default server %+v", src, got, want)
			}
		}
	}
	resp, err := http.Get(sharded.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["shards"]; ok || stats["generation"] != float64(3) {
		t.Fatalf("-shards 4 stats: %v; want generation 3 and no shards block", stats)
	}
}

// TestReadmeFlagTable holds README's mcserved flag table to the flag
// set run parses, both ways: every flag has a row with its default,
// and every row names a flag. A default of "—" documents an empty one.
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := readmeFlagRows(t, string(readme))
	fs := newFlagSet(&options{})
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := rows["-"+f.Name]
		switch {
		case !ok:
			t.Errorf("flag -%s has no row in README's mcserved flag table", f.Name)
		case def != f.DefValue:
			t.Errorf("README documents -%s's default as %q, the flag's is %q", f.Name, def, f.DefValue)
		}
	})
	for name := range rows {
		if fs.Lookup(strings.TrimPrefix(name, "-")) == nil {
			t.Errorf("README's mcserved flag table documents %s, which mcserved does not define", name)
		}
	}
}

// readmeFlagRows returns the first flag table of README's "Query
// service" section as flag name → default.
func readmeFlagRows(t *testing.T, readme string) map[string]string {
	t.Helper()
	_, section, ok := strings.Cut(readme, "\n## Query service")
	if !ok {
		t.Fatal(`README has no "## Query service" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "\n| flag | default | what it does |\n|---|---|---|\n")
	if !ok {
		t.Fatal("README's Query service section has no flag table")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag row %q", line)
		}
		name, def := strings.Trim(strings.TrimSpace(cells[1]), "`"), strings.Trim(strings.TrimSpace(cells[2]), "`")
		if def == "—" {
			def = ""
		}
		if _, dup := rows[name]; dup {
			t.Errorf("README documents %s twice", name)
		}
		rows[name] = def
	}
	return rows
}
