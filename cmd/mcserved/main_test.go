package main

import (
	"bytes"
	"encoding/json"
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
