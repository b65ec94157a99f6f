package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/harness"
	"magiccounting/internal/server"
)

// startServer brings up an in-process mcserved equivalent (the real
// handler over the real service) and returns its host:port.
func startServer(t *testing.T) (*server.Service, string) {
	t.Helper()
	svc := server.New(server.Config{})
	ts := httptest.NewServer(server.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return svc, u.Host
}

// TestSoakInProcess drives a short real soak — HTTP, concurrency,
// churning appends, oracle verification — against an in-process
// server. Run under -race this doubles as the concurrency regression
// test for the whole serving path.
func TestSoakInProcess(t *testing.T) {
	svc, host := startServer(t)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	err := run([]string{
		"-addr", host,
		"-duration", "2s",
		"-qps", "400",
		"-workers", "8",
		"-seed", "42",
		"-verify-every", "4",
		"-report", reportPath,
	}, &out)
	if err != nil {
		t.Fatalf("soak failed: %v\noutput:\n%s", err, out.String())
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep harness.SoakReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("report not passing: %s", data)
	}
	if rep.Oracle.Divergences != 0 || rep.Oracle.Sources == 0 {
		t.Fatalf("oracle block wrong: %+v", rep.Oracle)
	}
	for _, class := range []string{"query", "batch", "append", "bad"} {
		cs := rep.Classes[class]
		if cs == nil || cs.Count == 0 {
			t.Errorf("class %s never exercised: %s", class, data)
		}
	}
	// The intentional probes landed as 400s and nowhere else.
	if bad := rep.Classes["bad"]; bad != nil && bad.Statuses["400"] != bad.Count {
		t.Errorf("bad probes got non-400 statuses: %+v", bad)
	}

	// Every append, small or bulk, was one delta compile: the soak
	// sent at least -bulk-every (10) appends, so at least one bulk
	// one, every generation is one delta compile, and nothing
	// compiled cold. The drained server reads idle.
	st := svc.Stats()
	if cs := rep.Classes["append"]; cs == nil || cs.Count < 10 {
		t.Errorf("appends %+v: too few for a bulk one", cs)
	}
	if dc := st.DeltaCompile; dc.DeltaCompiles == 0 || dc.DeltaCompiles != int64(st.Generation) || dc.FullCompiles != 0 || st.Compiles != dc.DeltaCompiles {
		t.Errorf("generation %d, compiles %d, %+v: want one delta compile per append and no full one", st.Generation, st.Compiles, dc)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after drain, want 0", st.InFlight)
	}
	if st.BadRequests == 0 {
		t.Error("no bad requests counted despite the probe mix")
	}
}

// TestSoakCatchesCorruptAnswers asserts the verification machinery
// actually bites: a server that tampers with one in every few answers
// must fail the soak with oracle divergences.
func TestSoakCatchesCorruptAnswers(t *testing.T) {
	svc := server.New(server.Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()
	inner := server.NewHandler(svc)
	mux := http.NewServeMux()
	var corrupted atomic.Int64 // the soak's workers hit the handler concurrently
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := svc.Query(r.Context(), req)
		if err != nil {
			status := http.StatusInternalServerError
			if strings.Contains(err.Error(), "bad request") {
				status = http.StatusBadRequest
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		// Tamper with every third answered query.
		if corrupted.Add(1)%3 == 0 {
			resp.Answers = append(resp.Answers, "zzz-tampered")
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.Handle("/", inner)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	reportPath := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	err = run([]string{
		"-addr", u.Host,
		"-duration", "1500ms",
		"-qps", "300",
		"-seed", "7",
		"-verify-every", "1",
		"-report", reportPath,
	}, &out)
	if err == nil {
		t.Fatalf("soak passed against a tampering server:\n%s", out.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep harness.SoakReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Oracle.Divergences == 0 {
		t.Fatalf("tampered answers not reported as divergences: %s", data)
	}
}

// TestSoakRefusesDirtyServer asserts a server with prior state is
// rejected (the oracle needs the whole fact history) unless
// -allow-dirty explicitly downgrades the run to load-only.
func TestSoakRefusesDirtyServer(t *testing.T) {
	svc, host := startServer(t)
	if _, err := svc.AppendFacts(server.FactsRequest{Parent: []core.Pair{core.P("x", "y")}}); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := run([]string{"-addr", host, "-duration", "200ms", "-qps", "50"}, &out)
	if err == nil || !strings.Contains(err.Error(), "allow-dirty") {
		t.Fatalf("dirty server not refused: err=%v", err)
	}

	// With -allow-dirty the run proceeds but verifies nothing.
	reportPath := filepath.Join(t.TempDir(), "report.json")
	out.Reset()
	err = run([]string{
		"-addr", host,
		"-duration", "500ms",
		"-qps", "100",
		"-allow-dirty",
		"-report", reportPath,
	}, &out)
	if err != nil {
		t.Fatalf("allow-dirty soak failed: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep harness.SoakReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Oracle.Sources != 0 || rep.Oracle.Generations != 0 {
		t.Fatalf("allow-dirty run should pass with no oracle checks: %s", data)
	}
}
