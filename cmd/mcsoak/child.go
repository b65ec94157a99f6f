package main

// Fault injection: mcsoak can own the mcserved it soaks (-child-bin),
// SIGKILL it mid-run on a schedule (-kill-every), restart it on the
// same data directory, and verify the recovery boundary — the
// restarted server must report exactly the generation the ledger says
// was acknowledged (fsync-always means no acked append may be lost,
// and a higher generation would mean phantom state), and re-queried
// answers at the recovered generation join the normal end-of-run
// oracle verification. The memory sampler rides the same run: a
// periodic /v1/stats scrape feeding the heap-watermark SLO.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"magiccounting/internal/harness"
	"magiccounting/internal/server"
)

// childServer owns the mcserved process under test. Methods are not
// concurrency-safe: the kill controller is the only caller, and it
// serializes cycles behind the driver gate.
type childServer struct {
	bin     string
	dataDir string
	// extraArgs are appended to the fixed spawn arguments (e.g.
	// "-shards 4" to soak a region-sharded server).
	extraArgs []string
	cmd       *exec.Cmd
	addr      string // host:port the child reported
}

// start spawns the child on an ephemeral port over the shared data
// directory and waits for its listening line. fsync always is forced:
// the whole point of the kill mode is that acknowledged appends
// survive SIGKILL, which only that policy guarantees.
func (ch *childServer) start() error {
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", ch.dataDir, "-fsync", "always", "-quiet"}
	args = append(args, ch.extraArgs...)
	cmd := exec.Command(ch.bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", ch.bin, err)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Process.Kill()
				cmd.Wait()
				return fmt.Errorf("child exited before listening")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				// Keep draining so the child never blocks on a full pipe.
				go func() {
					for range lines {
					}
				}()
				ch.cmd = cmd
				ch.addr = strings.TrimSpace(line[i+len("listening on "):])
				return nil
			}
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			return fmt.Errorf("child never became ready")
		}
	}
}

// kill SIGKILLs the child — no handler, no checkpoint, no goodbye —
// and reaps it.
func (ch *childServer) kill() {
	if ch.cmd == nil {
		return
	}
	ch.cmd.Process.Kill()
	ch.cmd.Wait()
	ch.cmd = nil
}

// terminate shuts the child down gracefully at end of run (so it
// writes its final snapshot), falling back to SIGKILL on a timeout.
func (ch *childServer) terminate() {
	if ch.cmd == nil {
		return
	}
	ch.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { ch.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		ch.cmd.Process.Kill()
		<-done
	}
	ch.cmd = nil
}

// recordRecovery files the outcome of one kill/restart cycle.
func (d *driver) recordRecovery(failure string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if failure != "" {
		if len(d.recoveryFailures) < 20 {
			d.recoveryFailures = append(d.recoveryFailures, failure)
		}
		return
	}
	d.recoveries++
}

// recentSources returns up to n distinct sources from the newest
// sampled checks — the ones a recovery boundary is most likely to
// have disturbed.
func (d *driver) recentSources(n int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := len(d.checks) - 1; i >= 0 && len(out) < n; i-- {
		src := d.checks[i].source
		if !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}

// killLoop is the fault-injection controller: every `every`, it takes
// the driver gate exclusively (draining all in-flight requests),
// SIGKILLs the child, restarts it over the same data directory,
// repoints the workers, and verifies the boundary before releasing
// the load. Returns when ctx expires.
func (d *driver) killLoop(ctx context.Context, ch *childServer, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		d.gate.Lock()
		d.killCycle(ch)
		d.gate.Unlock()
	}
}

// killCycle runs one kill/restart/verify cycle. Caller holds the gate
// exclusively, so the ledger is quiescent: its maxGen is exactly the
// set of acknowledged appends, which is what the restarted child must
// report.
func (d *driver) killCycle(ch *childServer) {
	wantGen, _ := d.led.stats()
	ch.kill()
	if err := ch.start(); err != nil {
		d.recordRecovery(fmt.Sprintf("restart after kill: %v", err))
		return
	}
	d.client.setBase("http://" + ch.addr)

	var st server.Stats
	status, _, err := d.client.do("GET", "/v1/stats", nil, &st)
	if err != nil || status != http.StatusOK {
		d.recordRecovery(fmt.Sprintf("post-restart stats: status %d, err %v", status, err))
		return
	}
	if st.Generation != wantGen {
		d.recordRecovery(fmt.Sprintf("recovered generation %d, ledger says %d acknowledged", st.Generation, wantGen))
		return
	}

	// Re-query recent sources across the boundary and queue the
	// answers for oracle verification at the recovered generation: a
	// recovery that replayed the WAL wrong diverges here.
	for _, src := range d.recentSources(3) {
		var resp server.QueryResponse
		status, _, err := d.client.do("POST", "/v1/query", server.QueryRequest{Source: src}, &resp)
		if err != nil || status != http.StatusOK {
			d.recordRecovery(fmt.Sprintf("post-restart query %q: status %d, err %v", src, status, err))
			return
		}
		if resp.Generation != wantGen {
			d.recordRecovery(fmt.Sprintf("post-restart query %q answered at generation %d, want %d", src, resp.Generation, wantGen))
			return
		}
		d.queueCheck(check{seq: -1, source: src, gen: resp.Generation, answers: resp.Answers})
	}
	d.recordRecovery("")
}

// sampleMemory scrapes the /v1/stats memory block every `every` until
// ctx expires, holding the gate shared so samples never race a
// restart window (a scrape against a dead child would record a
// spurious failure). Scrape errors are tolerated — the SLO rule fails
// the run if too few samples accumulate.
func (d *driver) sampleMemory(ctx context.Context, started time.Time, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		d.gate.RLock()
		var st server.Stats
		status, _, err := d.client.do("GET", "/v1/stats", nil, &st)
		d.gate.RUnlock()
		if err != nil || status != http.StatusOK {
			continue
		}
		d.mu.Lock()
		d.memSamples = append(d.memSamples, harness.MemorySample{
			ElapsedSeconds: time.Since(started).Seconds(),
			HeapInuseBytes: st.Memory.HeapInuseBytes,
			CompiledBytes:  st.Memory.CompiledBytes,
		})
		d.mu.Unlock()
	}
}

// runAux starts the memory sampler and (when armed) the kill loop
// beside the load, returning a wait function the caller invokes after
// the load drains.
func (d *driver) runAux(ctx context.Context, started time.Time, ch *childServer, killEvery, memEvery time.Duration) func() {
	var wg sync.WaitGroup
	if memEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.sampleMemory(ctx, started, memEvery)
		}()
	}
	if ch != nil && killEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.killLoop(ctx, ch, killEvery)
		}()
	}
	return wg.Wait
}
