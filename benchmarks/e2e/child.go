package main

// The mcserved child: built from ./cmd/mcserved, spawned fresh per
// set-up, driven over loopback on keep-alive connections, SIGKILLed
// and restarted on its data directory.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"magiccounting/internal/core"
	"magiccounting/internal/server"
)

// serverPackage is ./cmd/mcserved by import path, so the build works
// from any directory of the module.
const serverPackage = "magiccounting/cmd/mcserved"

// buildServer compiles mcserved into dir and returns the binary.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "mcserved")
	cmd := exec.Command("go", "build", "-o", bin, serverPackage)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", serverPackage, err)
	}
	return bin, nil
}

// child is one running mcserved.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// drained is closed once the stdout reader has seen EOF, which
	// happens after the process has exited.
	drained chan struct{}
}

// startChild spawns bin with the workload's flags on dataDir and
// returns once it reports its listening address.
func startChild(bin, dataDir string, flags []string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-quiet", "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ch := &child{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(ch.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case a := <-addr:
		ch.base = "http://" + a
		return ch, nil
	case <-ch.drained:
		cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(60 * time.Second):
		ch.kill()
		return nil, fmt.Errorf("%s never reported a listening address", bin)
	}
}

func (ch *child) pid() int { return ch.cmd.Process.Pid }

// kill SIGKILLs the child and waits until it has ended.
func (ch *child) kill() {
	ch.cmd.Process.Kill()
	<-ch.drained
	ch.cmd.Wait()
}

// client is one closed-loop caller: one keep-alive connection, one
// request in flight.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// postOK posts and requires a 200.
func (c *client) postOK(path string, body []byte) ([]byte, error) {
	status, out, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) stats() (*server.Stats, error) {
	status, out, err := c.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	var st server.Stats
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return &st, nil
}

// query answers one source, fully decoded.
func (c *client) query(source string) (*server.QueryResponse, error) {
	out, err := c.postOK("/v1/query", []byte(`{"source":"`+source+`"}`))
	if err != nil {
		return nil, err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, fmt.Errorf("POST /v1/query: %w", err)
	}
	return &resp, nil
}

// generationKey precedes the generation in every indented response
// body. Node names are generated without quotes, so the last
// occurrence is always the field.
var generationKey = []byte(`"generation": `)

// responseGeneration extracts the generation field from a response
// body without decoding the (possibly large) rest.
func responseGeneration(body []byte) (uint64, bool) {
	i := bytes.LastIndex(body, generationKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(generationKey):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	gen, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	return gen, err == nil
}

// loadChunk bounds one bulk-load POST.
const loadChunk = 20000

// chunks cuts the load into POST-sized runs of pairs.
func chunks(pairs []core.Pair) [][]core.Pair {
	var out [][]core.Pair
	for len(pairs) > loadChunk {
		out = append(out, pairs[:loadChunk])
		pairs = pairs[loadChunk:]
	}
	return append(out, pairs)
}

// setUp times what a user waits for before a fresh server is useful:
// spawn, /healthz, the chunked bulk load, and the first query, which
// pays the cold compile. It refuses a child whose fact count differs
// from the generator's. The returned client is connected.
func setUp(bin, dataDir string, in *instance, bodies [][]byte) (*child, *client, time.Duration, error) {
	started := time.Now()
	ch, err := startChild(bin, dataDir, in.w.flags())
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(ch.base)
	fail := func(err error) (*child, *client, time.Duration, error) {
		c.close()
		ch.kill()
		return nil, nil, 0, err
	}
	if status, _, err := c.do(http.MethodGet, "/healthz", nil); err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("GET /healthz: status %d: %v", status, err))
	}
	for _, body := range bodies {
		if _, err := c.postOK("/v1/facts", body); err != nil {
			return fail(err)
		}
	}
	st, err := c.stats()
	if err != nil {
		return fail(err)
	}
	if got := st.FactsL + st.FactsE + st.FactsR; got != in.db.facts() {
		return fail(fmt.Errorf("%s: server holds %d facts after the load, the generator made %d", in.w.Name, got, in.db.facts()))
	}
	if _, err := c.query(in.db.nodes[len(in.db.nodes)-1]); err != nil {
		return fail(err)
	}
	return ch, c, time.Since(started), nil
}
