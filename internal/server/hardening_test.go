package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"magiccounting/internal/core"
	"magiccounting/internal/oracle"
	"magiccounting/internal/workload"
)

// TestAppendFactsDedupe pins the set semantics of the database:
// appending pairs already present (or repeated within one request)
// adds nothing, keeps the generation unchanged, and reports accurate
// Added counts for mixed requests.
func TestAppendFactsDedupe(t *testing.T) {
	s := New(Config{})
	first, err := s.AppendFacts(FactsRequest{
		L: []core.Pair{{From: "a", To: "b"}, {From: "a", To: "b"}}, // intra-request dup
		E: []core.Pair{{From: "b", To: "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation != 1 || first.AddedL != 1 || first.AddedE != 1 || first.AddedR != 0 {
		t.Fatalf("first append = %+v, want generation 1, added 1/1/0", first)
	}

	// Re-POST of known facts: a full no-op, generation unchanged.
	again, err := s.AppendFacts(FactsRequest{
		L: []core.Pair{{From: "a", To: "b"}},
		E: []core.Pair{{From: "b", To: "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation != 1 || again.AddedL != 0 || again.AddedE != 0 || again.AddedR != 0 {
		t.Fatalf("idempotent re-append = %+v, want generation 1, added 0/0/0", again)
	}

	// Mixed request: only the genuinely new pair counts and bumps.
	mixed, err := s.AppendFacts(FactsRequest{
		L: []core.Pair{{From: "a", To: "b"}, {From: "b", To: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Generation != 2 || mixed.AddedL != 1 {
		t.Fatalf("mixed append = %+v, want generation 2, added_l 1", mixed)
	}

	// Parent expansion dedupes too: the shared endpoint bob gets one
	// identity E pair however many parent pairs mention it, and a
	// re-POST of the same parent pairs is again a no-op.
	parent := FactsRequest{Parent: []core.Pair{{From: "ann", To: "bob"}, {From: "bob", To: "cat"}}}
	pr, err := s.AppendFacts(parent)
	if err != nil {
		t.Fatal(err)
	}
	if pr.AddedE != 3 { // ann, bob, cat — not 4
		t.Fatalf("parent expansion added_e = %d, want 3", pr.AddedE)
	}
	pr2, err := s.AppendFacts(parent)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Generation != pr.Generation || pr2.AddedL+pr2.AddedE+pr2.AddedR != 0 {
		t.Fatalf("parent re-append = %+v, want no-op at generation %d", pr2, pr.Generation)
	}
}

// TestIdempotentRepostPreservesCache is the serving-path regression
// the oracle sweep motivated: a producer re-POSTing facts the service
// already holds must not nuke the result cache.
func TestIdempotentRepostPreservesCache(t *testing.T) {
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 2})))
	defer ts.Close()
	c := ts.Client()

	facts := `{"parent": [{"from":"ann","to":"bob"}, {"from":"bob","to":"cat"}]}`
	if resp, body := postJSON(t, c, ts.URL+"/v1/facts", facts); resp.StatusCode != http.StatusOK {
		t.Fatalf("facts: status %d: %s", resp.StatusCode, body)
	}
	_, body := postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann"}`)
	if q := decode[QueryResponse](t, body); q.Cached {
		t.Fatalf("first query cached: %+v", q)
	}

	// Identical re-POST: generation must hold and the cache survive.
	resp, body := postJSON(t, c, ts.URL+"/v1/facts", facts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-POST: status %d: %s", resp.StatusCode, body)
	}
	if fr := decode[FactsResponse](t, body); fr.Generation != 1 {
		t.Fatalf("re-POST generation = %d, want 1", fr.Generation)
	}
	_, body = postJSON(t, c, ts.URL+"/v1/query", `{"source": "ann"}`)
	if q := decode[QueryResponse](t, body); !q.Cached || q.NewRetrievals != 0 {
		t.Fatalf("query after idempotent re-POST missed the cache: %+v", q)
	}
}

// TestAnswersMarshalAsEmptyArray asserts the wire format at the HTTP
// layer: a query with no answers returns "answers": [], never null.
func TestAnswersMarshalAsEmptyArray(t *testing.T) {
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 2})))
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "nobody"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte("null")) {
		t.Fatalf("response contains null: %s", body)
	}
	if !bytes.Contains(body, []byte(`"answers": []`)) {
		t.Fatalf(`response missing "answers": []: %s`, body)
	}
	// The cached path serves the same entry; it must normalize too.
	_, body = postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "nobody"}`)
	if !bytes.Contains(body, []byte(`"answers": []`)) {
		t.Fatalf(`cached response missing "answers": []: %s`, body)
	}
	if q := decode[QueryResponse](t, body); !q.Cached {
		t.Fatalf("second query not cached: %+v", q)
	}
}

// TestRequestBodyTooLarge asserts the body cap: a request over
// maxBodyBytes gets 413, not an unbounded buffer in the decoder.
func TestRequestBodyTooLarge(t *testing.T) {
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 2})))
	defer ts.Close()

	huge := `{"source": "` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %.200s", resp.StatusCode, body)
	}
}

// TestTrailingJSONRejected asserts one-value framing: concatenated
// JSON documents are a malformed request, not silently dropped data.
func TestTrailingJSONRejected(t *testing.T) {
	ts := httptest.NewServer(NewHandler(New(Config{Workers: 2})))
	defer ts.Close()

	for _, body := range []string{
		`{"source": "a"}{"source": "b"}`,
		`{"source": "a"} 42`,
		`{"source": "a"} garbage`,
	} {
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400: %s", body, resp.StatusCode, out)
		}
	}
	// A single value with trailing whitespace stays valid.
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/query", `{"source": "a"}`+"\n  \n")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace rejected: status %d: %s", resp.StatusCode, out)
	}
}

// TestWriteErrorStatusMapping pins the error-to-status table,
// including the 499 client-disconnect convention.
func TestWriteErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: empty source", ErrBadRequest), http.StatusBadRequest},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("solve: %w", context.Canceled), 499},
		{errors.New("unexpected"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
		if got := decode[errorBody](t, rec.Body.Bytes()); got.Error == "" {
			t.Errorf("writeError(%v) wrote empty error body", tc.err)
		}
	}
}

// FuzzServiceQuery drives the whole serving path — append, solve
// every method through both doors, cache — against the oracle on
// generator-derived instances, and asserts the idempotent-re-POST and
// accounting invariants on each.
func FuzzServiceQuery(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(1))
	f.Add(uint8(1), int64(2), uint8(1))
	f.Add(uint8(2), int64(3), uint8(2))
	f.Add(uint8(3), int64(4), uint8(2))
	f.Add(uint8(200), int64(5), uint8(0)) // adversarial selector
	f.Fuzz(func(t *testing.T, kindByte uint8, seed int64, size uint8) {
		var q core.Query
		if kindByte >= 128 {
			q = workload.Adversarial(int(kindByte-128), seed)
		} else {
			q = workload.RandomRegime(workload.RegimeKind(kindByte%4), seed, 1+int(size%3))
		}
		l, e, r, src := oracle.FromQuery(q)
		want := oracle.AnswersMemo(l, e, r, src)

		s := New(Config{Workers: 2})
		ctx := context.Background()
		req := FactsRequest{L: q.L, E: q.E, R: q.R}
		first, err := s.AppendFacts(req)
		if err != nil {
			t.Fatalf("append: %v", err)
		}

		// Through the batch door first: the batch solves, and the
		// singletons below must be hits carrying the same Answer.
		batched := map[string]Answer{}
		for label, strat := range map[string]string{"/": "", "multiple/integrated": "multiple"} {
			resp, err := s.QueryBatch(ctx, BatchRequest{Sources: []string{q.Source, q.Source}, Strategy: strat})
			if err != nil || resp.Items[0].Error != "" || resp.Items[0].Cached {
				t.Fatalf("batch %q: %v %+v", strat, err, resp)
			}
			folded := resp.Items[0].Answer
			folded.Cached, folded.NewRetrievals = true, 0
			if !reflect.DeepEqual(resp.Items[1].Answer, folded) {
				t.Fatalf("batch %q: duplicate %+v, first occurrence %+v", strat, resp.Items[1], resp.Items[0])
			}
			batched[label] = folded
		}
		query := func(strat, mode string) *QueryResponse {
			label := strat + "/" + mode
			resp, err := s.Query(ctx, QueryRequest{Source: q.Source, Strategy: strat, Mode: mode})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if it, ok := batched[label]; ok && !reflect.DeepEqual(resp.Answer, it) {
				t.Fatalf("%s: singleton %+v, batch item %+v", label, resp.Answer, it)
			}
			if !reflect.DeepEqual(resp.Answers, nonNilAnswers(want)) { // never nil
				t.Fatalf("%s: answers %#v, oracle wants %v", label, resp.Answers, want)
			}
			return resp
		}
		query("", "")
		for _, strat := range []string{"basic", "single", "multiple", "recurring"} {
			for _, mode := range []string{"independent", "integrated"} {
				query(strat, mode)
			}
		}

		// Idempotent re-POST: same facts, same generation, cache intact.
		again, err := s.AppendFacts(req)
		if err != nil {
			t.Fatalf("re-append: %v", err)
		}
		if again.Generation != first.Generation {
			t.Fatalf("re-append bumped generation %d -> %d", first.Generation, again.Generation)
		}
		if cached := query("", ""); !cached.Cached || cached.NewRetrievals != 0 {
			t.Fatalf("query after idempotent re-POST missed the cache: %+v", cached)
		}
		checkAccounting(t, s)
	})
}

// TestConcurrentResponsesKeepTheirBodies drives the pooled response
// encoder from several connections at once with bodies of different
// lengths, one of them over maxPooledResponse: a buffer handed to two
// responses, or not reset between two, shows as a body that fails to
// decode or holds another source's answers.
func TestConcurrentResponsesKeepTheirBodies(t *testing.T) {
	s := New(Config{Workers: 4})
	sizes := []int{1, 40, 400, 4000} // the last is ~100 KB of indented JSON
	var req FactsRequest
	for i, n := range sizes {
		for j := 0; j < n; j++ {
			req.E = append(req.E, core.Pair{From: fmt.Sprintf("s%d", i), To: fmt.Sprintf("answer-%d-%05d", i, j)})
		}
	}
	if _, err := s.AppendFacts(req); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(fmt.Sprintf(`{"source": "s%d"}`, i)))
				if err != nil {
					t.Error(err)
					return
				}
				var q QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil || len(q.Answers) != sizes[i] || !strings.HasPrefix(q.Answers[0], fmt.Sprintf("answer-%d-", i)) {
					t.Errorf("s%d: err %v, %d answers, want %d of its own", i, err, len(q.Answers), sizes[i])
					return
				}
			}
		}(w % len(sizes))
	}
	wg.Wait()
}
