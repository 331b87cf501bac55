package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

func TestPrometheusEndpoint(t *testing.T) {
	r := NewRegistry()
	s := r.NewShard()
	s.Add(TxnCommitFast, 12)
	s.Inc(TxnAbortValidation)
	s.Observe(HistCommit, 2*time.Millisecond)
	s.Inc(TxnCommitMultiShard)
	s.Observe(HistValidateRound, time.Millisecond)
	s.Observe(HistReadRound, time.Millisecond)
	r.RegisterGauge("vstore_keys", func() uint64 { return 99 })

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	body := scrape(t, srv, "/metrics")
	for _, want := range []string{
		"meerkat_txn_commit_fast_total 12",
		"meerkat_txn_abort_validation_total 1",
		"meerkat_vstore_keys 99",
		"meerkat_commit_latency_seconds_count 1",
		"meerkat_txn_commit_multi_shard_total 1",
		"meerkat_validate_round_latency_seconds_count 1",
		"meerkat_read_round_latency_seconds_count 1",
		`meerkat_commit_latency_seconds{quantile="0.5"}`,
		"# TYPE meerkat_txn_commit_fast_total counter",
		"# TYPE meerkat_vstore_keys gauge",
		"# TYPE meerkat_commit_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestExpvarEndpoint(t *testing.T) {
	r := NewRegistry()
	r.NewShard().Add(TxnCommitSlow, 4)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	body := scrape(t, srv, "/debug/vars")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	// The standard expvar vars and our snapshot must both be present.
	if _, ok := doc["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
	raw, ok := doc["meerkat"]
	if !ok {
		t.Fatal("/debug/vars missing meerkat object")
	}
	var m struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("meerkat object: %v", err)
	}
	if m.Counters["txn_commit_slow"] != 4 {
		t.Fatalf("txn_commit_slow = %d, want 4", m.Counters["txn_commit_slow"])
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	if body := scrape(t, srv, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", body)
	}
}

func TestServe(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "meerkat_txn_commit_fast_total") {
		t.Fatalf("served metrics unexpected:\n%s", body)
	}
}
