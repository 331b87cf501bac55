package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteJSONKeepsFsyncs: the WAL experiment's headline number reaches the
// -json report, and points without it carry no such field.
func TestWriteJSONKeepsFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	rep := Report{}
	rep.Add("wal", []Point{{System: "mem", Goodput: 1000}, {System: "wal-batch", Goodput: 900, FsyncsPerTxn: 0.0625}})
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Experiments map[string][]map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	wal := got.Experiments["wal"]
	if len(wal) != 2 {
		t.Fatalf("wal points = %d, want 2:\n%s", len(wal), data)
	}
	if _, ok := wal[0]["fsyncs_per_txn"]; ok {
		t.Errorf("in-memory row carries fsyncs_per_txn:\n%s", data)
	}
	if v, ok := wal[1]["fsyncs_per_txn"].(float64); !ok || v != 0.0625 {
		t.Errorf("wal-batch fsyncs_per_txn = %v (present %v), want 0.0625:\n%s", v, ok, data)
	}
}
