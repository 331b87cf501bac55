package bench

import (
	"encoding/json"
	"os"
	"time"
)

// JSONPoint is the machine-readable form of one measured data point, written
// by WriteJSON for downstream plotting and regression tracking.
type JSONPoint struct {
	System    string  `json:"system"`
	X         float64 `json:"x"`
	Goodput   float64 `json:"goodput_tps"`
	AbortRate float64 `json:"abort_rate"`
	P50NS     int64   `json:"p50_ns"`
	P99NS     int64   `json:"p99_ns"`
	P999NS    int64   `json:"p999_ns"`

	PathStats
	FastFraction float64 `json:"fast_fraction"`

	// FsyncsPerTxn is present only for the WAL durability experiment.
	FsyncsPerTxn float64 `json:"fsyncs_per_txn,omitempty"`
}

// Report accumulates the points of each experiment, by name, for a final
// WriteJSON.
type Report map[string][]Point

// Add records the points of one experiment under name. Appending to the same
// name merges.
func (r Report) Add(name string, pts []Point) { r[name] = append(r[name], pts...) }

// WriteJSON writes the accumulated report to path, indented for diffing.
func (r Report) WriteJSON(path string) error {
	out := struct {
		GeneratedAt string                 `json:"generated_at"`
		Experiments map[string][]JSONPoint `json:"experiments"`
	}{time.Now().UTC().Format(time.RFC3339), make(map[string][]JSONPoint, len(r))}
	for name, points := range r {
		pts := make([]JSONPoint, len(points))
		for i, p := range points {
			pts[i] = JSONPoint{
				System:       p.System,
				X:            p.X,
				Goodput:      p.Goodput,
				AbortRate:    p.AbortRate,
				P50NS:        p.P50.Nanoseconds(),
				P99NS:        p.P99.Nanoseconds(),
				P999NS:       p.P999.Nanoseconds(),
				PathStats:    p.Path,
				FastFraction: p.Path.FastFraction(),
				FsyncsPerTxn: p.FsyncsPerTxn,
			}
		}
		out.Experiments[name] = pts
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
