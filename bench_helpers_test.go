package meerkat_test

import (
	"time"

	"meerkat"
)

// newBenchCluster builds a small cluster for the ablation benchmarks.
func newBenchCluster(disableFastPath bool) (*meerkat.DB, error) {
	return meerkat.Open(meerkat.Config{
		Cores:           2,
		DisableFastPath: disableFastPath,
	})
}

// newSkewedCluster builds a cluster whose clients get skewed clocks.
func newSkewedCluster(skew time.Duration) (*meerkat.DB, error) {
	return meerkat.Open(meerkat.Config{
		Cores:     2,
		ClockSkew: skew,
	})
}
