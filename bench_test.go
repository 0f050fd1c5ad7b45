package dcdht

// The paper's tables and figures regenerate through cmd/dcdht-bench
// (`go run ./cmd/dcdht-bench -figure N`); scripts/check_bench.sh runs
// them in CI. This file measures the harness itself.

import (
	"context"
	"testing"
	"time"
)

// BenchmarkRetrieveOpSimulated measures the harness itself: wall-clock
// cost of one simulated UMS retrieve (network of 256 peers, |Hr|=10).
func BenchmarkRetrieveOpSimulated(b *testing.B) {
	n := NewSimNetwork(256, SimConfig{Seed: 9})
	defer n.Close()
	if _, err := n.Put(context.Background(), "bench", []byte("payload")); err != nil {
		b.Fatal(err)
	}
	var simElapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := n.Get(context.Background(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		simElapsed += r.Elapsed
	}
	b.ReportMetric(simElapsed.Seconds()/float64(b.N), "simsec/op")
}
