package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkCoordinatorSweep is one coord-sweep op in-process: a 20-cell
// spec (5 seeds × 4 cache fractions, tiny resnet18) submitted to a
// coordinator over two single-worker servers, timed to the coordinator
// job's Done. Profile the dispatch path with
//
//	go test -run '^$' -bench CoordinatorSweep -cpuprofile cpu.pprof ./internal/server
func BenchmarkCoordinatorSweep(b *testing.B) {
	var urls []string
	for range 2 {
		srv, err := New(Config{Workers: 1, MaxRecords: 16})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
	}
	coord, err := New(Config{Workers: 1, MaxRecords: 16, WorkerURLs: urls})
	if err != nil {
		b.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	b.Cleanup(func() {
		cts.Close()
		coord.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := 5 * i
		body := fmt.Sprintf(`{"spec": {"name": "bench-coord", "row_header": ["seed"],
			"base": {"model": "resnet18", "scale": 0.001, "epochs": 1},
			"rows": {"param": "seed", "values": [%d, %d, %d, %d, %d]},
			"sweep": {"param": "cache_fraction", "values": [0.25, 0.5, 0.75, 1]},
			"columns": [{"label": "s", "metric": "epoch_s", "of": "0.25"}]}}`,
			seed+1, seed+2, seed+3, seed+4, seed+5)
		resp, err := http.Post(cts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var acc struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: HTTP %d (%v)", resp.StatusCode, err)
		}
		j := coord.store.get(acc.ID)
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			b.Fatalf("sweep %d still %s after a minute", i, j.StatusNow())
		}
		if st := j.StatusNow(); st != StatusCompleted {
			b.Fatalf("sweep %d ended %s (%s)", i, st, j.view(true).Error)
		}
	}
}
