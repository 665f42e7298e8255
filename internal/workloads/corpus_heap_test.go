package workloads_test

import (
	"runtime"
	"testing"

	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/workloads"
)

// TestServeCorpusHeap guards lazy, shared page storage where the serve
// benchmark feels it: every full block of the serve corpus holds the same
// bytes, so building the 16 MB corpus on the serve kernel must cost the
// heap a few blocks, the metadata and the partial last blocks — not one
// private 4 KB buffer per disk page (about 19 MB).
func TestServeCorpusHeap(t *testing.T) {
	const limitMB = 3
	k, err := experiments.BootServe(kernel.CacheSharded)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.ServeCanonicalConfig(experiments.ServeClients, 0)
	trace := workloads.SynthesizeTrace("serve", cfg.Footprint, cfg.Files,
		cfg.Clients*cfg.RequestsPerConn, 1.2, cfg.Seed)
	before := liveHeap()
	corpus, err := workloads.BuildCorpus(k.Ctx(0), k, trace)
	if err != nil {
		t.Fatal(err)
	}
	grew := float64(liveHeap()-before) / (1 << 20)
	runtime.KeepAlive(corpus)
	runtime.KeepAlive(k)
	t.Logf("building the %d MB serve corpus grew the live heap by %.2f MB", experiments.ServeFootprint>>20, grew)
	if grew > limitMB {
		t.Errorf("building the serve corpus grew the live heap by %.2f MB, want at most %d MB", grew, limitMB)
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
