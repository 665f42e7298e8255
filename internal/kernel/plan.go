package kernel

// Boot resolves the whole Config once, into a Plan of plain fields, and
// every subsystem reads the plan from then on.  Nothing re-derives policy
// per call, so the plan is the single answer to "what did this kernel
// boot with?" — and editing Kernel.Cfg after boot changes nothing.

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
)

// Tri is a three-way policy switch.  Auto, the zero value, lets Boot
// decide from the machine and the engine; On and Off override it where
// the engine can honour the override.
type Tri int

const (
	// Auto is the default: the resolution each Config field documents.
	Auto Tri = iota
	// On forces the policy wherever the engine can honour it.
	On
	// Off disables it: the ablation and baseline arms.
	Off
)

// String names the switch for reports.
func (t Tri) String() string {
	switch t {
	case On:
		return "on"
	case Off:
		return "off"
	}
	return "auto"
}

// or resolves the switch: On and Off decide, Auto takes auto.
func (t Tri) or(auto bool) bool {
	switch t {
	case On:
		return true
	case Off:
		return false
	}
	return auto
}

// reservLowWater is the per-socket intact-superpage stock below which
// single-page allocation steers away from protected blocks.
const reservLowWater = 2

// Plan is the configuration as Boot resolved it, fixed for the kernel's
// lifetime.
type Plan struct {
	// Homed places the mapping state per socket.
	Homed bool
	// Daemon runs background reclaim and laundering on idle ticks.
	Daemon bool
	// Batch maps multi-page extents through AllocBatch/FreeBatch, and
	// BatchSend does so on the send paths (sendfile, zero-copy send).
	Batch     bool
	BatchSend bool
	// Runs maps multi-page extents as contiguous runs where no adaptive
	// state applies; Adaptive lets each consumer handle flip between runs
	// and batches from its observed reuse, starting on runs.
	Runs     bool
	Adaptive bool
	// Sockets is the machine's package count, at least 1.
	Sockets int
	// MapCapacity is how many mappings the engine can hold at once: the
	// i386 cache's entries, 0 (unbounded) on the amd64 direct map.
	MapCapacity int
}

// resolvePlan validates cfg and resolves everything that does not need
// the booted engine.  cfg.PhysPages must already carry its default.
func resolvePlan(cfg Config) (Plan, error) {
	ncpu := cfg.Platform.NumCPUs
	switch {
	case ncpu <= 0 || ncpu > smp.MaxCPUs:
		return Plan{}, fmt.Errorf("kernel: platform %q has %d CPUs", cfg.Platform.Name, ncpu)
	case cfg.PhysPages < 0:
		return Plan{}, fmt.Errorf("kernel: PhysPages %d is negative", cfg.PhysPages)
	case cfg.Sockets < 0 || cfg.Sockets > 1 && ncpu%cfg.Sockets != 0:
		return Plan{}, fmt.Errorf("kernel: %d CPUs do not divide into %d sockets", ncpu, cfg.Sockets)
	case cfg.CacheEntries < 0:
		return Plan{}, fmt.Errorf("kernel: CacheEntries %d is negative", cfg.CacheEntries)
	}

	// The sf_buf kernel on a non-figure engine: the paper's global-lock
	// cache and the original kernel keep the seed's paths bit-exact.
	modern := cfg.Mapper == SFBuf && cfg.Cache != CacheGlobal
	p := Plan{Sockets: max(cfg.Sockets, 1)}
	p.Homed = modern && p.Sockets > 1 && cfg.Homing.or(true)
	// Only the sharded i386 cache has clean stock for a daemon to refill.
	p.Daemon = modern && cfg.Platform.Arch == arch.I386 && cfg.Daemon.or(true)

	// The amd64 direct map never evicts: its capacity stays 0.
	if cfg.Platform.Arch != arch.AMD64 {
		p.MapCapacity = cfg.CacheEntries
		if p.MapCapacity == 0 {
			p.MapCapacity = sfbuf.DefaultI386Entries
		}
	}
	return p, nil
}

// readEngine resolves the extent-mapping paths from the booted mapper's
// capabilities, asked once here.  Extents batch wherever the engine's
// vectored calls are a genuine fast path — but never on the original
// kernel's send paths, whose historical sendfile mapped page by page.
// Contig Auto maps runs only on the sf_buf kernel's native contiguous
// windows: the original kernel is every figure's baseline and keeps its
// per-page translation costs.  Runs adapt per consumer only where a
// bounded mapping cache gives the batch path hits to win; on the amd64
// direct map runs and batches are both free.
func (p *Plan) readEngine(cfg Config, m sfbuf.Mapper) {
	sf := cfg.Mapper == SFBuf
	nativeRun := sf && sfbuf.NativeRun(m)
	p.Batch = sfbuf.NativeBatch(m)
	p.BatchSend = sf && p.Batch
	p.Runs = cfg.Contig.or(nativeRun)
	p.Adaptive = cfg.Contig == Auto && nativeRun && p.MapCapacity > 0
}
