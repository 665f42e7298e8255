package workloads

import (
	"fmt"

	"sfbuf/internal/kernel"
	"sfbuf/internal/netstack"
	"sfbuf/internal/vm"
)

// NetperfConfig parameterizes the netperf experiment (Section 6.5.1):
// "examines the throughput achieved between a netperf client and server on
// the same machine.  TCP socket send and receive buffer sizes are set to
// 64 KB ... Sockets are configured to use zero copy send."
type NetperfConfig struct {
	// MTU is 1500 (small) or 16K (large) in the paper.
	MTU int
	// SendSize per send call; 64 KB, matching the socket buffers.
	SendSize int
	// TotalBytes to move.
	TotalBytes int64
	// SenderCPU and ReceiverCPU pin the two processes.
	SenderCPU, ReceiverCPU int
	// ChecksumOffload mirrors the NIC configuration.
	ChecksumOffload bool
}

// DefaultNetperf returns the paper's parameters for the given MTU.
func DefaultNetperf(k *kernel.Kernel, mtu int) NetperfConfig {
	return NetperfConfig{
		MTU:         mtu,
		SendSize:    64 << 10,
		TotalBytes:  64 << 20,
		SenderCPU:   0,
		ReceiverCPU: k.M.NumCPUs() - 1,
	}
}

// Netperf moves TotalBytes through a loopback connection with zero-copy
// sends and returns the bytes received.  Sender and receiver run in lock
// step on one goroutine: each send is received in full before the next
// one is issued, so the replay is deterministic.
func Netperf(k *kernel.Kernel, cfg NetperfConfig) (int64, error) {
	if cfg.MTU <= netstack.HeaderSize || cfg.SendSize <= 0 || cfg.TotalBytes <= 0 {
		return 0, fmt.Errorf("workloads: invalid netperf config %+v", cfg)
	}
	st := netstack.NewStack(k, cfg.MTU)
	st.ChecksumOffload = cfg.ChecksumOffload
	c := st.NewConn()

	sctx := k.Ctx(cfg.SenderCPU)
	rctx := k.Ctx(cfg.ReceiverCPU)

	um, err := vm.AllocUserMem(k.M.Phys, cfg.SendSize)
	if err != nil {
		return 0, err
	}
	defer um.Release()

	sends := int(cfg.TotalBytes / int64(cfg.SendSize))
	buf := make([]byte, 64<<10)
	var moved int64
	for i := 0; i < sends; i++ {
		if err := c.SendZeroCopy(sctx, um, 0, cfg.SendSize); err != nil {
			return moved, err
		}
		for got := 0; got < cfg.SendSize; {
			n, err := c.Recv(rctx, buf)
			if err != nil {
				return moved, err
			}
			got += n
			moved += int64(n)
		}
	}
	c.Close(sctx)
	return moved, nil
}
