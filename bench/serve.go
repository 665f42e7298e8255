package main

import (
	"fmt"
	"sort"

	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/netstack"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
	"sfbuf/internal/workloads"
)

// The defaults workloads.RunServe fills into a ServeConfig.  The
// benchmark assembles the run itself (to split set-up from the event loop
// and to wrap the link-delivery callbacks), so it states them; the drift
// guard in bench_test.go holds the two assemblies to identical results.
const (
	serveZipfS      = 1.2
	serveDelayMin   = 1000
	serveDelayMax   = 5000
	serveSlowBuf    = 8 * 1024
	serveSlowDrain  = 2 * 1024
	serveFastBuf    = netstack.DefaultWindow
	serveFastDrain  = 32 * 1024
	serveDrainEvery = 20_000
	serveMaxEvents  = 50_000_000
	serveUserPages  = 64
)

// runServe is the canonical serving run: lossy connections through vnet,
// netstack.VServer and kernel.SendWindow into sfbuf run windows, adaptive
// window policy, backed pages.  Connection arrivals follow an open,
// staggered schedule in simulated time; each connection is a closed loop.
// It starts cold: the slow-start ramp is part of what a user pays.
func runServe(e *env) (*rep, error) {
	r, _, err := serve(e)
	return r, err
}

// serve also returns the outcome in workloads.RunServe's own form (the
// fields the drift guard compares), so the two assemblies can be held
// together.
func serve(e *env) (*rep, *workloads.ServeResult, error) {
	r := newRep()
	tr := e.tr
	k, err := boot(tr, func() (*kernel.Kernel, error) { return experiments.BootServe(kernel.CacheSharded) })
	if err != nil {
		return nil, nil, err
	}
	cfg := experiments.ServeCanonicalConfig(e.scale(experiments.ServeClients), 0)
	cfg.Seed = int64(e.seed)
	requests := cfg.Clients * cfg.RequestsPerConn
	ctx0 := k.Ctx(0)

	s := tr.begin(spWorkloadsSynthTrace, 0, 1)
	trace := workloads.SynthesizeTrace("serve", cfg.Footprint, cfg.Files, requests, serveZipfS, cfg.Seed)
	tr.end(s)
	s = tr.begin(spWorkloadsBuildCorpus, 0, 1)
	corpus, err := workloads.BuildCorpus(ctx0, k, trace)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	um, err := vm.AllocUserMem(k.M.Phys, serveUserPages*vm.PageSize)
	if err != nil {
		return nil, nil, fmt.Errorf("serve user memory: %w", err)
	}
	filePages := make([][]*vm.Page, len(trace.FileSizes))
	for doc, size := range trace.FileSizes {
		pgs := make([]*vm.Page, (size+vm.PageSize-1)/vm.PageSize)
		for pi := range pgs {
			if pgs[pi], err = corpus.FS.FilePage(ctx0, corpus.Names[doc], pi); err != nil {
				return nil, nil, fmt.Errorf("resolving %q page %d: %w", corpus.Names[doc], pi, err)
			}
		}
		filePages[doc] = pgs
	}

	net := vnet.New(uint64(cfg.Seed))
	srv := netstack.NewVServer(netstack.NewStack(k, netstack.MTUSmall), net)
	lat := make([]int64, 0, requests)
	churned := make(map[*netstack.VConn]bool)
	liveDone := 0
	srv.OnComplete = func(c *netstack.VConn, rq *netstack.VRequest) {
		lat = append(lat, rq.MapLatency())
		if !churned[c] {
			liveDone++
		}
	}

	behave := vnet.NewRand(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1)
	cons := k.Consumer("vserve")
	ncpu := k.M.NumCPUs()
	conns := make([]*netstack.VConn, cfg.Clients)
	clients := make([]*netstack.VClient, cfg.Clients)
	windows := make([]*kernel.SendWindow, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		slow := behave.Float64() < cfg.SlowFrac
		churn := behave.Float64() < cfg.ChurnFrac
		bufCap, drain := serveFastBuf, serveFastDrain
		if slow {
			bufCap, drain = serveSlowBuf, serveSlowDrain
		}
		var conn *netstack.VConn
		var client *netstack.VClient
		s2c := net.NewLink(serveDelayMin, serveDelayMax, func(p vnet.Packet) {
			s := tr.begin(spNetstackHandleData, i, 1)
			client.HandleData(p)
			tr.end(s)
		})
		s2c.LossPct, s2c.ReorderPct = cfg.LossPct, cfg.ReorderPct
		c2s := net.NewLink(serveDelayMin, serveDelayMax, func(p vnet.Packet) {
			s := tr.begin(spNetstackHandleAck, i, 1)
			conn.HandleAck(p)
			tr.end(s)
		})
		c2s.LossPct, c2s.ReorderPct = cfg.LossPct, cfg.ReorderPct
		sw := cons.SendWindow().StartPages(kernel.MinSendWindowPages)
		conn = srv.NewVConn(i, k.Ctx(i%ncpu), s2c, sw)
		client = netstack.NewVClient(net, i, c2s, bufCap, drain, serveDrainEvery)
		conns[i], clients[i], windows[i] = conn, client, sw

		reqs := make([]*netstack.VRequest, 0, cfg.RequestsPerConn)
		for q := 0; q < cfg.RequestsPerConn; q++ {
			doc := trace.Requests[i*cfg.RequestsPerConn+q]
			size := int64(trace.FileSizes[doc])
			if behave.Float64() < cfg.ZeroCopyFrac {
				need := int((size + vm.PageSize - 1) / vm.PageSize)
				if need > serveUserPages {
					need = serveUserPages
					size = serveUserPages * vm.PageSize
				}
				off := behave.Intn(serveUserPages-need+1) * vm.PageSize
				reqs = append(reqs, &netstack.VRequest{Size: size,
					PageAt: func(_ *smp.Context, pi int) (*vm.Page, error) {
						pg, _, err := um.PageAt(off + pi*vm.PageSize)
						return pg, err
					}})
			} else {
				pgs := filePages[doc]
				reqs = append(reqs, &netstack.VRequest{Size: size,
					PageAt: func(_ *smp.Context, pi int) (*vm.Page, error) { return pgs[pi], nil }})
			}
		}
		at := int64(i) * cfg.StaggerCycles
		net.After(at, func() {
			for _, rq := range reqs {
				s := tr.begin(spNetstackEnqueue, i, 1)
				conn.Enqueue(rq)
				tr.end(s)
			}
		})
		if churn {
			churned[conn] = true
			net.After(at+50_000+behave.Int63n(1_000_000), func() {
				s := tr.begin(spNetstackAbort, i, 1)
				conn.Abort()
				client.Close()
				tr.end(s)
			})
		}
	}

	var before probe
	if tr != nil {
		before = takeProbe(k)
	}
	ph := r.beginPhase(k)
	root := tr.begin(spVnetRun, -1, 1)
	net.RunLimit(serveMaxEvents)
	tr.end(root)
	out := &workloads.ServeResult{Requests: requests, Completed: len(lat), AbortedConns: len(churned), TraceHash: net.TraceHash()}
	for _, cl := range clients {
		out.BytesReceived += cl.Stats().BytesRecved
	}
	ph.end(out.BytesReceived/vm.PageSize, true)
	out.Walks, out.Rounds = r.ctr.PTWalks, r.ctr.RemoteInvIssued

	if n := net.Pending(); n != 0 {
		r.fail("did not quiesce within %d events (%d pending)", serveMaxEvents, n)
	}
	for i, c := range conns {
		if err := c.Err(); err != nil {
			r.fail("conn %d: %v", i, err)
		}
	}
	// Every request of a connection that was not aborted must complete.
	if want := (cfg.Clients - len(churned)) * cfg.RequestsPerConn; liveDone != want {
		r.failN(int64(want-liveDone), "%d of %d requests on live connections did not complete", want-liveDone, want)
	}
	r.ops = int64(requests)
	r.hash = out.TraceHash
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	out.Latencies = lat
	out.P50, out.P99 = percentile(lat, 0.50), percentile(lat, 0.99)
	if e.sample {
		r.opCyc = lat
	}
	r.note = append(r.note, fmt.Sprintf("%d connections (%d aborted), %d of %d requests completed, %.1f MB received, trace hash %#x",
		cfg.Clients, len(churned), len(lat), requests, float64(out.BytesReceived)/(1<<20), out.TraceHash))
	if tr != nil {
		r.count(k, before)
		c := r.counts
		ss, ns := srv.Stats(), net.Stats()
		c["stalls"], c["fallbacks"], c["retransmits"] = float64(ss.Stalls), float64(ss.Fallbacks), float64(ss.Retransmits)
		c["requests"], c["conns"] = float64(requests), float64(cfg.Clients)
		c["events"], c["sent"], c["dropped"] = float64(ns.Events), float64(ns.Sent), float64(ns.Dropped)
		for _, sw := range windows {
			st := sw.Stats()
			c["sw_pages"] += float64(st.WindowPages)
			c["sw_resizes"] += float64(st.Resizes)
		}
		pol := cons.PolicyStats()
		c["run_dec"], c["batch_dec"] = float64(pol.RunDecisions), float64(pol.BatchDecisions)
	}
	r.drained(k)
	r.live(k)
	return r, out, nil
}
