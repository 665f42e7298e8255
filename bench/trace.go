package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"sfbuf/internal/smp"
)

// spanName indexes the fixed table of "layer.call" names the driver
// wraps.  The layer is the package whose public function the call enters.
type spanName uint8

const (
	spKernelBoot spanName = iota
	spVMAllocN
	spSfbufAlloc
	spSfbufFree
	spSfbufAllocRun
	spSfbufFreeRun
	spSfbufAllocBatch
	spSfbufFreeBatch
	spPmapTranslate
	spPmapTranslateRun
	spKernelUseRuns
	spWorkloadsSynthTrace
	spWorkloadsBuildCorpus
	spVnetRun
	spNetstackEnqueue
	spNetstackHandleAck
	spNetstackHandleData
	spNetstackAbort
	spPipeBWPipe
	spMemdiskDDFit
	spMemdiskDDExceed
	spFsPostmark
	spNetstackNetperf
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"kernel.boot", "vm.allocn",
	"sfbuf.alloc", "sfbuf.free", "sfbuf.allocrun", "sfbuf.freerun",
	"sfbuf.allocbatch", "sfbuf.freebatch",
	"pmap.translate", "pmap.translaterun", "kernel.useruns",
	"workloads.synth_trace", "workloads.build_corpus",
	"vnet.run", "netstack.enqueue", "netstack.handle_ack",
	"netstack.handle_data", "netstack.abort",
	"pipe.bwpipe", "memdisk.dd_fit", "memdisk.dd_exceed",
	"fs.postmark", "netstack.netperf",
}

// span is one call the driver made into a layer.
type span struct {
	name   spanName
	parent int32 // index of the enclosing span, -1 at the top level
	req    int32 // request id: the op index, or the connection on serve
	units  int32 // pages (PostMark: transactions) the call covered
	t0, t1 int64 // host ns since the tracer's epoch
	c0, c1 int64 // Machine.TotalCycles() at start and end
}

// tracer keeps spans in a buffer allocated before the run, so recording
// one allocates nothing.  A nil tracer records nothing: begin and end
// inline to a nil check, which is all the untraced loops pay.
type tracer struct {
	epoch   time.Time
	m       *smp.Machine // the machine whose clock stamps c0/c1
	spans   []span
	cur     int32
	dropped int // spans that did not fit the buffer (a failed check)
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (t *tracer) begin(n spanName, req, units int) int32 {
	if t == nil {
		return -1
	}
	return t.push(n, int32(req), int32(units))
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.pop(i)
	}
}

// setMachine points the cycle stamps at m's clock.
func (t *tracer) setMachine(m *smp.Machine) {
	if t != nil {
		t.m = m
	}
}

func (t *tracer) cyc() int64 {
	if t.m == nil {
		return 0
	}
	return int64(t.m.TotalCycles())
}

// push stamps the host clock last and pop stamps it first, so the cycle
// reads fall outside the timed interval.
func (t *tracer) push(n spanName, req, units int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: t.cur, req: req, units: units, c0: t.cyc()})
	t.cur = i
	t.spans[i].t0 = int64(time.Since(t.epoch))
	return i
}

func (t *tracer) pop(i int32) {
	s := &t.spans[i]
	s.t1 = int64(time.Since(t.epoch))
	s.c1 = t.cyc()
	t.cur = s.parent
}

// spanAgg summarises every span of one name.
type spanAgg struct {
	calls   int
	units   int64
	ns      int64     // summed duration
	selfNs  int64     // duration minus the part direct children cover
	cyc     int64     // summed simulated cycles charged during the calls
	selfCyc int64     // cycles minus the part direct children cover
	perU    []float64 // each call's host ns per unit
}

// nsPerUnit is the median over calls of host ns per unit.
func (a *spanAgg) nsPerUnit() float64 { return median(a.perU) }

// cycPerUnit is the mean simulated cycles per unit.
func (a *spanAgg) cycPerUnit() float64 { return float64(a.cyc) / float64(a.units) }

// aggregate folds the spans by name.  topCyc is the cycle total of the
// measured-phase spans that no other span encloses: what the parts-sum
// invariant compares against the machines' own TotalCycles deltas.
func (t *tracer) aggregate() (agg [numSpanNames]spanAgg, topCyc int64) {
	childNs := make([]int64, len(t.spans))
	childCyc := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent >= 0 {
			childNs[s.parent] += s.t1 - s.t0
			childCyc[s.parent] += s.c1 - s.c0
		} else if !setupSpan(s.name) {
			topCyc += s.c1 - s.c0
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		a := &agg[s.name]
		d := s.t1 - s.t0
		a.calls++
		a.units += int64(s.units)
		a.ns += d
		a.selfNs += d - childNs[i]
		a.cyc += s.c1 - s.c0
		a.selfCyc += s.c1 - s.c0 - childCyc[i]
		a.perU = append(a.perU, float64(d)/float64(s.units))
	}
	return agg, topCyc
}

// writeChrome writes the spans in Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).  ts and dur are microseconds; parent,
// request id and the simulated-cycle stamps ride in args.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q},"traceEvents":[`, workload)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			w.WriteByte(',')
		}
		name := spanNames[s.name]
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,`+
			`"args":{"id":%d,"parent":%d,"req":%d,"units":%d,"cyc0":%d,"cyc1":%d}}`,
			name, name[:strings.IndexByte(name, '.')], float64(s.t0)/1e3, float64(s.t1-s.t0)/1e3,
			i, s.parent, s.req, s.units, s.c0, s.c1)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle value (mean of the middle two), 0 when empty.
// It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
