package pipe

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/vm"
)

func bootPipeKernel(t *testing.T, mk kernel.MapperKind, plat arch.Platform, contig ...kernel.Tri) *kernel.Kernel {
	t.Helper()
	cfg := kernel.Config{
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    512,
		Backed:       true,
		CacheEntries: 64,
	}
	for _, c := range contig {
		cfg.Contig = c
	}
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func fillPattern(t *testing.T, um *vm.UserMem, seed int64) []byte {
	t.Helper()
	data := make([]byte, um.Len())
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	if err := um.WriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// transferAndCheck pushes the writer's whole buffer through the pipe and
// verifies the reader got identical bytes.
func transferAndCheck(t *testing.T, k *kernel.Kernel, writeSize int) {
	t.Helper()
	p := New(k)
	defer p.Close()
	wctx := k.Ctx(0)
	rctx := k.Ctx(k.M.NumCPUs() - 1)

	um, err := vm.AllocUserMem(k.M.Phys, writeSize)
	if err != nil {
		t.Fatal(err)
	}
	defer um.Release()
	want := fillPattern(t, um, 7)

	got := make([]byte, 0, writeSize)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 8192)
		for len(got) < writeSize {
			n, err := p.Read(rctx, buf)
			if err != nil {
				done <- err
				return
			}
			got = append(got, buf[:n]...)
		}
		done <- nil
	}()
	if err := p.Write(wctx, um, 0, writeSize); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pipe corrupted data (len %d): first diff at %d", writeSize, firstDiff(got, want))
	}
	// All loaned pages must be unwired once the transfer completes.
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d still wired after transfer", i)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestSmallWriteBufferedPath(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMP())
	p := New(k)
	defer p.Close()
	um, _ := vm.AllocUserMem(k.M.Phys, 4096)
	want := fillPattern(t, um, 3)

	if err := p.Write(k.Ctx(0), um, 0, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	n, err := p.Read(k.Ctx(1), got)
	if err != nil || n != 4096 {
		t.Fatalf("read = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffered path corrupted data")
	}
	s := p.Stats()
	if s.BufferWrites == 0 || s.DirectWrites != 0 {
		t.Fatalf("stats = %+v: small write must use the buffered path", s)
	}
	// The buffered path uses no ephemeral mappings at all.
	if k.Map.Stats().Allocs != 0 {
		t.Fatal("buffered path must not create ephemeral mappings")
	}
}

func TestLargeWriteDirectPath(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		k := bootPipeKernel(t, mk, arch.XeonMP())
		transferAndCheck(t, k, 64*1024)
	}
}

func TestDirectPathUsesEphemeralMappings(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMP())
	transferAndCheck(t, k, 64*1024)
	// 64 KB = 16 pages, mapped once each by the reader.
	if got := k.Map.Stats().Allocs; got != 16 {
		t.Fatalf("mapper allocs = %d, want 16", got)
	}
}

func TestDirectPathOnAMD64(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.OpteronMP())
	transferAndCheck(t, k, 64*1024)
	if k.M.Counters().LocalInv.Load() != 0 || k.M.Counters().RemoteInvIssued.Load() != 0 {
		t.Fatal("amd64 sf_buf pipe must not invalidate TLBs")
	}
}

func TestOriginalKernelInvalidatesPerPage(t *testing.T) {
	k := bootPipeKernel(t, kernel.OriginalKernel, arch.XeonMP())
	transferAndCheck(t, k, 64*1024)
	// 16 pages -> 16 global invalidations on free.
	if got := k.M.Counters().LocalInv.Load(); got != 16 {
		t.Fatalf("local invalidations = %d, want 16", got)
	}
	if got := k.M.Counters().RemoteInvIssued.Load(); got != 16 {
		t.Fatalf("remote invalidations = %d, want 16", got)
	}
}

func TestSFBufEliminatesInvalidationsOnReuse(t *testing.T) {
	// Pins the mapping CACHE's reuse property (pure hits, zero
	// invalidations on repeat passes); contiguous runs trade that reuse
	// for ranged translation, so boot the pipe on the cached path.
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMP(), kernel.Off)
	p := New(k)
	defer p.Close()
	wctx, rctx := k.Ctx(0), k.Ctx(1)
	um, _ := vm.AllocUserMem(k.M.Phys, 64*1024)
	defer um.Release()

	// First pass warms the mapping cache; reset counters, then run many
	// more passes over the same user buffer (bw_pipe behaviour).
	runPass := func() {
		done := make(chan struct{})
		go func() {
			buf := make([]byte, 64*1024)
			total := 0
			for total < 64*1024 {
				n, err := p.Read(rctx, buf)
				if err != nil {
					t.Error(err)
					break
				}
				total += n
			}
			close(done)
		}()
		if err := p.Write(wctx, um, 0, 64*1024); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	runPass()
	k.Reset()
	for i := 0; i < 10; i++ {
		runPass()
	}
	if got := k.M.Counters().LocalInv.Load(); got != 0 {
		t.Fatalf("local invalidations = %d, want 0 on cache hits", got)
	}
	if got := k.M.Counters().RemoteInvIssued.Load(); got != 0 {
		t.Fatalf("remote invalidations = %d, want 0 on cache hits", got)
	}
	if hr := k.Map.Stats().HitRate(); hr != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", hr)
	}
}

func TestOddSizesAndOffsets(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMP())
	p := New(k)
	defer p.Close()
	um, _ := vm.AllocUserMem(k.M.Phys, 100*1024)
	want := fillPattern(t, um, 11)

	// Unaligned offset, size spanning partial first and last pages, still
	// >= MinDirect so the direct path runs.
	const off, n = 1234, 40000
	got := make([]byte, 0, n)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 7000)
		for len(got) < n {
			c, err := p.Read(k.Ctx(1), buf)
			if err != nil {
				done <- err
				return
			}
			got = append(got, buf[:c]...)
		}
		done <- nil
	}()
	if err := p.Write(k.Ctx(0), um, off, n); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[off:off+n]) {
		t.Fatal("unaligned direct transfer corrupted data")
	}
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d still wired", i)
		}
	}
}

func TestWriteBounds(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonUP())
	p := New(k)
	defer p.Close()
	um, _ := vm.AllocUserMem(k.M.Phys, 4096)
	if err := p.Write(k.Ctx(0), um, 0, 8192); !errors.Is(err, vm.ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
	if err := p.Write(k.Ctx(0), um, -1, 10); !errors.Is(err, vm.ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

func TestReadOnClosedEmptyPipe(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonUP())
	p := New(k)
	p.Close()
	if _, err := p.Read(k.Ctx(0), make([]byte, 16)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := p.Write(k.Ctx(0), mustUM(t, k, 64*1024), 0, 64*1024); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func mustUM(t *testing.T, k *kernel.Kernel, n int) *vm.UserMem {
	t.Helper()
	um, err := vm.AllocUserMem(k.M.Phys, n)
	if err != nil {
		t.Fatal(err)
	}
	return um
}

func TestCloseUnwiresPendingWindow(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMP())
	p := New(k)
	um := mustUM(t, k, 64*1024)

	done := make(chan error, 1)
	go func() {
		done <- p.Write(k.Ctx(0), um, 0, 64*1024)
	}()
	// Wait for the window to be published, then close without reading.
	for {
		p.mu.Lock()
		pub := p.direct != nil
		p.mu.Unlock()
		if pub {
			break
		}
	}
	p.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("writer err = %v, want ErrClosed", err)
	}
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d leaked a wire on close", i)
		}
	}
}

func TestBackToBackTransfers(t *testing.T) {
	k := bootPipeKernel(t, kernel.SFBuf, arch.XeonMPHTT())
	p := New(k)
	defer p.Close()
	um := mustUM(t, k, 64*1024)
	defer um.Release()
	want := fillPattern(t, um, 5)

	const rounds = 20
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64*1024)
		for r := 0; r < rounds; r++ {
			total := 0
			for total < 64*1024 {
				n, err := p.Read(k.Ctx(1), buf[total:])
				if err != nil {
					done <- err
					return
				}
				total += n
			}
			if !bytes.Equal(buf, want) {
				done <- errors.New("round data mismatch")
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < rounds; r++ {
		if err := p.Write(k.Ctx(0), um, 0, 64*1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDirectWindowLargerThanMappingCache pins the vectored fallback: a
// loaned window spanning more pages than the sharded cache holds buffers
// must be read page by page rather than fail with ErrBatchTooLarge.
func TestDirectWindowLargerThanMappingCache(t *testing.T) {
	k := kernel.MustBoot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		Backed:       true,
		PhysPages:    256,
		CacheEntries: 4, // the 8-page window below cannot batch-map
	})
	um, err := vm.AllocUserMem(k.M.Phys, 8*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 8*vm.PageSize)
	for i := range src {
		src[i] = byte(i * 31)
	}
	if err := um.WriteAt(0, src); err != nil {
		t.Fatal(err)
	}
	p := New(k)
	done := make(chan error, 1)
	go func() { done <- p.Write(k.Ctx(1), um, 0, len(src)) }()
	got := make([]byte, 0, len(src))
	buf := make([]byte, 4096)
	for len(got) < len(src) {
		n, err := p.Read(k.Ctx(0), buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], src[i])
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st.Allocs, st.Frees)
	}
}
