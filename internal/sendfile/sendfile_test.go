package sendfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/netstack"
	"sfbuf/internal/smp"
)

type rig struct {
	k    *kernel.Kernel
	fsys *fs.FS
	st   *netstack.Stack
	ctx  *smp.Context
}

func newRig(t *testing.T, mk kernel.MapperKind, plat arch.Platform, contig ...kernel.Tri) *rig {
	t.Helper()
	cfg := kernel.Config{
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    1024,
		Backed:       true,
		CacheEntries: 128,
	}
	for _, c := range contig {
		cfg.Contig = c
	}
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := memdisk.New(k, 512*fs.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	fsys, err := fs.Mkfs(ctx, k, d, 64)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, fsys: fsys, st: netstack.NewStack(k, netstack.MTUSmall), ctx: ctx}
}

func TestSendFileDeliversFileBytes(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		r := newRig(t, mk, arch.XeonMP())
		want := make([]byte, 3*fs.BlockSize+321)
		rand.New(rand.NewSource(12)).Read(want)
		if err := r.fsys.WriteFile(r.ctx, "index.html", want); err != nil {
			t.Fatal(err)
		}

		c := r.st.NewConn()
		got := make([]byte, 0, len(want))
		done := make(chan error, 1)
		go func() {
			rctx := r.k.Ctx(1)
			buf := make([]byte, 8192)
			for len(got) < len(want) {
				n, err := c.Recv(rctx, buf)
				if err != nil {
					done <- err
					return
				}
				got = append(got, buf[:n]...)
			}
			done <- nil
		}()
		n, err := SendFile(r.ctx, r.k, r.fsys, c, "index.html")
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) {
			t.Fatalf("sent %d, want %d", n, len(want))
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: sendfile corrupted data", mk)
		}
	}
}

func TestSendFileToSinkReleasesEverything(t *testing.T) {
	r := newRig(t, kernel.SFBuf, arch.XeonMPHTT())
	data := make([]byte, 10*fs.BlockSize)
	rand.New(rand.NewSource(13)).Read(data)
	if err := r.fsys.WriteFile(r.ctx, "big.bin", data); err != nil {
		t.Fatal(err)
	}
	c := r.st.NewSinkConn()
	if _, err := SendFile(r.ctx, r.k, r.fsys, c, "big.bin"); err != nil {
		t.Fatal(err)
	}
	c.Close(r.ctx)
	// Every file page must be unwired once acknowledged.
	for pi := 0; pi < 10; pi++ {
		pg, err := r.fsys.FilePage(r.ctx, "big.bin", pi)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Wired() {
			t.Fatalf("file page %d still wired after close", pi)
		}
	}
}

func TestRepeatSendFileHitsMappingCache(t *testing.T) {
	// A web server serving the same (popular) file repeatedly: after the
	// first send, the file's page mappings stay cached; subsequent sends
	// must be pure hits with zero invalidations (the Figure 17/18
	// sf_buf behaviour).
	// Pins the mapping CACHE's reuse property; contiguous runs trade
	// that reuse for ranged translation, so boot sendfile on the cached
	// path.
	r := newRig(t, kernel.SFBuf, arch.XeonMP(), kernel.Off)
	data := make([]byte, 8*fs.BlockSize)
	if err := r.fsys.WriteFile(r.ctx, "hot.html", data); err != nil {
		t.Fatal(err)
	}
	c := r.st.NewSinkConn()
	if _, err := SendFile(r.ctx, r.k, r.fsys, c, "hot.html"); err != nil {
		t.Fatal(err)
	}
	r.k.Reset()
	for i := 0; i < 20; i++ {
		if _, err := SendFile(r.ctx, r.k, r.fsys, c, "hot.html"); err != nil {
			t.Fatal(err)
		}
	}
	if l, rem := r.k.M.Counters().LocalInv.Load(), r.k.M.Counters().RemoteInvIssued.Load(); l != 0 || rem != 0 {
		t.Fatalf("invalidations on repeat sends: local %d remote %d, want 0/0", l, rem)
	}
	c.Close(r.ctx)
}

func TestOriginalKernelSendFilePaysPerPage(t *testing.T) {
	r := newRig(t, kernel.OriginalKernel, arch.XeonMP())
	data := make([]byte, 8*fs.BlockSize)
	if err := r.fsys.WriteFile(r.ctx, "f.bin", data); err != nil {
		t.Fatal(err)
	}
	c := r.st.NewSinkConn()
	c.SetWindow(4096) // tight window: acks (and frees) come per page
	r.k.Reset()
	if _, err := SendFile(r.ctx, r.k, r.fsys, c, "f.bin"); err != nil {
		t.Fatal(err)
	}
	c.Close(r.ctx)
	// Every page's mapping teardown is a global invalidation, plus the
	// filesystem's metadata I/O (inode reads) adds its own.
	if got := r.k.M.Counters().RemoteInvIssued.Load(); got < 8 {
		t.Fatalf("remote invalidations = %d, want >= 8", got)
	}
}

func TestSendFileMissingFile(t *testing.T) {
	r := newRig(t, kernel.SFBuf, arch.XeonUP())
	c := r.st.NewSinkConn()
	if _, err := SendFile(r.ctx, r.k, r.fsys, c, "nope"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSendFileEmptyFile(t *testing.T) {
	r := newRig(t, kernel.SFBuf, arch.XeonUP())
	if err := r.fsys.Create(r.ctx, "empty"); err != nil {
		t.Fatal(err)
	}
	c := r.st.NewSinkConn()
	n, err := SendFile(r.ctx, r.k, r.fsys, c, "empty")
	if err != nil || n != 0 {
		t.Fatalf("sendfile(empty) = (%d, %v)", n, err)
	}
}

// TestSendFileTinyMappingCacheFallsBackPerRun pins the vectored
// fallback: with a cache smaller than VectoredRun, the run's AllocBatch
// fails with ErrBatchTooLarge and the pages must still flow one mapping
// at a time.
func TestSendFileTinyMappingCacheFallsBackPerRun(t *testing.T) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		PhysPages:    1024,
		Backed:       true,
		CacheEntries: 8, // < VectoredRun (16)
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := memdisk.New(k, 512*fs.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	fsys, err := fs.Mkfs(ctx, k, d, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 24*fs.BlockSize+100) // > one VectoredRun of pages
	rand.New(rand.NewSource(77)).Read(want)
	if err := fsys.WriteFile(ctx, "big.bin", want); err != nil {
		t.Fatal(err)
	}
	st := netstack.NewStack(k, netstack.MTUSmall)
	c := st.NewConn()
	got := make([]byte, 0, len(want))
	done := make(chan error, 1)
	go func() {
		n, err := SendFile(k.Ctx(1), k, fsys, c, "big.bin")
		if err == nil && n != int64(len(want)) {
			err = errors.New("short send")
		}
		done <- err
	}()
	buf := make([]byte, 8192)
	for len(got) < len(want) {
		n, err := c.Recv(ctx, buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close(ctx)
	if !bytes.Equal(got, want) {
		t.Fatal("tiny-cache sendfile corrupted data")
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st.Allocs, st.Frees)
	}
}
