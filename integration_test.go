package sfbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/netstack"
	"sfbuf/internal/pipe"
	"sfbuf/internal/proc"
	"sfbuf/internal/sendfile"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
)

// TestKernelWideIntegration boots one kernel and runs every converted
// subsystem concurrently against the SAME mapping cache — the situation
// the sf_buf interface was designed for (Section 5: one shared cache
// instead of per-subsystem virtual-address management).  Each worker
// verifies its own data integrity; the test then checks that the mapping
// cache drained cleanly and nothing leaked a page wire.
func TestKernelWideIntegration(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		for _, plat := range []Platform{XeonMPHTT(), OpteronMP()} {
			t.Run(fmt.Sprintf("%s/%v", plat.Name, mk), func(t *testing.T) {
				runIntegration(t, plat, mk)
			})
		}
	}
}

func runIntegration(t *testing.T, plat Platform, mk kernel.MapperKind) {
	k := MustBoot(Config{
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    4096,
		Backed:       true,
		CacheEntries: 96,
	})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Worker 1: pipe writer/reader pair moving patterned data.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := pipe.New(k)
		defer p.Close()
		wctx := k.Ctx(0)
		rctx := k.Ctx(k.M.NumCPUs() - 1)
		um, err := vm.AllocUserMem(k.M.Phys, 64*1024)
		if err != nil {
			fail("pipe: %v", err)
			return
		}
		defer um.Release()
		want := make([]byte, 64*1024)
		rand.New(rand.NewSource(1)).Read(want)
		um.WriteAt(0, want)

		inner := make(chan error, 1)
		go func() {
			buf := make([]byte, 16*1024)
			for round := 0; round < 5; round++ {
				got := make([]byte, 0, len(want))
				for len(got) < len(want) {
					n, err := p.Read(rctx, buf)
					if err != nil {
						inner <- err
						return
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, want) {
					inner <- fmt.Errorf("pipe round %d corrupted", round)
					return
				}
			}
			inner <- nil
		}()
		for round := 0; round < 5; round++ {
			if err := p.Write(wctx, um, 0, len(want)); err != nil {
				fail("pipe write: %v", err)
				return
			}
		}
		if err := <-inner; err != nil {
			fail("pipe read: %v", err)
		}
	}()

	// Worker 2: filesystem churn + sendfile over a sink connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := k.Ctx(1 % k.M.NumCPUs())
		d, err := memdisk.New(k, 4<<20)
		if err != nil {
			fail("memdisk: %v", err)
			return
		}
		fsys, err := fs.Mkfs(ctx, k, d, 64)
		if err != nil {
			fail("mkfs: %v", err)
			return
		}
		st := netstack.NewStack(k, netstack.MTUSmall)
		conn := st.NewSinkConn()
		defer conn.Close(ctx)
		data := make([]byte, 3*fs.BlockSize+77)
		rand.New(rand.NewSource(2)).Read(data)
		for round := 0; round < 10; round++ {
			name := fmt.Sprintf("doc%d.html", round%3)
			if err := fsys.WriteFile(ctx, name, data); err != nil {
				fail("writefile: %v", err)
				return
			}
			n, err := sendfile.SendFile(ctx, k, fsys, conn, name)
			if err != nil {
				fail("sendfile: %v", err)
				return
			}
			if n != int64(len(data)) {
				fail("sendfile sent %d of %d", n, len(data))
				return
			}
		}
		if err := fsys.Fsck(ctx); err != nil {
			fail("fsck: %v", err)
		}
	}()

	// Worker 3: a debugger ptracing a process.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := k.Ctx(2 % k.M.NumCPUs())
		tracee, err := proc.NewProcess(k, 7, 8)
		if err != nil {
			fail("process: %v", err)
			return
		}
		defer tracee.Release()
		want := make([]byte, 3*4096)
		rand.New(rand.NewSource(3)).Read(want)
		for round := 0; round < 10; round++ {
			if err := tracee.PtracePoke(ctx, 999, want); err != nil {
				fail("poke: %v", err)
				return
			}
			got := make([]byte, len(want))
			if err := tracee.PtracePeek(ctx, 999, got); err != nil {
				fail("peek: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				fail("ptrace corrupted round %d", round)
				return
			}
		}
	}()

	// Worker 4: loopback zero-copy socket traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		st := netstack.NewStack(k, netstack.MTUSmall)
		conn := st.NewConn()
		sctx := k.Ctx(0)
		rctx := k.Ctx(3 % k.M.NumCPUs())
		um, err := vm.AllocUserMem(k.M.Phys, 32*1024)
		if err != nil {
			fail("net usermem: %v", err)
			return
		}
		defer um.Release()
		want := make([]byte, 32*1024)
		rand.New(rand.NewSource(4)).Read(want)
		um.WriteAt(0, want)

		inner := make(chan error, 1)
		go func() {
			got := make([]byte, 0, 3*len(want))
			buf := make([]byte, 8192)
			for len(got) < 3*len(want) {
				n, err := conn.Recv(rctx, buf)
				if err != nil {
					inner <- err
					return
				}
				got = append(got, buf[:n]...)
			}
			for i := 0; i < 3; i++ {
				if !bytes.Equal(got[i*len(want):(i+1)*len(want)], want) {
					inner <- fmt.Errorf("net chunk %d corrupted", i)
					return
				}
			}
			inner <- nil
		}()
		for i := 0; i < 3; i++ {
			if err := conn.SendZeroCopy(sctx, um, 0, len(want)); err != nil {
				fail("send: %v", err)
				return
			}
		}
		if err := <-inner; err != nil {
			fail("recv: %v", err)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Nothing may remain referenced: the i386 cache's inactive list must
	// be whole again.
	if i386, ok := k.Map.(*sfbuf.I386); ok {
		if got := i386.InactiveLen(); got != 96 {
			t.Errorf("inactive list = %d entries, want 96: leaked references", got)
		}
	}
	s := k.Map.Stats()
	if s.Allocs != s.Frees {
		t.Errorf("mapper allocs %d != frees %d", s.Allocs, s.Frees)
	}
}
